"""Which emprops functions the traced run wraps, and the per-layer metrics.

Layers are named by module. Every wrapper is installed for one traced
iteration and removed afterwards, so untraced iterations run the program
unmodified.
"""

from __future__ import annotations

import os
import statistics

from spans import Patch, Tracer, wrap

# Module-level functions: (module, attribute, span name).
FUNCTIONS = (
    ("emprops.molgraph.parser", "parse_smiles", "molgraph.parse"),
    ("emprops.molgraph.rings", "sssr_rings", "molgraph.rings"),
    ("emprops.molgraph.match", "match_pattern", "molgraph.match"),
    ("emprops.descriptors", "featurize", "descriptors.featurize"),
    ("emprops.descriptors", "fit_schema", "descriptors.fit_schema"),
    ("emprops.dataset", "load_records", "dataset.load_records"),
    ("emprops.dataset", "assemble", "dataset.assemble"),
    ("emprops.mtnn", "init_network", "mtnn.init"),
    ("emprops.mtnn", "train", "mtnn.train"),
    ("emprops.mtnn", "gradients", "mtnn.gradients"),
    ("emprops.mtnn", "forward", "mtnn.forward"),
    ("emprops.mtnn", "grid_search", "evaluation.grid_search"),
    ("emprops.forest", "fit_forest", "forest.fit"),
    ("emprops.forest", "fit_tree", "forest.fit_tree"),
    ("emprops.forest", "best_split", "forest.best_split"),
    ("emprops.forest", "predict_forest", "forest.predict"),
    ("emprops.evaluation", "run_protocol", "evaluation.run_protocol"),
    ("emprops.evaluation", "forest_grid_search", "evaluation.grid_search"),
    ("emprops.evaluation", "report_table", "evaluation.report"),
    ("emprops.pipeline", "save_model", "pipeline.save"),
    ("emprops.pipeline", "load_model", "pipeline.load"),
    ("emprops.pipeline", "predict_matrix", "pipeline.predict_matrix"),
)

# Methods: (module, class, attribute, span name).
METHODS = (
    ("emprops.rng", "SplitMix64", "next_u64", "rng.next_u64"),
    ("emprops.rng", "SplitMix64", "next_below", "rng.next_below"),
    ("emprops.rng", "SplitMix64", "shuffle", "rng.shuffle"),
    ("emprops.rng", "SplitMix64", "sample_indices", "rng.sample_indices"),
    ("emprops.dataset", "Standardizer", "fit", "dataset.standardizer"),
    ("emprops.dataset", "Standardizer", "apply_features", "dataset.standardizer"),
    ("emprops.dataset", "Standardizer", "apply_targets", "dataset.standardizer"),
    ("emprops.dataset", "Standardizer", "invert_targets", "dataset.standardizer"),
)

# (metric, unit) in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("molgraph.parse.calls", "count"),
    ("molgraph.parse.self_s", "s"),
    ("molgraph.parse.rejected", "count"),
    ("molgraph.rings.self_s", "s"),
    ("molgraph.match.calls", "count"),
    ("molgraph.match.self_s", "s"),
    ("descriptors.featurize.calls", "count"),
    ("descriptors.featurize.self_s", "s"),
    ("descriptors.fit_schema.self_s", "s"),
    ("dataset.load_records.s", "s"),
    ("dataset.assemble.s", "s"),
    ("dataset.standardizer.calls", "count"),
    ("dataset.standardizer.self_s", "s"),
    ("rng.draws", "count"),
    ("rng.self_s", "s"),
    ("mtnn.train.calls", "count"),
    ("mtnn.steps", "count"),
    ("mtnn.epochs", "count"),
    ("mtnn.best_epoch_ratio", "ratio"),
    ("mtnn.gradients.self_s", "s"),
    ("mtnn.train.self_s", "s"),
    ("mtnn.init.self_s", "s"),
    ("mtnn.forward.calls", "count"),
    ("mtnn.forward.self_s", "s"),
    ("forest.fit.calls", "count"),
    ("forest.trees", "count"),
    ("forest.nodes", "count"),
    ("forest.empty_children", "count"),
    ("forest.best_split.calls", "count"),
    ("forest.best_split.self_s", "s"),
    ("forest.fit_tree.self_s", "s"),
    ("forest.predict.rows", "count"),
    ("forest.predict.self_s", "s"),
    ("evaluation.selection_fits", "count"),
    ("evaluation.refits", "count"),
    ("evaluation.decisive_fit_ratio", "ratio"),
    ("evaluation.grid_search.self_s", "s"),
    ("evaluation.report.s", "s"),
    ("pipeline.save.s", "s"),
    ("pipeline.load.s", "s"),
    ("pipeline.model_bytes", "bytes"),
    ("pipeline.predict_matrix.self_s", "s"),
    ("trace.remainder_s", "s"),
    ("trace.hook_s", "s"),
    ("trace.overhead_s", "s"),
    ("quality.test_rmse_rel", "ratio"),
)

# Exact, deterministic counts from the tracer (quality comes from the checks).
COUNT_METRICS = tuple(name for name, unit in PER_LAYER
                      if unit in ("count", "bytes", "ratio") and not name.startswith("quality."))


class Instrumentation:
    """Installs the wrappers for one traced iteration."""

    def __init__(self, tracer: Tracer, modules: dict) -> None:
        self.tracer = tracer
        self.modules = modules
        self.patch = Patch()
        self.grid_cells: list[int] = []

    def install(self) -> None:
        tracer = self.tracer
        errors = self.modules["emprops.errors"]
        after = {
            "mtnn.train": self._after_train,
            "forest.fit": self._after_fit_forest,
            "forest.best_split": self._after_best_split,
            "forest.predict": self._after_predict,
            "pipeline.save": self._after_save,
        }
        for module_name, attr, span in FUNCTIONS:
            original = getattr(self.modules[module_name], attr)
            wrapped = wrap(tracer, span, original, after.get(span),
                           error_types=(errors.ToolkitError,))
            if attr == "grid_search" or attr == "forest_grid_search":
                wrapped = self._grid_scope(wrapped, attr)
            self.patch.everywhere(original, wrapped)
        for module_name, cls_name, attr, span in METHODS:
            cls = getattr(self.modules[module_name], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self.patch.set(cls, attr, classmethod(wrap(tracer, span, raw.__func__)))
            else:
                self.patch.set(cls, attr, wrap(tracer, span, raw))

    def remove(self) -> None:
        self.patch.restore()

    # -- bookkeeping hooks (run as trace.hook spans) --------------------------

    def _grid_scope(self, wrapped, attr):
        tracer = self.tracer

        def cells(args, kwargs):
            grid, design = args[0], args[1]
            if attr == "grid_search":
                n = len(design.registry)
                self.grid_cells.append(len(grid.cells(n if n > 1 else 0)))
            else:
                self.grid_cells.append(len(grid.cells()))

        def scoped(*args, **kwargs):
            tracer.hook(cells, args, kwargs)
            try:
                return wrapped(*args, **kwargs)
            finally:
                self.grid_cells.pop()

        return scoped

    def _fit(self) -> None:
        if self.grid_cells:
            self.tracer.count("evaluation.selection_fits")
            if self.grid_cells[-1] > 1:
                self.tracer.count("evaluation.decisive_fits")
        else:
            self.tracer.count("evaluation.refits")
            self.tracer.count("evaluation.decisive_fits")

    def _after_train(self, args, kwargs, result) -> None:
        self._fit()
        self.tracer.count("mtnn.epochs", len(result.history))
        self.tracer.count("mtnn.best_epochs", result.best_epoch)

    def _after_fit_forest(self, args, kwargs, result) -> None:
        self._fit()

    def _after_best_split(self, args, kwargs, result) -> None:
        if result is None:
            return
        self.tracer.count("forest.splits")
        x = args[0]
        feature, threshold, _ = result
        goes_left = x[:, feature] <= threshold
        if goes_left.all() or not goes_left.any():
            self.tracer.count("forest.empty_children")

    def _after_predict(self, args, kwargs, result) -> None:
        x = args[1]
        self.tracer.count("forest.predict.rows", 1 if getattr(x, "ndim", 1) == 1 else x.shape[0])

    def _after_save(self, args, kwargs, result) -> None:
        self.tracer.count("pipeline.model_bytes", os.path.getsize(args[0]))


def iteration_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values of one traced iteration (overhead is added later)."""
    stats = tracer.stats
    counters = tracer.counters

    def calls(name):
        return stats[name].calls if name in stats else 0

    def self_s(*names):
        return sum(stats[n].self_time for n in names if n in stats)

    def busy(name):
        return stats[name].busy if name in stats else 0.0

    epochs = counters.get("mtnn.epochs", 0)
    fits = counters.get("evaluation.selection_fits", 0) + counters.get("evaluation.refits", 0)
    trees = calls("forest.fit_tree")
    return {
        "molgraph.parse.calls": calls("molgraph.parse"),
        "molgraph.parse.self_s": self_s("molgraph.parse"),
        "molgraph.parse.rejected": stats["molgraph.parse"].raised if "molgraph.parse" in stats else 0,
        "molgraph.rings.self_s": self_s("molgraph.rings"),
        "molgraph.match.calls": calls("molgraph.match"),
        "molgraph.match.self_s": self_s("molgraph.match"),
        "descriptors.featurize.calls": calls("descriptors.featurize"),
        "descriptors.featurize.self_s": self_s("descriptors.featurize"),
        "descriptors.fit_schema.self_s": self_s("descriptors.fit_schema"),
        "dataset.load_records.s": busy("dataset.load_records"),
        "dataset.assemble.s": busy("dataset.assemble"),
        "dataset.standardizer.calls": calls("dataset.standardizer"),
        "dataset.standardizer.self_s": self_s("dataset.standardizer"),
        "rng.draws": calls("rng.next_u64"),
        "rng.self_s": self_s("rng.next_u64", "rng.next_below", "rng.shuffle",
                             "rng.sample_indices"),
        "mtnn.train.calls": calls("mtnn.train"),
        "mtnn.steps": calls("mtnn.gradients"),
        "mtnn.epochs": epochs,
        "mtnn.best_epoch_ratio": counters.get("mtnn.best_epochs", 0) / epochs if epochs else 0.0,
        "mtnn.gradients.self_s": self_s("mtnn.gradients"),
        "mtnn.train.self_s": self_s("mtnn.train"),
        "mtnn.init.self_s": self_s("mtnn.init"),
        "mtnn.forward.calls": calls("mtnn.forward"),
        "mtnn.forward.self_s": self_s("mtnn.forward"),
        "forest.fit.calls": calls("forest.fit"),
        "forest.trees": trees,
        "forest.nodes": trees + 2 * counters.get("forest.splits", 0),
        "forest.empty_children": counters.get("forest.empty_children", 0),
        "forest.best_split.calls": calls("forest.best_split"),
        "forest.best_split.self_s": self_s("forest.best_split"),
        "forest.fit_tree.self_s": self_s("forest.fit_tree"),
        "forest.predict.rows": counters.get("forest.predict.rows", 0),
        "forest.predict.self_s": self_s("forest.predict"),
        "evaluation.selection_fits": counters.get("evaluation.selection_fits", 0),
        "evaluation.refits": counters.get("evaluation.refits", 0),
        "evaluation.decisive_fit_ratio":
            counters.get("evaluation.decisive_fits", 0) / fits if fits else 0.0,
        "evaluation.grid_search.self_s": self_s("evaluation.grid_search"),
        "evaluation.report.s": busy("evaluation.report"),
        "pipeline.save.s": busy("pipeline.save"),
        "pipeline.load.s": busy("pipeline.load"),
        "pipeline.model_bytes": counters.get("pipeline.model_bytes", 0),
        "pipeline.predict_matrix.self_s": self_s("pipeline.predict_matrix"),
        "trace.remainder_s": sum(s.self_time for n, s in stats.items()
                                 if n.startswith("phase.") or n == "iteration"),
        "trace.hook_s": busy("trace.hook"),
    }


def _is_layer(name: str) -> bool:
    return name != "iteration" and not name.startswith(("phase.", "trace."))


def self_time_by_layer(tracer: Tracer) -> dict[str, dict[str, float]]:
    """{"iteration": {layer: self s}, "phase <p>": {...}}, largest first."""
    groups: dict[str, dict[str, float]] = {"iteration": {}}
    for (phase, name), value in tracer.phase_self.items():
        if not _is_layer(name):
            continue
        for group in ("iteration", f"phase {phase}" if phase else None):
            if group is None:
                continue
            layers = groups.setdefault(group, {})
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + value
    return {group: dict(sorted(layers.items(), key=lambda item: -item[1]))
            for group, layers in groups.items()}


def combine(per_iteration: list[dict], overhead_s: float,
            quality: float) -> tuple[dict, list[str]]:
    """Counts from the first traced iteration (every one must agree); times
    as the median over traced iterations. Returns (metrics, disagreements)."""
    first = per_iteration[0]
    disagreements = []
    for other in per_iteration[1:]:
        for name in COUNT_METRICS:
            if name in first and other[name] != first[name]:
                disagreements.append(f"{name}: {first[name]} vs {other[name]}")
    metrics = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_s":
            metrics[name] = overhead_s
        elif name == "quality.test_rmse_rel":
            metrics[name] = quality
        elif name in COUNT_METRICS:
            metrics[name] = first[name]
        else:
            metrics[name] = statistics.median(it[name] for it in per_iteration)
    return metrics, disagreements
