"""Metrics, the outer-CV evaluation protocol, and report generation.

The protocol: per seed, material-level k-fold splits; per fold, grid
search on the training portion (inner k-fold), refit the winning
configuration on the whole training fold, evaluate on the held-out fold.
Metrics are computed in each channel's reporting space, i.e. original
units after undoing standardization, except that log-transformed channels
(drop height h50) are reported in log units. Aggregation is mean and
sample standard deviation over the k x n_seeds fold values.

The protocol is a list of fits: plan gives one Fit per seed, outer fold
and unit, with its rows and derived seeds; run_protocol fits every one
that has test rows with one fit_all call, then predicts their held-out
rows with pipeline.predict_rows and records the metrics, in plan order.
Every family goes through the same steps: fit_all plans each fit to its
refit job (_refit_job, both families) or, for a forest grid of several
cells, its forest_selection jobs, the network families selecting by
select_cell. It then calls one engine per phase: forest.fit_forests grows
every selection forest, dataset.cv_select picks each forest fit's cell,
a second forest.fit_forests call grows every forest refit, and one
mtnn.train_many call trains every network refit, grouping them itself.
fit_all refits a one-cell grid without inner CV, since selection could
only return that cell; tune always runs select_cell, because its score
table is its output.

Grids is everything a grid file sets (the network grid, the forest grid
and the base training settings), passed as one value from the file to
the fit; Grids.load is the one reader of the grid-file format.
"""

from __future__ import annotations

import itertools
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from emprops import dataset as ds
from emprops import descriptors, forest as rf, mtnn, pipeline
from emprops.errors import ConstantTargets, InvalidConfig, LengthMismatch, ToolkitError
from emprops.mtnn import GridSpec, MTNetConfig, TrainConfig
from emprops.rng import derive_seed

DEFAULT_SEEDS = (1, 2, 3)
DEFAULT_FOLDS = 5


def rmse(pred, actual) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if pred.shape != actual.shape or pred.size == 0:
        raise LengthMismatch(f"rmse needs equal non-empty lengths, got {pred.shape} vs {actual.shape}")
    residual = pred - actual
    return math.sqrt(float(residual @ residual) / pred.size)


def r2(pred, actual) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if pred.shape != actual.shape or pred.size == 0:
        raise LengthMismatch(f"r2 needs equal non-empty lengths, got {pred.shape} vs {actual.shape}")
    sst = float(np.sum((actual - actual.mean()) ** 2))
    if sst == 0.0:
        raise ConstantTargets("r2 is undefined for constant actuals")
    sse = float(np.sum((pred - actual) ** 2))
    return 1.0 - sse / sst


@dataclass
class ChannelMetrics:
    """Fold-level metric values for one channel; NaN marks folds where the
    metric was undefined (no test records, or constant actuals for R^2)."""

    rmse_values: list[float] = field(default_factory=list)
    r2_values: list[float] = field(default_factory=list)

    def _summary(self, values: list[float]) -> tuple[float, float, int]:
        finite = [v for v in values if not math.isnan(v)]
        if not finite:
            return math.nan, math.nan, 0
        mean = sum(finite) / len(finite)
        if len(finite) < 2:
            return mean, 0.0, len(finite)
        var = sum((v - mean) ** 2 for v in finite) / (len(finite) - 1)
        return mean, math.sqrt(var), len(finite)

    @property
    def rmse_mean_std(self) -> tuple[float, float, int]:
        return self._summary(self.rmse_values)

    @property
    def r2_mean_std(self) -> tuple[float, float, int]:
        return self._summary(self.r2_values)


@dataclass
class ProtocolReport:
    model_id: str
    channels: dict[str, ChannelMetrics] = field(default_factory=dict)

    def metrics_for(self, channel_key: str) -> ChannelMetrics:
        return self.channels.setdefault(channel_key, ChannelMetrics())


# ---------------------------------------------------------------------------
# Hyperparameter grids and the grid file
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ForestGridSpec:
    n_trees: tuple[int, ...] = (100,)
    max_depth: tuple[int, ...] = (12,)
    min_samples_leaf: tuple[int, ...] = (1, 3)
    max_features: tuple = (None,)  # None resolves to ceil(d / 3)

    def cells(self) -> list[dict]:
        return [
            {
                "n_trees": t,
                "max_depth": d,
                "min_samples_leaf": leaf,
                "max_features": mf,
            }
            for t, d, leaf, mf in itertools.product(
                self.n_trees, self.max_depth, self.min_samples_leaf, self.max_features
            )
        ]


@dataclass(frozen=True)
class Grids:
    """The network grid, the forest grid and the base training settings of
    every network cell. Building one checks every axis value once, by the
    rule of the config that takes it, so a bad value or an empty axis fails
    when the grid file is loaded, naming its section and key, rather than
    after the data are featurized or in the middle of a fit."""

    mtnn: GridSpec = GridSpec()
    forest: ForestGridSpec = ForestGridSpec()
    train: TrainConfig = TrainConfig()

    def __post_init__(self) -> None:
        network_checks = {"hidden_sizes": MTNetConfig.check, "l2_penalty": MTNetConfig.check,
                          "selector_layer_index": self._check_selector,
                          "learning_rate": TrainConfig.check, "batch_size": TrainConfig.check}
        for section, spec in (("mtnn", self.mtnn), ("forest", self.forest)):
            for axis in fields(spec):  # hidden_sizes first: the selector check reads it
                check = rf.ForestConfig.check if section == "forest" else network_checks[axis.name]
                with _naming(f"{section}.{axis.name}"):
                    if not getattr(spec, axis.name):
                        raise InvalidConfig("empty grid axis")
                    for value in getattr(spec, axis.name):
                        check(axis.name, value)

    def _check_selector(self, _, sel) -> None:
        """A token, or an integer that fits some hidden_sizes entry (the one
        rule across axes; a value that fits only some entries pairs with those)."""
        if sel in ("last", "second_to_last"):
            return
        if not isinstance(sel, int) or isinstance(sel, bool):
            raise InvalidConfig(f"{sel!r} is neither an integer nor 'last' or 'second_to_last'")
        if not any(1 <= sel <= len(hidden) for hidden in self.mtnn.hidden_sizes):
            raise InvalidConfig(f"{sel} is beyond the depth of every hidden_sizes entry")

    @classmethod
    def load(cls, path: str | None) -> "Grids":
        """The grids a grid JSON file sets, every section and key optional;
        the defaults without a file. A file that is not JSON or holds an
        unknown section or key or a bad value is InvalidConfig naming it."""
        if not path:
            return cls()
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
            if not isinstance(data, dict):
                raise InvalidConfig("the top level must be a JSON object")
            unknown = sorted(set(data) - {"mtnn", "forest", "train"})
            if unknown:
                raise InvalidConfig(f"unknown grid sections: {unknown}")
            network = _grid_axes(data, "mtnn", GridSpec)
            if "hidden_sizes" in network:  # a non-list entry is left to MTNetConfig.check
                network["hidden_sizes"] = tuple(tuple(h) if isinstance(h, list) else h
                                                for h in network["hidden_sizes"])
            forest = _grid_axes(data, "forest", ForestGridSpec)
            # learning_rate and batch_size are grid axes, and each fit derives its seed
            train = _grid_section(data, "train", ["max_epochs", "patience"])
            for key, value in train.items():
                with _naming(f"train.{key}"):
                    TrainConfig.check(key, value)
            with _naming("train.patience"):  # the one rule across settings
                base = TrainConfig(**train)
            return cls(GridSpec(**network), ForestGridSpec(**forest), base)
        except (ValueError, TypeError, RecursionError, InvalidConfig) as exc:  # bad JSON or value
            raise InvalidConfig(f"grid file {path}: {exc}") from exc

    def cells(self, family: str, design: ds.DesignMatrix) -> list[dict]:
        """The cells select_cell chooses among for the family on the design."""
        if family == "st-rf":
            return self.forest.cells()
        return mtnn.design_cells(self.mtnn, design)


@contextmanager
def _naming(key: str):
    """Prefix an InvalidConfig raised inside with the grid key, section.key."""
    try:
        yield
    except InvalidConfig as exc:
        raise InvalidConfig(f"{key}: {exc}") from exc


def _grid_section(data: dict, name: str, known: list[str]) -> dict:
    """One section of a grid file: a JSON object with known keys only."""
    section = data.get(name, {})
    if not isinstance(section, dict):
        raise InvalidConfig(f"the {name} section must be a JSON object, not {section!r}")
    unknown = sorted(set(section) - set(known))
    if unknown:
        raise InvalidConfig(f"unknown {name} settings {unknown}; known are {known}")
    return section


def _grid_axes(data: dict, name: str, spec) -> dict:
    """The axes of a grid section, each a JSON list, as tuples."""
    axes = _grid_section(data, name, [axis.name for axis in fields(spec)])
    for key, values in axes.items():
        if not isinstance(values, list):
            raise InvalidConfig(f"{name}.{key}: a grid axis is a JSON list, not {values!r}")
    return {key: tuple(values) for key, values in axes.items()}


# ---------------------------------------------------------------------------
# The protocol: select, refit, predict
# ---------------------------------------------------------------------------

MODEL_FAMILIES = ("st-rf", "st-nn", "mt-nn")


def model_identifier(family: str, subset_id: int) -> str:
    if family == "st-rf":
        return "ST-RF"
    if family == "st-nn":
        return "ST-NN"
    return "MT-NN-all" if subset_id == 6 else f"MT-NN-sub{subset_id}"


@dataclass(frozen=True)
class Fit:
    """One model fit: the family, the unit design the model sees, its
    training and held-out rows, the selection seed (the refit takes
    derive_seed(seed, 3)) and a network's batch-order seed."""

    family: str
    unit: ds.DesignMatrix
    train_rows: np.ndarray
    test_rows: np.ndarray
    seed: int
    train_seed: int


def plan(family: str, design: ds.DesignMatrix, seeds, k: int) -> list[Fit]:
    """One Fit per seed, outer fold and unit, in that order; the one place
    that derives the protocol's seeds. A unit is the whole design for
    mt-nn and one channel's records for st-rf and st-nn. A unit without
    training rows in a fold gets no test rows either, so it records NaN."""
    if family not in MODEL_FAMILIES:
        raise InvalidConfig(f"unknown model family {family!r}")
    units = [design] if family == "mt-nn" else [
        single_channel_design(design, pos) for pos in range(len(design.registry))]
    fits = []
    for seed in seeds:
        folds = ds.kfold_by_material(design.material_ids, k, seed)
        for fold in range(k):
            train_mats, test_mats = folds.train_test(fold)
            fold_seed = derive_seed(seed, fold)
            for pos, unit in enumerate(units):
                unit_seed = fold_seed if family == "mt-nn" else derive_seed(fold_seed, pos + 17)
                train_rows = unit.rows_for(train_mats)
                test_rows = unit.rows_for(test_mats) & np.any(train_rows)
                fits.append(Fit(family, unit, train_rows, test_rows, unit_seed,
                                derive_seed(derive_seed(unit_seed, 3), 11)))
    return fits


def run_protocol(family: str, schema: descriptors.FeatureSchema, design: ds.DesignMatrix,
                 subset_id: int, seeds=DEFAULT_SEEDS, k: int = DEFAULT_FOLDS,
                 grids: Grids = Grids(), inner_k: int = 5) -> ProtocolReport:
    """Full evaluation protocol for one model family on the schema and
    design ds.build_design gives for subset_id: fit_all selects and refits
    every fit of the plan that has test rows on its training rows, and
    predict_rows predicts its held-out rows, recorded in plan order. A fit
    without test rows records NaN."""
    report = ProtocolReport(model_id=model_identifier(family, subset_id))
    fits = plan(family, design, seeds, k)
    bundles = iter(fit_all([fit for fit in fits if np.any(fit.test_rows)], schema, grids,
                           inner_k))
    for fit in fits:
        unit, test_rows = fit.unit, fit.test_rows
        pred = np.empty(0)
        if np.any(test_rows):
            pred = pipeline.predict_rows(next(bundles), unit.features[test_rows],
                                         unit.channel_idx[test_rows])
        _record_channel_metrics(report, unit.registry, pred, unit.targets[test_rows],
                                unit.channel_idx[test_rows])
    return report


def single_channel_design(design: ds.DesignMatrix, channel_pos: int) -> ds.DesignMatrix:
    single = _restrict(design, design.channel_idx == channel_pos)
    return replace(single, channel_idx=np.zeros_like(single.channel_idx),
                   registry=ds.PropertyRegistry(channels=(design.registry.channels[channel_pos],)))


def select_cell(family: str, design: ds.DesignMatrix, grids: Grids, inner_k: int,
                seed: int) -> ds.GridResult:
    """Inner-CV selection of the family's best cell on the design: the one
    place that chooses between the forest and the network grid search."""
    if family == "st-rf":
        return forest_grid_search(grids.forest, design, inner_k=inner_k, seed=seed)
    return mtnn.grid_search(grids.mtnn, design, grids.train, inner_k=inner_k, seed=seed)


def fit_all(fits: list[Fit], schema: descriptors.FeatureSchema, grids: Grids,
            inner_k: int) -> list[pipeline.ModelBundle]:
    """One model per fit, in order: select a cell by inner CV on the fit's
    training rows and refit it on all of them, seeded by
    derive_seed(fit.seed, 3); a network's batch order is seeded by
    fit.train_seed. A one-cell grid skips inner CV and refits its cell,
    which selection would return whatever the scores; inner_k must still
    be at least 2. Every command fits its models through here.

    Each fit is planned in order to its refit job or, for a forest grid of
    several cells, its forest_selection jobs; planning stops at the first
    fit that fails. Then one engine call per phase: rf.fit_forests grows
    every selection forest, whose scores pick each fit's cell by
    ds.cv_select, a second rf.fit_forests call grows every forest refit,
    and one mtnn.train_many call trains every network refit. The first
    fit in order whose planning or refit fails raises its error, so a
    failure reads as it would in a run that fits one fit at a time.
    """
    outcomes: list = []  # per fit: its selection jobs, refit job, bundle or error
    for fit in fits:
        try:
            ds.check_fold_count(inner_k)
            cells = grids.cells(fit.family, fit.unit)
            if fit.family == "st-rf" and len(cells) > 1:
                outcomes.append(forest_selection(grids.forest, fit.unit,
                                                 np.flatnonzero(fit.train_rows), inner_k,
                                                 fit.seed))
                continue
            if len(cells) > 1:
                cells = [select_cell(fit.family, _restrict(fit.unit, fit.train_rows), grids,
                                     inner_k, fit.seed).best_cell]
            outcomes.append(_refit_job(fit, cells[0], grids))
        except ToolkitError as exc:
            outcomes.append(exc)
            break

    def indices(kind) -> list[int]:
        return [index for index, outcome in enumerate(outcomes) if isinstance(outcome, kind)]

    selecting = indices(list)
    grown = rf.fit_forests([job for index in selecting for job in outcomes[index]])
    for index in selecting:
        fit, train = fits[index], _restrict(fits[index].unit, fits[index].train_rows)
        score = _forest_score([next(grown) for _ in outcomes[index]], train, inner_k)
        cell = ds.cv_select(grids.forest.cells(), train, inner_k, fit.seed, score).best_cell
        outcomes[index] = _refit_job(fit, cell, grids)  # cannot fail: it holds every job's rows
    forests = indices(rf.ForestJob)
    for index, model in zip(forests, rf.fit_forests([outcomes[index] for index in forests])):
        outcomes[index] = pipeline.ModelBundle(kind="forest", registry=fits[index].unit.registry,
                                               schema=schema, forest=model)
    networks = indices(tuple)
    for index, result in zip(networks, mtnn.train_many([outcomes[i][1] for i in networks])):
        outcomes[index] = result if isinstance(result, ToolkitError) else pipeline.ModelBundle(
            kind="mtnn", registry=fits[index].unit.registry, schema=schema, net=result.net,
            standardizer=outcomes[index][0])
    for outcome in outcomes:
        if isinstance(outcome, ToolkitError):
            raise outcome
    return outcomes


def _refit_job(fit: Fit, cell: dict, grids: Grids):
    """The checked job of the fit's refit of the cell on its training rows,
    seeded derive_seed(fit.seed, 3): a forest job, or a network's
    standardizer and train job (mtnn.network_job)."""
    if fit.family == "st-rf":
        return rf.forest_job(fit.unit.features, fit.unit.targets,
                             rf.ForestConfig(seed=derive_seed(fit.seed, 3), **cell),
                             np.flatnonzero(fit.train_rows))
    return mtnn.network_job(fit.unit, fit.train_rows, cell, grids.train,
                            derive_seed(fit.seed, 3), fit.train_seed)


def _record_channel_metrics(report: ProtocolReport, registry: ds.PropertyRegistry,
                            pred: np.ndarray, actual: np.ndarray,
                            channel_idx: np.ndarray) -> None:
    for pos, channel in enumerate(registry):
        metrics = report.metrics_for(channel.key)
        mask = channel_idx == pos
        if not np.any(mask):
            metrics.rmse_values.append(math.nan)
            metrics.r2_values.append(math.nan)
            continue
        metrics.rmse_values.append(rmse(pred[mask], actual[mask]))
        try:
            metrics.r2_values.append(r2(pred[mask], actual[mask]))
        except (ConstantTargets, LengthMismatch):
            metrics.r2_values.append(math.nan)


def _restrict(design: ds.DesignMatrix, rows: np.ndarray) -> ds.DesignMatrix:
    return ds.DesignMatrix(
        features=design.features[rows],
        channel_idx=design.channel_idx[rows],
        targets=design.targets[rows],
        material_ids=[m for m, keep in zip(design.material_ids, rows) if keep],
        registry=design.registry,
    )


def forest_selection(grid: ForestGridSpec, design: ds.DesignMatrix, rows: np.ndarray,
                     inner_k: int, seed: int) -> list[rf.ForestJob]:
    """The checked selection forest jobs of inner CV on the given rows of
    the design: one per cell and inner fold, in cv_select's order, on the
    fold's training rows of the design's arrays (referenced, not copied),
    seeded derive_seed(seed, cell_index + 1)."""
    folds = ds.inner_folds([design.material_ids[row] for row in rows], inner_k, seed)
    return [rf.forest_job(design.features, design.targets,
                          rf.ForestConfig(seed=derive_seed(seed, cell_index + 1), **cell),
                          rows[train_rows])
            for cell_index, cell in enumerate(grid.cells()) for train_rows, _ in folds]


def forest_grid_search(grid: ForestGridSpec, design: ds.DesignMatrix, inner_k: int = 5,
                       seed: int = 0) -> ds.GridResult:
    """Grid search for the forest through ds.cv_select, scored by inner-CV
    RMSE in transformed target units (trees are scale-free, so no
    standardization), on forest_selection's forests over every row."""
    forests = list(rf.fit_forests(forest_selection(grid, design, np.arange(len(design.targets)),
                                                   inner_k, seed)))
    return ds.cv_select(grid.cells(), design, inner_k, seed,
                        _forest_score(forests, design, inner_k))


def _forest_score(forests: list[rf.RandomForest], design: ds.DesignMatrix, inner_k: int):
    """cv_select's score of forest selection on the design: the validation
    RMSE of the grown forest_selection forest of each cell and inner fold."""
    def score(cell_index: int, fold: int, train_rows: np.ndarray,
              val_rows: np.ndarray) -> float:
        return rmse(rf.predict_forest(forests[cell_index * inner_k + fold],
                                      design.features[val_rows]), design.targets[val_rows])

    return score


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def format_mean_std(mean: float, std: float) -> str:
    """Three-decimal mean ± std cells, e.g. 0.238 ± 0.010."""
    if math.isnan(mean):
        return "n/a"
    return f"{mean:.3f} ± {std:.3f}"


def _fmt(value: float) -> str:
    return "nan" if math.isnan(value) else f"{value:.12g}"


LOG_H50_KEY = "impact_h50:exp"


def report_table(reports: list[ProtocolReport]) -> dict[str, str]:
    """Comparison artifacts: a long-form CSV, a Markdown comparison table per
    channel, grouped-bar data, and percent-improvement
    lines of the multi-task model over the best single-task model; plus
    the experimental log(h50) table when some report has that channel.
    Every artifact is written from one summary per (channel, report)."""
    if not reports:
        raise InvalidConfig("report_table needs at least one report")

    summaries: dict[str, list] = {}  # channel -> [(model_id, rmse, r2)], first-seen order
    for report in reports:
        for key, metrics in report.channels.items():
            summaries.setdefault(key, []).append(
                (report.model_id, metrics.rmse_mean_std, metrics.r2_mean_std))

    csv_lines = ["model,channel,mean_rmse,std_rmse,mean_r2,std_r2,n_rmse,n_r2"]
    bar_lines = ["channel,model,mean_rmse,std_rmse"]
    md_lines = ["# Model comparison", ""]
    for key, rows in summaries.items():
        for model_id, (rmse_mean, rmse_std, n_rmse), (r2_mean, r2_std, n_r2) in rows:
            csv_lines.append(
                f"{model_id},{key},{_fmt(rmse_mean)},{_fmt(rmse_std)},"
                f"{_fmt(r2_mean)},{_fmt(r2_std)},{n_rmse},{n_r2}"
            )
            bar_lines.append(f"{key},{model_id},{_fmt(rmse_mean)},{_fmt(rmse_std)}")
        md_lines += _model_table(f"## {key}", rows) + [""]

    improvement_lines = ["channel,best_st_model,best_st_rmse,best_mt_model,mt_rmse,percent_reduction"]
    for key, rows in summaries.items():
        scored = [(model_id, rmse[0]) for model_id, rmse, _ in rows if not math.isnan(rmse[0])]
        single = [row for row in scored if row[0].startswith("ST-")]
        multi = [row for row in scored if not row[0].startswith("ST-")]
        if single and multi:
            best_st = min(single, key=lambda row: row[1])  # the first of equal RMSEs
            best_mt = min(multi, key=lambda row: row[1])
            reduction = (best_st[1] - best_mt[1]) / best_st[1] * 100.0
            improvement_lines.append(
                f"{key},{best_st[0]},{_fmt(best_st[1])},{best_mt[0]},"
                f"{_fmt(best_mt[1])},{_fmt(reduction)}"
            )
            md_lines.append(
                f"- {key}: {best_mt[0]} changes RMSE by {reduction:.1f}% "
                f"versus {best_st[0]}"
            )

    artifacts = {
        "report.csv": "\n".join(csv_lines) + "\n",
        "report.md": "\n".join(md_lines) + "\n",
        "bars.csv": "\n".join(bar_lines) + "\n",
        "improvement.csv": "\n".join(improvement_lines) + "\n",
    }
    if LOG_H50_KEY in summaries:
        artifacts["table2_log_h50.md"] = _log_h50_table(summaries[LOG_H50_KEY])
    return artifacts


def _log_h50_table(rows: list) -> str:
    """The (model_id, rmse, r2) summaries of experimental log(h50), ranked
    by test RMSE, NaN last."""
    ranked = sorted(rows, key=lambda row: (math.inf if math.isnan(row[1][0]) else row[1][0],
                                           row[0]))
    return "\n".join(_model_table("# Predictive accuracy on experimental log(h50)",
                                  ranked)) + "\n"


def _model_table(heading: str, rows: list) -> list[str]:
    """The lines of a Markdown table of (model_id, rmse, r2) summaries
    under its heading, one row per model."""
    return [heading, "", "| Model | Test RMSE | Test R² |", "| --- | --- | --- |"] + [
        f"| {model_id} | {format_mean_std(*rmse_summary[:2])} "
        f"| {format_mean_std(*r2_summary[:2])} |" for model_id, rmse_summary, r2_summary in rows]


def correlation_tables(labels: list[str], r_matrix: np.ndarray,
                       overlap: np.ndarray) -> dict[str, str]:
    """CSV matrix pair: Pearson r values and shared-material counts."""
    def matrix_csv(matrix, fmt) -> str:
        lines = ["channel," + ",".join(labels)]
        for i, label in enumerate(labels):
            lines.append(label + "," + ",".join(fmt(matrix[i, j]) for j in range(len(labels))))
        return "\n".join(lines) + "\n"

    return {
        "pearson_r.csv": matrix_csv(r_matrix, _fmt),
        "pearson_overlap.csv": matrix_csv(overlap, lambda v: str(int(v))),
    }
