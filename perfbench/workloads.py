"""What one iteration of each workload runs, and how its outputs are checked.

Workloads drive emprops from outside: ``cli.main`` for the user-facing
commands, ``pipeline.load_model``/``predict_matrix`` for screening. Each
workload has
  * ``run_once`` - the timed operation,
  * ``inspect`` - untimed checks, the artifacts to digest, and the
    deterministic quality figure ``test_rmse_rel``.
Set-up (``generate`` then ``warm_up``) is the same for every workload.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import gen

N_MATERIALS = 120
N_LIBRARY = 250
FOLDS = 3
INNER_FOLDS = 3
SCREEN_CHANNEL = "det_velocity:calc"  # the ST-RF channel and the ranking key

GRIDS = {
    # Two cells, so inner CV decides the winner.
    "forest": {"forest": {"n_trees": [2], "max_depth": [8], "min_samples_leaf": [1, 3],
                          "max_features": [None]}},
    # One cell with early stopping, so every inner-CV fit is wasted work.
    "network": {"mtnn": {"hidden_sizes": [[16]], "selector_layer_index": ["last"],
                         "learning_rate": [0.01], "batch_size": [32], "l2_penalty": [0.0]},
                "train": {"max_epochs": 40, "patience": 20}},
}

PROTOCOL_ARTIFACTS = ("report.csv", "report.md", "bars.csv", "improvement.csv")


@dataclass
class Context:
    seed: int
    work: Path
    modules: dict
    inputs: gen.Inputs | None = None
    paths: dict = field(default_factory=dict)
    channel_std: dict = field(default_factory=dict)
    library: list = field(default_factory=list)
    tracer: object = None  # set during a traced iteration

    def phase(self, name: str):
        """Mark a phase of the iteration in the trace; a no-op when untraced."""
        return self.tracer.phase(name) if self.tracer else contextlib.nullcontext()

    @property
    def cli(self):
        return self.modules["emprops.cli"]

    @property
    def pipeline(self):
        return self.modules["emprops.pipeline"]

    @property
    def errors(self):
        return self.modules["emprops.errors"]


@dataclass
class Outcome:
    artifacts: dict[str, bytes]
    attempted: int
    failures: list[str]
    quality: float
    notes: dict = field(default_factory=dict)


def generate(ctx: Context) -> None:
    """Write the seed's inputs and the grid files into the work directory."""
    inputs = gen.make_inputs(ctx.seed, N_MATERIALS, N_LIBRARY)
    ctx.inputs = inputs
    ctx.paths = gen.write_inputs(inputs, ctx.work / "inputs")
    for name, grid in GRIDS.items():
        path = ctx.work / "inputs" / f"grid_{name}.json"
        path.write_text(json.dumps(grid, sort_keys=True) + "\n", encoding="utf-8")
        ctx.paths[f"grid_{name}"] = path
    ctx.channel_std = _channel_std(inputs.dataset_csv)
    ctx.library = [tuple(line.split(",", 1)) for line in inputs.library_csv.splitlines()[1:]]


def _transformed(prop: str, value: float) -> float:
    return math.log10(value) if prop == "impact_h50" else value


def _channel_std(dataset_csv: str) -> dict[str, float]:
    values: dict[str, list[float]] = {}
    for row in csv.DictReader(io.StringIO(dataset_csv)):
        key = f"{row['property']}:{row['fidelity']}"
        values.setdefault(key, []).append(_transformed(row["property"], float(row["value"])))
    return {key: statistics.pstdev(vals) for key, vals in values.items()}


def warm_up(ctx: Context) -> None:
    """Load and parse the dataset once."""
    ds = ctx.modules["emprops.dataset"]
    ds.load_records(ctx.paths["dataset"], ds.default_registry())


def call_cli(ctx: Context, args: list[str]) -> tuple[int, str]:
    """Run one command; its stdout is discarded, its stderr returned."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = ctx.cli.main([str(a) for a in args])
    return code, err.getvalue()


def _read_artifacts(out: Path, names, failures: list[str]) -> dict[str, bytes]:
    artifacts = {}
    for name in names:
        path = out / name
        if path.is_file():
            artifacts[name] = path.read_bytes()
        else:
            failures.append(f"missing artifact {name}")
    return artifacts


# ---------------------------------------------------------------------------
# Protocol workloads: one `evaluate` command per iteration
# ---------------------------------------------------------------------------

@dataclass
class Protocol:
    """One `evaluate` command per model family; families are timed apart."""

    name: str
    families: tuple[str, ...]
    subset: str
    grid: str

    def run_once(self, ctx: Context, out: Path) -> dict:
        results = {}
        for family in self.families:
            start = time.perf_counter()
            with ctx.phase(family):
                code, err = call_cli(ctx, [
                    "evaluate", "--data", ctx.paths["dataset"], "--models", family,
                    "--subset", self.subset, "--seeds", "1", "--folds", FOLDS,
                    "--inner-folds", INNER_FOLDS, "--grid", ctx.paths[f"grid_{self.grid}"],
                    "--out", out / family,
                ])
            results[family] = (code, err, time.perf_counter() - start)
        return results

    def inspect(self, ctx: Context, out: Path, raw: dict) -> Outcome:
        failures = []
        artifacts = {}
        ratios = []
        notes = {"folds_without_rmse": 0}
        for family, (code, err, seconds) in raw.items():
            notes[f"{family}_s"] = seconds
            if code != 0:
                failures.append(f"evaluate {family} exited {code}: {err.strip()}")
            names = [f"{family}/{name}" for name in PROTOCOL_ARTIFACTS]
            artifacts.update(_read_artifacts(out, names, failures))
            report = artifacts.get(f"{family}/report.csv")
            if report is None:
                continue
            rows = list(csv.DictReader(io.StringIO(report.decode("utf-8"))))
            if not rows:
                failures.append(f"{family} report.csv has no rows")
            for row in rows:
                mean_rmse = float(row["mean_rmse"])
                if not math.isfinite(mean_rmse):
                    failures.append(f"{family}: non-finite mean RMSE for {row['channel']}")
                    continue
                ratios.append(mean_rmse / ctx.channel_std[row["channel"]])
                notes["folds_without_rmse"] += FOLDS - int(row["n_rmse"])
        quality = statistics.fmean(ratios) if ratios else math.nan
        attempted = len(raw) * (1 + len(PROTOCOL_ARTIFACTS))
        return Outcome(artifacts, attempted, failures, quality, notes)


# ---------------------------------------------------------------------------
# Train and screen: fit and save an MT-NN (all channels) and an ST-RF (one
# channel), load both files back, score every library candidate with each
# ---------------------------------------------------------------------------

MODEL_FILES = {"mtnn": "mtnn/model.emmt", "strf": "strf/model.emrf"}


def train_models(ctx: Context, out: Path) -> list[tuple[int, str]]:
    common = ["--data", ctx.paths["dataset"], "--folds", FOLDS, "--seed", "1"]
    return [
        call_cli(ctx, ["train", "--family", "mt-nn", "--subset", "all",
                       "--grid", ctx.paths["grid_network"], "--out", out / "mtnn", *common]),
        call_cli(ctx, ["train", "--family", "st-rf", "--channel", SCREEN_CHANNEL,
                       "--grid", ctx.paths["grid_forest"], "--out", out / "strf", *common]),
    ]


def load_models(ctx: Context, paths: dict) -> dict:
    return {key: ctx.pipeline.load_model(path) for key, path in paths.items()}


def score_library(ctx: Context, bundles: dict, candidates, latencies=None) -> list:
    """[(material, smiles, {model: predictions dict | error code | exception})]"""
    predict = ctx.pipeline.predict_matrix
    toolkit_error = ctx.errors.ToolkitError
    clock = time.perf_counter
    rows = []
    for material, smiles in candidates:
        per_model = {}
        for key, bundle in bundles.items():
            start = clock()
            try:
                per_model[key] = predict(bundle, smiles)
            except toolkit_error as exc:
                per_model[key] = exc.code
            except Exception as exc:  # recorded and checked, never fatal to the run
                per_model[key] = exc
            if latencies is not None:
                latencies.append(clock() - start)
        rows.append((material, smiles, per_model))
    return rows


def ranked_outputs(scored: list, registry_keys: list[str]) -> tuple[str, str]:
    """screening.csv ranked by the MT-NN prediction of SCREEN_CHANNEL, and
    rejected.csv with the error code per rejected candidate."""
    valid, rejected = [], []
    for row in scored:
        ok = all(isinstance(p, dict) for p in row[2].values())
        (valid if ok else rejected).append(row)

    def key(row):
        value = row[2]["mtnn"][SCREEN_CHANNEL]
        return (math.isnan(value), -value if not math.isnan(value) else 0.0, row[0])

    valid.sort(key=key)
    header = ["material_id", "smiles"] + [f"mtnn_{k}" for k in registry_keys] + \
        [f"strf_{SCREEN_CHANNEL}"]
    lines = [",".join(header)]
    for material, smiles, preds in valid:
        values = [preds["mtnn"][k] for k in registry_keys] + [preds["strf"][SCREEN_CHANNEL]]
        lines.append(",".join([material, smiles] + [f"{v:.12g}" for v in values]))
    reject_lines = ["material_id,mtnn,strf"]
    for material, _, preds in rejected:
        reject_lines.append(",".join([material] + [_code_text(preds[k]) for k in ("mtnn", "strf")]))
    return "\n".join(lines) + "\n", "\n".join(reject_lines) + "\n"


def _code_text(result) -> str:
    if isinstance(result, str):
        return result
    if isinstance(result, Exception):
        return type(result).__name__
    return "ok"


def library_rmse_rel(ctx: Context, scored: list) -> float:
    """Mean over (model, channel) of RMSE against the generator's noise-free
    property, over the standard deviation of that property; log10 for h50."""
    pairs: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for material, _, preds in scored:
        truth = ctx.inputs.expectations[material].get("truth")
        if truth is None:
            continue
        for model, result in preds.items():
            if not isinstance(result, dict):
                continue
            for channel, value in result.items():
                prop = channel.split(":")[0]
                if not math.isfinite(value) or (prop == "impact_h50" and value <= 0):
                    continue
                pairs.setdefault((model, channel), []).append(
                    (_transformed(prop, value), _transformed(prop, truth[prop])))
    ratios = []
    for values in pairs.values():
        spread = statistics.pstdev(t for _, t in values)
        if spread > 0:
            rmse = math.sqrt(statistics.fmean((p - t) ** 2 for p, t in values))
            ratios.append(rmse / spread)
    return statistics.fmean(ratios) if ratios else math.nan


def forest_rows(ctx: Context, path: Path) -> list[list[list[float]]]:
    """Tree rows [feature, threshold, value, left, right] from an EMRF file."""
    modelio = ctx.modules["emprops.modelio"]
    header, payload = modelio.read_container(path, modelio.MAGIC_FOREST)
    arrays = modelio.split_payload(payload, [(size, 5) for size in header["tree_sizes"]])
    return [a.tolist() for a in arrays]


def reaches_nan_leaf(trees: list, x) -> bool:
    for rows in trees:
        node = rows[0]
        while node[0] >= 0:
            node = rows[int(node[3] if x[int(node[0])] <= node[1] else node[4])]
        if math.isnan(node[2]):
            return True
    return False


@dataclass
class TrainScreen:
    name: str = "train_screen"

    def run_once(self, ctx: Context, out: Path) -> dict:
        with ctx.phase("train"):
            trained = train_models(ctx, out)
        if any(code != 0 for code, _ in trained):
            return {"trained": trained, "scored": [], "latencies": []}
        latencies: list[float] = []
        with ctx.phase("screen"):
            bundles = load_models(ctx, {key: out / rel for key, rel in MODEL_FILES.items()})
            scored = score_library(ctx, bundles, ctx.library, latencies)
            keys = [channel.key for channel in bundles["mtnn"].registry]
            screening, rejected = ranked_outputs(scored, keys)
            (out / "screening.csv").write_text(screening, encoding="utf-8")
            (out / "rejected.csv").write_text(rejected, encoding="utf-8")
        return {"trained": trained, "scored": scored, "latencies": latencies}

    def inspect(self, ctx: Context, out: Path, raw: dict) -> Outcome:
        failures = [f"train exited {code}: {err.strip()}"
                    for code, err in raw["trained"] if code != 0]
        names = list(MODEL_FILES.values()) + ["screening.csv", "rejected.csv"]
        artifacts = _read_artifacts(out, names, failures)
        attempted = len(raw["trained"]) + len(names)
        known_defect = 0
        trees = None
        for material, smiles, preds in raw["scored"]:
            expected = ctx.inputs.expectations[material].get("reject")
            for model, result in preds.items():
                attempted += 1
                if expected is not None:
                    if result != expected:
                        failures.append(f"{material} {model}: expected {expected}, "
                                        f"got {_code_text(result)}")
                    continue
                if not isinstance(result, dict):
                    failures.append(f"{material} {model}: unexpected {_code_text(result)} "
                                    f"{result}")
                    continue
                if all(math.isfinite(v) for v in result.values()):
                    continue
                if model == "strf":
                    forest_path = out / MODEL_FILES["strf"]
                    trees = trees or forest_rows(ctx, forest_path)
                    bundle = ctx.pipeline.load_model(forest_path)
                    graph = ctx.modules["emprops.molgraph"].parse_smiles(smiles)
                    x = ctx.pipeline.features_for(bundle, graph, None)
                    if reaches_nan_leaf(trees, x):
                        known_defect += 1
                        continue
                failures.append(f"{material} {model}: non-finite prediction")
        latencies = sorted(raw["latencies"]) or [math.nan]
        tail = max(0, len(latencies) - 11)  # the highest rank with ten calls beyond it
        notes = {
            "predict_calls": len(raw["latencies"]),
            "predict_p50_ms": 1000 * latencies[len(latencies) // 2],
            "predict_tail_ms": 1000 * latencies[tail],
            "predict_tail_quantile": (tail + 1) / len(latencies),
            "nan_from_empty_forest_child": known_defect,
        }
        return Outcome(artifacts, attempted, failures, library_rmse_rel(ctx, raw["scored"]),
                       notes)


WORKLOADS = {
    "protocol_rf": Protocol("protocol_rf", ("st-rf",), "all", "forest"),
    "protocol_nn": Protocol("protocol_nn", ("st-nn", "mt-nn"), "all", "network"),
    "train_screen": TrainScreen(),
}
