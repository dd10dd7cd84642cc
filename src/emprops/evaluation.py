"""Metrics, the outer-CV evaluation protocol, and report generation.

The protocol: per seed, material-level k-fold splits; per fold, grid
search on the training portion (inner k-fold), refit the winning
configuration on the whole training fold, evaluate on the held-out fold.
Metrics are computed in each channel's reporting space, i.e. original
units after undoing standardization, except that log-transformed channels
(drop height h50) are reported in log units. Aggregation is mean and
sample standard deviation over the k x n_seeds fold values.

The protocol is a list of fits of one design: plan gives one Fit per
seed, outer fold and unit, naming its channels, rows and derived seeds;
run_protocol fits every one that has test rows with one fit_all call,
then predicts their held-out rows with pipeline.predict_rows and records
the metrics, in plan order.
Every family goes through the same steps: fit_all plans each fit to its
refit job or, on a grid of several cells, to select, the one inner-CV path
of every family and of tune; one engine call per family then refits. A
one-cell grid is refit without inner CV, since selection could only
return that cell; tune always runs select, because its score table is
its output.

Grids is everything a grid file sets (the network grid, the forest grid
and the base training settings), passed as one value from the file to
the fit; Grids.load is the one reader of the grid-file format. The
engines (mtnn, forest) know no grids, folds or designs: their jobs are
planned here, every network's by network_job.
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
from emprops.mtnn import MTNetConfig, TrainConfig, TrainJob, init_network
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
class GridSpec:
    """Enumerable axes; cells are the Cartesian product in declaration order.

    selector_layer_index accepts integers or the tokens "last" /
    "second_to_last", which resolve against each hidden_sizes value; an
    integer pairs only with the hidden_sizes values deep enough for it
    (Grids rejects one that fits none). Cells that resolve
    identically are deduplicated, keeping the earliest.
    """

    hidden_sizes: tuple[tuple[int, ...], ...] = ((32,),)
    selector_layer_index: tuple = ("last", "second_to_last")
    learning_rate: tuple[float, ...] = (1e-3,)
    batch_size: tuple[int, ...] = (32,)
    l2_penalty: tuple[float, ...] = (0.0,)

    def cells(self, selector_dim: int) -> list[dict]:
        out: list[dict] = []
        seen = set()
        for hidden, sel_raw, lr, batch, l2 in itertools.product(
            self.hidden_sizes, self.selector_layer_index, self.learning_rate,
            self.batch_size, self.l2_penalty,
        ):
            hidden = tuple(hidden)
            if selector_dim == 0:
                sel_index = 0
            elif sel_raw == "last":
                sel_index = len(hidden)
            elif sel_raw == "second_to_last":
                sel_index = max(1, len(hidden) - 1)
            else:
                sel_index = sel_raw
                if not 1 <= sel_index <= len(hidden):
                    continue
            cell = {
                "hidden_sizes": hidden,
                "selector_layer_index": sel_index,
                "learning_rate": lr,
                "batch_size": batch,
                "l2_penalty": l2,
            }
            key = tuple(sorted(cell.items()))
            if key not in seen:
                seen.add(key)
                out.append(cell)
        return out


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

    def cells(self, family: str, channels: range) -> list[dict]:
        """The cells select chooses among for the family on the design's
        channels in the range: a network's are selector-fed for several
        channels, plain (selector_dim 0) for one."""
        if family == "st-rf":
            return self.forest.cells()
        return self.mtnn.cells(len(channels) if len(channels) > 1 else 0)


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
    """One model fit of a design: the family, the channels it models, its
    training and held-out rows of the design (masks, of those channels
    only), the selection seed (the refit takes derive_seed(seed, 3)) and a
    network's batch-order seed."""

    family: str
    channels: range
    train_rows: np.ndarray
    test_rows: np.ndarray
    seed: int
    train_seed: int


def plan(family: str, design: ds.DesignMatrix, seeds, k: int) -> list[Fit]:
    """One Fit per seed, outer fold and unit, in that order; the one place
    that derives the protocol's seeds. A unit is every channel for mt-nn
    and one channel for st-rf and st-nn, with the fold's rows of those
    channels. A unit without training rows in a fold gets no test rows
    either, so it records NaN."""
    if family not in MODEL_FAMILIES:
        raise InvalidConfig(f"unknown model family {family!r}")
    n_channels = len(design.registry)
    units = [range(n_channels)] if family == "mt-nn" else [
        range(pos, pos + 1) for pos in range(n_channels)]
    masks = [design.channel_rows(channels) for channels in units]
    fits = []
    for seed in seeds:
        fold_of = ds.kfold_by_material(design.material_ids, k, seed)
        for fold in range(k):
            fold_test = fold_of == fold
            fold_train = ~fold_test
            fold_seed = derive_seed(seed, fold)
            for pos, (channels, mask) in enumerate(zip(units, masks)):
                unit_seed = fold_seed if family == "mt-nn" else derive_seed(fold_seed, pos + 17)
                train_rows = fold_train & mask
                test_rows = fold_test & mask & np.any(train_rows)
                fits.append(Fit(family, channels, train_rows, test_rows, unit_seed,
                                derive_seed(derive_seed(unit_seed, 3), 11)))
    return fits


def _registry(design: ds.DesignMatrix, channels: range) -> ds.PropertyRegistry:
    """The registry of a model of the design's channels in the range."""
    return ds.PropertyRegistry(channels=design.registry.channels[channels.start:channels.stop])


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
    bundles = iter(fit_all(design, [fit for fit in fits if np.any(fit.test_rows)], schema,
                           grids, inner_k))
    for fit in fits:
        test_rows = fit.test_rows
        channel_idx = design.channel_idx[test_rows] - fit.channels.start
        pred = np.empty(0)
        if np.any(test_rows):
            pred = pipeline.predict_rows(next(bundles), design.features[test_rows], channel_idx)
        _record_channel_metrics(report, _registry(design, fit.channels), pred,
                                design.targets[test_rows], channel_idx)
    return report


def fit_all(design: ds.DesignMatrix, fits: list[Fit], schema: descriptors.FeatureSchema,
            grids: Grids, inner_k: int) -> list[pipeline.ModelBundle]:
    """One model per fit, in order: select a cell by inner CV on the fit's
    training rows of the design and refit it on all of them, seeded by
    derive_seed(fit.seed, 3); a network's batch order is seeded by
    fit.train_seed. A one-cell grid skips inner CV and refits its cell,
    which selection would return whatever the scores; inner_k must still
    be at least 2. Every command fits its models through here.

    Each fit is planned in order to its refit job or to one select call,
    then to its cell's refit; planning stops at the first fit that fails.
    rf.fit_forests grows every forest refit and mtnn.train_many trains
    every network refit. The first fit in order that fails raises its
    error, as it would in a run that fits one fit at a time.
    """
    outcomes: list = []  # per fit: itself awaiting select, its refit job, bundle or error
    for fit in fits:
        try:
            ds.check_fold_count(inner_k)
            cells = grids.cells(fit.family, fit.channels)
            outcomes.append(fit if len(cells) > 1 else _refit_job(design, fit, cells[0], grids))
        except ToolkitError as exc:
            outcomes.append(exc)
            break

    def indices(kind) -> list[int]:
        return [index for index, outcome in enumerate(outcomes) if isinstance(outcome, kind)]

    selecting = indices(Fit)
    if selecting:
        for index, result in zip(selecting, select(design, [fits[i] for i in selecting], grids,
                                                   inner_k)):
            # the refit cannot fail: selection planned its cell on a part of its rows
            outcomes[index] = result if isinstance(result, ToolkitError) else _refit_job(
                design, fits[index], result.best_cell, grids)
    forests = indices(rf.ForestJob)
    for index, model in zip(forests, rf.fit_forests(design.features, design.targets,
                                                    [outcomes[index] for index in forests])):
        outcomes[index] = pipeline.ModelBundle(
            kind="forest", registry=_registry(design, fits[index].channels), schema=schema,
            forest=model)
    networks = indices(tuple)
    for index, result in zip(networks, mtnn.train_many([outcomes[i][1] for i in networks])):
        outcomes[index] = result if isinstance(result, ToolkitError) else pipeline.ModelBundle(
            kind="mtnn", registry=_registry(design, fits[index].channels), schema=schema,
            net=result.net, standardizer=outcomes[index][0])
    for outcome in outcomes:
        if isinstance(outcome, ToolkitError):
            raise outcome
    return outcomes


def _refit_job(design: ds.DesignMatrix, fit: Fit, cell: dict, grids: Grids):
    """The checked job of the fit's refit of the cell on its training rows,
    seeded derive_seed(fit.seed, 3): a forest job, or a network's
    standardizer and train job (network_job)."""
    if fit.family == "st-rf":
        return rf.forest_job(design.features, design.targets,
                             rf.ForestConfig(seed=derive_seed(fit.seed, 3), **cell),
                             np.flatnonzero(fit.train_rows))
    return network_job(design, fit.channels, fit.train_rows, cell, grids.train,
                       derive_seed(fit.seed, 3), fit.train_seed)


def select(design: ds.DesignMatrix, fits: list[Fit], grids: Grids,
           inner_k: int) -> list[ds.GridResult | ToolkitError]:
    """Inner-CV selection of each fit's cell on its training rows: per fit,
    its ds.GridResult or the error of its first failing (cell, inner fold)
    in cv_select's order. The forests of every fit whose plan holds grow in
    one rf.fit_forests call and are scored by RMSE on their validation rows
    of the design in one rf.predict_forests call; a fit whose plan fails
    grows none, since a forest job cannot fail once planned. Each fit's
    networks train in one mtnn.train_many call, so one grid's standardized
    rows are held at a time, and are scored by RMSE in standardized space
    averaged over channels."""
    plans = [_selection_jobs(design, fit, grids, inner_k) if fit.family == "st-rf" else None
             for fit in fits]
    held = [plan for plan in plans if plan and plan[2] is None]
    vals = [val for folds, jobs, _ in held for _, (_, val) in zip(jobs, itertools.cycle(folds))]
    forests = rf.fit_forests(design.features, design.targets,
                             [job for plan in held for job in plan[1]])
    forest_scores = iter([rmse(pred, design.targets[val]) for pred, val
                          in zip(rf.predict_forests(forests, design.features, vals), vals)])
    results: list[ds.GridResult | ToolkitError] = []
    for fit, plan in zip(fits, plans):
        folds, jobs, error = plan or _selection_jobs(design, fit, grids, inner_k)  # a grid at a time
        if plan is None:
            models = mtnn.train_many([job for _, job in jobs])
            error = next((model for model in models if isinstance(model, ToolkitError)), error)
        if error is not None:
            results.append(error)
            continue

        def network_score(model, job: TrainJob, val: np.ndarray) -> float:
            x_val, s_val, y_val = job.val
            return _channel_mean_rmse(mtnn.forward(model.net, x_val, s_val), y_val,
                                      design.channel_idx[val] - fit.channels.start,
                                      len(fit.channels))

        scores = ([next(forest_scores) for _ in jobs] if plan else
                  [network_score(model, job, val) for model, (_, job), (_, val)
                   in zip(models, jobs, itertools.cycle(folds))])
        results.append(ds.cv_select(grids.cells(fit.family, fit.channels),
                                    [scores[i:i + inner_k] for i in range(0, len(scores), inner_k)]))
    return results


def _selection_jobs(design: ds.DesignMatrix, fit: Fit, grids: Grids, inner_k: int,
                    ) -> tuple[list, list, ToolkitError | None]:
    """select's plan of the fit: its inner folds' (train, validation) rows,
    its checked jobs per cell and inner fold up to the first that fails,
    and its error or None. A forest is seeded derive_seed(fit.seed,
    cell_index + 1), a network derive_seed(fit.seed, cell_index + 1,
    fold + 1) and its batch order derive_seed(that seed, 7)."""
    rows, folds, jobs = np.flatnonzero(fit.train_rows), [], []
    try:
        fold_of = ds.kfold_by_material([design.material_ids[row] for row in rows], inner_k,
                                       fit.seed)
        folds = [(rows[fold_of != fold], rows[fold_of == fold]) for fold in range(inner_k)]
        for cell_index, cell in enumerate(grids.cells(fit.family, fit.channels)):
            for fold, (train, val) in enumerate(folds):
                if fit.family == "st-rf":
                    config = rf.ForestConfig(seed=derive_seed(fit.seed, cell_index + 1), **cell)
                    jobs.append(rf.forest_job(design.features, design.targets, config, train))
                else:
                    net_seed = derive_seed(fit.seed, cell_index + 1, fold + 1)
                    jobs.append(network_job(design, fit.channels, train, cell, grids.train,
                                            net_seed, derive_seed(net_seed, 7), val))
    except ToolkitError as exc:
        return folds, jobs, exc
    return folds, jobs, None


def network_inputs(design: ds.DesignMatrix, channels: range, rows: np.ndarray,
                   standardizer: ds.Standardizer,
                   ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Standardized features, one-hot selectors over the channels (None for
    one) and standardized targets of the given design rows of the channels."""
    channel_idx = design.channel_idx[rows] - channels.start
    x = standardizer.apply_features(design.features[rows])
    y = standardizer.apply_targets(design.targets[rows], channel_idx)
    selector = np.eye(len(channels))[channel_idx] if len(channels) > 1 else None
    return x, selector, y


def network_job(design: ds.DesignMatrix, channels: range, train_rows: np.ndarray, cell: dict,
                base_train: TrainConfig, net_seed: int, train_seed: int,
                val_rows: np.ndarray | None = None) -> tuple[ds.Standardizer, TrainJob]:
    """The fit of one network of the design's channels in the range on its
    train rows, ready to train: the one place that prepares a network fit
    of any family, for inner CV, the outer refit and the final model.

    A row's channel counts from the range's start, and a selector is fed
    only for several channels. The standardizer is fitted on the train
    rows only. With val_rows the net stops early on their validation MSE;
    without, it trains max_epochs. net_seed seeds the initial weights,
    train_seed the batch order. Returns the fitted standardizer and the
    job; empty rows are InvalidConfig.
    """
    for name, rows in (("training", train_rows), ("validation", val_rows)):
        if rows is not None and design.targets[rows].size == 0:
            raise InvalidConfig(f"empty {name} batch")
    standardizer = ds.Standardizer.fit(
        design.features[train_rows], design.targets[train_rows],
        design.channel_idx[train_rows] - channels.start, len(channels),
    )
    x_train, s_train, y_train = network_inputs(design, channels, train_rows, standardizer)
    val = None if val_rows is None else network_inputs(design, channels, val_rows, standardizer)
    net_config = MTNetConfig(
        input_dim=design.features.shape[1],
        selector_dim=len(channels) if len(channels) > 1 else 0,
        hidden_sizes=cell["hidden_sizes"],
        selector_layer_index=cell["selector_layer_index"],
        l2_penalty=cell["l2_penalty"],
        seed=net_seed,
    )
    train_config = replace(base_train, learning_rate=cell["learning_rate"],
                           batch_size=cell["batch_size"], seed=train_seed)
    job = TrainJob(init_network(net_config), x_train, s_train, y_train, train_config, val)
    return standardizer, job


def _channel_mean_rmse(pred: np.ndarray, actual: np.ndarray, channel_idx: np.ndarray,
                       n_channels: int) -> float:
    """Per-channel RMSE averaged over the channels present."""
    scores = []
    for c in range(n_channels):
        mask = channel_idx == c
        if np.any(mask):
            scores.append(rmse(pred[mask], actual[mask]))
    return float(np.mean(scores)) if scores else math.nan


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


def select_every_row(family: str, design: ds.DesignMatrix, grids: Grids, inner_k: int,
                     seed: int) -> ds.GridResult:
    """select of one fit of the family over every row and channel of the
    design, seeded seed, raising its error: forest_grid_search and
    mtnn.grid_search. A network fit of every channel is an mt-nn fit;
    select treats one of a single channel as st-nn."""
    every_row = np.ones(len(design.targets), dtype=bool)
    (result,) = select(design, [Fit(family, range(len(design.registry)), every_row, ~every_row,
                                    seed, 0)], grids, inner_k)
    if isinstance(result, ToolkitError):
        raise result
    return result


def forest_grid_search(grid: ForestGridSpec, design: ds.DesignMatrix, inner_k: int = 5,
                       seed: int = 0) -> ds.GridResult:
    """select_every_row of one forest fit; it stays only while the traced
    benchmark wraps it by name."""
    return select_every_row("st-rf", design, Grids(forest=grid), inner_k, seed)


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
