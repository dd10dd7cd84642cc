"""The one select -> refit -> predict path against the per-family code it
replaced.

The oracles below are the earlier per-family sequences, kept verbatim in
substance: the network fold (select, refit, forward), the multi-task and
single-task fold loops of the protocol, and `train`'s forest and network
branches. run_protocol and `emprops train` must reproduce them bit for bit.
"""

import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from emprops import cli, dataset as ds, evaluation, forest as rf, mtnn, pipeline
from emprops.errors import ToolkitError
from emprops.rng import derive_seed
from test_cli import write_dataset, write_grid

SUBSET = 1
SEEDS = (1, 2)
FOLDS = 3
INNER_FOLDS = 3
SPARSE_CHANNEL = "det_velocity:exp"  # one material: its test fold has no train rows


# ---------------------------------------------------------------------------
# Oracles: the earlier per-family code
# ---------------------------------------------------------------------------

def fit_network(design, train_rows, cell, base_train, net_seed, train_seed):
    """mtnn.network_job trained on its own: the fitted standardizer and the
    training result."""
    standardizer, job = mtnn.network_job(design, train_rows, cell, base_train, net_seed,
                                         train_seed)
    return standardizer, mtnn.train(job.net, job.features, job.selector, job.targets,
                                    job.config)


def oracle_select_and_refit_net(design, train_rows, test_rows, grid, base_train, inner_k, seed):
    search = mtnn.grid_search(grid, evaluation._restrict(design, train_rows), base_train,
                              inner_k=inner_k, seed=seed)
    refit_seed = derive_seed(seed, 3)
    standardizer, result = fit_network(design, train_rows, search.best_cell, base_train,
                                       refit_seed, derive_seed(refit_seed, 11))
    x_test, s_test, _ = mtnn.network_inputs(design, test_rows, standardizer)
    pred_std = mtnn.forward(result.net, x_test, s_test)
    return standardizer.invert_targets(pred_std, design.channel_idx[test_rows])


def oracle_mtnn_fold(report, design, train_mats, test_mats, grid, base_train, inner_k, seed):
    train_rows = design.rows_for(train_mats)
    test_rows = design.rows_for(test_mats)
    pred = oracle_select_and_refit_net(design, train_rows, test_rows, grid, base_train,
                                       inner_k, seed)
    evaluation._record_channel_metrics(report, design.registry, pred,
                                       design.targets[test_rows], design.channel_idx[test_rows])


def oracle_st_fold(report, family, design, train_mats, test_mats, grid, forest_grid,
                   base_train, inner_k, seed):
    for pos in range(len(design.registry)):
        single = evaluation.single_channel_design(design, pos)
        train_rows = single.rows_for(train_mats)
        test_rows = single.rows_for(test_mats)
        if not np.any(train_rows):
            test_rows = np.zeros_like(test_rows)
        pred = np.empty(0)
        if np.any(test_rows):
            channel_seed = derive_seed(seed, pos + 17)
            if family == "st-nn":
                pred = oracle_select_and_refit_net(single, train_rows, test_rows, grid,
                                                   base_train, inner_k, channel_seed)
            else:
                search = evaluation.forest_grid_search(
                    forest_grid, evaluation._restrict(single, train_rows),
                    inner_k=inner_k, seed=channel_seed)
                config = rf.ForestConfig(seed=derive_seed(channel_seed, 3), **search.best_cell)
                model = rf.fit_forest(single.features[train_rows],
                                      single.targets[train_rows], config)
                pred = rf.predict_forest(model, single.features[test_rows])
        evaluation._record_channel_metrics(report, single.registry, pred,
                                           single.targets[test_rows],
                                           single.channel_idx[test_rows])


def oracle_run_protocol(family, data, subset_id, seeds, k, grid, forest_grid, base_train,
                        inner_k):
    _, _, design = ds.build_design(data, subset_id, False)
    report = evaluation.ProtocolReport(model_id=evaluation.model_identifier(family, subset_id))
    for seed in seeds:
        plan = ds.kfold_by_material(design.material_ids, k, seed)
        for fold in range(k):
            train_mats, test_mats = plan.train_test(fold)
            if family == "mt-nn":
                oracle_mtnn_fold(report, design, train_mats, test_mats, grid, base_train,
                                 inner_k, derive_seed(seed, fold))
            else:
                oracle_st_fold(report, family, design, train_mats, test_mats, grid,
                               forest_grid, base_train, inner_k, derive_seed(seed, fold))
    return report


def oracle_train(path, family, data, subset_id, channel, grid, forest_grid, base_train,
                 inner_k, seed):
    """`train`'s forest and network branches, writing the model to path."""
    subset, schema, design = ds.build_design(data, subset_id, False)
    if channel:
        prop, _, fidelity = channel.partition(":")
        position = subset.registry.index_of(subset.registry.lookup(prop, fidelity))
        design = evaluation.single_channel_design(design, position)
    if family == "st-rf":
        search = evaluation.forest_grid_search(forest_grid, design, inner_k=inner_k, seed=seed)
        config = rf.ForestConfig(seed=derive_seed(seed, 3), **search.best_cell)
        model = rf.fit_forest(design.features, design.targets, config)
        bundle = pipeline.ModelBundle(kind="forest", registry=design.registry,
                                      schema=schema, forest=model)
    else:
        search = mtnn.grid_search(grid, design, base_train, inner_k=inner_k, seed=seed)
        all_rows = np.ones(len(design.targets), dtype=bool)
        standardizer, result = fit_network(design, all_rows, search.best_cell, base_train,
                                           derive_seed(seed, 3), derive_seed(seed, 5))
        bundle = pipeline.ModelBundle(kind="mtnn", registry=design.registry, schema=schema,
                                      net=result.net, standardizer=standardizer)
    pipeline.save_model(path, bundle)


def oracle_fit_selected(family, design, train_rows, grids, inner_k, seed, train_seed):
    """fit_selected as it was before one-cell grids skipped inner CV: select,
    then refit. Returns the fitted trees or the network's parameters."""
    search = evaluation.select_cell(family, evaluation._restrict(design, train_rows), grids,
                                    inner_k, seed)
    if family == "st-rf":
        config = rf.ForestConfig(seed=derive_seed(seed, 3), **search.best_cell)
        return rf.fit_forest(design.features[train_rows], design.targets[train_rows],
                             config).trees
    _, result = fit_network(design, train_rows, search.best_cell, grids.train,
                            derive_seed(seed, 3), train_seed)
    return [result.net.params]


# ---------------------------------------------------------------------------
# Inputs: the CLI tests' dataset and grid, plus one single-material channel
# and a second cell on both grids (the one-cell grids are kept as well)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("select_refit")
    data_path = write_dataset(tmp_path)
    with open(data_path, "a", encoding="utf-8") as handle:
        handle.write("M05,CCN,det_velocity,exp,6.1,1.0\n")
    one_cell_dir = tmp_path / "one_cell"
    one_cell_dir.mkdir()
    one_cell_path = write_grid(one_cell_dir)
    grid_path = write_grid(tmp_path)
    two_cells = json.loads(grid_path.read_text(encoding="utf-8"))  # so that selection decides
    two_cells["mtnn"]["learning_rate"] = [0.01, 0.03]
    two_cells["forest"]["min_samples_leaf"] = [1, 2]
    grid_path.write_text(json.dumps(two_cells), encoding="utf-8")
    grids = evaluation.Grids.load(str(grid_path))
    data = ds.load_records(data_path, ds.default_registry())
    return {"data_path": data_path, "grid_path": grid_path, "data": data, "grids": grids,
            "grid": grids.mtnn, "forest_grid": grids.forest, "base_train": grids.train,
            "one_cell_path": one_cell_path,
            "one_cell": evaluation.Grids.load(str(one_cell_path))}


def bits(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("family", evaluation.MODEL_FAMILIES)
def test_run_protocol_equals_per_family_oracle(inputs, family):
    _, schema, design = ds.build_design(inputs["data"], SUBSET, False)
    report = evaluation.run_protocol(family, schema, design, SUBSET, seeds=SEEDS, k=FOLDS,
                                     grids=inputs["grids"], inner_k=INNER_FOLDS)
    oracle = oracle_run_protocol(family, inputs["data"], SUBSET, SEEDS, FOLDS, grid=inputs["grid"],
                                 forest_grid=inputs["forest_grid"],
                                 base_train=inputs["base_train"], inner_k=INNER_FOLDS)

    assert list(report.channels) == list(oracle.channels)
    for key, metrics in oracle.channels.items():
        assert bits(report.channels[key].rmse_values) == bits(metrics.rmse_values), key
        assert bits(report.channels[key].r2_values) == bits(metrics.r2_values), key
        assert len(metrics.rmse_values) == len(SEEDS) * FOLDS

    # the sparse channel took the NaN path: single-task units never fit it,
    # the multi-task net scores its one material once per seed
    sparse = report.channels[SPARSE_CHANNEL].rmse_values
    finite = [v for v in sparse if not math.isnan(v)]
    assert len(finite) == (len(SEEDS) if family == "mt-nn" else 0)
    assert all(math.isfinite(v) for v in report.channels["det_velocity:calc"].rmse_values)


@pytest.mark.parametrize("family,channel,name", [
    ("st-rf", "det_velocity:calc", "model.emrf"),
    ("mt-nn", None, "model.emmt"),
])
def test_train_writes_the_oracle_model_file(inputs, tmp_path, capsys, family, channel, name):
    seed = 7
    argv = ["train", "--data", str(inputs["data_path"]), "--subset", str(SUBSET),
            "--no-density", "--family", family, "--grid", str(inputs["grid_path"]),
            "--folds", str(INNER_FOLDS), "--seed", str(seed), "--out", str(tmp_path / "cli")]
    if channel:
        argv += ["--channel", channel]
    assert cli.main(argv) == 0
    oracle_path = tmp_path / f"oracle_{name}"
    oracle_train(oracle_path, family, inputs["data"], SUBSET, channel, inputs["grid"],
                 inputs["forest_grid"], inputs["base_train"], INNER_FOLDS, seed)
    assert (tmp_path / "cli" / name).read_bytes() == oracle_path.read_bytes()


def test_tune_scores_the_single_channel_network_grid(inputs, tmp_path, capsys):
    argv = ["tune", "--data", str(inputs["data_path"]), "--subset", str(SUBSET),
            "--family", "st-nn", "--channel", "det_pressure:calc",
            "--grid", str(inputs["grid_path"]), "--folds", str(INNER_FOLDS), "--seed", "4",
            "--out", str(tmp_path / "tune")]
    assert cli.main(argv) == 0
    _, _, design = ds.build_design(inputs["data"], SUBSET, False)
    position = design.registry.index_of(design.registry.lookup("det_pressure", "calc"))
    expected = mtnn.grid_search(inputs["grid"], evaluation.single_channel_design(design, position),
                                inputs["base_train"], inner_k=INNER_FOLDS, seed=4)
    winner = json.loads((tmp_path / "tune" / "winner.json").read_text(encoding="utf-8"))
    assert winner == {**expected.best_cell, "hidden_sizes": list(expected.best_cell["hidden_sizes"]),
                      "mean_val_rmse": expected.best_score}



# ---------------------------------------------------------------------------
# One-cell grids: refit without inner CV, same bits as select-then-refit
# ---------------------------------------------------------------------------

def unit_design(inputs, family):
    """(schema, design) of the unit fit_all sees for the family."""
    _, schema, design = ds.build_design(inputs["data"], SUBSET, False)
    if family != "mt-nn":
        position = design.registry.index_of(design.registry.lookup("det_velocity", "calc"))
        design = evaluation.single_channel_design(design, position)
    return schema, design


@pytest.mark.parametrize("family", evaluation.MODEL_FAMILIES)
def test_one_cell_fit_selected_equals_select_then_refit(inputs, family):
    grids = inputs["one_cell"]
    schema, design = unit_design(inputs, family)
    train_mats, _ = ds.kfold_by_material(design.material_ids, FOLDS, 5).train_test(0)
    train_rows = design.rows_for(train_mats)
    (bundle,) = evaluation.fit_all([evaluation.Fit(family, design, train_rows, ~train_rows, 9, 10)],
                                   schema, grids, INNER_FOLDS)
    fitted = bundle.forest.trees if family == "st-rf" else [bundle.net.params]
    expected = oracle_fit_selected(family, design, train_rows, grids, INNER_FOLDS, 9, 10)
    assert [a.tobytes() for a in fitted] == [a.tobytes() for a in expected]


@pytest.mark.parametrize("family", evaluation.MODEL_FAMILIES)
def test_one_cell_run_protocol_equals_select_then_refit(inputs, family):
    grids = inputs["one_cell"]
    _, schema, design = ds.build_design(inputs["data"], SUBSET, False)
    report = evaluation.run_protocol(family, schema, design, SUBSET, seeds=SEEDS, k=FOLDS,
                                     grids=grids, inner_k=INNER_FOLDS)
    oracle = oracle_run_protocol(family, inputs["data"], SUBSET, SEEDS, FOLDS, grids.mtnn,
                                 grids.forest, grids.train, INNER_FOLDS)
    assert list(report.channels) == list(oracle.channels)
    for key, metrics in oracle.channels.items():
        assert bits(report.channels[key].rmse_values) == bits(metrics.rmse_values), key
        assert bits(report.channels[key].r2_values) == bits(metrics.r2_values), key


class InnerCVEntered(Exception):
    pass


# (family, module, what a fit of the family calls only to select): fit_all
# plans a forest fit's selection with forest_selection, a network's with
# select_cell, and both score through cv_select
INNER_CV_PROBES = [
    ("st-rf", evaluation, "forest_selection"),
    ("st-nn", evaluation, "select_cell"),
    ("mt-nn", evaluation, "select_cell"),
    *[(family, ds, "cv_select") for family in evaluation.MODEL_FAMILIES],
]


@pytest.mark.parametrize("family,module,name", INNER_CV_PROBES,
                         ids=[f"{family}-{name}" for family, _, name in INNER_CV_PROBES])
def test_inner_cv_runs_only_for_several_cells(inputs, monkeypatch, family, module, name):
    def refuse(*args, **kwargs):
        raise InnerCVEntered(name)

    monkeypatch.setattr(module, name, refuse)
    schema, design = unit_design(inputs, family)
    all_rows = np.ones(len(design.targets), dtype=bool)

    def fit(grids):
        return evaluation.fit_all([evaluation.Fit(family, design, all_rows, ~all_rows, 1, 2)],
                                  schema, grids, INNER_FOLDS)

    fit(inputs["one_cell"])
    with pytest.raises(InnerCVEntered):
        fit(inputs["grids"])


@pytest.mark.parametrize("family,channel", [("st-rf", "det_velocity:calc"), ("mt-nn", None)])
def test_tune_scores_a_one_cell_grid(inputs, tmp_path, capsys, family, channel):
    argv = ["tune", "--data", str(inputs["data_path"]), "--subset", str(SUBSET),
            "--family", family, "--grid", str(inputs["one_cell_path"]),
            "--folds", str(INNER_FOLDS), "--out", str(tmp_path / "tune")]
    if channel:
        argv += ["--channel", channel]
    assert cli.main(argv) == 0
    winner = json.loads((tmp_path / "tune" / "winner.json").read_text(encoding="utf-8"))
    assert math.isfinite(winner["mean_val_rmse"])
    with open(tmp_path / "tune" / "grid_table.csv", newline="", encoding="utf-8") as handle:
        table = list(csv.DictReader(handle))
    assert len(table) == 1
    assert float(table[0]["mean_val_rmse"]) == winner["mean_val_rmse"]


# ---------------------------------------------------------------------------
# fit_all: stacked refits fail as fits fitted one at a time do
# ---------------------------------------------------------------------------

FAILURE_ORDERS = {
    # fits in plan order -> the error code of the first that fails
    "refit-first": (["diverging", "too-few"], "NonFiniteLoss"),
    "selection-first": (["too-few", "diverging"], "TooFewMaterials"),
    "good-then-refit": (["good", "diverging", "too-few"], "NonFiniteLoss"),
    "good-then-selection": (["good", "too-few", "diverging"], "TooFewMaterials"),
    "forest-refit-first": (["unplannable", "diverging"], "EmptyData"),
    "network-refit-first": (["diverging", "unplannable"], "NonFiniteLoss"),
}


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("name", FAILURE_ORDERS)
def test_fit_all_raises_the_first_failure_in_plan_order(inputs, name):
    """A network refit that diverges (a one-cell network grid with a huge
    learning rate), a forest whose inner CV cannot run (the one-material
    channel on a two-cell forest grid) and a one-cell forest refit that
    cannot be planned (min_samples_leaf above the one-material channel's
    one row): fit_all raises the error of the first in plan order, as
    fitting the fits one at a time does, although it trains the network
    only after every forest grows."""
    _, schema, design = ds.build_design(inputs["data"], SUBSET, False)
    names, code = FAILURE_ORDERS[name]
    forest_grid = inputs["forest_grid"]
    if "unplannable" in names:
        forest_grid = replace(inputs["one_cell"].forest, min_samples_leaf=(2,))
    grids = evaluation.Grids(replace(inputs["one_cell"].mtnn, learning_rate=(1e150,)),
                             forest_grid, inputs["base_train"])

    def fit(family, channel):
        position = design.registry.index_of(design.registry.lookup(*channel.split(":")))
        unit = evaluation.single_channel_design(design, position)
        rows = np.ones(len(unit.targets), dtype=bool)
        return evaluation.Fit(family, unit, rows, ~rows, 3, 4)

    kinds = {"diverging": fit("st-nn", "det_velocity:calc"),
             "too-few": fit("st-rf", SPARSE_CHANNEL),
             "unplannable": fit("st-rf", SPARSE_CHANNEL),
             "good": fit("st-rf", "det_velocity:calc")}
    fits = [kinds[kind] for kind in names]

    with pytest.raises(ToolkitError) as alone:
        for one in fits:
            evaluation.fit_all([one], schema, grids, INNER_FOLDS)
    assert alone.value.code == code
    with pytest.raises(ToolkitError) as together:
        evaluation.fit_all(fits, schema, grids, INNER_FOLDS)
    assert (together.value.code, str(together.value)) == (alone.value.code, str(alone.value))
