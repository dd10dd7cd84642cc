"""The one select -> refit -> predict path against the per-family code it
replaced.

The oracles below are the earlier per-family sequences, kept verbatim in
substance: the network fold (select, refit, forward), the multi-task and
single-task fold loops of the protocol, `train`'s forest and network
branches, and serial inner CV (one forest or network per cell and inner
fold, on a copy of the rows it selects on). run_protocol, `emprops train`
and `emprops tune` must reproduce them bit for bit.
"""

import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from emprops import cli, dataset as ds, evaluation, forest as rf, mtnn, pipeline
from emprops.errors import InvalidConfig, ToolkitError
from emprops.rng import derive_seed
from fold_oracle import inner_folds, kfold_by_material, rows_for
from test_cli import MOLS, write_dataset, write_grid

SUBSET = 1
SEEDS = (1, 2)
FOLDS = 3
INNER_FOLDS = 3
SPARSE_CHANNEL = "det_velocity:exp"  # one material: its test fold has no train rows


# ---------------------------------------------------------------------------
# Oracles: the earlier per-family code
# ---------------------------------------------------------------------------

def restrict(design, rows):
    """A copy of the design's rows as a design of their own."""
    return ds.DesignMatrix(
        features=design.features[rows],
        channel_idx=design.channel_idx[rows],
        targets=design.targets[rows],
        material_ids=[m for m, keep in zip(design.material_ids, rows) if keep],
        registry=design.registry,
    )


def single_channel_design(design, channel_pos):
    """A copy of the design's rows of one channel as a one-channel design:
    the unit a single-task model was once fitted on."""
    rows = design.channel_idx == channel_pos
    return ds.DesignMatrix(design.features[rows], np.zeros(np.count_nonzero(rows), dtype=np.int64),
                           design.targets[rows],
                           [m for m, keep in zip(design.material_ids, rows) if keep],
                           ds.PropertyRegistry(channels=(design.registry.channels[channel_pos],)))


def every_channel(design):
    return range(len(design.registry))


def cv_table(cells, material_ids, inner_k, seed, score):
    """The cells x inner folds score table that cv_select reduces:
    score(cell_index, fold, train_rows, val_rows) on each fold of
    the set-based inner folds, cell by cell."""
    folds = inner_folds(material_ids, inner_k, seed)
    return [[score(cell_index, fold, train_rows, val_rows)
             for fold, (train_rows, val_rows) in enumerate(folds)]
            for cell_index in range(len(cells))]


def oracle_forest_grid_search(grid, design, inner_k, seed):
    """Forest inner CV one forest at a time: per cell and inner fold, a
    forest fitted on a copy of the inner-training rows and scored by the
    RMSE of its predictions on the validation rows, through cv_select."""
    cells = grid.cells()

    def score(cell_index, fold, train_rows, val_rows):
        config = rf.ForestConfig(seed=derive_seed(seed, cell_index + 1), **cells[cell_index])
        model = rf.fit_forest(design.features[train_rows], design.targets[train_rows], config)
        return evaluation.rmse(rf.predict_forest(model, design.features[val_rows]),
                               design.targets[val_rows])

    return ds.cv_select(cells, cv_table(cells, design.material_ids, inner_k, seed, score))


def oracle_network_grid_search(grid, design, base_train, inner_k, seed):
    """Network inner CV one network at a time over every channel of the
    design: per cell and inner fold, a network trained alone (mtnn.train)
    and scored by its RMSE in standardized space on the validation rows,
    averaged over channels, through cv_select."""
    channels = every_channel(design)
    cells = grid.cells(len(channels) if len(channels) > 1 else 0)

    def score(cell_index, fold, train_rows, val_rows):
        net_seed = derive_seed(seed, cell_index + 1, fold + 1)
        _, job = evaluation.network_job(design, channels, train_rows, cells[cell_index],
                                        base_train, net_seed, derive_seed(net_seed, 7), val_rows)
        result = mtnn.train(job.net, job.features, job.selector, job.targets, job.config,
                            val=job.val)
        x_val, s_val, y_val = job.val
        return evaluation._channel_mean_rmse(mtnn.forward(result.net, x_val, s_val), y_val,
                                             design.channel_idx[val_rows], len(channels))

    return ds.cv_select(cells, cv_table(cells, design.material_ids, inner_k, seed, score))


def oracle_select_cell(family, design, grids, inner_k, seed):
    """Serial inner CV of the family's grid on every row of the design."""
    if family == "st-rf":
        return oracle_forest_grid_search(grids.forest, design, inner_k, seed)
    return oracle_network_grid_search(grids.mtnn, design, grids.train, inner_k, seed)


def fit_network(design, train_rows, cell, base_train, net_seed, train_seed):
    """evaluation.network_job trained on its own: the fitted standardizer
    and the training result."""
    standardizer, job = evaluation.network_job(design, every_channel(design), train_rows, cell,
                                               base_train, net_seed, train_seed)
    return standardizer, mtnn.train(job.net, job.features, job.selector, job.targets,
                                    job.config)


def oracle_select_and_refit_net(design, train_rows, test_rows, grid, base_train, inner_k, seed):
    search = oracle_network_grid_search(grid, restrict(design, train_rows), base_train, inner_k,
                                        seed)
    refit_seed = derive_seed(seed, 3)
    standardizer, result = fit_network(design, train_rows, search.best_cell, base_train,
                                       refit_seed, derive_seed(refit_seed, 11))
    x_test, s_test, _ = evaluation.network_inputs(design, every_channel(design), test_rows,
                                                  standardizer)
    pred_std = mtnn.forward(result.net, x_test, s_test)
    return standardizer.invert_targets(pred_std, design.channel_idx[test_rows])


def oracle_mtnn_fold(report, design, train_mats, test_mats, grid, base_train, inner_k, seed):
    train_rows = rows_for(design.material_ids, train_mats)
    test_rows = rows_for(design.material_ids, test_mats)
    pred = oracle_select_and_refit_net(design, train_rows, test_rows, grid, base_train,
                                       inner_k, seed)
    evaluation._record_channel_metrics(report, design.registry, pred,
                                       design.targets[test_rows], design.channel_idx[test_rows])


def oracle_st_fold(report, family, design, train_mats, test_mats, grid, forest_grid,
                   base_train, inner_k, seed):
    for pos in range(len(design.registry)):
        single = single_channel_design(design, pos)
        train_rows = rows_for(single.material_ids, train_mats)
        test_rows = rows_for(single.material_ids, test_mats)
        if not np.any(train_rows):
            test_rows = np.zeros_like(test_rows)
        pred = np.empty(0)
        if np.any(test_rows):
            channel_seed = derive_seed(seed, pos + 17)
            if family == "st-nn":
                pred = oracle_select_and_refit_net(single, train_rows, test_rows, grid,
                                                   base_train, inner_k, channel_seed)
            else:
                search = oracle_forest_grid_search(forest_grid, restrict(single, train_rows),
                                                   inner_k, channel_seed)
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
        plan = kfold_by_material(design.material_ids, k, seed)
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
        design = single_channel_design(design, position)
    if family == "st-rf":
        search = oracle_forest_grid_search(forest_grid, design, inner_k, seed)
        config = rf.ForestConfig(seed=derive_seed(seed, 3), **search.best_cell)
        model = rf.fit_forest(design.features, design.targets, config)
        bundle = pipeline.ModelBundle(kind="forest", registry=design.registry,
                                      schema=schema, forest=model)
    else:
        search = oracle_network_grid_search(grid, design, base_train, inner_k, seed)
        all_rows = np.ones(len(design.targets), dtype=bool)
        standardizer, result = fit_network(design, all_rows, search.best_cell, base_train,
                                           derive_seed(seed, 3), derive_seed(seed, 5))
        bundle = pipeline.ModelBundle(kind="mtnn", registry=design.registry, schema=schema,
                                      net=result.net, standardizer=standardizer)
    pipeline.save_model(path, bundle)


def oracle_fit_selected(family, design, train_rows, grids, inner_k, seed, train_seed):
    """fit_selected as it was before one-cell grids skipped inner CV: select,
    then refit. Returns the fitted trees or the network's parameters."""
    search = oracle_select_cell(family, restrict(design, train_rows), grids, inner_k, seed)
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
    data = ds.load_records(data_path, ds.default_registry(), subset_id=SUBSET)
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


@pytest.mark.parametrize("family", ["st-rf", "st-nn"])
def test_single_task_protocol_copies_no_design_rows(inputs, monkeypatch, family):
    """Every single-task fit of a protocol, in selection and refit alike,
    reaches its engine with the design's own feature and target arrays,
    not a copy of its channel's rows."""
    _, schema, design = ds.build_design(inputs["data"], SUBSET, False)
    reached = []
    if family == "st-rf":
        fit_forests = rf.fit_forests

        def spy(x, y, jobs):
            reached.append((x, y))
            return fit_forests(x, y, jobs)

        monkeypatch.setattr(rf, "fit_forests", spy)
    else:
        network_job = evaluation.network_job

        def spy(source, *args, **kwargs):
            reached.append((source.features, source.targets))
            return network_job(source, *args, **kwargs)

        monkeypatch.setattr(evaluation, "network_job", spy)
    evaluation.run_protocol(family, schema, design, SUBSET, seeds=SEEDS[:1], k=FOLDS,
                            grids=inputs["grids"], inner_k=INNER_FOLDS)
    assert len(reached) >= 2  # the selection and the refits
    assert all(x is design.features and y is design.targets for x, y in reached)


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


@pytest.mark.parametrize("family,channel", [("st-rf", "det_pressure:calc"),
                                            ("st-nn", "det_pressure:calc"), ("mt-nn", None)])
def test_tune_scores_the_two_cell_grid(inputs, tmp_path, capsys, family, channel):
    argv = ["tune", "--data", str(inputs["data_path"]), "--subset", str(SUBSET),
            "--family", family, "--grid", str(inputs["grid_path"]),
            "--folds", str(INNER_FOLDS), "--seed", "4", "--out", str(tmp_path / "tune")]
    if channel:
        argv += ["--channel", channel]
    assert cli.main(argv) == 0
    _, _, design = ds.build_design(inputs["data"], SUBSET, False)
    if channel:
        position = design.registry.index_of(design.registry.lookup(*channel.split(":")))
        design = single_channel_design(design, position)
    expected = oracle_select_cell(family, design, inputs["grids"], INNER_FOLDS, 4)
    assert len(expected.table) == 2

    winner = json.loads((tmp_path / "tune" / "winner.json").read_text(encoding="utf-8"))
    assert winner == {**{key: list(value) if isinstance(value, tuple) else value
                         for key, value in expected.best_cell.items()},
                      "mean_val_rmse": expected.best_score}
    columns = list(expected.table[0])
    lines = [",".join(columns)] + [",".join(cli._cell_text(row[column]) for column in columns)
                                   for row in expected.table]
    table = (tmp_path / "tune" / "grid_table.csv").read_text(encoding="utf-8")
    assert table == "\n".join(lines) + "\n"


def test_select_scores_each_forest_fit_as_serial_inner_cv(inputs, monkeypatch):
    """select scores the forests of several fits, with different
    validation sizes, in one predict_forests call. Fits whose plans fail
    between them, one before any forest is planned (the one-material
    channel) and one after its first cell's forests are (min_samples_leaf 5
    above the inner-training rows of six materials), shift no other fit's scores:
    every other fit's score table and GridResult are serial inner CV's, bit
    for bit. Only the fits whose plans hold have forests grown: one
    fit_forests call gets their cells x inner folds jobs, in order."""
    _, _, design = ds.build_design(inputs["data"], SUBSET, False)
    grid = replace(inputs["forest_grid"], min_samples_leaf=(1, 5))

    def fit(channel, seed, materials=None):
        position = design.registry.index_of(design.registry.lookup(*channel.split(":")))
        rows = design.channel_rows(range(position, position + 1))
        if materials is not None:
            rows &= rows_for(design.material_ids, materials)
        return evaluation.Fit("st-rf", range(position, position + 1), rows, np.zeros_like(rows),
                              seed, 0)

    fits = [fit("det_velocity:calc", 3), fit("det_velocity:calc", 4, {m for m, *_ in MOLS[:6]}),
            fit(SPARSE_CHANNEL, 5), fit("det_pressure:calc", 6, {m for m, *_ in MOLS[:9]})]
    tables, grown = [], []
    cv_select, fit_forests = ds.cv_select, rf.fit_forests
    monkeypatch.setattr(ds, "cv_select", lambda cells, scores: tables.append(scores)
                        or cv_select(cells, scores))
    monkeypatch.setattr(rf, "fit_forests", lambda x, y, jobs: grown.append(jobs)
                        or fit_forests(x, y, jobs))
    grids = evaluation.Grids(forest=grid)
    results = evaluation.select(design, fits, grids, INNER_FOLDS)

    def job_keys(jobs):
        return [(job.config, job.rows.tolist()) for job in jobs]

    planned = [evaluation._selection_jobs(design, one, grids, INNER_FOLDS)[1]
               for one in fits[::3]]
    assert [len(jobs) for jobs in planned] == [len(grid.cells()) * INNER_FOLDS] * 2
    assert [job_keys(jobs) for jobs in grown] == [job_keys(planned[0] + planned[1])]

    assert [getattr(result, "code", None) for result in results] == [
        None, "EmptyData", "TooFewMaterials", None]
    for one, result in zip(fits, results):
        if isinstance(result, ToolkitError):
            with pytest.raises(ToolkitError) as serial:
                oracle_forest_grid_search(grid, restrict(design, one.train_rows), INNER_FOLDS,
                                          one.seed)
            assert (serial.value.code, str(serial.value)) == (result.code, str(result))
            continue
        got = tables.pop(0)
        expected = oracle_forest_grid_search(grid, restrict(design, one.train_rows), INNER_FOLDS,
                                             one.seed)
        assert [bits(row) for row in tables.pop()] == [bits(row) for row in got]
        assert repr(result) == repr(expected)
    assert {np.count_nonzero(val) for one in fits[::3] for _, val in inner_folds(
        [m for m, keep in zip(design.material_ids, one.train_rows) if keep], INNER_FOLDS,
        one.seed)} == {3, 4}  # the validation sizes differ


# grids of several network cells: depth x selector token x penalty, and
# learning rate x batch size
NETWORK_GRIDS = {
    "depths": dict(hidden_sizes=((8,), (8, 4)), selector_layer_index=("last", "second_to_last"),
                   learning_rate=(0.01,), batch_size=(16,), l2_penalty=(0.0, 1e-4)),
    "rates": dict(hidden_sizes=((8,),), selector_layer_index=("last",),
                  learning_rate=(0.01, 0.03), batch_size=(8, 16), l2_penalty=(0.0,)),
}


def network_unit(inputs, channel):
    """The design of every channel (None), or a copy of one channel's rows."""
    _, _, design = ds.build_design(inputs["data"], SUBSET, False)
    if channel is None:
        return design
    return single_channel_design(design, design.registry.index_of(
        design.registry.lookup(*channel.split(":"))))


def table_bits(result):
    return [{**row, "mean_val_rmse": float(row["mean_val_rmse"]).hex()} for row in result.table]


@pytest.mark.parametrize("seed", [0, 4])
@pytest.mark.parametrize("channel", [None, "det_velocity:calc"])
@pytest.mark.parametrize("grid_name", NETWORK_GRIDS)
def test_network_grid_search_equals_serial_search(inputs, grid_name, channel, seed):
    """mtnn.grid_search, select of one network fit, is the serial network
    search bit for bit, over several channels and over one."""
    design = network_unit(inputs, channel)
    grid = evaluation.GridSpec(**NETWORK_GRIDS[grid_name])
    result = mtnn.grid_search(grid, design, inputs["base_train"], INNER_FOLDS, seed)
    expected = oracle_network_grid_search(grid, design, inputs["base_train"], INNER_FOLDS, seed)
    assert len(expected.table) > 2
    assert table_bits(result) == table_bits(expected)
    assert result.best_cell == expected.best_cell
    assert float(result.best_score).hex() == float(expected.best_score).hex()


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("channel", [None, "det_velocity:calc"])
@pytest.mark.parametrize("case", ["diverging", "too-few"])
def test_network_grid_search_fails_as_serial_search(inputs, case, channel):
    """A cell that diverges (l2_penalty 1e308) and a design of fewer
    materials than inner folds raise the serial search's error."""
    design = network_unit(inputs, channel)
    grid = evaluation.GridSpec(**{**NETWORK_GRIDS["depths"], "l2_penalty": (0.0, 1e308)})
    if case == "too-few":
        design = restrict(design, rows_for(design.material_ids,
                                           set(design.material_ids[:INNER_FOLDS - 1])))
    with pytest.raises(ToolkitError) as serial:
        oracle_network_grid_search(grid, design, inputs["base_train"], INNER_FOLDS, 3)
    with pytest.raises(ToolkitError) as shim:
        mtnn.grid_search(grid, design, inputs["base_train"], INNER_FOLDS, 3)
    assert serial.value.code == {"diverging": "NonFiniteLoss", "too-few": "TooFewMaterials"}[case]
    assert (type(shim.value), str(shim.value)) == (type(serial.value), str(serial.value))


# ---------------------------------------------------------------------------
# One-cell grids: refit without inner CV, same bits as select-then-refit
# ---------------------------------------------------------------------------

def unit_design(inputs, family):
    """(schema, design, channels, unit): the design fit_all fits, the
    channels a fit of the family models, and the oracles' copy of their
    rows (the design itself for mt-nn)."""
    _, schema, design = ds.build_design(inputs["data"], SUBSET, False)
    if family == "mt-nn":
        return schema, design, every_channel(design), design
    position = design.registry.index_of(design.registry.lookup("det_velocity", "calc"))
    return (schema, design, range(position, position + 1),
            single_channel_design(design, position))


@pytest.mark.parametrize("family", evaluation.MODEL_FAMILIES)
def test_one_cell_fit_selected_equals_select_then_refit(inputs, family):
    grids = inputs["one_cell"]
    schema, design, channels, unit = unit_design(inputs, family)
    train_mats, _ = kfold_by_material(unit.material_ids, FOLDS, 5).train_test(0)
    train_rows = rows_for(design.material_ids, train_mats) & design.channel_rows(channels)
    (bundle,) = evaluation.fit_all(
        design, [evaluation.Fit(family, channels, train_rows, np.zeros_like(train_rows), 9, 10)],
        schema, grids, INNER_FOLDS)
    fitted = bundle.forest.trees if family == "st-rf" else [bundle.net.params]
    expected = oracle_fit_selected(family, unit, rows_for(unit.material_ids, train_mats), grids,
                                   INNER_FOLDS, 9, 10)
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
# selects a fit of every family with select, which scores through cv_select
INNER_CV_PROBES = [
    *[(family, evaluation, "select") for family in evaluation.MODEL_FAMILIES],
    *[(family, ds, "cv_select") for family in evaluation.MODEL_FAMILIES],
]


@pytest.mark.parametrize("family,module,name", INNER_CV_PROBES,
                         ids=[f"{family}-{name}" for family, _, name in INNER_CV_PROBES])
def test_inner_cv_runs_only_for_several_cells(inputs, monkeypatch, family, module, name):
    def refuse(*args, **kwargs):
        raise InnerCVEntered(name)

    monkeypatch.setattr(module, name, refuse)
    schema, design, channels, _ = unit_design(inputs, family)
    rows = design.channel_rows(channels)

    def fit(grids):
        return evaluation.fit_all(
            design, [evaluation.Fit(family, channels, rows, np.zeros_like(rows), 1, 2)], schema,
            grids, INNER_FOLDS)

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
    "network-selection-first": (["diverging-selection", "too-few"], "NonFiniteLoss"),
    "forest-then-network-selection": (["too-few", "diverging-selection"], "TooFewMaterials"),
    "good-then-network-selection": (["good", "diverging-selection"], "NonFiniteLoss"),
}


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("name", FAILURE_ORDERS)
def test_fit_all_raises_the_first_failure_in_plan_order(inputs, name):
    """A network refit that diverges (a one-cell network grid with a huge
    learning rate), selection networks that diverge (the same on a
    two-cell grid), a forest whose inner CV cannot run (the one-material
    channel on a two-cell forest grid) and a one-cell forest refit that
    cannot be planned (min_samples_leaf above the one-material channel's
    one row): fit_all raises the error of the first in plan order, as
    fitting the fits one at a time does, although it trains the networks
    only after every selection forest grows."""
    _, schema, design = ds.build_design(inputs["data"], SUBSET, False)
    names, code = FAILURE_ORDERS[name]
    forest_grid = inputs["forest_grid"]
    if "unplannable" in names:
        forest_grid = replace(inputs["one_cell"].forest, min_samples_leaf=(2,))
    learning_rates = (1e150, 1e151) if "diverging-selection" in names else (1e150,)
    grids = evaluation.Grids(replace(inputs["one_cell"].mtnn, learning_rate=learning_rates),
                             forest_grid, inputs["base_train"])

    def fit(family, channel):
        position = design.registry.index_of(design.registry.lookup(*channel.split(":")))
        rows = design.channel_rows(range(position, position + 1))
        return evaluation.Fit(family, range(position, position + 1), rows, np.zeros_like(rows),
                              3, 4)

    kinds = {"diverging": fit("st-nn", "det_velocity:calc"),
             "diverging-selection": fit("st-nn", "det_velocity:calc"),
             "too-few": fit("st-rf", SPARSE_CHANNEL),
             "unplannable": fit("st-rf", SPARSE_CHANNEL),
             "good": fit("st-rf", "det_velocity:calc")}
    fits = [kinds[kind] for kind in names]

    with pytest.raises(ToolkitError) as alone:
        for one in fits:
            evaluation.fit_all(design, [one], schema, grids, INNER_FOLDS)
    assert alone.value.code == code
    with pytest.raises(ToolkitError) as together:
        evaluation.fit_all(design, fits, schema, grids, INNER_FOLDS)
    assert (together.value.code, str(together.value)) == (alone.value.code, str(alone.value))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("family", ["st-nn", "mt-nn"])
def test_network_fit_without_training_rows_is_one_error(inputs, family):
    """A network fit with no training rows is refused before its rows are
    standardized, so numpy warns of nothing."""
    schema, design, channels, _ = unit_design(inputs, family)
    no_rows = np.zeros(len(design.targets), dtype=bool)
    with pytest.raises(InvalidConfig, match="^empty training batch$"):
        evaluation.fit_all(design, [evaluation.Fit(family, channels, no_rows, no_rows, 1, 2)],
                           schema, inputs["one_cell"], INNER_FOLDS)
