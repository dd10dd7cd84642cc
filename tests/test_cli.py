import hashlib
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import emprops
from emprops import cli, dataset as ds, descriptors, evaluation, modelio
from emprops.errors import InvalidConfig

from conftest import MALFORMED_SMILES


MOLS = [
    ("M01", "CC", 0.7),
    ("M02", "CCC", 0.8),
    ("M03", "CCCC", 0.9),
    ("M04", "CCO", 1.0),
    ("M05", "CCN", 1.0),
    ("M06", "C[N+](=O)[O-]", 1.14),
    ("M07", "CC[N+](=O)[O-]", 1.05),
    ("M08", "CCO[N+](=O)[O-]", 1.10),
    ("M09", "CC#N", 0.78),
    ("M10", "CC(=O)O", 1.05),
    ("M11", "CCCCC", 0.63),
    ("M12", "OCC(O)CO", 1.26),
]


def write_dataset(tmp_path, name="data.csv"):
    lines = ["material_id,smiles,property,fidelity,value,density"]
    for i, (mid, smi, dens) in enumerate(MOLS):
        lines.append(f"{mid},{smi},det_velocity,calc,{5.0 + 0.3 * i},{dens}")
        lines.append(f"{mid},{smi},det_pressure,calc,{10.0 + 0.7 * i},{dens}")
        if i % 2 == 0:
            lines.append(f"{mid},{smi},impact_h50,exp,{20.0 + 5.0 * i},{dens}")
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_grid(tmp_path):
    grid = {
        "mtnn": {"hidden_sizes": [[8]], "selector_layer_index": ["last"],
                 "learning_rate": [0.01], "batch_size": [16], "l2_penalty": [0.0]},
        "forest": {"n_trees": [8], "max_depth": [4], "min_samples_leaf": [1],
                   "max_features": [None]},
        "train": {"max_epochs": 25, "patience": 8},
    }
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid), encoding="utf-8")
    return path


class TestFeaturize:
    def test_emits_csv_and_manifest(self, tmp_path, capsys):
        data = write_dataset(tmp_path)
        out = tmp_path / "feat"
        assert cli.main(["featurize", "--data", str(data), "--out", str(out)]) == 0
        header = (out / "features.csv").read_text().splitlines()[0]
        assert header.startswith("material_id,oxygen_balance_100,gas_product_ratio")
        manifest = json.loads((out / "schema_manifest.json").read_text())
        assert manifest["include_density"] is False
        assert manifest["hydrogen_pseudo_bonds"] is True

    def test_density_column(self, tmp_path, capsys):
        data = write_dataset(tmp_path)
        out = tmp_path / "feat_d"
        assert cli.main(["featurize", "--data", str(data), "--density", "--out", str(out)]) == 0
        header = (out / "features.csv").read_text().splitlines()[0]
        assert header.endswith(",density")

    def test_bad_smiles_reports_its_csv_row(self, tmp_path, capsys):
        data = tmp_path / "mols.csv"
        data.write_text("material_id,smiles\nM1,CC\nM1,CC\nM2,C1CC\n", encoding="utf-8")
        code = cli.main(["featurize", "--data", str(data), "--out", str(tmp_path / "f")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error ParseFailure: row 3: SMILES 'C1CC'")

    def test_non_ascii_digit_is_one_error_line(self, tmp_path, capsys):
        data = tmp_path / "mols.csv"
        data.write_text("material_id,smiles\nX1,C\u00b2\n", encoding="utf-8")
        code = cli.main(["featurize", "--data", str(data), "--out", str(tmp_path / "f")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error ParseFailure: row 1: SMILES 'C\u00b2': unexpected character '\u00b2' "
            "at position 1\n")


class TestCorrelate:
    def test_matrices(self, tmp_path, capsys):
        data = write_dataset(tmp_path)
        out = tmp_path / "corr"
        assert cli.main(["correlate", "--data", str(data), "--out", str(out)]) == 0
        r_lines = (out / "pearson_r.csv").read_text().splitlines()
        overlap_lines = (out / "pearson_overlap.csv").read_text().splitlines()
        assert len(r_lines) == len(overlap_lines) == 12  # header + 11 channels
        row = overlap_lines[6].split(",")  # det_velocity:calc row
        assert row[0] == "det_velocity:calc"
        assert row[6] == "12"
        # recorded before pearson learned to rescale values whose products overflow
        assert hashlib.sha256((out / "pearson_r.csv").read_bytes()).hexdigest() == \
            "fd0deab4618b58d40fd87ad0edbd910bdec143ee0f1604d2785f0ffd1376ea2b"


class TestTuneTrainPredictScreen:
    def test_full_workflow(self, tmp_path, capsys):
        data = write_dataset(tmp_path)
        grid = write_grid(tmp_path)

        tune_out = tmp_path / "tune"
        assert cli.main(["tune", "--data", str(data), "--subset", "1", "--no-density",
                         "--grid", str(grid), "--folds", "3", "--seed", "7",
                         "--out", str(tune_out)]) == 0
        winner = json.loads((tune_out / "winner.json").read_text())
        assert winner["hidden_sizes"] == [8]
        assert (tune_out / "grid_table.csv").exists()
        assert (tune_out / "manifest.json").exists()

        train_out = tmp_path / "train"
        assert cli.main(["train", "--data", str(data), "--subset", "1", "--no-density",
                         "--grid", str(grid), "--folds", "3", "--seed", "7",
                         "--out", str(train_out)]) == 0
        model_path = train_out / "model.emmt"
        assert model_path.exists()
        manifest = json.loads((train_out / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert "data" in manifest["inputs"]

        capsys.readouterr()
        assert cli.main(["predict", "--model", str(model_path), "--smiles", "CCC"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "channel,prediction"
        assert len(out) == 1 + 7  # subset 1 keeps 7 of the default registry channels

    def test_tune_forest_two_cell_grid(self, tmp_path, capsys):
        data = write_dataset(tmp_path)
        grid_path = write_grid(tmp_path)
        grid = json.loads(grid_path.read_text())
        grid["forest"]["min_samples_leaf"] = [1, 2]
        grid_path.write_text(json.dumps(grid), encoding="utf-8")
        out = tmp_path / "tune_rf"
        assert cli.main(["tune", "--data", str(data), "--subset", "1", "--no-density",
                         "--family", "st-rf", "--channel", "det_velocity:calc",
                         "--grid", str(grid_path), "--folds", "3",
                         "--seed", "7", "--out", str(out)]) == 0
        winner = json.loads((out / "winner.json").read_text())
        assert set(winner) == {"n_trees", "max_depth", "min_samples_leaf", "max_features",
                               "mean_val_rmse"}
        assert winner["min_samples_leaf"] in (1, 2)
        lines = (out / "grid_table.csv").read_text().splitlines()
        assert lines[0] == "n_trees,max_depth,min_samples_leaf,max_features,mean_val_rmse"
        assert [line.split(",")[2] for line in lines[1:]] == ["1", "2"]

        # the tuned design is the one channel alone, as train and evaluate fit it
        subset = ds.subset_filter(ds.load_records(data, ds.default_registry(), subset_id=1), 1)
        schema = descriptors.fit_schema([subset.perceptions[m] for m in sorted(subset.perceptions)],
                                        include_density=False)
        design = ds.assemble(subset, schema)
        position = subset.registry.index_of(subset.registry.lookup("det_velocity", "calc"))
        # test_select_refit imports this module
        from test_select_refit import oracle_forest_grid_search, single_channel_design
        expected = oracle_forest_grid_search(
            evaluation.Grids.load(str(grid_path)).forest,
            single_channel_design(design, position), 3, 7)
        assert winner == {**expected.best_cell, "mean_val_rmse": expected.best_score}

    @pytest.mark.parametrize("family", ["st-rf", "st-nn"])
    def test_tune_single_task_needs_channel(self, tmp_path, capsys, family):
        data = write_dataset(tmp_path)
        grid = write_grid(tmp_path)
        code = cli.main(["tune", "--data", str(data), "--subset", "1", "--family", family,
                         "--grid", str(grid), "--folds", "3", "--out", str(tmp_path / "t")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error InvalidConfig:")

    @pytest.mark.parametrize("family", ["st-rf", "st-nn"])
    @pytest.mark.parametrize("command", ["tune", "train"])
    def test_channel_without_records_is_one_error_line(self, tmp_path, capsys, command,
                                                       family):
        """A known channel that the data do not hold: st-nn's train once
        printed numpy's warnings from standardizing no rows before its error."""
        data = write_dataset(tmp_path)
        grid = write_grid(tmp_path)
        code = cli.main([command, "--data", str(data), "--family", family, "--channel",
                         "heat_form_gas:calc", "--grid", str(grid), "--folds", "3",
                         "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error EmptyData: channel heat_form_gas:calc has no records in subset 6\n")

    @pytest.mark.parametrize("command", ["tune", "train"])
    def test_mt_nn_rejects_channel(self, tmp_path, capsys, command):
        data = write_dataset(tmp_path)
        grid = write_grid(tmp_path)
        out = tmp_path / "o"
        code = cli.main([command, "--data", str(data), "--subset", "1", "--family", "mt-nn",
                         "--channel", "bogus:nothing", "--grid", str(grid), "--folds", "3",
                         "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error InvalidConfig: --channel")
        assert not (out / "model.emmt").exists() and not (out / "winner.json").exists()

    def test_predict_missing_density_exit_1(self, tmp_path, capsys):
        data = write_dataset(tmp_path)
        grid = write_grid(tmp_path)
        train_out = tmp_path / "train_d"
        assert cli.main(["train", "--data", str(data), "--subset", "1", "--density",
                         "--grid", str(grid), "--folds", "3", "--seed", "7",
                         "--out", str(train_out)]) == 0
        capsys.readouterr()
        code = cli.main(["predict", "--model", str(train_out / "model.emmt"),
                         "--smiles", "C"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error MissingDensity:")

    def test_screen_sorted_descending_stable(self, tmp_path, capsys):
        data = write_dataset(tmp_path)
        grid = write_grid(tmp_path)
        train_out = tmp_path / "train_s"
        assert cli.main(["train", "--data", str(data), "--subset", "1", "--no-density",
                         "--grid", str(grid), "--folds", "3", "--seed", "7",
                         "--out", str(train_out)]) == 0
        candidates = tmp_path / "candidates.csv"
        candidates.write_text(
            "material_id,smiles,density\nX2,CCC,\nX1,CCC,\nX3,CCCCCC,\n", encoding="utf-8"
        )
        screen_out = tmp_path / "screen"
        assert cli.main(["screen", "--model", str(train_out / "model.emmt"),
                         "--data", str(candidates), "--by", "det_velocity:calc",
                         "--out", str(screen_out)]) == 0
        lines = (screen_out / "screening.csv").read_text().splitlines()
        assert lines[0] == "material_id,smiles,predicted_det_velocity_calc"
        values = [float(line.split(",")[2]) for line in lines[1:]]
        assert values == sorted(values, reverse=True)
        x1 = next(i for i, l in enumerate(lines) if l.startswith("X1"))
        x2 = next(i for i, l in enumerate(lines) if l.startswith("X2"))
        assert x1 < x2  # identical predictions tie-break by material_id

    def test_screen_ranks_nan_predictions_last(self, tmp_path, capsys):
        # A forest whose empty-child leaves predict NaN, by hydrogen count:
        # C (4 H) 3.0, CC (6) NaN, CCC (8) 1.0, CCCC and up NaN.
        from emprops import forest as rf, pipeline
        from emprops.molgraph import parse_smiles

        h = descriptors.FIXED_BLOCK_NAMES.index("hydrogen_count")
        nan = float("nan")
        tree = np.array([[h, 7.0, 0.0, 1, 4], [h, 5.0, 0.0, 2, 3], [-1, 0.0, 3.0, -1, -1],
                         [-1, 0.0, nan, -1, -1], [h, 9.0, 0.0, 5, 6], [-1, 0.0, 1.0, -1, -1],
                         [-1, 0.0, nan, -1, -1]])
        candidates = [("X5", "CCC"), ("X1", "CC"), ("X3", "C"), ("X2", "CCCC"),
                      ("X4", "CCC"), ("X0", "C"), ("X6", "CCCCC")]
        schema = descriptors.fit_schema([parse_smiles(s) for _, s in candidates], False)
        forest = rf.RandomForest(config=rf.ForestConfig(n_trees=1), trees=[tree],
                                 n_features=len(schema))
        registry = ds.PropertyRegistry(channels=(ds.PropertyChannel("det_velocity", "calc"),))
        model = tmp_path / "model.emrf"
        pipeline.save_model(model, pipeline.ModelBundle(kind="forest", registry=registry,
                                                        schema=schema, forest=forest))
        data = tmp_path / "candidates.csv"
        data.write_text("material_id,smiles,density\n"
                        + "".join(f"{m},{s},\n" for m, s in candidates), encoding="utf-8")
        assert cli.main(["screen", "--model", str(model), "--data", str(data),
                         "--by", "det_velocity:calc"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [(m, v) for m, _, v in rows] == [
            ("X0", "3"), ("X3", "3"), ("X4", "1"), ("X5", "1"),
            ("X1", "nan"), ("X2", "nan"), ("X6", "nan")]


class TestEvaluate:
    def test_no_density_subset_2_runs(self, tmp_path, capsys):
        data = write_dataset(tmp_path)
        grid = write_grid(tmp_path)
        out = tmp_path / "ev"
        assert cli.main(["evaluate", "--data", str(data), "--subset", "2", "--no-density",
                         "--models", "mt-nn", "--seeds", "1,2", "--folds", "3",
                         "--inner-folds", "3", "--grid", str(grid), "--out", str(out)]) == 0
        report = (out / "report.csv").read_text()
        assert "MT-NN-sub2" in report
        assert "impact_h50:exp" in report
        assert (out / "table2_log_h50.md").exists()

    @pytest.mark.parametrize("cells", [1, 2])
    def test_sparse_channel_needs_inner_cv_only_for_several_cells(self, tmp_path, capsys,
                                                                  cells):
        """impact_h50:exp has 6 of the 12 materials, so no outer training fold
        holds 5 of them for 5 inner folds; a one-cell grid is refit without."""
        grid = write_grid(tmp_path)
        spec = json.loads(grid.read_text())
        spec["forest"]["min_samples_leaf"] = [1, 2][:cells]
        grid.write_text(json.dumps(spec), encoding="utf-8")
        out = tmp_path / "ev"
        code = cli.main(["evaluate", "--data", str(write_dataset(tmp_path)), "--subset", "2",
                         "--no-density", "--models", "st-rf", "--seeds", "1", "--folds", "3",
                         "--inner-folds", "5", "--grid", str(grid), "--out", str(out)])
        err = capsys.readouterr().err
        if cells == 2:
            assert code == 1
            assert err.startswith("error TooFewMaterials:") and err.endswith("< 5 folds\n")
            return
        assert code == 0
        rows = {line.split(",")[1]: line.split(",")
                for line in (out / "report.csv").read_text().splitlines()[1:]}
        assert rows["impact_h50:exp"][6] == "3"  # n_rmse: every outer fold scored

    @pytest.mark.parametrize("density", ["--no-density", "--density"])
    def test_families_share_one_design(self, tmp_path, capsys, monkeypatch, density):
        """One perception per molecule (on one CPU, so that none is perceived
        in a child), one schema, one row per material."""
        calls = []
        perceive, fit_schema = descriptors.perceive, descriptors.fit_schema
        row = descriptors.Perception.row
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(descriptors, "perceive",
                            lambda *a, **k: calls.append("perceive") or perceive(*a, **k))
        monkeypatch.setattr(descriptors, "fit_schema",
                            lambda *a, **k: calls.append("fit_schema") or fit_schema(*a, **k))
        monkeypatch.setattr(descriptors.Perception, "row",
                            lambda *a, **k: calls.append("row") or row(*a, **k))
        assert cli.main(["evaluate", "--data", str(write_dataset(tmp_path)), "--subset", "2",
                         density, "--models", "st-rf,st-nn,mt-nn", "--seeds", "1",
                         "--folds", "3", "--inner-folds", "3", "--grid", str(write_grid(tmp_path)),
                         "--out", str(tmp_path / "ev")]) == 0
        assert [calls.count(name) for name in ("perceive", "fit_schema", "row")] \
            == [len(MOLS), 1, len(MOLS)]

    def test_byte_identical_reruns(self, tmp_path, capsys):
        data = write_dataset(tmp_path)
        grid = write_grid(tmp_path)
        outputs = []
        for name in ("run_a", "run_b"):
            out = tmp_path / name
            assert cli.main(["evaluate", "--data", str(data), "--subset", "1",
                             "--no-density", "--models", "st-rf,mt-nn", "--seeds", "1,2",
                             "--folds", "3", "--inner-folds", "3", "--grid", str(grid),
                             "--out", str(out)]) == 0
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()
                            if p.suffix == ".csv" or p.suffix == ".md"})
        assert outputs[0] == outputs[1]


FOLD_COUNT_CASES = [
    ["evaluate", "--models", "mt-nn", "--folds", "0"],
    ["evaluate", "--models", "st-rf,mt-nn", "--folds", "3", "--inner-folds", "1"],
    ["tune", "--folds", "0"],
    ["train", "--folds", "1"],
]


@pytest.mark.parametrize("argv", FOLD_COUNT_CASES,
                         ids=["evaluate-folds-0", "evaluate-inner-folds-1", "tune-folds-0",
                              "train-folds-1"])
def test_fold_counts_below_two_exit_1(tmp_path, capsys, argv):
    data = write_dataset(tmp_path)
    grid = write_grid(tmp_path)
    code = cli.main([argv[0], "--data", str(data), "--subset", "1", "--grid", str(grid),
                     "--out", str(tmp_path / "o"), *argv[1:]])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error InvalidConfig: need at least 2 folds")
    assert len(err.splitlines()) == 1


BAD_DENSITIES = ["abc", "nan", "inf", "0", "-1.2"]


class TestBadDensity:
    @pytest.mark.parametrize("density", BAD_DENSITIES)
    def test_featurize(self, tmp_path, capsys, density):
        data = tmp_path / "mols.csv"
        data.write_text(f"material_id,smiles,density\nM1,CC,1.0\nM2,CCO,{density}\n",
                        encoding="utf-8")
        code = cli.main(["featurize", "--data", str(data), "--out", str(tmp_path / "f")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error ParseFailure: row 2:")

    @pytest.mark.parametrize("density", BAD_DENSITIES)
    def test_screen(self, tmp_path, capsys, density):
        data = write_dataset(tmp_path)
        grid = write_grid(tmp_path)
        train_out = tmp_path / "train"
        assert cli.main(["train", "--data", str(data), "--subset", "1", "--no-density",
                         "--family", "st-rf", "--channel", "det_velocity:calc",
                         "--grid", str(grid), "--folds", "3", "--out", str(train_out)]) == 0
        candidates = tmp_path / "candidates.csv"
        candidates.write_text(f"material_id,smiles,density\nX1,CCC,{density}\n",
                              encoding="utf-8")
        capsys.readouterr()
        code = cli.main(["screen", "--model", str(train_out / "model.emrf"),
                         "--data", str(candidates), "--by", "det_velocity:calc"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error ParseFailure: row 1:")


    @pytest.mark.parametrize("takes_density", [False, True], ids=["no-density", "density"])
    @pytest.mark.parametrize("density", [d for d in BAD_DENSITIES if d != "abc"])  # exit 2
    def test_predict(self, tmp_path, capsys, density, takes_density):
        model = tmp_path / "rf"
        assert cli.main(["train", "--data", str(write_dataset(tmp_path)), "--subset", "1",
                         "--density" if takes_density else "--no-density",
                         "--family", "st-rf", "--channel", "det_velocity:calc",
                         "--grid", str(write_grid(tmp_path)), "--folds", "3",
                         "--out", str(model)]) == 0
        capsys.readouterr()
        code = cli.main(["predict", "--model", str(model / "model.emrf"), "--smiles", "CCO",
                         "--density", density])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error InvalidConfig: --density ") and len(err.splitlines()) == 1


@pytest.fixture(scope="module")
def model_files(tmp_path_factory):
    """An EMMT and an EMRF file trained on the small dataset, by magic."""
    tmp_path = tmp_path_factory.mktemp("models")
    common = ["train", "--data", str(write_dataset(tmp_path)), "--subset", "1",
              "--grid", str(write_grid(tmp_path)), "--folds", "3"]
    assert cli.main([*common, "--out", str(tmp_path / "mt")]) == 0
    assert cli.main([*common, "--family", "st-rf", "--channel", "det_velocity:calc",
                     "--out", str(tmp_path / "rf")]) == 0
    return {modelio.MAGIC_MTNN: tmp_path / "mt" / "model.emmt",
            modelio.MAGIC_FOREST: tmp_path / "rf" / "model.emrf"}


def rewrite_header(source, target, magic, edit):
    """Copy a model file with its header edited and its checksum recomputed."""
    header, payload = modelio.read_container(source, magic)
    edit(header)
    modelio.write_container(target, magic, header, [np.frombuffer(payload, dtype="<f8")])


HEADER_KEYS = [(modelio.MAGIC_MTNN, key)
               for key in ("config", "registry", "schema", "standardizer", "layer_shapes")]
HEADER_KEYS += [(modelio.MAGIC_FOREST, key)
                for key in ("config", "registry", "schema", "tree_sizes", "n_features")]


def set_first(key, value, section=None):
    """A header edit that sets the first entry of header[section][key]."""
    def edit(header):
        (header[section] if section else header)[key][0] = value
    return edit


_TREE_SIZES = "tree_sizes in forest file are not all positive integers"
_VOCABULARY = ("malformed model header (ValueError: bond vocabulary entry {} is not an "
               "(element, element, order) triple)")
# (magic, header edit, error message) of header values that once ended in a
# traceback or loaded silently
HEADER_VALUE_ERRORS = {
    "EMRF-tree-size-infinity": (modelio.MAGIC_FOREST, set_first("tree_sizes", math.inf),
                                _TREE_SIZES),
    "EMRF-tree-size-true": (modelio.MAGIC_FOREST, set_first("tree_sizes", True), _TREE_SIZES),
    "EMRF-tree-size-zero": (modelio.MAGIC_FOREST, set_first("tree_sizes", 0), _TREE_SIZES),
    "EMRF-tree-size-float": (modelio.MAGIC_FOREST, set_first("tree_sizes", 3.0), _TREE_SIZES),
    "EMRF-vocabulary-nested-list": (modelio.MAGIC_FOREST,
                                    set_first("bond_vocabulary", [[1, 2]], "schema"),
                                    _VOCABULARY.format("[[1, 2]]")),
    "EMMT-vocabulary-nested-list": (modelio.MAGIC_MTNN,
                                    set_first("bond_vocabulary", [[1, 2]], "schema"),
                                    _VOCABULARY.format("[[1, 2]]")),
    "EMMT-vocabulary-one-number": (modelio.MAGIC_MTNN, set_first("bond_vocabulary", [1], "schema"),
                                   _VOCABULARY.format("[1]")),
    "EMMT-vocabulary-unknown-element": (modelio.MAGIC_MTNN,
                                        set_first("bond_vocabulary", ["C", "S", "single"],
                                                  "schema"),
                                        _VOCABULARY.format("['C', 'S', 'single']")),
    "EMMT-vocabulary-unknown-order": (modelio.MAGIC_MTNN,
                                      set_first("bond_vocabulary", ["C", "C", "quadruple"],
                                                "schema"),
                                      _VOCABULARY.format("['C', 'C', 'quadruple']")),
}


class TestModelHeader:
    @pytest.mark.parametrize("magic", [modelio.MAGIC_MTNN, modelio.MAGIC_FOREST])
    def test_unedited_copy_predicts(self, tmp_path, capsys, model_files, magic):
        path = tmp_path / "copy"
        rewrite_header(model_files[magic], path, magic, lambda header: None)
        assert cli.main(["predict", "--model", str(path), "--smiles", "CCC"]) == 0

    @pytest.mark.parametrize("edit", ["missing", "mistyped"])
    @pytest.mark.parametrize("magic,key", HEADER_KEYS,
                             ids=[f"{m.decode()}-{k}" for m, k in HEADER_KEYS])
    def test_bad_key_is_corrupt_file(self, tmp_path, capsys, model_files, magic, key, edit):
        def change(header):
            if edit == "missing":
                del header[key]
            else:
                header[key] = "x"

        path = tmp_path / "edited"
        rewrite_header(model_files[magic], path, magic, change)
        code = cli.main(["predict", "--model", str(path), "--smiles", "CCC"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error CorruptFile:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("change", [-1, 1], ids=["short", "long"])
    @pytest.mark.parametrize("array", ["feature_mean", "feature_std", "feature_constant",
                                       "target_mean", "target_std", "target_constant"])
    def test_standardizer_length_is_corrupt_file(self, tmp_path, capsys, model_files, array,
                                                 change):
        def resize(header):
            values = header["standardizer"][array]
            header["standardizer"][array] = values[:-1] if change < 0 else values + values[:1]

        path = tmp_path / "resized.emmt"
        rewrite_header(model_files[modelio.MAGIC_MTNN], path, modelio.MAGIC_MTNN, resize)
        code = cli.main(["predict", "--model", str(path), "--smiles", "CCC"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error CorruptFile: standardizer") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("magic,key,value", [(modelio.MAGIC_FOREST, "n_trees", True),
                                                 (modelio.MAGIC_MTNN, "l2_penalty", False)],
                             ids=["EMRF-n_trees-true", "EMMT-l2_penalty-false"])
    def test_boolean_config_value_is_corrupt_file(self, tmp_path, capsys, model_files, magic,
                                                  key, value):
        path = tmp_path / "boolean"
        rewrite_header(model_files[magic], path, magic,
                       lambda header: header["config"].update({key: value}))
        code = cli.main(["predict", "--model", str(path), "--smiles", "CCC"])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error CorruptFile: malformed model header "
                                                  f"(InvalidConfig: {key} must be")

    @pytest.mark.parametrize("header", [b"{not json", b'{"config": "\xff"}',
                                        b"[" * 100000 + b"]" * 100000],
                             ids=["not-json", "not-utf8", "nested-too-deep"])
    def test_header_that_is_not_json_is_corrupt_file(self, tmp_path, capsys, header):
        body = struct.pack("<Q", len(header)) + header
        path = tmp_path / "model.emmt"
        path.write_bytes(modelio.MAGIC_MTNN + struct.pack("<I", modelio.FORMAT_VERSION)
                         + struct.pack("<Q", modelio._checksum(body)) + body)
        code = cli.main(["predict", "--model", str(path), "--smiles", "CCC"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error CorruptFile: model header is not JSON")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("keep", [0, -1], ids=["no-trees", "one-tree-short"])
    def test_forest_tree_count_must_match_config(self, tmp_path, capsys, model_files, keep):
        source = model_files[modelio.MAGIC_FOREST]
        header, payload = modelio.read_container(source, modelio.MAGIC_FOREST)
        trees = modelio.split_payload(payload, [(size, 5) for size in header["tree_sizes"]])
        header["tree_sizes"] = header["tree_sizes"][:keep]
        path = tmp_path / "short.emrf"
        modelio.write_container(path, modelio.MAGIC_FOREST, header, trees[:keep])
        code = cli.main(["predict", "--model", str(path), "--smiles", "CC[N+](=O)[O-]"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error CorruptFile: forest file holds") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("case", HEADER_VALUE_ERRORS)
    def test_bad_header_value_is_corrupt_file(self, tmp_path, capsys, model_files, case):
        magic, edit, message = HEADER_VALUE_ERRORS[case]
        path = tmp_path / "edited"
        rewrite_header(model_files[magic], path, magic, edit)
        code = cli.main(["predict", "--model", str(path), "--smiles", "CC[N+](=O)[O-]"])
        assert code == 1
        assert capsys.readouterr().err == f"error CorruptFile: {message}\n"

    def test_forest_width_must_match_schema(self, tmp_path, capsys, model_files):
        path = tmp_path / "wide.emrf"
        rewrite_header(model_files[modelio.MAGIC_FOREST], path, modelio.MAGIC_FOREST,
                       lambda header: header.update(n_features=header["n_features"] + 1))
        code = cli.main(["predict", "--model", str(path), "--smiles", "CCC"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error CorruptFile: model takes")


MOLECULE_ERRORS = {
    "multi-fragment": ("CC.O", "error MultiFragment: material 'X3' (row 2): "),
    "bad-smiles": ("C1CC", "error ParseFailure: row 2: SMILES 'C1CC': "),
}


class TestMoleculeErrors:
    """featurize and screen name the material and CSV data row of a
    molecule they cannot parse or featurize."""

    @pytest.mark.parametrize("command", ["featurize", "screen-EMMT", "screen-EMRF"])
    @pytest.mark.parametrize("case", MOLECULE_ERRORS)
    def test_names_material_and_row(self, tmp_path, capsys, model_files, command, case):
        smiles, expected = MOLECULE_ERRORS[case]
        data = tmp_path / "mols.csv"
        data.write_text(f"material_id,smiles\nX1,CCO\nX3,{smiles}\n", encoding="utf-8")
        if command == "featurize":
            argv = ["featurize", "--data", str(data), "--out", str(tmp_path / "f")]
        else:
            model = model_files[command.split("-")[1].encode()]
            argv = ["screen", "--model", str(model), "--data", str(data),
                    "--by", "det_velocity:calc"]
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(expected) and len(err.splitlines()) == 1

    @pytest.mark.parametrize("smiles", MALFORMED_SMILES, ids=repr)
    def test_malformed_smiles_is_one_error_line(self, tmp_path, capsys, model_files, smiles):
        """Through predict --smiles and through a quoted featurize field."""
        message = MALFORMED_SMILES[smiles]
        code = cli.main(["predict", "--model", str(model_files[modelio.MAGIC_MTNN]),
                         "--smiles", smiles])
        assert code == 1
        assert capsys.readouterr().err == f"error SmilesSyntaxError: {message}\n"
        data = tmp_path / "mols.csv"
        data.write_text(f'material_id,smiles\nX1,CCO\nX3,"{smiles}"\n', encoding="utf-8")
        code = cli.main(["featurize", "--data", str(data), "--out", str(tmp_path / "f")])
        assert code == 1
        assert capsys.readouterr().err == f"error ParseFailure: row 2: SMILES {smiles!r}: {message}\n"

    def test_featurize_missing_density(self, tmp_path, capsys):
        data = tmp_path / "mols.csv"
        data.write_text("material_id,smiles,density\nM1,CC,1.0\nM2,CCO,\n", encoding="utf-8")
        code = cli.main(["featurize", "--data", str(data), "--density",
                         "--out", str(tmp_path / "f")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error MissingDensity: material 'M2' (row 2): ")


GRID_ERRORS = {
    "not-json": "{not json",
    "hidden-sizes-not-nested": '{"mtnn": {"hidden_sizes": [8]}}',
    "max-epochs-string": '{"train": {"max_epochs": "5"}}',
    "learning-rate-string": '{"mtnn": {"learning_rate": ["x"]}}',
    "batch-size-float": '{"mtnn": {"batch_size": [16.5]}}',
    "hidden-size-zero": '{"mtnn": {"hidden_sizes": [[8, 0]]}}',
    "n-trees-string": '{"forest": {"n_trees": ["x"]}}',
    "min-samples-leaf-float": '{"forest": {"min_samples_leaf": [1.5]}}',
    "max-features-zero": '{"forest": {"max_features": [null, 0]}}',
    "patience-above-max-epochs": '{"train": {"max_epochs": 5, "patience": 6}}',
    "selector-layer-float": '{"mtnn": {"selector_layer_index": [1.5]}}',
    "selector-layer-string-digit": '{"mtnn": {"selector_layer_index": ["2"]}}',
    "unknown-section": '{"mtn": {"hidden_sizes": [[8]]}}',
    "unknown-forest-axis": '{"forest": {"n_tree": [5]}}',
    "unknown-mtnn-axis": '{"mtnn": {"hidden_size": [[8]]}}',
    "top-level-not-object": '[{"mtnn": {}}]',
    "section-not-object": '{"forest": [5]}',
    "selector-layer-beyond-depth": '{"mtnn": {"hidden_sizes": [[8]], "selector_layer_index": [5]}}',
    "selector-layer-beyond-every-depth":
        '{"mtnn": {"hidden_sizes": [[8], [8, 8]], "selector_layer_index": [1, 5]}}',
    "train-learning-rate": '{"train": {"learning_rate": 0.01}}',
    "train-batch-size": '{"train": {"batch_size": 16}}',
    "train-seed": '{"train": {"seed": 3}}',
    "mtnn-axis-empty": '{"mtnn": {"learning_rate": []}}',
    "forest-axis-empty": '{"forest": {"n_trees": []}}',
    "max-epochs-true": '{"train": {"max_epochs": true, "patience": 0}}',
    "hidden-size-true": '{"mtnn": {"hidden_sizes": [[true]]}}',
    "n-trees-true": '{"forest": {"n_trees": [true]}}',
    "learning-rate-true": '{"mtnn": {"learning_rate": [true]}}',
    "l2-penalty-false": '{"mtnn": {"l2_penalty": [false]}}',
    "learning-rate-infinity": '{"mtnn": {"learning_rate": [Infinity]}}',
    "l2-penalty-infinity": '{"mtnn": {"l2_penalty": [Infinity]}}',
    "nested-too-deep": "[" * 100000 + "]" * 100000,
    "axis-not-list": '{"mtnn": {"learning_rate": 0.01}}',
}

# the section.key that a value-level grid error names
GRID_ERROR_KEYS = {
    "hidden-sizes-not-nested": "mtnn.hidden_sizes",
    "max-epochs-string": "train.max_epochs",
    "learning-rate-string": "mtnn.learning_rate",
    "batch-size-float": "mtnn.batch_size",
    "hidden-size-zero": "mtnn.hidden_sizes",
    "n-trees-string": "forest.n_trees",
    "min-samples-leaf-float": "forest.min_samples_leaf",
    "max-features-zero": "forest.max_features",
    "selector-layer-float": "mtnn.selector_layer_index",
    "selector-layer-string-digit": "mtnn.selector_layer_index",
    "selector-layer-beyond-depth": "mtnn.selector_layer_index",
    "mtnn-axis-empty": "mtnn.learning_rate",
    "forest-axis-empty": "forest.n_trees",
    "max-epochs-true": "train.max_epochs",
    "hidden-size-true": "mtnn.hidden_sizes",
    "n-trees-true": "forest.n_trees",
    "learning-rate-true": "mtnn.learning_rate",
    "l2-penalty-false": "mtnn.l2_penalty",
    "learning-rate-infinity": "mtnn.learning_rate",
    "l2-penalty-infinity": "mtnn.l2_penalty",
    "axis-not-list": "mtnn.learning_rate",
    "patience-above-max-epochs": "train.patience",
}


class TestConfigErrors:
    @pytest.mark.parametrize("text", GRID_ERRORS.values(), ids=GRID_ERRORS)
    def test_bad_grid_json(self, tmp_path, capsys, text):
        grid = tmp_path / "grid.json"
        grid.write_text(text, encoding="utf-8")
        code = cli.main(["train", "--data", str(write_dataset(tmp_path)), "--subset", "1",
                         "--grid", str(grid), "--folds", "3", "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error InvalidConfig: grid file {grid}:")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("case", GRID_ERROR_KEYS)
    def test_bad_grid_value_names_its_key(self, tmp_path, case):
        grid = tmp_path / "grid.json"
        grid.write_text(GRID_ERRORS[case], encoding="utf-8")
        with pytest.raises(InvalidConfig) as excinfo:
            evaluation.Grids.load(str(grid))
        assert str(excinfo.value).startswith(f"grid file {grid}: {GRID_ERROR_KEYS[case]}: ")

    def test_network_too_large_to_allocate(self, tmp_path, capsys):
        """407 TiB of parameters: the allocation fails at once, so the
        command ends in one error line, not a MemoryError traceback."""
        grid = tmp_path / "grid.json"
        grid.write_text('{"mtnn": {"hidden_sizes": [[1000000000000]]}, '
                        '"train": {"max_epochs": 2, "patience": 1}}', encoding="utf-8")
        code = cli.main(["train", "--data", str(write_dataset(tmp_path)), "--subset", "2",
                         "--grid", str(grid), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == ("error InvalidConfig: hidden_sizes [1000000000000] give "
                       "57,000,000,000,001 parameters, more than memory holds\n")

    def test_selector_layer_pairs_with_the_entries_deep_enough(self, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text('{"mtnn": {"hidden_sizes": [[8], [8, 8]], '
                        '"selector_layer_index": [1, 2]}}', encoding="utf-8")
        cells = evaluation.Grids.load(str(grid)).mtnn.cells(2)
        assert [(c["hidden_sizes"], c["selector_layer_index"]) for c in cells] == [
            ((8,), 1), ((8, 8), 1), ((8, 8), 2)]

    def test_readme_grid_example_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        example = readme.split("**Grid JSON**", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
        grid = tmp_path / "grid.json"
        grid.write_text(example, encoding="utf-8")
        grids = evaluation.Grids.load(str(grid))
        assert grids.mtnn.hidden_sizes == ((64,), (128, 64))
        assert grids.forest.min_samples_leaf == (1, 3)
        assert (grids.train.max_epochs, grids.train.patience) == (400, 40)

    @pytest.mark.parametrize("text", [
        '[{"property": "det_velocity", "unit": "km/s"}]',  # no fidelity
        "[not json",
        "[" * 100000 + "]" * 100000,
    ], ids=["entry-without-fidelity", "not-json", "nested-too-deep"])
    def test_bad_registry_json(self, tmp_path, capsys, text):
        registry = tmp_path / "registry.json"
        registry.write_text(text, encoding="utf-8")
        code = cli.main(["correlate", "--data", str(write_dataset(tmp_path)),
                         "--registry", str(registry), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error InvalidConfig:") and len(err.splitlines()) == 1


class TestMissingFile:
    @pytest.mark.parametrize("flag", ["--data", "--grid", "--registry", "--model"])
    def test_missing_input_file(self, tmp_path, capsys, model_files, flag):
        inputs = {"--data": write_dataset(tmp_path), "--grid": write_grid(tmp_path),
                  "--registry": None, "--model": model_files[modelio.MAGIC_MTNN]}
        missing = tmp_path / "absent" / "file"
        inputs[flag] = missing
        if flag == "--model":
            argv = ["predict", "--model", str(missing), "--smiles", "CCC"]
        else:
            argv = ["train", "--data", str(inputs["--data"]), "--grid", str(inputs["--grid"]),
                    "--folds", "3", "--out", str(tmp_path / "o")]
            if inputs["--registry"]:
                argv += ["--registry", str(inputs["--registry"])]
        code = cli.main(argv)
        assert code == 1
        assert capsys.readouterr().err == f"error MissingFile: {missing}\n"
        assert not (tmp_path / "o" / "model.emmt").exists()


class TestUsageErrors:
    def test_unknown_flag_exit_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["featurize", "--data", "x.csv", "--out", "y", "--bogus"])
        assert excinfo.value.code == 2

    def test_unknown_subcommand_exit_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_toolkit_error_exit_1(self, tmp_path, capsys):
        missing = tmp_path / "data.csv"
        missing.write_text("material_id,smiles,property,fidelity,value,density\n"
                           "M1,CC,bogus,exp,1.0,\n", encoding="utf-8")
        code = cli.main(["correlate", "--data", str(missing), "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error UnknownChannel:")


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ)
    src = str(Path(emprops.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-m", "emprops", "--version"], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == f"emprops {emprops.__version__}"
