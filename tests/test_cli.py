import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import emprops
from emprops import cli, dataset as ds, descriptors, evaluation


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
        subset = ds.subset_filter(ds.load_records(data, ds.default_registry()), 1)
        schema = descriptors.fit_schema([subset.graphs[m] for m in sorted(subset.graphs)],
                                        include_density=False)
        design = ds.assemble(subset, schema)
        position = subset.registry.index_of(subset.registry.lookup("det_velocity", "calc"))
        expected = evaluation.forest_grid_search(
            evaluation.ForestGridSpec.from_json(grid["forest"]),
            evaluation.single_channel_design(design, position), inner_k=3, seed=7)
        assert winner == {**expected.best_cell, "mean_val_rmse": expected.best_score}

    @pytest.mark.parametrize("family", ["st-rf", "st-nn"])
    def test_tune_single_task_needs_channel(self, tmp_path, capsys, family):
        data = write_dataset(tmp_path)
        grid = write_grid(tmp_path)
        code = cli.main(["tune", "--data", str(data), "--subset", "1", "--family", family,
                         "--grid", str(grid), "--folds", "3", "--out", str(tmp_path / "t")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error InvalidConfig:")

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
