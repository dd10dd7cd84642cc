"""Acceptance suite.

Each test covers one acceptance criterion and prints a single
"PASS criterion N" line when it holds (run with -s to see them inline).
Timed criteria assert their own runtime budgets.
"""

import json
import math
import re
import time
from pathlib import Path

import numpy as np

from emprops import cli, dataset as ds
from emprops import descriptors as d
from emprops import evaluation, forest as rf, mtnn, pipeline
from emprops.molgraph import molecular_formula, parse_smiles
from emprops.rng import SplitMix64

from conftest import CORPUS, NITROGLYCERIN, RDX, SPELLING_PAIRS, TNT
from test_forest import oracle_best_split
from test_mtnn import finite_difference, max_relative_error, random_case

FIXTURES = Path(__file__).parent / "fixtures"


def report(number: int, label: str) -> None:
    print(f"PASS criterion {number}: {label}")


def test_criterion_01_descriptor_oracles():
    start = time.monotonic()
    tol = 1e-9
    assert abs(d.oxygen_balance(molecular_formula(parse_smiles(TNT))) - (-50.0)) < tol
    assert abs(d.oxygen_balance(molecular_formula(parse_smiles(NITROGLYCERIN))) - 2.5) < tol
    assert abs(d.gas_product_ratio(molecular_formula(parse_smiles(RDX))) - 816 / 888) < tol
    assert abs(d.gas_product_ratio(molecular_formula(parse_smiles(TNT))) - 656 / 908) < tol
    assert abs(d.estate_vector(parse_smiles("CC"))["estate_C"] - 4.0) < tol
    assert abs(d.vdw_volume(parse_smiles("C")) - 25.86) < tol
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"descriptor oracles took {elapsed:.3f}s"
    report(1, f"descriptor oracle suite within 1e-9 in {elapsed:.3f}s")


def test_criterion_02_representation_invariance():
    assert len(SPELLING_PAIRS) >= 10
    graphs = [(parse_smiles(a), parse_smiles(b)) for a, b in SPELLING_PAIRS]
    corpus = [g for pair in graphs for g in pair]
    schema = d.fit_schema(corpus, include_density=False)
    for (sa, sb), (ga, gb) in zip(SPELLING_PAIRS, graphs):
        va = d.featurize(ga, schema)
        vb = d.featurize(gb, schema)
        assert np.array_equal(va, vb), (sa, sb)
    report(2, f"{len(SPELLING_PAIRS)} spelling pairs give bitwise-identical vectors")


def test_criterion_03_estate_conservation():
    from emprops.molgraph.elements import PRINCIPAL_QUANTUM, VALENCE_ELECTRONS

    for name, smiles in CORPUS.items():
        g = parse_smiles(smiles)
        total_s = math.fsum(d.estate_vector(g).values())
        total_i = 0.0
        for atom in g.atoms:
            delta = g.heavy_degree(atom.index)
            if delta == 0:
                continue
            delta_v = VALENCE_ELECTRONS[atom.element] - atom.implicit_h
            scale = (2.0 / PRINCIPAL_QUANTUM[atom.element]) ** 2
            total_i += (scale * delta_v + 1.0) / delta
        assert abs(total_s - total_i) < 1e-9, name
    report(3, f"sum(S) == sum(I) within 1e-9 on all {len(CORPUS)} corpus molecules")


def test_criterion_04_gradient_check_200_cases():
    start = time.monotonic()
    depth_cycle = [(4,), (6, 4), (5,), (4, 4, 3), (8, 5), (3, 3, 3)]
    worst = 0.0
    for case in range(200):
        hidden = depth_cycle[case % len(depth_cycle)]
        selector_dim = (0, 2, 3, 4)[case % 4]
        selector_layer_index = 0 if selector_dim == 0 else (case % len(hidden)) + 1
        l2 = (0.0, 1e-4, 1e-3)[case % 3]
        net, x, s, y = random_case(1000 + case, selector_dim, hidden,
                                   selector_layer_index, l2)
        grad, _ = mtnn.gradients(net, x, s, y)
        err = max_relative_error(grad, finite_difference(net, x, s, y))
        assert err < 1e-5, f"case {case}: relative error {err}"
        worst = max(worst, err)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"gradient check took {elapsed:.1f}s"
    report(4, f"200 cases, worst relative error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_05_selector_behavior():
    config = mtnn.MTNetConfig(3, 4, (5, 3), 2, seed=11)
    net = mtnn.init_network(config)
    net.weights[1][:, 5:] = 0.0
    x = np.random.default_rng(3).normal(size=(5, 3))
    outputs = [mtnn.forward(net, x, np.tile(np.eye(4)[k], (5, 1))) for k in range(4)]
    for other in outputs[1:]:
        assert np.array_equal(outputs[0], other)

    net2 = mtnn.init_network(config)
    for k in range(4):
        net2.weights[1][:, 5 + k] = float(k + 1)
    net2.biases[1][:] = 5.0  # keep the augmented layer active
    outputs2 = [float(mtnn.forward(net2, x[:1], np.eye(4)[k][None, :])[0]) for k in range(4)]
    assert len(set(outputs2)) == 4
    report(5, "zeroed selector columns invariant; constructed weights separate channels")


def test_criterion_06_split_hygiene():
    rng = SplitMix64(2718)
    for trial in range(50):
        n = 5 + rng.next_below(80)
        k = 2 + rng.next_below(4)
        seed = rng.next_u64()
        ids = [f"M{i:03d}" for i in range(n)]
        labels = ds.kfold_by_material(ids, k, seed)
        again = ds.kfold_by_material(ids, k, seed)
        assert labels.tolist() == again.tolist()
        folds = [{m for m, f in zip(ids, labels) if f == fold} for fold in range(k)]
        assert set().union(*folds) == set(ids)
        assert sum(len(f) for f in folds) == n
        for fold in range(k):
            train = {m for m, f in zip(ids, labels) if f != fold}
            assert not (train & folds[fold])
    report(6, "50 random datasets: folds partition materials, no leakage, reproducible")


def _linear_multitask_dataset():
    backbones = ["C", "CC", "CCC", "CCCC", "CCCCC", "CCCCCC"]
    groups = ["", "O", "N", "F", "C#N", "[N+](=O)[O-]", "O[N+](=O)[O-]",
              "N[N+](=O)[O-]", "C=O", "Cl"]
    smiles_list = [b + g for b in backbones for g in groups]
    graphs = {f"M{i:02d}": parse_smiles(s) for i, s in enumerate(smiles_list)}
    schema = d.fit_schema(list(graphs.values()), include_density=False)
    features = np.array([d.featurize(g, schema) for g in graphs.values()])
    mu, sd = features.mean(0), features.std(0)
    sd[sd == 0] = 1.0
    z = (features - mu) / sd

    rng = np.random.default_rng(2024)
    idx = rng.choice(z.shape[1], size=6, replace=False)
    v = np.zeros(z.shape[1])
    u = np.zeros(z.shape[1])
    v[idx[:3]] = rng.normal(size=3)
    u[idx[3:]] = rng.normal(size=3)
    latent = np.stack([z @ v, z @ u], axis=1)
    mix = np.array([[1.0, 0.3], [-0.5, 1.0], [0.8, -0.7]])
    targets = latent @ mix.T

    channels = (
        ds.PropertyChannel("det_velocity", "calc"),
        ds.PropertyChannel("det_pressure", "calc"),
        ds.PropertyChannel("gurney_energy", "calc"),
    )
    registry = ds.PropertyRegistry(channels=channels)
    records = [
        ds.Record(material_id=mid, channel=ch, value=float(targets[i, c]))
        for i, mid in enumerate(graphs)
        for c, ch in enumerate(channels)
    ]
    perceptions = {mid: d.perceive(g) for mid, g in graphs.items()}
    return ds.Dataset(registry=registry, records=records, perceptions=perceptions), targets


def test_criterion_07_overfit_sanity():
    start = time.monotonic()

    # 4-point linear toy
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 1.0, 2.0, 3.0])
    config = mtnn.MTNetConfig(1, 0, (16,), 0, seed=1)
    train_config = mtnn.TrainConfig(learning_rate=1e-2, batch_size=4,
                                    max_epochs=2000, patience=2000, seed=3)
    result = mtnn.train(mtnn.init_network(config), x, None, y, train_config)
    toy_rmse = math.sqrt(float(np.mean((mtnn.forward(result.net, x) - y) ** 2)))
    assert toy_rmse < 1e-2

    # noiseless 3-channel linear dataset over 60 materials
    data, targets = _linear_multitask_dataset()
    grid = evaluation.GridSpec(hidden_sizes=((64,),), selector_layer_index=("last",),
                               learning_rate=(1e-2,), batch_size=(64,), l2_penalty=(0.0,))
    base = mtnn.TrainConfig(max_epochs=2000, patience=250)
    schema, design = ds.build_design(data, False)
    protocol = evaluation.run_protocol("mt-nn", schema, design, 6, seeds=(1, 2, 3), k=5,
                                       grids=evaluation.Grids(mtnn=grid, train=base))
    worst_ratio = 0.0
    for c, channel in enumerate(data.registry):
        mean_rmse, _, n = protocol.channels[channel.key].rmse_mean_std
        assert n == 15
        ratio = mean_rmse / float(targets[:, c].std())
        worst_ratio = max(worst_ratio, ratio)
        assert ratio < 0.05, f"{channel.key}: test RMSE is {ratio:.1%} of target std"

    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"overfit sanity took {elapsed:.1f}s"
    report(7, f"toy RMSE {toy_rmse:.1e}; protocol worst ratio {worst_ratio:.1%}; {elapsed:.0f}s")


def test_criterion_08_forest_split_oracle():
    rng = np.random.default_rng(77)
    config = rf.ForestConfig(n_trees=1, max_depth=1, min_samples_leaf=1,
                             max_features=3, seed=0)
    checked = 0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        x = rng.normal(size=(n, 3))
        y = rng.normal(size=n)
        tree = rf.fit_tree(x, y, config)
        expected = oracle_best_split(x, y)
        if expected is None:
            assert tree[0, rf.FEATURE] == -1
        else:
            assert tree[0, rf.FEATURE] == expected[0]
            assert tree[0, rf.THRESHOLD] == expected[1]
            checked += 1
    assert checked >= 80
    report(8, f"100 random datasets, {checked} splits agree exactly with the oracle")


def test_criterion_09_metrics_oracle(tmp_path):
    assert abs(evaluation.rmse([0.0, 0.0], [3.0, 4.0]) - math.sqrt(12.5)) < 1e-9
    assert abs(ds.pearson(np.array([1.0, 2.0, 3.0]), np.array([1.0, 3.0, 2.0])) - 0.5) < 1e-12

    # constructed sparse data with known overlaps
    rows = ["material_id,smiles,property,fidelity,value,density"]
    values = [2.0, 5.0, 3.0, 8.0, 1.0, 9.0]
    for i, value in enumerate(values):
        rows.append(f"M{i},CC,det_velocity,exp,{value},")
        if i < 4:
            rows.append(f"M{i},CC,det_velocity,calc,{2 * value + 1},")
        if i % 2 == 0:
            rows.append(f"M{i},CC,impact_h50,exp,{10 * value},")
    path = tmp_path / "sparse.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    data = ds.load_records(path, ds.default_registry())
    labels, r_matrix, overlap = ds.pearson_matrix(data)
    i = labels.index("det_velocity:exp")
    j = labels.index("det_velocity:calc")
    k = labels.index("impact_h50:exp")
    assert overlap[i, i] == 6 and overlap[i, j] == 4 and overlap[i, k] == 3
    assert overlap[j, k] == 2
    assert np.array_equal(overlap, overlap.T)
    assert abs(r_matrix[i, j] - 1.0) < 1e-12  # affine relation
    for a in range(len(labels)):
        assert overlap[a, a] < 2 or abs(r_matrix[a, a] - 1.0) < 1e-12
        for b in range(len(labels)):
            ra, rb = r_matrix[a, b], r_matrix[b, a]
            assert (math.isnan(ra) and math.isnan(rb)) or abs(ra - rb) < 1e-12
    report(9, "rmse/pearson hand values and matrix structure verified")


EVAL_MOLS = [
    ("M01", "CC", 0.7), ("M02", "CCC", 0.8), ("M03", "CCCC", 0.9),
    ("M04", "CCO", 1.0), ("M05", "CCN", 1.0), ("M06", "C[N+](=O)[O-]", 1.14),
    ("M07", "CC[N+](=O)[O-]", 1.05), ("M08", "CCO[N+](=O)[O-]", 1.10),
    ("M09", "CC#N", 0.78), ("M10", "CC(=O)O", 1.05), ("M11", "CCCCC", 0.63),
    ("M12", "OCC(O)CO", 1.26), ("M13", "CCCCCC", 0.66), ("M14", "CCCO", 0.80),
    ("M15", "CN[N+](=O)[O-]", 1.20),
]


def _next_float(rng: SplitMix64) -> float:
    """Uniform in [0, 1) with the full 53-bit mantissa."""
    return (rng.next_u64() >> 11) * 2.0 ** -53


def _write_eval_dataset(tmp_path, dense=False):
    registry = ds.default_registry()
    lines = ["material_id,smiles,property,fidelity,value,density"]
    rng = SplitMix64(31415)
    for i, (mid, smi, dens) in enumerate(EVAL_MOLS):
        for channel in registry:
            if not dense and _next_float(rng) < 0.25 and channel.property != "det_velocity":
                continue
            value = 1.0 + 20.0 * _next_float(rng)
            lines.append(f"{mid},{smi},{channel.property},{channel.fidelity},{value},{dens}")
    path = tmp_path / ("dense.csv" if dense else "sparse_eval.csv")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _write_fast_grid(tmp_path):
    grid = {
        "mtnn": {"hidden_sizes": [[8]], "selector_layer_index": ["last"],
                 "learning_rate": [0.01], "batch_size": [16], "l2_penalty": [0.0]},
        "forest": {"n_trees": [8], "max_depth": [4], "min_samples_leaf": [1],
                   "max_features": [None]},
        "train": {"max_epochs": 20, "patience": 6},
    }
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid), encoding="utf-8")
    return path


def test_criterion_10_determinism_and_persistence(tmp_path, capsys):
    data = _write_eval_dataset(tmp_path)
    grid = _write_fast_grid(tmp_path)
    snapshots = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = cli.main(["evaluate", "--data", str(data), "--subset", "1", "--no-density",
                         "--models", "st-rf,mt-nn", "--seeds", "1,2", "--folds", "3",
                         "--inner-folds", "3", "--grid", str(grid), "--out", str(out)])
        assert code == 0
        snapshots.append({p.name: p.read_bytes() for p in sorted(out.iterdir())
                          if p.suffix in (".csv", ".md")})
    assert snapshots[0] == snapshots[1]

    # model persistence round trip
    train_out = tmp_path / "model"
    assert cli.main(["train", "--data", str(data), "--subset", "1", "--no-density",
                     "--grid", str(grid), "--folds", "3", "--seed", "5",
                     "--out", str(train_out)]) == 0
    bundle = pipeline.load_model(train_out / "model.emmt")
    copy_path = tmp_path / "copy.emmt"
    pipeline.save_model(copy_path, bundle)
    restored = pipeline.load_model(copy_path)
    rng = np.random.default_rng(99)
    dim = bundle.net.config.input_dim
    sel_dim = bundle.net.config.selector_dim
    for _ in range(100):
        x = rng.normal(size=(1, dim))
        s = np.eye(sel_dim)[rng.integers(0, sel_dim, 1)] if sel_dim else None
        assert np.array_equal(mtnn.forward(bundle.net, x, s),
                              mtnn.forward(restored.net, x, s))
    report(10, "byte-identical evaluate reruns; bit-identical model round trip")


MEAN_STD_CELL = re.compile(r"^-?\d+\.\d{3} ± \d+\.\d{3}$")


def test_criterion_11_reproduction_harness(tmp_path, capsys):
    data = _write_eval_dataset(tmp_path, dense=True)
    grid = _write_fast_grid(tmp_path)
    registry = ds.default_registry()
    families = ("ST-RF", "ST-NN", "MT-NN-all")

    for density_flag in ("--density", "--no-density"):
        out = tmp_path / ("with_density" if density_flag == "--density" else "no_density")
        code = cli.main(["evaluate", "--data", str(data), "--subset", "all", density_flag,
                         "--models", "st-rf,st-nn,mt-nn", "--seeds", "1,2,3", "--folds", "5",
                         "--inner-folds", "2", "--grid", str(grid), "--out", str(out)])
        assert code == 0

        report_lines = (out / "report.csv").read_text().splitlines()
        expected_header = (FIXTURES / "report_csv_header.txt").read_text().strip()
        assert report_lines[0] == expected_header
        assert len(report_lines) == 1 + len(families) * len(registry)
        for line in report_lines[1:]:
            fields = line.split(",")
            assert fields[0] in families
            assert int(fields[6]) == 15  # 5 folds x 3 seeds per channel per model

        bar_lines = (out / "bars.csv").read_text().splitlines()
        assert bar_lines[0] == (FIXTURES / "bars_csv_header.txt").read_text().strip()
        assert len(bar_lines) == 1 + len(families) * len(registry)

        md = (out / "report.md").read_text()
        assert (FIXTURES / "channel_table_header.md").read_text().strip() in md
        for channel in registry:
            assert f"## {channel.key}" in md

        table2 = (out / "table2_log_h50.md").read_text()
        assert table2.startswith((FIXTURES / "table2_header.md").read_text())
        model_rows = [l for l in table2.splitlines() if l.startswith("| ") and "Model" not in l and "---" not in l]
        assert len(model_rows) == len(families)
        for row in model_rows:
            cells = [c.strip() for c in row.strip("|").split("|")]
            assert MEAN_STD_CELL.match(cells[1]), row
            assert MEAN_STD_CELL.match(cells[2]), row
    report(11, "subset-all evaluation emits fixture-conformant reports in both density modes")
