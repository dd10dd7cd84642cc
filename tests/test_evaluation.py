import math

import numpy as np
import pytest

from emprops import dataset as ds
from emprops import descriptors, evaluation, mtnn
from emprops.errors import ConstantTargets, InvalidConfig, LengthMismatch
from emprops.molgraph import parse_smiles
from emprops.rng import derive_seed
from fold_oracle import kfold_by_material


class TestMetrics:
    def test_perfect_prediction(self):
        assert evaluation.rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert evaluation.r2([1.0, 2.0], [1.0, 2.0]) == 1.0

    def test_rmse_hand_value(self):
        assert evaluation.rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(
            math.sqrt(12.5), abs=1e-9
        )

    def test_mean_predictor_r2_zero(self):
        actual = np.array([1.0, 2.0, 3.0, 6.0])
        pred = np.full(4, actual.mean())
        assert evaluation.r2(pred, actual) == pytest.approx(0.0, abs=1e-12)

    def test_r2_never_above_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            actual = rng.normal(size=10)
            pred = rng.normal(size=10)
            assert evaluation.r2(pred, actual) <= 1.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            evaluation.rmse([1.0], [1.0, 2.0])
        with pytest.raises(LengthMismatch):
            evaluation.rmse([], [])

    def test_constant_targets(self):
        with pytest.raises(ConstantTargets):
            evaluation.r2([1.0, 2.0], [5.0, 5.0])

    def test_rmse_zero_iff_equal(self):
        assert evaluation.rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0 + 1e-9]) > 0.0


class TestAggregation:
    def test_fifteen_value_mean_std_two_pass(self):
        rng = np.random.default_rng(5)
        values = list(rng.normal(loc=3.0, size=15))
        metrics = evaluation.ChannelMetrics(rmse_values=values)
        mean, std, n = metrics.rmse_mean_std
        assert n == 15
        expected_mean = sum(values) / 15
        expected_var = sum((v - expected_mean) ** 2 for v in values) / 14
        assert mean == pytest.approx(expected_mean, abs=1e-12)
        assert std == pytest.approx(math.sqrt(expected_var), abs=1e-12)

    def test_nan_folds_excluded(self):
        metrics = evaluation.ChannelMetrics(rmse_values=[1.0, math.nan, 3.0])
        mean, std, n = metrics.rmse_mean_std
        assert (mean, n) == (2.0, 2)


class TestReportFormat:
    def test_mean_std_formatting(self):
        assert evaluation.format_mean_std(0.2381, 0.0103) == "0.238 ± 0.010"

    def make_reports(self):
        st = evaluation.ProtocolReport(model_id="ST-RF")
        st.metrics_for("impact_h50:exp").rmse_values.extend([0.27, 0.26, 0.28])
        st.metrics_for("impact_h50:exp").r2_values.extend([0.6, 0.62, 0.61])
        mt = evaluation.ProtocolReport(model_id="MT-NN-sub2")
        mt.metrics_for("impact_h50:exp").rmse_values.extend([0.24, 0.23, 0.25])
        mt.metrics_for("impact_h50:exp").r2_values.extend([0.7, 0.71, 0.69])
        return [st, mt]

    def test_single_cell_report(self):
        report = evaluation.ProtocolReport(model_id="ST-RF")
        report.metrics_for("det_velocity:exp").rmse_values.append(0.5)
        report.metrics_for("det_velocity:exp").r2_values.append(0.9)
        artifacts = evaluation.report_table([report])
        lines = artifacts["report.csv"].strip().splitlines()
        assert len(lines) == 2  # header + one row

    def test_csv_and_markdown_agree(self):
        artifacts = evaluation.report_table(self.make_reports())
        csv_row = [l for l in artifacts["report.csv"].splitlines() if l.startswith("MT-NN-sub2")][0]
        mean_rmse = float(csv_row.split(",")[2])
        std_rmse = float(csv_row.split(",")[3])
        assert evaluation.format_mean_std(mean_rmse, std_rmse) in artifacts["report.md"]

    def test_improvement_lines(self):
        artifacts = evaluation.report_table(self.make_reports())
        lines = artifacts["improvement.csv"].strip().splitlines()
        assert len(lines) == 2
        channel, best_st, st_rmse, best_mt, mt_rmse, reduction = lines[1].split(",")
        assert channel == "impact_h50:exp"
        assert best_st == "ST-RF"
        assert best_mt == "MT-NN-sub2"
        assert float(reduction) == pytest.approx((0.27 - 0.24) / 0.27 * 100, abs=1e-9)

    def test_log_h50_table_exactly_when_the_channel_is_reported(self):
        artifacts = evaluation.report_table(self.make_reports())
        assert artifacts["table2_log_h50.md"] == (
            "# Predictive accuracy on experimental log(h50)\n\n"
            "| Model | Test RMSE | Test R² |\n| --- | --- | --- |\n"
            "| MT-NN-sub2 | 0.240 ± 0.010 | 0.700 ± 0.010 |\n"
            "| ST-RF | 0.270 ± 0.010 | 0.610 ± 0.010 |\n")
        report = evaluation.ProtocolReport(model_id="ST-RF")
        report.metrics_for("impact_h50:calc").rmse_values.append(0.5)
        assert list(evaluation.report_table([report])) == [
            "report.csv", "report.md", "bars.csv", "improvement.csv"]

    def test_bars_structure(self):
        artifacts = evaluation.report_table(self.make_reports())
        lines = artifacts["bars.csv"].strip().splitlines()
        assert lines[0] == "channel,model,mean_rmse,std_rmse"
        assert len(lines) == 3


def tiny_dataset(n_materials=12):
    backbones = ["C", "CC", "CCC", "CCCC"]
    groups = ["", "O", "N"]
    smiles_list = [b + g for b in backbones for g in groups][:n_materials]
    channels = (
        ds.PropertyChannel("det_velocity", "calc"),
        ds.PropertyChannel("det_pressure", "calc"),
    )
    registry = ds.PropertyRegistry(channels=channels)
    graphs = {f"M{i:02d}": parse_smiles(s) for i, s in enumerate(smiles_list)}
    records = []
    for i, mid in enumerate(graphs):
        for c, ch in enumerate(channels):
            records.append(ds.Record(material_id=mid, channel=ch, value=float(i + 10 * c)))
    perceptions = {mid: descriptors.perceive(g) for mid, g in graphs.items()}
    return ds.Dataset(registry=registry, records=records, perceptions=perceptions)


FAST_GRID = evaluation.GridSpec(hidden_sizes=((8,),), selector_layer_index=("last",),
                                learning_rate=(1e-2,), batch_size=(16,), l2_penalty=(0.0,))
FAST_TRAIN = mtnn.TrainConfig(max_epochs=30, patience=10)
FAST_FOREST = evaluation.ForestGridSpec(n_trees=(10,), max_depth=(4,),
                                        min_samples_leaf=(1,), max_features=(None,))
FAST_GRIDS = evaluation.Grids(FAST_GRID, FAST_FOREST, FAST_TRAIN)


class TestProtocol:
    def test_fold_counts(self):
        built = ds.build_design(tiny_dataset(), False)
        report = evaluation.run_protocol("mt-nn", *built, 6, seeds=(1, 2), k=3,
                                         grids=FAST_GRIDS, inner_k=3)
        for metrics in report.channels.values():
            assert len(metrics.rmse_values) == 2 * 3

    def test_seed_order_swap_leaves_summary_unchanged(self):
        built = ds.build_design(tiny_dataset(), False)
        a = evaluation.run_protocol("mt-nn", *built, 6, seeds=(1, 2), k=3,
                                    grids=FAST_GRIDS, inner_k=3)
        b = evaluation.run_protocol("mt-nn", *built, 6, seeds=(2, 1), k=3,
                                    grids=FAST_GRIDS, inner_k=3)
        for key in a.channels:
            assert sorted(a.channels[key].rmse_values) == sorted(b.channels[key].rmse_values)
            assert a.channels[key].rmse_mean_std[0] == pytest.approx(
                b.channels[key].rmse_mean_std[0], abs=1e-12
            )

    def test_st_families_run_per_channel(self):
        built = ds.build_design(tiny_dataset(), False)
        report = evaluation.run_protocol("st-rf", *built, 6, seeds=(1,), k=3,
                                         grids=FAST_GRIDS, inner_k=3)
        assert set(report.channels) == {"det_velocity:calc", "det_pressure:calc"}
        assert report.model_id == "ST-RF"

    def test_model_identifiers(self):
        assert evaluation.model_identifier("mt-nn", 2) == "MT-NN-sub2"
        assert evaluation.model_identifier("mt-nn", 6) == "MT-NN-all"
        assert evaluation.model_identifier("st-rf", 6) == "ST-RF"

    def test_deterministic_repeat(self):
        built = ds.build_design(tiny_dataset(), False)
        a = evaluation.run_protocol("mt-nn", *built, 6, seeds=(3,), k=3,
                                    grids=FAST_GRIDS, inner_k=3)
        b = evaluation.run_protocol("mt-nn", *built, 6, seeds=(3,), k=3,
                                    grids=FAST_GRIDS, inner_k=3)
        for key in a.channels:
            assert a.channels[key].rmse_values == b.channels[key].rmse_values


def sparse_design():
    """Two channels on nine materials and a third channel on M0 alone, so
    the third channel's unit has no training rows in M0's test fold."""
    registry = ds.PropertyRegistry(channels=(
        ds.PropertyChannel("det_velocity", "calc"),
        ds.PropertyChannel("det_pressure", "calc"),
        ds.PropertyChannel("heat_form_gas", "calc"),
    ))
    rows = [(f"M{i}", pos) for i in range(9) for pos in (0, 1)] + [("M0", 2)]
    return ds.DesignMatrix(features=np.arange(2.0 * len(rows)).reshape(-1, 2),
                           channel_idx=np.array([pos for _, pos in rows]),
                           targets=np.arange(float(len(rows))),
                           material_ids=[m for m, _ in rows], registry=registry)


class TestPlan:
    """The protocol's fits, checked without fitting a model."""

    @pytest.mark.parametrize("family", evaluation.MODEL_FAMILIES)
    def test_order_seeds_and_rows(self, family):
        """Each fit's rows are the design's rows of its channels in its
        fold: training rows in the fold's training materials, test rows
        in its test materials, or none when the unit has no training rows."""
        design, seeds, k = sparse_design(), (4, 7), 3
        units = [range(3)] if family == "mt-nn" else [range(pos, pos + 1) for pos in range(3)]
        fits = evaluation.plan(family, design, seeds, k)
        assert len(fits) == len(seeds) * k * len(units)
        blanked = 0
        for i, fit in enumerate(fits):
            seed, fold, pos = seeds[i // (k * len(units))], i // len(units) % k, i % len(units)
            unit_seed = derive_seed(seed, fold)
            if family != "mt-nn":
                unit_seed = derive_seed(unit_seed, pos + 17)
            assert (fit.family, fit.seed, fit.channels) == (family, unit_seed, units[pos])
            assert fit.train_seed == derive_seed(derive_seed(unit_seed, 3), 11)

            train_mats, test_mats = kfold_by_material(design.material_ids, k,
                                                      seed).train_test(fold)

            def rows_in(mats):
                return [m in mats and c in units[pos]
                        for m, c in zip(design.material_ids, design.channel_idx)]

            assert fit.train_rows.tolist() == rows_in(train_mats)
            if np.any(fit.train_rows):
                assert fit.test_rows.tolist() == rows_in(test_mats)
            else:  # nothing to fit, so nothing to score: the fit records NaN
                assert fit.test_rows.tolist() == [False] * len(design.targets)
                blanked += 1
        assert blanked == (0 if family == "mt-nn" else len(seeds))

    def test_unknown_family(self):
        with pytest.raises(InvalidConfig, match="unknown model family 'gp'"):
            evaluation.plan("gp", sparse_design(), (1,), 3)
