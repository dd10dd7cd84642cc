import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emprops import dataset as ds
from emprops.errors import (
    DuplicateRecord,
    InvalidConfig,
    NonPositiveForLog,
    ParseFailure,
    TooFewMaterials,
    UnknownChannel,
    UnknownSubset,
)

HEADER = "material_id,smiles,property,fidelity,value,density\n"


def write_csv(tmp_path, rows, name="data.csv"):
    path = tmp_path / name
    path.write_text(HEADER + "".join(r + "\n" for r in rows), encoding="utf-8")
    return path


class TestLoad:
    def test_single_row(self, tmp_path):
        path = write_csv(tmp_path, ["M1,CC,det_velocity,exp,7.2,1.5"])
        data = ds.load_records(path, ds.default_registry())
        assert len(data.records) == 1
        assert data.material_ids == ["M1"]
        assert data.records[0].density == 1.5

    def test_unknown_channel(self, tmp_path):
        path = write_csv(tmp_path, ["M1,CC,foo,exp,7.2,"])
        with pytest.raises(UnknownChannel):
            ds.load_records(path, ds.default_registry())

    def test_duplicate_rejected_then_averaged(self, tmp_path):
        rows = ["M1,CC,impact_h50,exp,10,", "M1,CC,impact_h50,exp,30,"]
        path = write_csv(tmp_path, rows)
        with pytest.raises(DuplicateRecord):
            ds.load_records(path, ds.default_registry())
        data = ds.load_records(path, ds.default_registry(), dedupe="mean")
        assert len(data.records) == 1
        assert data.records[0].value == 20.0

    def test_non_positive_for_log(self, tmp_path):
        path = write_csv(tmp_path, ["M1,CC,impact_h50,exp,-3,"])
        with pytest.raises(NonPositiveForLog):
            ds.load_records(path, ds.default_registry())

    def test_bad_smiles_reports_row(self, tmp_path):
        path = write_csv(tmp_path, ["M1,CC,det_velocity,exp,7.0,", "M2,C(,det_velocity,exp,7.0,"])
        with pytest.raises(ParseFailure) as excinfo:
            ds.load_records(path, ds.default_registry())
        assert excinfo.value.row == 2

    @pytest.mark.parametrize("density", ["abc", "nan", "-inf", "0", "-1.5"])
    def test_bad_density_reports_row(self, tmp_path, density):
        path = write_csv(tmp_path, ["M1,CC,det_velocity,exp,7.0,1.2",
                                    f"M2,CCO,det_velocity,exp,7.0,{density}"])
        with pytest.raises(ParseFailure) as excinfo:
            ds.load_records(path, ds.default_registry())
        assert excinfo.value.row == 2

    def test_conflicting_smiles(self, tmp_path):
        path = write_csv(tmp_path, ["M1,CC,det_velocity,exp,7.0,", "M1,CCC,det_pressure,exp,20,"])
        with pytest.raises(ParseFailure):
            ds.load_records(path, ds.default_registry())


class TestReadMolecules:
    def test_first_row_and_first_density_per_material(self, tmp_path):
        path = tmp_path / "mols.csv"
        path.write_text("material_id,smiles,density\nM2,CC,\nM1,CCO,1.3\nM2,CC,1.1\n"
                        "M2,CC,1.4\n", encoding="utf-8")
        assert ds.read_molecules(path) == [ds.Molecule("M2", "CC", 1.1, 1),
                                           ds.Molecule("M1", "CCO", 1.3, 2)]

    @pytest.mark.parametrize("header", ["material_id,property,fidelity,value,density",
                                        "smiles,property,fidelity,value,density"])
    def test_missing_column_fails_alike_in_both_readers(self, tmp_path, header):
        path = tmp_path / "data.csv"
        path.write_text(header + "\n", encoding="utf-8")
        row, message = both_readers_fail(path)
        assert row == 0 and "missing required columns" in message

    def test_conflicting_smiles_fails_alike_in_both_readers(self, tmp_path):
        path = write_csv(tmp_path, ["M1,CC,det_velocity,exp,7.0,", "M1,CCC,det_pressure,exp,20,"])
        assert both_readers_fail(path) == (2, "row 2: conflicting SMILES for material 'M1'")

    def test_byte_that_is_not_utf8_names_its_row(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"material_id,smiles,property,fidelity,value,density\n"
                         b"M1,CC,det_velocity,exp,7.0,\nM2,C\xe9C,det_velocity,exp,7.5,\n")
        assert both_readers_fail(path) == (2, "row 2: bytes that are not UTF-8 text")

    def test_utf16_file_fails_at_the_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("material_id,smiles,property,fidelity,value,density\n"
                        "M1,CC,det_velocity,exp,7.0,\n", encoding="utf-16")
        assert both_readers_fail(path) == (0, "row 0: bytes that are not UTF-8 text")

    def test_field_over_the_csv_size_limit_names_its_row(self, tmp_path):
        path = write_csv(tmp_path, ["M1,CC,det_velocity,exp,7.0,",
                                    f"M2,{'C' * 131_073},det_velocity,exp,7.5,"])
        assert both_readers_fail(path) == (2, "row 2: field larger than field limit (131072)")


def both_readers_fail(path) -> tuple[int, str]:
    """(row, message) of the ParseFailure that read_molecules and
    load_records both raise on the file."""
    failures = []
    for read in (ds.read_molecules, lambda p: ds.load_records(p, ds.default_registry())):
        with pytest.raises(ParseFailure) as excinfo:
            read(path)
        failures.append((excinfo.value.row, str(excinfo.value)))
    assert failures[0] == failures[1]
    return failures[0]


class TestChannelTransform:
    def test_log_round_trip(self):
        channel = ds.PropertyChannel("impact_h50", "exp", transform="log10")
        assert channel.invert_transform(channel.apply_transform(100.0)) == 100.0
        assert ds.PropertyChannel("det_velocity", "exp").invert_transform(400.0) == 400.0

    def test_log_overflow_is_inf(self):
        channel = ds.PropertyChannel("impact_h50", "exp", transform="log10")
        assert channel.invert_transform(400.0) == math.inf
        assert channel.invert_transform(-400.0) == 0.0


class TestSelector:
    def test_onehot_positions(self):
        registry = ds.default_registry()
        for index, channel in enumerate(registry):
            assert registry.index_of(channel) == index

    def test_unknown_channel(self):
        registry = ds.PropertyRegistry(channels=(ds.PropertyChannel("det_velocity", "exp"),))
        with pytest.raises(UnknownChannel):
            registry.index_of(ds.PropertyChannel("det_pressure", "exp"))


class TestKfold:
    def test_even_folds(self):
        plan = ds.kfold_by_material([f"M{i}" for i in range(10)], 5, seed=3)
        sizes = [len(plan.fold_materials(f)) for f in range(5)]
        assert sizes == [2, 2, 2, 2, 2]

    def test_determinism(self):
        ids = [f"M{i}" for i in range(23)]
        a = ds.kfold_by_material(ids, 5, seed=11)
        b = ds.kfold_by_material(ids, 5, seed=11)
        assert a.assignment == b.assignment

    def test_too_few_materials(self):
        with pytest.raises(TooFewMaterials):
            ds.kfold_by_material(["M1", "M2"], 5, seed=0)

    @pytest.mark.parametrize("k", [-1, 0, 1])
    def test_fewer_than_two_folds(self, k):
        with pytest.raises(InvalidConfig):
            ds.kfold_by_material([f"M{i}" for i in range(10)], k, seed=0)

    @given(
        n=st.integers(min_value=5, max_value=60),
        k=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=2**63),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_properties(self, n, k, seed):
        ids = [f"M{i:03d}" for i in range(n)]
        plan = ds.kfold_by_material(ids, k, seed)
        folds = [plan.fold_materials(f) for f in range(k)]
        union = set().union(*folds)
        assert union == set(ids)
        assert sum(len(f) for f in folds) == n
        assert max(len(f) for f in folds) - min(len(f) for f in folds) <= 1
        for fold in range(k):
            train, test = plan.train_test(fold)
            assert not (train & test)
            assert train | test == set(ids)


class TestCvSelect:
    CELLS = [{"leaf": 1}, {"leaf": 2}, {"leaf": 3}]

    @staticmethod
    def design(n_materials=6):
        ids = [f"M{i}" for i in range(n_materials)]
        return ds.DesignMatrix(
            features=np.zeros((n_materials, 1)),
            channel_idx=np.zeros(n_materials, dtype=np.int64),
            targets=np.arange(n_materials, dtype=np.float64),
            material_ids=ids,
            registry=ds.PropertyRegistry(channels=(ds.PropertyChannel("det_velocity", "calc"),)),
        )

    def test_earliest_cell_wins_exact_tie(self):
        per_cell = [2.0, 1.0, 1.0]
        result = ds.cv_select(self.CELLS, self.design(), 3, 5,
                              lambda cell, fold, tr, va: per_cell[cell])
        assert result.best_cell is self.CELLS[1]
        assert result.best_score == 1.0

    def test_nan_fold_makes_cell_nan_and_never_wins(self):
        def score(cell, fold, train_rows, val_rows):
            if cell == 0:
                return math.nan if fold == 0 else 0.5
            return 9.0 if cell == 1 else 10.0

        result = ds.cv_select(self.CELLS, self.design(), 3, 5, score)
        assert math.isnan(result.table[0]["mean_val_rmse"])
        assert result.best_cell is self.CELLS[1]
        assert result.best_score == 9.0

    def test_one_inner_fold_is_rejected(self):
        calls = []
        with pytest.raises(InvalidConfig):
            ds.cv_select(self.CELLS, self.design(), 1, 5, lambda *args: calls.append(args) or 0.0)
        assert calls == []

    def test_no_finite_score_falls_back_to_cell_zero(self):
        result = ds.cv_select(self.CELLS, self.design(), 3, 5, lambda *args: math.nan)
        assert result.best_cell is self.CELLS[0]
        assert result.best_score == math.inf
        assert all(math.isnan(row["mean_val_rmse"]) for row in result.table)

    def test_table_one_row_per_cell_in_order(self):
        seen = []

        def score(cell, fold, train_rows, val_rows):
            seen.append((cell, fold))
            assert train_rows.any() and val_rows.any()
            assert not (train_rows & val_rows).any()
            return float(10 - cell)

        result = ds.cv_select(self.CELLS, self.design(), 3, 5, score)
        assert result.table == [{**cell, "mean_val_rmse": 10.0 - i}
                                for i, cell in enumerate(self.CELLS)]
        assert seen == [(cell, fold) for cell in range(3) for fold in range(3)]
        assert result.best_cell is self.CELLS[2]
        assert result.best_score == 8.0


class TestStandardizer:
    def test_hand_example(self):
        feats = np.array([[1.0], [3.0]])
        targets = np.array([1.0, 3.0])
        idx = np.array([0, 0])
        std = ds.Standardizer.fit(feats, targets, idx, 1)
        assert std.target_mean[0] == 2.0
        assert std.target_std[0] == 1.0
        assert std.apply_targets(np.array([3.0]), np.array([0]))[0] == 1.0

    def test_constant_feature_flagged(self):
        feats = np.array([[1.0, 5.0], [2.0, 5.0]])
        std = ds.Standardizer.fit(feats, np.array([0.0, 1.0]), np.array([0, 0]), 1)
        assert std.feature_constant.tolist() == [False, True]
        applied = std.apply_features(feats)
        assert np.all(applied[:, 1] == 0.0)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, values):
        targets = np.array(values)
        idx = np.zeros(len(values), dtype=np.int64)
        std = ds.Standardizer.fit(np.zeros((len(values), 1)), targets, idx, 1)
        back = std.invert_targets(std.apply_targets(targets, idx), idx)
        # identity within 1e-12 relative to the magnitude of the data
        tolerance = 1e-12 * max(1.0, float(np.max(np.abs(targets))))
        assert float(np.max(np.abs(back - targets))) <= tolerance

    def test_json_round_trip(self):
        std = ds.Standardizer.fit(
            np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([1.0, 2.0]), np.array([0, 0]), 1
        )
        restored = ds.Standardizer.from_json(std.to_json())
        assert np.array_equal(restored.feature_mean, std.feature_mean)
        assert np.array_equal(restored.target_std, std.target_std)


class TestPearson:
    def test_hand_value(self):
        assert ds.pearson(np.array([1, 2, 3]), np.array([1, 3, 2])) == pytest.approx(0.5, abs=1e-12)

    def test_perfect_linear_channels(self, tmp_path):
        rows = []
        for i in range(5):
            value = float(i + 1)
            rows.append(f"M{i},CC,det_velocity,exp,{value},")
            rows.append(f"M{i},CC,det_velocity,calc,{2 * value},")
        data = ds.load_records(write_csv(tmp_path, rows), ds.default_registry())
        labels, r_matrix, overlap = ds.pearson_matrix(data)
        i = labels.index("det_velocity:exp")
        j = labels.index("det_velocity:calc")
        assert overlap[i, j] == 5
        assert r_matrix[i, j] == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_channels_undefined(self, tmp_path):
        rows = ["M1,CC,det_velocity,exp,7,", "M2,CCC,det_pressure,exp,20,"]
        data = ds.load_records(write_csv(tmp_path, rows), ds.default_registry())
        labels, r_matrix, overlap = ds.pearson_matrix(data)
        i = labels.index("det_velocity:exp")
        j = labels.index("det_pressure:exp")
        assert overlap[i, j] == 0
        assert math.isnan(r_matrix[i, j])

    def test_symmetric_unit_diagonal(self, tmp_path):
        rows = []
        values = [3.0, 1.0, 4.0, 1.5, 9.0]
        for i, value in enumerate(values):
            rows.append(f"M{i},CC,det_velocity,exp,{value},")
            rows.append(f"M{i},CC,det_pressure,exp,{value * 2 + 1},")
            if i % 2 == 0:
                rows.append(f"M{i},CC,impact_h50,exp,{value * 10},")
        data = ds.load_records(write_csv(tmp_path, rows), ds.default_registry())
        labels, r_matrix, overlap = ds.pearson_matrix(data)
        assert np.array_equal(overlap, overlap.T)
        for i in range(len(labels)):
            for j in range(len(labels)):
                a, b = r_matrix[i, j], r_matrix[j, i]
                assert (math.isnan(a) and math.isnan(b)) or a == pytest.approx(b, abs=1e-12)
                if not math.isnan(a):
                    assert -1.0 - 1e-12 <= a <= 1.0 + 1e-12
            if overlap[i, i] >= 2:
                assert r_matrix[i, i] == pytest.approx(1.0, abs=1e-12)


class TestSubsets:
    def make_dataset(self, tmp_path):
        rows = []
        registry = ds.default_registry()
        for i, channel in enumerate(registry):
            rows.append(f"M{i},CC,{channel.property},{channel.fidelity},5.0,1.2")
        return ds.load_records(write_csv(tmp_path, rows), registry)

    def test_subset_1_detonation_only(self, tmp_path):
        data = self.make_dataset(tmp_path)
        sub = ds.subset_filter(data, 1)
        keys = {c.key for c in sub.registry}
        assert keys == {
            "det_velocity:exp", "det_velocity:calc", "det_pressure:exp",
            "det_pressure:calc", "heat_detonation:exp", "heat_detonation:calc",
            "gurney_energy:calc",
        }

    def test_subset_4_thermo_only(self, tmp_path):
        data = self.make_dataset(tmp_path)
        keys = {c.key for c in ds.subset_filter(data, 4).registry}
        assert keys == {"heat_sublimation:calc", "heat_form_gas:calc", "heat_form_crystal:exp"}

    def test_subset_2_adds_h50(self, tmp_path):
        data = self.make_dataset(tmp_path)
        keys = {c.key for c in ds.subset_filter(data, 2).registry}
        assert "impact_h50:exp" in keys
        assert len(keys) == 8

    def test_subset_6_identity(self, tmp_path):
        data = self.make_dataset(tmp_path)
        assert ds.subset_filter(data, 6) is data

    def test_unknown_subset(self, tmp_path):
        with pytest.raises(UnknownSubset):
            ds.subset_filter(self.make_dataset(tmp_path), 9)


class TestRegistryPersistence:
    def test_round_trip_preserves_order(self, tmp_path):
        registry = ds.default_registry()
        path = tmp_path / "registry.json"
        registry.save(path)
        restored = ds.PropertyRegistry.load(path)
        assert [c.key for c in restored] == [c.key for c in registry]
        for channel in registry:
            assert restored.index_of(channel) == registry.index_of(channel)

    def test_registry_json_shape(self, tmp_path):
        path = tmp_path / "registry.json"
        ds.default_registry().save(path)
        entries = json.loads(path.read_text())
        assert {"property", "fidelity", "unit", "transform"} <= set(entries[0])
