import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emprops import dataset as ds
from fold_oracle import kfold_by_material as oracle_kfold
from emprops.errors import (
    DuplicateRecord,
    InvalidConfig,
    NonPositiveForLog,
    ParseFailure,
    TooFewMaterials,
    ToolkitError,
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
        data = ds.load_records(path, ds.default_registry(), subset_id=6)
        assert len(data.records) == 1
        assert [record.material_id for record in data.records] == ["M1"]
        assert list(data.perceptions) == ["M1"]
        assert data.records[0].density == 1.5

    def test_unknown_channel(self, tmp_path):
        path = write_csv(tmp_path, ["M1,CC,foo,exp,7.2,"])
        with pytest.raises(UnknownChannel):
            ds.load_records(path, ds.default_registry())

    def test_unknown_channel_is_quoted_on_one_line(self, tmp_path):
        path = write_csv(tmp_path, ['M1,CC,"det\nvelocity",exp,7.0,'])
        with pytest.raises(UnknownChannel) as excinfo:
            ds.load_records(path, ds.default_registry())
        assert str(excinfo.value) == "row 1: channel 'det\\nvelocity:exp' not in registry"

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

    def test_byte_order_mark_is_skipped_by_both_readers(self, tmp_path):
        text = ("material_id,smiles,property,fidelity,value,density\n"
                "M1,CC,det_velocity,exp,7.0,1.2\n")
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbfmaterial_id")
        assert ds.read_molecules(marked) == ds.read_molecules(plain) == [
            ds.Molecule("M1", "CC", 1.2, 1)]
        registry = ds.default_registry()
        assert ds.load_records(marked, registry).records == ds.load_records(plain, registry).records

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
        folds = ds.kfold_by_material([f"M{i}" for i in range(10)], 5, seed=3)
        assert np.bincount(folds).tolist() == [2, 2, 2, 2, 2]

    def test_determinism(self):
        ids = [f"M{i}" for i in range(23)]
        a = ds.kfold_by_material(ids, 5, seed=11)
        b = ds.kfold_by_material(ids, 5, seed=11)
        assert a.dtype == np.intp
        assert a.tolist() == b.tolist()

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
        labels = ds.kfold_by_material(ids, k, seed)
        folds = [{m for m, f in zip(ids, labels) if f == fold} for fold in range(k)]
        union = set().union(*folds)
        assert union == set(ids)
        assert sum(len(f) for f in folds) == n
        assert max(len(f) for f in folds) - min(len(f) for f in folds) <= 1
        for fold in range(k):
            train = {m for m, f in zip(ids, labels) if f != fold}
            test = folds[fold]
            assert not (train & test)
            assert train | test == set(ids)

    @given(
        ids=st.lists(st.sampled_from(["M1", "M1\x00", "M2", "m2", "\x00", "ä", "Ä", "é",
                                      "\u2603", "M10", " M1", "M1 "])
                     | st.text(max_size=4), min_size=1, max_size=40),
        k=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
    )
    @example(ids=["M1\x00", "M2", "M1", "M1\x00", "M3"], k=3, seed=0)
    @settings(max_examples=200, deadline=None)
    def test_labels_are_the_set_based_split(self, ids, k, seed):
        """The fold of each entry is its material's fold in the set-based
        split it replaced, for ids with repeats, in any order, non-ASCII
        and NUL-suffixed; both reject too few materials alike."""
        try:
            plan = oracle_kfold(ids, k, seed)
        except TooFewMaterials as exc:
            with pytest.raises(TooFewMaterials, match=f"^{re.escape(str(exc))}$"):
                ds.kfold_by_material(ids, k, seed)
            return
        labels = ds.kfold_by_material(ids, k, seed)
        assert labels.shape == (len(ids),)
        assert labels.tolist() == [plan.assignment[m] for m in ids]


class TestCvSelect:
    CELLS = [{"leaf": 1}, {"leaf": 2}, {"leaf": 3}]
    MATERIAL_IDS = [f"M{i}" for i in range(6)]

    def test_earliest_cell_wins_exact_tie(self):
        result = ds.cv_select(self.CELLS, [[2.0] * 3, [1.0] * 3, [1.0] * 3])
        assert result.best_cell is self.CELLS[1]
        assert result.best_score == 1.0

    def test_nan_fold_makes_cell_nan_and_never_wins(self):
        result = ds.cv_select(self.CELLS, [[math.nan, 0.5, 0.5], [9.0] * 3, [10.0] * 3])
        assert math.isnan(result.table[0]["mean_val_rmse"])
        assert result.best_cell is self.CELLS[1]
        assert result.best_score == 9.0

    def test_one_inner_fold_is_rejected(self):
        with pytest.raises(InvalidConfig, match="at least 2 folds"):
            ds.kfold_by_material(self.MATERIAL_IDS, 1, 5)

    def test_no_finite_score_falls_back_to_cell_zero(self):
        result = ds.cv_select(self.CELLS, [[math.nan] * 3] * 3)
        assert result.best_cell is self.CELLS[0]
        assert result.best_score == math.inf
        assert all(math.isnan(row["mean_val_rmse"]) for row in result.table)

    def test_table_one_row_per_cell_in_order(self):
        result = ds.cv_select(self.CELLS, [[float(10 - cell)] * 3 for cell in range(3)])
        assert result.table == [{**cell, "mean_val_rmse": 10.0 - i}
                                for i, cell in enumerate(self.CELLS)]
        assert result.best_cell is self.CELLS[2]
        assert result.best_score == 8.0

    def test_inner_folds_split_every_material_once(self):
        labels = ds.kfold_by_material(self.MATERIAL_IDS, 3, 5)
        folds = [(labels != fold, labels == fold) for fold in range(3)]
        for train_rows, val_rows in folds:
            assert train_rows.any() and val_rows.any()
            assert (train_rows ^ val_rows).all()
        assert sum(val_rows for _, val_rows in folds).tolist() == [1] * len(self.MATERIAL_IDS)


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

    def test_values_whose_products_overflow(self):
        assert ds.pearson([1e300, 7.0], [1.0, 2.0]) == -1.0
        x, y = np.array([1.0, 7.0, 3.0]), np.array([3.0, 2.0, 1.0])
        assert ds.pearson(x * 1e200, y) == pytest.approx(ds.pearson(x * 1e2, y), abs=1e-12)
        assert ds.pearson(x * 1e100, y * 1e100) == pytest.approx(ds.pearson(x, y), abs=1e-12)
        assert ds.pearson([1.0, 2.0], [3.0, np.inf]) != ds.pearson([1.0, 2.0], [3.0, 4.0])
        assert ds.pearson(x / 7.0 * 1.7e308, y) == pytest.approx(ds.pearson(x, y), abs=1e-12)

    def test_constant_channel_next_to_one_that_overflows(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(ds.pearson([2.0, 2.0, 2.0], [1e200, -3e200, 5e200]))
            assert math.isnan(ds.pearson([1e200, -3e200, 5e200], [0.0, 0.0, 0.0]))

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


def subset_filter(dataset, subset_id):
    """The reference subset load: the whole load with the records outside
    the subset's channels dropped, and the perceptions of the materials
    left; subset 6 is the identity."""
    if subset_id == 6:
        return dataset
    registry = ds.subset_registry(dataset.registry, subset_id)
    keys = {c.key for c in registry}
    records = [r for r in dataset.records if r.channel.key in keys]
    materials = {r.material_id for r in records}
    perceptions = {m: p for m, p in dataset.perceptions.items() if m in materials}
    return ds.Dataset(registry=registry, records=records, perceptions=perceptions)


def first_error(load) -> tuple[str, str] | None:
    try:
        load()
    except ToolkitError as exc:
        return type(exc).__name__, str(exc)
    return None


class TestSubsets:
    # a record in every channel, and materials with records in several
    ROWS = [f"M{i},{'C' * (i % 4 + 1)},{c.property},{c.fidelity},{5.0 + i},1.2"
            for i, c in enumerate(ds.default_registry())] + [
        "M20,CCO,det_pressure,exp,30,1.1", "M20,CCO,impact_h50,exp,40,1.1",
        "M21,CCN,heat_form_gas,calc,3,", "M21,CCN,det_velocity,calc,8,",
        "M22,CC#N,heat_sublimation,calc,2,1.3"]

    @staticmethod
    def keys(subset_id, tmp_path):
        path = write_csv(tmp_path, TestSubsets.ROWS)
        return {c.key for c in ds.load_records(path, ds.default_registry(),
                                                   subset_id=subset_id).registry}

    def test_subset_1_detonation_only(self, tmp_path):
        assert self.keys(1, tmp_path) == {
            "det_velocity:exp", "det_velocity:calc", "det_pressure:exp",
            "det_pressure:calc", "heat_detonation:exp", "heat_detonation:calc",
            "gurney_energy:calc",
        }

    def test_subset_4_thermo_only(self, tmp_path):
        assert self.keys(4, tmp_path) == {"heat_sublimation:calc", "heat_form_gas:calc",
                                          "heat_form_crystal:exp"}

    def test_subset_2_adds_h50(self, tmp_path):
        keys = self.keys(2, tmp_path)
        assert "impact_h50:exp" in keys
        assert len(keys) == 8

    def test_subset_6_identity(self, tmp_path):
        path = write_csv(tmp_path, self.ROWS)
        registry = ds.default_registry()
        data = ds.load_records(path, registry, subset_id=6)
        assert data.registry is registry
        assert data.records == ds.load_records(path, registry).records

    def test_unknown_subset(self, tmp_path):
        path = write_csv(tmp_path, self.ROWS)
        for absent_or_not in (path, tmp_path / "absent.csv"):
            with pytest.raises(UnknownSubset, match="^subset must be 1..6, got 9$"):
                ds.load_records(absent_or_not, ds.default_registry(), subset_id=9)

    @pytest.mark.parametrize("subset_id", range(1, 7))
    def test_the_subsets_load_is_the_whole_load_filtered(self, tmp_path, subset_id):
        """load_records of a subset holds the registry, the records in file
        order and the perceptions that the reference filter leaves of the
        subset 6 load, and build_design gives the same schema and features."""
        path = write_csv(tmp_path, self.ROWS)
        registry = ds.default_registry()
        data = ds.load_records(path, registry, subset_id=subset_id)
        whole = subset_filter(ds.load_records(path, registry, subset_id=6), subset_id)
        assert [c.key for c in data.registry] == [c.key for c in whole.registry]
        assert data.records == whole.records
        assert list(data.perceptions) == list(whole.perceptions)
        # the channels are the whole registry's own objects
        own = {id(c) for c in registry}
        assert {id(c) for c in data.registry} <= own
        assert {id(r.channel) for r in data.records} <= own
        (schema, design), (whole_schema, whole_design) = (
            ds.build_design(data, False), ds.build_design(whole, False))
        assert schema == whole_schema
        assert design.features.tobytes() == whole_design.features.tobytes()

    @pytest.mark.parametrize("subset_id, fault", [
        *((k, fault) for k in range(1, 6) for fault in ("duplicate", "unparsable")),
        *((k, "non-positive") for k in (1, 3, 4))])  # the subsets without impact_h50
    def test_an_error_outside_the_subset_is_still_raised(self, tmp_path, subset_id, fault):
        """A fault only in channels outside the subset raises the error,
        with its text, that loading every channel raises."""
        registry = ds.default_registry()
        inside = {c.key for c in ds.subset_registry(registry, subset_id)}
        outside = [c for c in registry if c.key not in inside]
        if fault == "non-positive":
            assert "impact_h50:exp" not in inside
            extra = ["M30,CCCl,impact_h50,exp,0,"]
        elif fault == "duplicate":
            c = outside[-1]
            extra = [f"M30,CCCl,{c.property},{c.fidelity},{value}," for value in (1, 2)]
        else:
            c = outside[0]
            extra = [f"M30,C(,{c.property},{c.fidelity},1,"]
        path = write_csv(tmp_path, self.ROWS + extra)
        expected = first_error(lambda: ds.load_records(path, registry, subset_id=6))
        assert expected is not None
        assert first_error(lambda: ds.load_records(path, registry, subset_id=subset_id)) == expected

    def test_only_the_subsets_molecules_are_perceived(self, tmp_path):
        """load_records perceives the materials with a record in its
        subset's channels: none without a subset, every one for subset 6."""
        rows = ["M1,CC,det_velocity,exp,7,", "M2,CCC,impact_h50,exp,20,",
                "M3,CC,heat_form_gas,calc,5,", "M4,CCO,det_pressure,exp,30,",
                "M4,CCO,impact_h50,exp,40,"]
        path = write_csv(tmp_path, rows)
        registry = ds.default_registry()
        expected = {None: [], 1: ["M1", "M4"], 4: ["M3"], 5: ["M2", "M3", "M4"],
                    6: ["M1", "M2", "M3", "M4"]}
        for subset_id, materials in expected.items():
            data = ds.load_records(path, registry, subset_id=subset_id)
            assert sorted(data.perceptions) == materials
            owners = sorted({r.material_id for r in data.records})
            assert owners == (expected[6] if subset_id is None else materials)


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
