"""Generated grid and registry JSON files: a grid file either loads into
grids whose every cell is finite and builds its configs, or fails as
InvalidConfig; a registry file run through the correlate command exits 0
or 1, and a failure is one error line. A model file whose header holds a
standardizer or schema value that Standardizer.fit or FeatureSchema.manifest
never writes fails predict as one CorruptFile line."""

import contextlib
import io
import json
import math
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from emprops import cli, evaluation, forest as rf, modelio, mtnn
from emprops.errors import InvalidConfig
from test_cli import model_files, rewrite_header, write_dataset  # noqa: F401 (a fixture)

SCALARS = st.one_of(
    st.integers(-2, 12),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e-3, 0.5, -0.0, 1e308, 5e-324]),
    st.booleans(),
    st.sampled_from(["last", "second_to_last", "2", "x", ""]),
    st.none(),
)
VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3), max_leaves=6)
GARBAGE = st.text(max_size=40) | st.sampled_from(["{", "[1,", "Infinity", '{"mtnn": NaN}',
                                                  "[" * 10000 + "]" * 10000])
# values each axis accepts
GOOD_AXES = {
    "mtnn": {
        "hidden_sizes": st.lists(st.integers(1, 8), min_size=1, max_size=3),
        "selector_layer_index": st.sampled_from(["last", "second_to_last", 1, 2]),
        "learning_rate": st.floats(1e-4, 1.0) | st.just(1),
        "batch_size": st.integers(1, 64),
        "l2_penalty": st.floats(0.0, 1.0) | st.just(0),
    },
    "forest": {
        "n_trees": st.integers(1, 10),
        "max_depth": st.integers(1, 10),
        "min_samples_leaf": st.integers(1, 5),
        "max_features": st.none() | st.integers(1, 5),
    },
}
GOOD_TRAIN = {"max_epochs": st.integers(20, 50), "patience": st.integers(0, 20)}


@st.composite
def json_text(draw, good, mutations):
    """A JSON file holding a good value, or one mutation of it, or garbage."""
    mutation = draw(st.sampled_from([None, *mutations, *mutations, *mutations, "top-level",
                                     "garbage"]))
    if mutation == "garbage":
        return draw(GARBAGE)
    value = draw(VALUES) if mutation == "top-level" else draw(good)
    if mutation in mutations:
        mutations[mutation](draw, value)
    return json.dumps(value)


@st.composite
def good_grid(draw):
    grid = {}
    for name, axes in GOOD_AXES.items():
        keys = draw(st.lists(st.sampled_from(sorted(axes)), unique=True, max_size=len(axes)))
        grid[name] = {key: draw(st.lists(axes[key], min_size=1, max_size=3)) for key in keys}
    keys = draw(st.lists(st.sampled_from(sorted(GOOD_TRAIN)), unique=True, max_size=2))
    grid["train"] = {key: draw(GOOD_TRAIN[key]) for key in keys}
    return grid


NOT_FINITE = st.sampled_from([math.inf, -math.inf, math.nan, 10**400])


def bad_axis_value(draw, grid):
    """One value of one axis or train setting replaced, or a section."""
    name = draw(st.sampled_from(["mtnn", "forest", "train"]))
    value = draw(st.one_of(NOT_FINITE, NOT_FINITE, VALUES))
    if name == "train":
        grid[name][draw(st.sampled_from(sorted(GOOD_TRAIN)))] = value
    elif draw(st.integers(0, 9)) == 0:
        grid[name] = value
    else:
        key = draw(st.sampled_from(sorted(GOOD_AXES[name])))
        values = grid[name].setdefault(key, [draw(GOOD_AXES[name][key])])
        values[draw(st.integers(0, len(values) - 1))] = value


def unknown_key(draw, grid):
    name = draw(st.sampled_from(["mtnn", "forest", "train", "mtn"]))
    grid.setdefault(name, {})[draw(st.sampled_from(["seed", "hidden_size", "learning_rate"]))] = \
        draw(VALUES)


GRID_TEXT = json_text(good_grid(), {"value": bad_axis_value, "key": unknown_key})


@settings(max_examples=300, deadline=None)
@given(text=GRID_TEXT)
def test_grid_file_loads_into_buildable_cells_or_is_invalid_config(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "grid.json"
        path.write_text(text, encoding="utf-8")
        try:
            grids = evaluation.Grids.load(str(path))
        except InvalidConfig as exc:
            assert str(exc).startswith(f"grid file {path}: ")
            return
    for selector_dim in (0, 3):
        for cell in grids.mtnn.cells(selector_dim):
            assert all(math.isfinite(number) for number in
                       (*cell["hidden_sizes"], cell["learning_rate"], cell["l2_penalty"]))
            mtnn.MTNetConfig(5, selector_dim, cell["hidden_sizes"], cell["selector_layer_index"],
                             l2_penalty=cell["l2_penalty"])
            replace(grids.train, learning_rate=cell["learning_rate"],
                    batch_size=cell["batch_size"])
    for cell in grids.forest.cells():
        rf.ForestConfig(**cell)


# the dataset's channels, which a registry must hold for correlate to run,
# and two more
CHANNELS = [
    {"property": "det_velocity", "fidelity": "calc"},
    {"property": "det_pressure", "fidelity": "calc", "unit": "GPa"},
    {"property": "impact_h50", "fidelity": "exp", "transform": "log10"},
]
EXTRA_CHANNELS = [
    {"property": "det_velocity", "fidelity": "exp", "unit": "km/s", "transform": "none"},
    {"property": "heat_form_gas", "fidelity": "calc"},
]
FIELD_VALUES = st.sampled_from(["det_velocity", "impact_h50", "calc", "exp", "none", "log10",
                                "", "bogus"]) | VALUES


@st.composite
def good_registry(draw):
    extra = draw(st.lists(st.sampled_from(EXTRA_CHANNELS), unique_by=str, max_size=2))
    return [dict(entry) for entry in draw(st.permutations(CHANNELS + extra))]


def bad_field(draw, registry):
    """One field of one entry replaced, removed or added."""
    entry = registry[draw(st.integers(0, len(registry) - 1))]
    key = draw(st.sampled_from(["property", "fidelity", "unit", "transform", "extra"]))
    if draw(st.booleans()):
        entry.pop(key, None)
    else:
        entry[key] = draw(FIELD_VALUES)


def bad_entry(draw, registry):
    registry[draw(st.integers(0, len(registry) - 1))] = draw(VALUES)


REGISTRY_TEXT = json_text(good_registry(), {"field": bad_field, "entry": bad_entry})


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    return write_dataset(tmp_path_factory.mktemp("data"))


@settings(max_examples=300, deadline=None)
@given(text=REGISTRY_TEXT)
def test_registry_file_exits_0_or_1_with_one_error_line(dataset, text):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "registry.json"
        path.write_text(text, encoding="utf-8")
        argv = ["correlate", "--data", str(dataset), "--registry", str(path),
                "--out", str(Path(tmp) / "out")]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 1)
    if code == 1:
        assert err.getvalue().startswith("error ") and len(err.getvalue().splitlines()) == 1


# standardizer values no fitted standardizer holds: every entry is a finite
# JSON number, every std above 0 and every constant flag 0 or 1
NOT_NUMBERS = [math.nan, math.inf, -math.inf, True, False, "1", None, 10**400]
REJECTED_ENTRIES = {"mean": NOT_NUMBERS, "std": [*NOT_NUMBERS, 0, -0.0, -1, -1e-300],
                    "constant": [*NOT_NUMBERS, -1, 2, 0.5]}
STANDARDIZER_KEYS = [f"{part}_{kind}" for part in ("feature", "target")
                     for kind in REJECTED_ENTRIES]
# schema values no manifest holds: another version, a density flag that is
# not a JSON true or false
REJECTED_SCHEMA_VALUES = {"schema_version": [0, 2, -1, 1.0, True, "1", None, math.nan],
                          "include_density": ["false", "true", 0, 1, None]}


@st.composite
def rejected_header_value(draw):
    """(magic, section, key, position, change): one standardizer entry set
    to a rejected value, the schema version or the density flag set to a
    rejected value, or the bond vocabulary with one key repeated, two keys
    swapped or one key's elements reversed."""
    magic = draw(st.sampled_from([modelio.MAGIC_MTNN, modelio.MAGIC_FOREST]))
    position = draw(st.integers(0, 1000))
    if magic == modelio.MAGIC_MTNN and draw(st.booleans()):
        key = draw(st.sampled_from(STANDARDIZER_KEYS))
        change = draw(st.sampled_from(REJECTED_ENTRIES[key.split("_")[1]]))
        return magic, "standardizer", key, position, change
    key = draw(st.sampled_from([*REJECTED_SCHEMA_VALUES, "bond_vocabulary"]))
    if key in REJECTED_SCHEMA_VALUES:
        return magic, "schema", key, None, draw(st.sampled_from(REJECTED_SCHEMA_VALUES[key]))
    return magic, "schema", "bond_vocabulary", position, draw(
        st.sampled_from(["repeat", "swap", "reverse"]))


def apply_change(header, section, key, position, change):
    values = header[section][key]
    if key in REJECTED_SCHEMA_VALUES:
        header[section][key] = change
    elif key != "bond_vocabulary":
        values[position % len(values)] = change
    elif change == "repeat":
        values.insert(position % len(values), list(values[position % len(values)]))
    elif change == "swap":
        at = position % (len(values) - 1)
        values[at], values[at + 1] = values[at + 1], values[at]
    else:
        mixed = [entry for entry in values if entry[0] != entry[1]]
        entry = mixed[position % len(mixed)]
        entry[0], entry[1] = entry[1], entry[0]


@settings(max_examples=200, deadline=None)
@given(case=rejected_header_value())
def test_rejected_header_value_is_one_corrupt_file_line(model_files, case):
    magic = case[0]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edited"
        rewrite_header(model_files[magic], path, magic, lambda header: apply_change(header, *case[1:]))
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli.main(["predict", "--model", str(path), "--smiles", "CCC"])
    assert code == 1
    assert err.getvalue().startswith("error CorruptFile: ") and len(err.getvalue().splitlines()) == 1
    assert not caught
