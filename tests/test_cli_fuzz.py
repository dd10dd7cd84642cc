"""Generated command lines against the tiny dataset of test_cli: whatever
the flags hold, a command exits 0, 1 or 2 (a usage error) without a
traceback or a warning, and a failure is one "error <Code>: ..." line."""

import contextlib
import io
import json
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from emprops import cli

from test_cli import write_dataset

# one cell, two epochs: each fit is cheap, so examples go to the flags
GRID = {
    "mtnn": {"hidden_sizes": [[4]], "selector_layer_index": ["last"], "learning_rate": [0.01],
             "batch_size": [16], "l2_penalty": [0.0]},
    "forest": {"n_trees": [2], "max_depth": [3], "min_samples_leaf": [1],
               "max_features": [None]},
    "train": {"max_epochs": 2, "patience": 1},
}
NUMBERS = ["2", "3", "1", "0", "-1", "13", "x", "", "2.5", "99999999999999999999"]
SEEDS = ["1", "1,2", "2,1,2", "", ",", "x", "1,,2", "-1", " 3 ", "18446744073709551616"]
SUBSETS = ["all", "1", "3", "5", "6", "0", "7", "-1", "x", ""]
MODELS = ["st-rf", "st-nn", "mt-nn", "st-rf,mt-nn", "mt-nn,st-rf,st-nn", "", ",", "bogus",
          "st-rf,st-rf"]
FAMILIES = ["st-rf", "st-nn", "mt-nn", "bogus"]
CHANNELS = [None, "det_velocity:calc", "impact_h50:exp", "det_pressure:calc", "det_velocity",
            "bogus:calc", ":", "", "heat_form_gas:calc"]
DENSITY_FLAGS = [[], ["--density"], ["--no-density"]]
DENSITIES = ["1.8", "0", "-1", "nan", "inf", "x", "1e308", "1e-320"]
SMILES = ["CCO", "c1ccccc1", "C(", "CC.O", "[Xe]"]


def flag(name, values):
    """No flag, or the flag with one of the values."""
    return st.none() | st.sampled_from(values).map(lambda value: [name, value])


def command(name, *flags):
    return st.tuples(*flags).map(lambda picked: [name, *(arg for f in picked if f for arg in f)])


DATA_FLAGS = (flag("--subset", SUBSETS), flag("--dedupe", ["error", "mean", "max"]),
              st.sampled_from(DENSITY_FLAGS))
SINGLE_TASK = (flag("--family", FAMILIES), st.sampled_from(CHANNELS).map(
    lambda channel: None if channel is None else ["--channel", channel]),
               flag("--folds", NUMBERS))
COMMANDS = st.one_of(
    command("evaluate", flag("--seeds", SEEDS), flag("--folds", NUMBERS),
            flag("--inner-folds", NUMBERS), st.sampled_from(MODELS).map(lambda m: ["--models", m]),
            *DATA_FLAGS),
    command("tune", *SINGLE_TASK, *DATA_FLAGS),
    command("train", *SINGLE_TASK, *DATA_FLAGS),
    command("predict", st.sampled_from(["mtnn", "forest"]).map(lambda m: ["--model", m]),
            st.sampled_from(SMILES).map(lambda s: ["--smiles", s]), flag("--density", DENSITIES)),
    command("screen", st.sampled_from(["mtnn", "forest"]).map(lambda m: ["--model", m]),
            st.sampled_from(CHANNELS[1:]).map(lambda c: ["--by", c])),
)


@pytest.fixture(scope="module")
def files():
    """The dataset, the grid, a screening CSV and an MT-NN and ST-RF model."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        grid = root / "grid.json"
        grid.write_text(json.dumps(GRID), encoding="utf-8")
        paths = {"data": write_dataset(root), "grid": grid, "candidates": root / "mols.csv"}
        paths["candidates"].write_text("material_id,smiles,density\nX1,CCO,1.1\nX2,CCN,\n",
                                       encoding="utf-8")
        for kind, family in (("mtnn", ["mt-nn"]), ("forest", ["st-rf", "--channel",
                                                               "det_velocity:calc"])):
            assert cli.main(["train", "--data", str(paths["data"]), "--grid", str(grid),
                             "--folds", "2", "--family", *family, "--out", str(root / kind)]) == 0
            paths[kind] = next((root / kind).glob("model.*"))
        yield paths


def complete(argv, files, out):
    """argv with the input and output files its command takes."""
    if argv[0] in ("predict", "screen"):
        argv = [str(files[arg]) if arg in ("mtnn", "forest") else arg for arg in argv]
        return argv + (["--data", str(files["candidates"])] if argv[0] == "screen" else [])
    return argv + ["--data", str(files["data"]), "--grid", str(files["grid"]), "--out", out]


@settings(max_examples=150, deadline=None)
@given(argv=COMMANDS)
def test_flags_exit_0_1_or_2_with_one_error_line(files, argv):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would print lines of its own
        try:
            code = cli.main(complete(argv, files, str(Path(tmp) / "out")))
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2), argv
    if code == 1:
        assert re.fullmatch(r"error [A-Za-z]+: [^\n]*\n", err.getvalue()), argv
