"""Generated molecule CSVs against the featurize command and dataset CSVs
against the correlate command: whatever the rows hold, the command exits
0 or 1, and a failure is one error line."""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from emprops import cli

SMILES_PIECES = ["C", "N", "O", "c1ccccc1", "[NH4+]", "[O-]", "[N+](=O)[O-]", "(", ")", "[",
                 "]", "+", "-", "=", "#", "1", "2", "%", "%12", ".", "\x00", '"', ",",
                 "\u00b2"]
DENSITIES = ["", "1.8", "-1", "nan", "x"]
NOT_UTF8 = [b"\xe9", b"\xff\xfe", b"\x80", b"\xc3"]

rows = st.lists(st.tuples(st.sampled_from(["M1", "M2", "M3"]),
                          st.lists(st.sampled_from(SMILES_PIECES), max_size=8).map("".join),
                          st.sampled_from(DENSITIES)), max_size=5)


@settings(max_examples=200, deadline=None)
@given(rows=rows, density=st.booleans(),
       bad_byte=st.none() | st.tuples(st.sampled_from(NOT_UTF8), st.integers(0, 200)))
def test_featurize_exits_0_or_1_with_one_error_line(rows, density, bad_byte):
    text = "material_id,smiles,density\n" + "".join(f"{m},{s},{d}\n" for m, s, d in rows)
    data = text.encode("utf-8")
    if bad_byte:
        byte, at = bad_byte
        at %= len(data) + 1
        data = data[:at] + byte + data[at:]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mols.csv"
        path.write_bytes(data)
        argv = ["featurize", "--data", str(path), "--out", str(Path(tmp) / "out")]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv + (["--density"] if density else []))
    assert code in (0, 1)
    if code == 1:
        assert err.getvalue().startswith("error ") and len(err.getvalue().splitlines()) == 1


CHANNELS = [("det_velocity", "exp"), ("det_velocity", "calc"), ("impact_h50", "exp"),
            ("heat_form_gas", "calc")]
BAD_CHANNELS = [("bogus", "exp"), ("", "calc"), ("det\nvelocity", "exp"), ("det_velocity", "x,y")]
VALUES = ["7.0", "-1", "0", "2.5", "1e-300", "1e300", " 8 "]
BAD_VALUES = ["1e400", "nan", "-inf", "x", ""]
MOLECULES = [("M1", "C"), ("M2", "CCO"), ("M3", "c1ccccc1"), ("M4", "[NH4+]")]
BAD_MOLECULES = [("M1", "CC"), ("M5", "C("), ("M6", "[Xe]"), ("M7", "CC.O"), ("", "C"), ("M8", "")]


def dataset_rows(molecules, channels, values, densities):
    return st.tuples(st.sampled_from(molecules), st.sampled_from(channels),
                     st.sampled_from(values), st.sampled_from(densities))


GOOD_ROW = dataset_rows(MOLECULES, CHANNELS, VALUES, ["", "1.8"])
ANY_ROW = dataset_rows(MOLECULES + BAD_MOLECULES, CHANNELS + BAD_CHANNELS,
                       VALUES + BAD_VALUES, DENSITIES)
# rows that load and at most one that may not, so that deduplication, the
# log transform and the correlations run too
records = st.builds(list.__add__, st.lists(GOOD_ROW, max_size=7),
                    st.lists(ANY_ROW, max_size=1)).flatmap(st.permutations)


@settings(max_examples=200, deadline=None)
@given(records=records, dedupe=st.sampled_from(["error", "mean"]), bom=st.booleans(),
       bad_byte=st.none() | st.tuples(st.sampled_from(NOT_UTF8), st.integers(0, 400)))
def test_correlate_exits_0_or_1_with_one_error_line(records, dedupe, bom, bad_byte):
    """Generated dataset CSVs (the input of correlate, evaluate, train and
    tune) against the correlate command."""
    lines = ["material_id,smiles,property,fidelity,value,density"]
    lines += [",".join(csv_field(field) for field in (*molecule, *channel, value, density))
              for molecule, channel, value, density in records]
    data = (b"\xef\xbb\xbf" if bom else b"") + ("\n".join(lines) + "\n").encode("utf-8")
    if bad_byte:
        byte, at = bad_byte
        at %= len(data) + 1
        data = data[:at] + byte + data[at:]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes(data)
        argv = ["correlate", "--data", str(path), "--dedupe", dedupe, "--out", str(Path(tmp) / "out")]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 1)
    if code == 1:
        assert err.getvalue().startswith("error ") and len(err.getvalue().splitlines()) == 1


def csv_field(text: str) -> str:
    """A CSV field holding the text, quoted when it needs to be."""
    if any(c in text for c in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text
