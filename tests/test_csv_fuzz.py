"""Generated molecule CSVs against the featurize command: whatever the
rows hold, the command exits 0 or 1, and a failure is one error line."""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from emprops import cli

SMILES_PIECES = ["C", "N", "O", "c1ccccc1", "[NH4+]", "[O-]", "[N+](=O)[O-]", "(", ")", "[",
                 "]", "+", "-", "=", "#", "1", "2", "%", "%12", ".", "\x00", '"', ","]
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
