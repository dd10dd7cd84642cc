"""One BLAS thread in every emprops process, whatever the environment asks.

Each test runs emprops in fresh interpreters with OPENBLAS_NUM_THREADS set
to 1 and to 2. Where numpy uses an OpenBLAS that honours the variable, a
network trained with batch_size 128 got other bytes under two threads
before emprops pinned one (OpenBLAS splits the weight gradient's
reduction over the batch rows across its threads). On a one-CPU host, or
with a BLAS that ignores the variable, the bytes test shows only that the
runs agree; the thread-count test then says which BLAS it could not ask.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import emprops
from conftest import CORPUS

SRC = str(Path(emprops.__file__).resolve().parents[1])
CHANNELS = ("det_velocity:exp", "det_pressure:exp", "heat_detonation:exp",
            "heat_form_crystal:exp", "det_velocity:calc", "det_pressure:calc",
            "heat_detonation:calc", "gurney_energy:calc", "heat_sublimation:calc",
            "heat_form_gas:calc")

THREAD_PROBE = """
import ctypes, re, sys
if sys.argv[1] == "numpy-first":
    import numpy
import emprops
import numpy
maps = open("/proc/self/maps").read()
for path in sorted(set(re.findall(r"(/\\S*openblas\\S*\\.so\\S*)", maps))):
    library = ctypes.CDLL(path)
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        if hasattr(library, symbol):
            get = getattr(library, symbol)
            get.restype = ctypes.c_int
            print(get())
            sys.exit()
print("none")
"""


def run_python(args, threads, cwd):
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_network_bytes_do_not_depend_on_blas_threads(tmp_path):
    rng = random.Random(5)
    lines = ["material_id,smiles,property,fidelity,value,density"]
    for i, smiles in enumerate(CORPUS.values()):
        for channel in CHANNELS:
            lines.append(f"M{i:02d},{smiles},{channel.replace(':', ',')},"
                         f"{rng.uniform(1, 9):.4f},")
    (tmp_path / "data.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    grid = {"mtnn": {"hidden_sizes": [[128, 64]], "selector_layer_index": ["last"],
                     "learning_rate": [0.001], "batch_size": [128], "l2_penalty": [0.0]},
            "train": {"max_epochs": 6, "patience": 1}}
    (tmp_path / "grid.json").write_text(json.dumps(grid), encoding="utf-8")
    models = []
    for threads in (1, 2):
        run_python(["-m", "emprops", "train", "--family", "mt-nn", "--data", "data.csv",
                    "--grid", "grid.json", "--folds", "2", "--out", f"out{threads}"],
                   threads, tmp_path)
        models.append((tmp_path / f"out{threads}" / "model.emmt").read_bytes())
    assert models[0] == models[1]


@pytest.mark.parametrize("order", ["numpy-first", "emprops-first"])
def test_importing_emprops_sets_one_openblas_thread(tmp_path, order):
    if not Path("/proc/self/maps").is_file():
        pytest.skip("no /proc/self/maps to find the loaded OpenBLAS in")
    reported = run_python(["-c", THREAD_PROBE, order], 2, tmp_path).strip()
    if reported == "none":
        pytest.skip("numpy loaded no OpenBLAS with a thread-count symbol")
    assert reported == "1"


def test_an_openblas_that_cannot_be_loaded_is_skipped(tmp_path):
    """A mapping whose library is gone, as after an upgrade under a running
    process, leaves the import working: it is skipped, not raised."""
    import numpy  # noqa: F401  (the ctypes route runs once numpy has loaded)

    maps = tmp_path / "maps"
    maps.write_text("7f0000000000-7f0000001000 r-xp 00000000 00:00 0    "
                    f"{tmp_path}/gone/libscipy_openblas64_-0.so (deleted)\n", encoding="utf-8")
    emprops._one_blas_thread(str(maps))
    assert all(os.environ[name] == "1" for name in emprops._BLAS_THREAD_VARIABLES)
