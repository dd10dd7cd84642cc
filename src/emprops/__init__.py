"""Descriptor featurization and single/multi-task property models for
CHNOClF energetic molecules.

Public surface:

- :mod:`emprops.molgraph` -- SMILES parsing, ring perception, substructure
  matching.
- :mod:`emprops.descriptors` -- descriptor suite, feature schema, featurize.
- :mod:`emprops.dataset` -- property channels, CSV ingestion, splits,
  standardization, correlation analysis.
- :mod:`emprops.mtnn` -- the network engine: the selector-vector multi-task
  dense network (the single-task network is the selector-free special
  case) and its training.
- :mod:`emprops.forest` -- the forest engine: single-task random forest
  regressor.
- :mod:`emprops.evaluation` -- the grids, the fit jobs, selection by inner
  CV, the cross-validation protocol, metrics and reports.
- :mod:`emprops.cli` -- command line entry point.

Importing emprops runs BLAS on one thread in this process (_one_blas_thread).
"""

import os
import sys

__version__ = "0.1.0"

_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_MAPS_PATH = "/proc/self/maps"


def _one_blas_thread(maps_path: str = _MAPS_PATH) -> None:
    """Run BLAS on one thread here and in the processes started from here.

    The engines already split their jobs across the CPUs by forking
    (emprops.workers), so a BLAS thread pool in each process only makes
    threads contend for the same CPUs. And OpenBLAS splits the reduction of
    a large enough matrix product across its threads, so a network trained
    with a large batch would get other bits on a host with another CPU
    count. Before numpy loads, the thread variables do it, overriding a
    setting of the user's; once numpy has loaded, an OpenBLAS it mapped is
    set to one thread through ctypes. Another BLAS loaded before emprops
    keeps its threads, and so does a mapped OpenBLAS that cannot be loaded
    again by its path, such as one deleted since it was mapped.
    """
    for name in _BLAS_THREAD_VARIABLES:
        os.environ[name] = "1"
    if "numpy" not in sys.modules:
        return
    import ctypes

    for library in _mapped_openblas(maps_path):
        set_threads = _openblas_function(library, "set_num_threads", None, [ctypes.c_int])
        if set_threads is not None:
            set_threads(1)


def blas_info(maps_path: str = _MAPS_PATH) -> dict:
    """The BLAS numpy was built with, for manifest.json: its name and
    version from numpy's build configuration, and the core and thread count
    of the first mapped OpenBLAS that reports them. What cannot be read is
    None."""
    import ctypes

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # a numpy without mode="dicts" or without the entry
        blas = {}
    info = {"name": blas.get("name"), "version": blas.get("version"), "core": None,
            "threads": None}
    for library in _mapped_openblas(maps_path):
        core = _openblas_function(library, "get_corename", ctypes.c_char_p, [])
        threads = _openblas_function(library, "get_num_threads", ctypes.c_int, [])
        if core is not None and threads is not None:
            info["core"] = core().decode("ascii", errors="replace")
            info["threads"] = threads()
            break
    return info


def _mapped_openblas(maps_path: str) -> list:
    """The OpenBLAS libraries mapped into this process, loaded again by
    their paths through ctypes; one that cannot be loaded is left out."""
    import ctypes

    try:  # a mapping's path is the last field of its line
        with open(maps_path, encoding="utf-8") as maps:
            paths = sorted({line.split(maxsplit=5)[-1].strip() for line in maps
                            if "openblas" in line and ".so" in line})
    except OSError:
        return []
    libraries = []
    for path in paths:
        try:
            libraries.append(ctypes.CDLL(path))
        except OSError:
            continue
    return libraries


def _openblas_function(library, name: str, restype, argtypes):
    """OpenBLAS's function `name` under the symbol this build exports
    (scipy-openblas's 64-bit-integer prefix and suffix, or neither), or
    None."""
    for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}64_", f"openblas_{name}"):
        if hasattr(library, symbol):
            function = getattr(library, symbol)
            function.argtypes, function.restype = argtypes, restype
            return function
    return None


_one_blas_thread()
