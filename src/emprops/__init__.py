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
_OPENBLAS_SET_THREADS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                         "openblas_set_num_threads")


def _one_blas_thread(maps_path: str = "/proc/self/maps") -> None:
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

    try:  # a mapping's path is the last field of its line
        with open(maps_path, encoding="utf-8") as maps:
            paths = sorted({line.split(maxsplit=5)[-1].strip() for line in maps
                            if "openblas" in line and ".so" in line})
    except OSError:
        return
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _OPENBLAS_SET_THREADS:
            if hasattr(library, symbol):
                set_threads = getattr(library, symbol)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                set_threads(1)
                break


_one_blas_thread()
