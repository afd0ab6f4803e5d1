"""tractfuse: procedural diffusion phantoms, RL streamline-tracking policies,
and a sequence-model fusion policy, built on a small numpy autodiff core."""

__version__ = "0.1.0"


def _import_numpy_on_one_thread():
    """Import numpy with `OPENBLAS_NUM_THREADS=1`, then give the variable back
    its old value (or unset it), so child processes see the caller's
    environment. OpenBLAS reads the variable once, when numpy loads it: with
    one thread it starts no worker threads, which halves numpy's import time
    (about 115 to 55 ms on 2 CPUs). A process that imported numpy first
    keeps its OpenBLAS, and `_one_blas_thread` pins that one."""
    import os
    import sys

    if "numpy" in sys.modules:
        return
    old = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        if old is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = old


def _one_blas_thread():
    """Run numpy's OpenBLAS on one thread in this process. Splitting a product
    over threads changes its bits, so one thread makes artifacts independent
    of the host's core count. At desk and bench scale a second thread adds
    no speed, and its worker busy-waits between calls; at full scale
    (1024-wide MLPs on 4096-row batches) it would make train-rl's grad steps
    about 1.7x faster on 2 CPUs, and that speed is given up for the bytes.
    The environment variable set by `_import_numpy_on_one_thread` reaches
    only an OpenBLAS that numpy loads after it; this call also pins one that
    a process loaded before it imported tractfuse. The library is the
    scipy-openblas in `numpy.libs` that numpy's Linux wheels ship since
    numpy 2.0; returns its handle (None on another BLAS, left as it is)."""
    import ctypes
    from pathlib import Path

    import numpy

    libs = Path(numpy.__file__).resolve().parents[1] / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        lib = ctypes.CDLL(str(path))
        set_threads = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if set_threads is not None:
            set_threads.argtypes, set_threads.restype = (ctypes.c_int,), None
            set_threads(1)
            return lib
    return None


_import_numpy_on_one_thread()
_one_blas_thread()
