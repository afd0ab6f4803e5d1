"""tractfuse: procedural diffusion phantoms, RL streamline-tracking policies,
and a sequence-model fusion policy, built on a small numpy autodiff core."""

__version__ = "0.1.0"


def _one_blas_thread():
    """Run numpy's OpenBLAS on one thread in this process. Splitting a product
    over threads changes its bits, so one thread makes artifacts independent
    of the host's core count. At desk and bench scale a second thread adds
    no speed, and its worker busy-waits between calls; at full scale
    (1024-wide MLPs on 4096-row batches) it would make train-rl's grad steps
    about 1.7x faster on 2 CPUs, and that speed is given up for the bytes.
    This is a call, not an environment variable, because a process may load
    numpy before it imports tractfuse. The library is the scipy-openblas in
    `numpy.libs` that numpy's Linux wheels ship since numpy 2.0; a numpy
    built on another BLAS is left as it is."""
    import ctypes
    from pathlib import Path

    import numpy

    libs = Path(numpy.__file__).resolve().parents[1] / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        set_threads = getattr(ctypes.CDLL(str(path)), "scipy_openblas_set_num_threads64_", None)
        if set_threads is not None:
            set_threads.argtypes, set_threads.restype = (ctypes.c_int,), None
            set_threads(1)


_one_blas_thread()
