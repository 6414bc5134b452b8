"""The benchmark's process environment: BLAS threads pinned, and a record of it."""

import ctypes
import glob
import os
from pathlib import Path

# One BLAS thread per benchmark process. On a shared two-core machine a
# second BLAS thread made runs up to five times slower whenever another
# process held the other core; one thread keeps run-to-run spread small.
BLAS_THREADS = "1"
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """Set the BLAS thread count; call before numpy is first imported."""
    for var in _THREAD_VARS:
        os.environ[var] = BLAS_THREADS


def blas_threads():
    """Threads the bundled OpenBLAS reports using, or None if it cannot be asked."""
    import numpy

    libdir = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(path), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None
