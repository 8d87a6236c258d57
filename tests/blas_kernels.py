"""Which OpenBLAS kernel set this process runs, named in every sha256 pin's
failure message.

OpenBLAS picks its kernels by CPU when it loads (``OPENBLAS_CORETYPE``
overrides the choice). Another kernel set sums products and LAPACK calls in
another order, so the last bits of float outputs move and so do their
digests, while every oracle and bound still holds. A pin that fails on other
kernels than the ones its table was taken on says "other kernels" first.
"""

import ctypes
import glob
import os

import numpy as np

# The kernel set every sha256 table in tests/ was taken on.
PINNED_CORE = "SkylakeX"


def openblas_core() -> str:
    """The core name of numpy's bundled OpenBLAS, as it chose it at load
    time; "unknown" when numpy bundles no OpenBLAS that reports one."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode("ascii", errors="replace")
    return "unknown"


PIN_KERNELS = (f"pins taken on OpenBLAS {PINNED_CORE} kernels; this run uses "
               f"{openblas_core()}")
