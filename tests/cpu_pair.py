"""The OpenBLAS core and the numpy SIMD flag that the hex bit pins depend on.

A dot sums in the order of the ddot kernel numpy's bundled OpenBLAS picks for
the CPU, and np.log rounds as the SIMD code numpy dispatches does.  The pins
in test_optimize.py (MAXIMIZE_AT_D15F377, CREASE_SCAN_AT_2F23108) and
test_ergm.py (PSI_FULL_FROM_PHI_PRIME_BISECTION) were recorded where OpenBLAS
picks its SkylakeX kernel and numpy runs its AVX512_SKX code, and hold only
there; their failure messages name that pair and the running one.  Run as a
script, this prints the running pair: python tests/cpu_pair.py
"""

import ctypes
import pathlib

import numpy as np
from numpy._core._multiarray_umath import __cpu_features__

RECORDED = "OpenBLAS core SkylakeX, numpy AVX512_SKX True"


def openblas_core():
    """The core name numpy's bundled OpenBLAS reports, or "unknown" where no
    bundled library exports scipy_openblas_get_corename64_."""
    root = pathlib.Path(np.__file__).parent
    for path in sorted(root.parent.glob("numpy.libs/*openblas*")) + sorted(
            root.glob(".dylibs/*openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def running_pair():
    return (f"OpenBLAS core {openblas_core()}, "
            f"numpy AVX512_SKX {__cpu_features__.get('AVX512_SKX', 'unknown')}")


def pin_message():
    """The failure message of a hex bit pin."""
    return f"bit pins recorded on {RECORDED}; running on {running_pair()}"


if __name__ == "__main__":
    print(running_pair())
