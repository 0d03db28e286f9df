"""The thread count of the OpenBLAS library that numpy loaded, read and set.

numpy's wheels bundle OpenBLAS with `scipy_` prefixed, `64_` suffixed
symbols. Its thread-count functions are not numpy API, so they are looked up
with ctypes in the library this process already has mapped. Where no such
library is loaded (another BLAS, or a system without /proc), `threads`
returns None and `set_threads` does nothing and returns False.
"""

from __future__ import annotations

import ctypes
import functools

import numpy  # noqa: F401  (loads the BLAS library that _library looks for)

_GET = "scipy_openblas_get_num_threads64_"
_SET = "scipy_openblas_set_num_threads64_"


@functools.cache
def _library() -> ctypes.CDLL | None:
    """The mapped OpenBLAS library that exports both thread functions, or None."""
    try:
        with open("/proc/self/maps") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return None
    paths = sorted({f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5]})
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        if hasattr(lib, _GET) and hasattr(lib, _SET):
            getattr(lib, _GET).argtypes, getattr(lib, _GET).restype = [], ctypes.c_int
            getattr(lib, _SET).argtypes, getattr(lib, _SET).restype = [ctypes.c_int], None
            return lib
    return None


def threads() -> int | None:
    """The number of threads OpenBLAS runs a call on, or None if unknown."""
    lib = _library()
    return None if lib is None else getattr(lib, _GET)()


def set_threads(count: int) -> bool:
    """Make OpenBLAS run each call on `count` threads; False if it cannot."""
    lib = _library()
    if lib is None:
        return False
    getattr(lib, _SET)(count)
    return True
