"""The thread count of the OpenBLAS library that numpy loaded, read or pinned.

numpy's wheels bundle OpenBLAS with `scipy_` prefixed, `64_` suffixed
symbols. Its thread-count functions are not numpy API, so they are looked up
with ctypes in the library this process already has mapped. Where no such
library is loaded (another BLAS, or a system without /proc), `threads`
returns None and `one_thread` changes nothing and yields False.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from collections.abc import Iterator

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


@contextlib.contextmanager
def one_thread() -> Iterator[bool]:
    """Run OpenBLAS on one thread inside the block; yields False if it cannot.
    The caller's count is restored on exit, also when the block raises."""
    lib = _library()
    with contextlib.ExitStack() as restore:
        if lib is not None:
            restore.callback(getattr(lib, _SET), getattr(lib, _GET)())
            getattr(lib, _SET)(1)
        yield lib is not None
