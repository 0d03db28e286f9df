"""The thread count of the OpenBLAS library that numpy loaded, read or pinned.

OpenBLAS's thread-count functions are not numpy API, so they are looked up
with ctypes in the library this process already has mapped, under the names
numpy's wheels give them: `scipy_openblas_*64_` (numpy 2.x), `openblas_*64_`
(numpy 1.x) and plain `openblas_*`. Where no such library is loaded (another
BLAS, or a system without /proc), `threads` returns None and `one_thread`
changes nothing and yields False.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from collections.abc import Callable, Iterator

import numpy  # noqa: F401  (loads the BLAS library that _library looks for)

# (get, set) thread-count function names, in the order they are looked up.
_NAMES = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _library() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The (get, set) thread-count functions of the mapped OpenBLAS library:
    the first pair of _NAMES that one library exports both of, or None."""
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
        for get_name, set_name in _NAMES:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def threads() -> int | None:
    """The number of threads OpenBLAS runs a call on, or None if unknown."""
    lib = _library()
    return None if lib is None else lib[0]()


@contextlib.contextmanager
def one_thread() -> Iterator[bool]:
    """Run OpenBLAS on one thread inside the block; yields False if it cannot.
    The caller's count is restored on exit, also when the block raises."""
    lib = _library()
    with contextlib.ExitStack() as restore:
        if lib is not None:
            get, set_ = lib
            restore.callback(set_, get())
            set_(1)
        yield lib is not None
