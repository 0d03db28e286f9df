"""Tests for the OpenBLAS thread-count lookup."""

import ctypes

import pytest

from pairbag import blas


def fake_library(get_name, set_name):
    """A stand-in for ctypes.CDLL that exports only the named pair of
    thread-count functions, over a count that starts at 3."""
    count = [3]

    def get():
        return count[0]

    def set_(n):
        count[0] = n

    class Fake:
        def __init__(self, path):
            setattr(self, get_name, get)
            setattr(self, set_name, set_)

    return Fake, count


@pytest.fixture
def fresh_lookup(monkeypatch):
    """_library looks the functions up again in the test and after it."""
    with open("/proc/self/maps") as maps:
        if "openblas" not in maps.read():
            pytest.skip("no OpenBLAS library mapped")
    blas._library.cache_clear()
    yield
    blas._library.cache_clear()


@pytest.mark.parametrize(
    "names",
    [
        ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
        ("openblas_get_num_threads", "openblas_set_num_threads"),
    ],
)
def test_finds_numpy_1_thread_functions(monkeypatch, fresh_lookup, names):
    """numpy 1.x wheels name the functions without the scipy_ prefix."""
    fake, count = fake_library(*names)
    monkeypatch.setattr(ctypes, "CDLL", fake)
    assert blas.threads() == 3
    with blas.one_thread() as pinned:
        assert pinned and count == [1]
    assert count == [3]


def test_a_getter_without_its_setter_is_no_control(monkeypatch, fresh_lookup):
    fake, _ = fake_library("openblas_get_num_threads64_", "openblas_set_num_threads")
    monkeypatch.setattr(ctypes, "CDLL", fake)
    assert blas.threads() is None
    with blas.one_thread() as pinned:
        assert not pinned
