import acceptance_registry
import pytest

from pairbag import blas


@pytest.fixture
def two_blas_threads():
    """The test runs with OpenBLAS on two threads; the count before it comes back after."""
    lib = blas._library()
    if lib is None:
        pytest.skip("no OpenBLAS thread control")
    get, set_ = lib
    before = get()
    set_(2)
    assert blas.threads() == 2
    yield
    set_(before)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = acceptance_registry.RESULTS
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(results):
        name, passed, elapsed = results[number]
        terminalreporter.write_line(
            acceptance_registry._line(number, name, passed, elapsed)
        )
