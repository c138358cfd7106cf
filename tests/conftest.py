import pytest

from trisolve import basesolve


@pytest.fixture(autouse=True)
def _cold_base_caches():
    """Each test starts, and leaves the next one, with the process-wide
    sign-class caches of basesolve empty, so that no test answers from
    results another test computed (or computed under a monkeypatch)."""
    basesolve._descended_class.cache_clear()
    basesolve._terminal_class.cache_clear()
    yield
    basesolve._descended_class.cache_clear()
    basesolve._terminal_class.cache_clear()
