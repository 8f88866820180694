import tracemalloc

import hypothesis
import pytest

from areaflow import campaigns

hypothesis.settings.register_profile(
    "ci", max_examples=80, deadline=None, derandomize=True)
hypothesis.settings.load_profile("ci")


@pytest.fixture(autouse=True)
def _fresh_exact_blocks():
    """No test is served an exact block computed under another test's
    monkeypatches: run_exact_checks memoises its blocks per process."""
    campaigns._exact_block.cache_clear()
    yield
    campaigns._exact_block.cache_clear()


@pytest.fixture
def traced_peak():
    """peak(fn, *args): the tracemalloc peak, in bytes, of one call fn(*args)."""
    def peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak
