import numpy as np
import pytest
from hypothesis import settings

from logsphere import build_grid

# Property tests draw the same examples on every run, and run without a
# per-example deadline, whose timing varies with machine load.
settings.register_profile("logsphere", derandomize=True, deadline=None)
settings.load_profile("logsphere")


@pytest.fixture(scope="session")
def grids():
    """Shared grids (transform tables are cached per grid object)."""
    cache = {}

    def get(n, degree):
        key = (n, degree)
        if key not in cache:
            cache[key] = build_grid(n, degree)
        return cache[key]

    return get


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
