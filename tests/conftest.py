import numpy as np
import pytest
from hypothesis import settings

from wavedens.basis import haar_basis, spline_basis

# property tests replay the same examples on every run, keep no example
# database and have no per-example deadline; each test sets its own count
settings.register_profile("wavedens", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("wavedens")


@pytest.fixture(scope="session")
def haar():
    return haar_basis()


@pytest.fixture(scope="session")
def spline():
    # session-scoped: the cascade runs once for the whole suite
    return spline_basis()


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
