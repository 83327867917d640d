import numpy as np
import pytest

from wavedens.basis import haar_basis, spline_basis


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
