"""Property tests of the estimator's invariants."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavedens.estimator import (
    EstimatorConfig,
    Sample,
    estimate,
    estimate_from_json_dict,
    practical,
    practical_gamma,
    theoretical_gamma,
)

MODES = {
    "practical": practical(),
    "practical-gamma": practical_gamma(0.5),
    "theoretical-gamma": theoretical_gamma(1.5),
}

# integers on the 2^-10 lattice: every dyadic product in the level scan and
# in the reconstruction stays exact, so a shift by an integer must commute
# with the estimator bit for bit.  Half-widths from 2^-10 to 4 with n from
# 32 to 256 leave cells above even the theoretical threshold.
LATTICE = st.integers(1, 4096).flatmap(
    lambda w: st.lists(st.integers(-w, w), min_size=32, max_size=256))
GRID_SCALE = 2.0 ** 12


@pytest.mark.parametrize("mode_name", sorted(MODES))
@pytest.mark.parametrize("basis_name", ["haar", "spline"])
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(ints=LATTICE, m=st.integers(-1000, 1000))
def test_translation_invariance(basis_name, mode_name, haar, spline, ints, m):
    # support-freeness: the estimate of X + m is the estimate of X moved by m
    cfg = EstimatorConfig(basis=haar if basis_name == "haar" else spline,
                          mode=MODES[mode_name])
    x = np.asarray(ints, dtype=float) / 1024.0
    est = estimate(Sample.from_data(x), cfg)
    moved = estimate(Sample.from_data(x + m), cfg)

    want = [(j, k + (m if j == -1 else m * 2 ** j), value, thr)
            for j, k, value, thr in est.kept]
    assert [tuple(row) for row in moved.kept] == want

    lo, hi = est.support_hull() or (x.min(), x.max())
    grid = np.arange(np.floor(lo * GRID_SCALE) - 8,
                     np.ceil(hi * GRID_SCALE) + 9) / GRID_SCALE
    assert np.array_equal(est.evaluate(grid), moved.evaluate(grid + m))


@pytest.mark.parametrize("mode_name", sorted(MODES))
@pytest.mark.parametrize("basis_name", ["haar", "spline"])
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(ints=LATTICE)
def test_json_round_trip(basis_name, mode_name, haar, spline, ints):
    # the written estimate reads back as the same estimate
    cfg = EstimatorConfig(basis=haar if basis_name == "haar" else spline,
                          mode=MODES[mode_name])
    x = np.asarray(ints, dtype=float) / 1024.0
    est = estimate(Sample.from_data(x), cfg)
    back = estimate_from_json_dict(json.loads(json.dumps(est.to_json_dict())))
    assert back == est

    lo, hi = est.support_hull() or (x.min(), x.max())
    grid = np.linspace(lo - 1.0, hi + 1.0, 1001)
    assert back.evaluate(grid).tobytes() == est.evaluate(grid).tobytes()
