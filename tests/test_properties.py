"""Property tests of the estimator's invariants."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavedens.estimator import (
    EstimatorConfig,
    Sample,
    coefficient_table,
    estimate,
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
@settings(max_examples=200)
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


@pytest.mark.parametrize("rule", [practical_gamma, theoretical_gamma])
@pytest.mark.parametrize("basis_name", ["haar", "spline"])
@settings(max_examples=100)
@given(ints=LATTICE, gammas=st.lists(st.floats(0.1, 3.0), min_size=2,
                                     max_size=2, unique=True))
def test_kept_sets_nest_as_gamma_grows(basis_name, rule, haar, spline, ints,
                                       gammas):
    # the threshold is monotone in gamma, so a larger gamma keeps a subset
    # of the cells a smaller one keeps, exactly
    basis = haar if basis_name == "haar" else spline
    sample = Sample.from_data(np.asarray(ints, dtype=float) / 1024.0)
    low, high = (coefficient_table(sample, EstimatorConfig(basis, rule(g)))
                 for g in sorted(gammas))
    assert np.array_equal(low.k, high.k)
    assert not np.any(high.kept & ~low.kept)


@pytest.mark.parametrize("mode_name", sorted(MODES))
@pytest.mark.parametrize("basis_name", ["haar", "spline"])
@settings(max_examples=100)
@given(ints=LATTICE)
def test_json_round_trip(basis_name, mode_name, haar, spline, ints):
    # the written estimate is lossless: JSON gives back every kept row and
    # field bit for bit
    cfg = EstimatorConfig(basis=haar if basis_name == "haar" else spline,
                          mode=MODES[mode_name])
    x = np.asarray(ints, dtype=float) / 1024.0
    est = estimate(Sample.from_data(x), cfg)
    doc = est.to_json_dict()
    assert json.loads(json.dumps(doc)) == doc
    assert doc["kept"] == [list(row) for row in est.kept]
    assert (doc["n"], doc["j0"], doc["basis"], doc["positive_part"]) == (
        est.n, est.j0, est.basis.name, est.positive_part)
    assert doc["mode"] == {"kind": est.mode.kind, "gamma": est.mode.gamma,
                           "c": est.mode.c, "c_prime": est.mode.c_prime}
