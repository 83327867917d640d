"""Tests for the thresholding estimator core."""

import bisect
import contextlib
import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from wavedens import estimator
from wavedens.basis import (
    CoefficientIndex,
    StepFunction,
    TabulatedFunction,
    eval_decomposition,
    level_function,
    reconstruction_support,
    sup_norm,
)
from wavedens.estimator import (
    EstimatorConfig,
    Mode,
    Sample,
    coefficient_table,
    estimate,
    oracle_estimate,
    practical,
    practical_gamma,
    theoretical_gamma,
    threshold,
    variance_hat,
    variance_tilde,
)
from wavedens.kernel import fit_kernel
from wavedens.signals import Bumps, Gauss, Uniform01, mixture_gd, mixture_hk


def pairwise_variance(values):
    """O(n^2) oracle: the literal pairwise U-statistic."""
    v = np.asarray(values, dtype=float)
    n = len(v)
    total = 0.0
    for i in range(1, n):
        for l in range(i):
            total += (v[i] - v[l]) ** 2
    return total / (n * (n - 1))


def brute_force_cells(sample, basis, j0, k_window=600):
    """Independent enumeration over a wide k window straight from the
    pointwise evaluations; returns every cell touched by data."""
    x = sample.observations
    cells = {}
    for j in range(-1, j0 + 1):
        for k in range(-k_window, k_window):
            vals = eval_decomposition(basis, (j, k), x)
            if np.any(vals != 0.0):
                beta = float(np.sum(vals)) / sample.n
                cells[(j, k)] = (beta, variance_hat(vals))
    return cells


def unique_level_stats(x, basis, j):
    """Reference level scan: every (observation, translate) pair goes
    through ``np.unique``, an O(n log n) sort of all of them.  The pieces
    have width 2^-m and left ends ``(first + q) / 2^m``; an observation in
    bin ``B = floor(2^m scale x)`` meets translate k in piece
    ``q = B - 2^m k - first`` when ``0 <= q < P``, and, when it sits on
    the lattice point ``B / (2^m scale)``, also the closed right end of
    translate k with ``q = P``.  Each cell adds its step values exactly,
    as integers in units of 1/8, and returns ``amp * R1`` and
    ``(amp * amp) * R2``, each rounded once."""
    step_fn, amp, scale = level_function(basis, j)
    bp = step_fn.breakpoints
    per = round(1.0 / (bp[1] - bp[0]))  # 2^m
    first = round(bp[0] * per)
    eighths = step_fn.values * 8
    pieces = len(eighths)
    assert np.array_equal(eighths, np.round(eighths))
    y = x * (scale * per)
    bins = np.floor(y)
    on = y == bins
    bins = bins.astype(np.int64)
    # the highest translate an observation meets has q = (B - first) mod
    # 2^m, and each lower one adds 2^m to q
    top = (bins - first) // per
    k_parts, v_parts = [], []
    for below in range(pieces // per + 1):
        k = top - below
        q = bins - per * k - first
        meets = (q < pieces) | (on & (q == pieces))
        k_parts.append(k[meets])
        v_parts.append(eighths[np.minimum(q[meets], pieces - 1)])
    ks = np.concatenate(k_parts)
    vs = np.concatenate(v_parts)
    k_out, inv = np.unique(ks, return_inverse=True)
    r1 = np.bincount(inv, weights=vs, minlength=len(k_out)) / 8
    r2 = np.bincount(inv, weights=vs * vs, minlength=len(k_out)) / 64
    return k_out, amp * r1, (amp * amp) * r2


def fraction_level_stats(x, basis, j):
    """Exact oracle: ``psi_jk(x) = amp * f(scale * x - k)`` in rational
    arithmetic, with f's pieces closed on the left and its last piece also
    closed on the right.  ``(ks, s1, s2)`` over the translates whose sum
    is nonzero, with ``s1 = amp * R1`` and ``s2 = (amp * amp) * R2`` for
    the exact sums R1 of f's values and R2 of their squares."""
    step_fn, amp, scale = level_function(basis, j)
    bp = [Fraction(b) for b in step_fn.breakpoints.tolist()]
    values = [Fraction(v) for v in step_fn.values.tolist()]
    r1, r2 = {}, {}
    for xi in x.tolist():
        t = Fraction(xi) * Fraction(scale)
        for k in range(math.floor(t - bp[-1]), math.ceil(t - bp[0]) + 1):
            u = t - k
            if not bp[0] <= u <= bp[-1]:
                continue
            # the piece whose left end is the last breakpoint <= u; u on
            # the right end belongs to the last piece
            v = values[min(bisect.bisect_right(bp, u), len(values)) - 1]
            r1[k] = r1.get(k, 0) + v
            r2[k] = r2.get(k, 0) + v * v
    ks = [k for k in sorted(r1) if r1[k] != 0]
    return (np.array(ks, dtype=np.int64),
            np.array([amp * float(r1[k]) for k in ks], dtype=float),
            np.array([(amp * amp) * float(r2[k]) for k in ks], dtype=float))


def assert_scan_matches_unique(values, basis, levels):
    # one scan over all the levels, so levels that share an analysis
    # function share a pass; the scan yields exactly the reference's cells
    # whose sum is nonzero
    x = Sample.from_data(values).observations
    scans = list(estimator._level_stats(x, basis, levels))
    assert len(scans) == len(levels)
    for j, got in zip(levels, scans):
        k_ref, s1_ref, s2_ref = unique_level_stats(x, basis, j)
        nonzero = s1_ref != 0.0
        want = k_ref[nonzero], s1_ref[nonzero], s2_ref[nonzero]
        assert len(got) == 3
        for name, g, w in zip(("ks", "s1", "s2"), got, want):
            assert g.dtype == w.dtype, (j, name)
            assert np.array_equal(g, w), (j, name)


def table_cells(sample, config):
    """{(j, k): (beta_hat, sigma_hat_sq)} from the coefficient table."""
    t = coefficient_table(sample, config)
    return {(j, k): (beta, sig) for j, k, beta, sig in zip(
        t.j.tolist(), t.k.tolist(), t.beta_hat.tolist(),
        t.sigma_hat_sq.tolist())}


class TestSample:
    def test_sorted_and_validated(self):
        s = Sample.from_data([3.0, 1.0, 2.0])
        assert list(s.observations) == [1.0, 2.0, 3.0]
        assert s.n == 3

    def test_too_small(self):
        with pytest.raises(ValueError):
            Sample.from_data([1.0])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Sample.from_data([1.0, float("nan")])


class TestRecordIdentity:
    """Records that hold arrays compare and hash by identity; the records
    built from them compare field by field, and every record hashes."""

    def test_array_records_compare_by_identity(self, spline, rng):
        sample = Sample.from_data(rng.normal(size=64))
        table = coefficient_table(sample, EstimatorConfig(spline, practical()))
        step, tab = spline.psi, spline.phi_tilde
        for record, copy in [
            (sample, Sample(sample.observations)),
            (step, StepFunction(step.breakpoints, step.values)),
            (tab, TabulatedFunction(tab.lo, tab.hi, tab.grid_exponent,
                                    tab.samples)),
            (table, dataclasses.replace(table)),
        ]:
            assert record == record
            assert record != copy
            assert len({record, copy}) == 2

    def test_composite_records_compare_field_by_field(self, haar, spline,
                                                      rng):
        sample = Sample.from_data(rng.normal(size=64))
        config = EstimatorConfig(spline, practical())
        same = EstimatorConfig(spline, practical())
        assert spline == spline and hash(spline) == hash(spline)
        assert spline != haar
        assert config == same and hash(config) == hash(same)
        assert config != EstimatorConfig(haar, practical())
        fit, again = estimate(sample, config), estimate(sample, same)
        assert fit == again and hash(fit) == hash(again)
        assert fit != estimate(sample, EstimatorConfig(spline,
                                                       practical_gamma(0.5)))
        kernel, again = fit_kernel(sample), fit_kernel(sample)
        assert kernel == again and hash(kernel) == hash(again)
        # a copy of the sample is another sample, so another fit
        assert kernel != fit_kernel(Sample(sample.observations))


class TestVarianceHat:
    def test_constant_data(self):
        assert variance_hat([2.5] * 10) == 0.0

    def test_two_point_hand_value(self):
        # direct pairwise sum: (1-0)^2 / (2*1) = 0.5
        assert variance_hat([0.0, 1.0]) == 0.5

    def test_matches_pairwise_oracle(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 201))
            v = rng.normal(size=n) * rng.uniform(0.1, 50)
            assert_allclose(variance_hat(v), pairwise_variance(v), rtol=1e-12)

    def test_needs_two(self):
        with pytest.raises(ValueError):
            variance_hat([1.0])


class TestVarianceTilde:
    def test_plug_in_value(self):
        # sigma^2 = 0, sup = 1, n = e^2 (ln n = 2), gamma = 1 -> 16 / e^2
        n = math.e ** 2
        assert_allclose(variance_tilde(0.0, 1.0, n, 1.0), 16.0 / math.e ** 2,
                        rtol=1e-15)

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError):
            variance_tilde(1.0, 1.0, 100, 0.0)

    def test_dominates_plain_variance_and_monotone(self, rng):
        for _ in range(200):
            s2 = float(rng.uniform(0, 5))
            sup = float(rng.uniform(0.1, 10))
            n = int(rng.integers(2, 10000))
            g = float(rng.uniform(0.1, 4))
            base = variance_tilde(s2, sup, n, g)
            assert base >= s2
            assert variance_tilde(s2 * 1.3, sup, n, g) >= base
            assert variance_tilde(s2, sup * 1.3, n, g) >= base
            assert variance_tilde(s2, sup, n, g * 1.3) >= base


class _Cell:
    def __init__(self, sigma_hat_sq, psi_sup_norm):
        self.sigma_hat_sq = sigma_hat_sq
        self.psi_sup_norm = psi_sup_norm


class TestThreshold:
    def test_practical_equals_gamma_one_bitwise(self, rng):
        for _ in range(200):
            cell = _Cell(float(rng.uniform(0, 4)), float(rng.uniform(0.1, 8)))
            n = int(rng.integers(2, 100000))
            assert (threshold(cell, n, practical())
                    == threshold(cell, n, practical_gamma(1.0)))

    def test_plug_in_value(self):
        # sigma^2 = 0, sup = 1, n = e^2 -> linear term only: 4 / (3 e^2)
        n = math.e ** 2
        got = threshold(_Cell(0.0, 1.0), n, practical())
        assert_allclose(got, 4.0 / (3.0 * math.e ** 2), rtol=1e-15)

    @pytest.mark.parametrize("gamma", [1.0, 1.5, 3.0])
    def test_ordering_exact(self, rng, gamma):
        # practical <= inflated-variance rule, with no tolerance
        for _ in range(1000):
            cell = _Cell(float(rng.uniform(0, 10)), float(rng.uniform(0.01, 20)))
            n = int(rng.integers(2, 10 ** 6))
            assert (threshold(cell, n, practical())
                    <= threshold(cell, n, theoretical_gamma(gamma)))

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            Mode("practical-gamma", gamma=0.0)
        with pytest.raises(ValueError):
            Mode("theoretical-gamma", gamma=2.0, c=0.5)
        with pytest.raises(ValueError):
            Mode("bogus")
        with pytest.raises(ValueError, match="practical-gamma"):
            Mode("practical", gamma=2.0)
        # c and c' set the theoretical level cap; other rules never read them
        for kind in ("practical", "practical-gamma"):
            for extra in ({"c": 5.0}, {"c_prime": 3.0},
                          {"c": 1.0, "c_prime": -1.0}):
                with pytest.raises(ValueError, match="theoretical-gamma"):
                    Mode(kind, **extra)
        Mode("theoretical-gamma", gamma=2.0, c=5.0, c_prime=3.0)


class TestJ0:
    def test_practical_floor_log2(self, haar):
        cfg = EstimatorConfig(basis=haar, mode=practical())
        assert cfg.j0(1024) == 10
        assert cfg.j0(1000) == 9

    def test_theoretical_with_exponents(self, haar):
        cfg = EstimatorConfig(basis=haar, mode=theoretical_gamma(1.5, c=1.0))
        assert cfg.j0(1024) == 10
        cfg2 = EstimatorConfig(basis=haar,
                               mode=theoretical_gamma(1.5, c=1.0, c_prime=-1.0))
        n = 1024
        assert cfg2.j0(n) == math.floor(math.log2(n / math.log(n)))

    def test_one_formula_for_every_rule(self, haar):
        # c = 1 and c' = 0 make n^c (ln n)^c' exactly n, and its log2
        # floors to the bit length of n less one
        rules = [practical(), practical_gamma(0.5), theoretical_gamma(2.0)]
        configs = [EstimatorConfig(basis=haar, mode=mode) for mode in rules]
        for n in range(2, 2 ** 16 + 1):
            assert [cfg.j0(n) for cfg in configs] == [n.bit_length() - 1] * 3

    def test_override(self, haar):
        cfg = EstimatorConfig(basis=haar, mode=practical(), j0_override=7)
        assert cfg.j0(1024) == 7

    def test_cap_below_father_rejected(self, haar):
        # level -1 is the coarsest row; a lower cap would scan nothing
        assert EstimatorConfig(basis=haar, mode=practical(),
                               j0_override=-1).j0(1024) == -1
        with pytest.raises(ValueError, match="below -1"):
            EstimatorConfig(basis=haar, mode=practical(),
                            j0_override=-2).j0(1024)
        # floor(log2(200 ln(200)^-10)) = -17
        cfg = EstimatorConfig(basis=haar,
                              mode=theoretical_gamma(1.5, c_prime=-10.0))
        with pytest.raises(ValueError, match="j0 = -17 is below -1"):
            cfg.j0(200)
        # 200 ln(200)^-1000 underflows to 0.0: below every level
        cfg = EstimatorConfig(basis=haar,
                              mode=theoretical_gamma(1.5, c_prime=-1000.0))
        with pytest.raises(ValueError, match="j0 = -inf is below -1"):
            cfg.j0(200)

    def test_theoretical_overflow_rejected(self, haar):
        cfg = EstimatorConfig(basis=haar, mode=theoretical_gamma(1.5, c=400.0))
        with pytest.raises(ValueError, match="n = 200, c = 400.0, c' = 0.0"):
            cfg.j0(200)


class TestEmpiricalCoefficients:
    """The coefficient table: one row per nonzero empirical coefficient."""

    def test_father_row_all_mass_in_unit_interval(self, haar):
        sample = Sample.from_data([0.1, 0.4, 0.6, 0.9])
        cfg = EstimatorConfig(basis=haar, mode=practical())
        cells = table_cells(sample, cfg)
        assert [jk for jk in cells if jk[0] == -1] == [(-1, 0)]
        assert cells[(-1, 0)][0] == 1.0

    def test_exact_cancellation_skipped(self, haar):
        sample = Sample.from_data([0.1, 0.3, 0.6, 0.9])
        cfg = EstimatorConfig(basis=haar, mode=practical())
        assert (0, 0) not in table_cells(sample, cfg)

    @pytest.mark.parametrize("basis_name", ["haar", "spline"])
    def test_matches_brute_force(self, basis_name, haar, spline, rng):
        basis = haar if basis_name == "haar" else spline
        sample = Sample.from_data(rng.normal(size=200))
        cfg = EstimatorConfig(basis=basis, mode=practical(), j0_override=4)
        got = table_cells(sample, cfg)
        want = brute_force_cells(sample, basis, 4)
        # the table leaves out every cell whose terms cancel exactly, while
        # the brute force's float sum can leave such a cell at
        # cancellation-noise level
        assert set(got) <= set(want)
        for idx, (beta, sig) in want.items():
            noise = 1e-13 * 2.0 ** (max(idx[0], 0) / 2.0)
            if idx in got:
                assert_allclose(got[idx][0], beta, rtol=1e-12, atol=noise)
                assert_allclose(got[idx][1], sig, rtol=1e-12, atol=1e-15)
            else:
                assert abs(beta) <= noise

    def test_emitted_range_bounded(self, haar, rng):
        sample = Sample.from_data(rng.normal(size=200))
        lo, hi = sample.data_range
        cfg = EstimatorConfig(basis=haar, mode=practical())
        table = coefficient_table(sample, cfg)
        for j in range(0, cfg.j0(sample.n) + 1):
            ks = table.k[table.j == j]
            if len(ks):
                assert max(ks) - min(ks) + 1 <= math.ceil(2 ** j * (hi - lo)) + 1

    def test_boundary_observation_counts_both_cells(self, haar):
        # an observation exactly on an integer belongs to both box translates;
        # phi is 1 on its closed support, so beta_hat counts the observations
        sample = Sample.from_data([1.0, 0.2, 0.4, 1.7])
        cfg = EstimatorConfig(basis=haar, mode=practical(), j0_override=-1)
        cells = table_cells(sample, cfg)
        assert cells[(-1, 0)][0] == 3 / 4
        assert cells[(-1, 1)][0] == 2 / 4

    def test_sup_column_is_the_basis_sup_norm(self, spline, rng):
        sample = Sample.from_data(rng.normal(size=100))
        table = coefficient_table(
            sample, EstimatorConfig(basis=spline, mode=practical()))
        for j, sup in zip(table.j.tolist(), table.sup.tolist()):
            assert sup == sup_norm(spline, (j, 0))

    def test_dyadic_overflow_rejected(self, haar):
        # 2^j0 * max|x| must stay below 2^52 for exact translate indices
        wild = Sample.from_data([1e308, -1e308, 0.0, 1.0])
        cfg = EstimatorConfig(basis=haar, mode=practical())
        with pytest.raises(ValueError, match="2\\^52"):
            coefficient_table(wild, cfg)
        with pytest.raises(ValueError, match="2\\^52"):
            estimate(wild, cfg)
        edge = Sample.from_data([0.0, 2.0 ** 50])
        assert len(coefficient_table(
            edge, EstimatorConfig(basis=haar, mode=practical(),
                                  j0_override=1))) > 0
        with pytest.raises(ValueError, match="2\\^52"):
            coefficient_table(edge, EstimatorConfig(
                basis=haar, mode=practical(), j0_override=2))


# the analysis breakpoints at level j are the multiples of 2^-(j+1), so a
# point k / 2^m sits on one at every level j >= m - 1, and at coarser
# levels too when k is even
_DYADIC = np.arange(-3 * 2 ** 10, 3 * 2 ** 10 + 1, 7) / 2.0 ** 10
_SCAN_CASES = {
    "ties": np.repeat([-1.25, 0.1, 0.1 + 2.0 ** -20, 3.0, 7.5], [4, 9, 3, 1, 6]),
    "dyadic breakpoints": np.concatenate([
        _DYADIC, np.arange(-64, 65) / 2.0 ** 18, np.arange(-20, 21) / 4.0]),
    "one ulp below breakpoints": np.nextafter(_DYADIC, -np.inf),
    "around zero": np.array([-1e-17, 1e-17, 0.0, -0.0, 2.0 ** -1074, 0.5,
                             0.5 - 2.0 ** -54, 1.0 - 2.0 ** -53,
                             -(2.0 ** -53), 1.0, -1.0]),
    "two equal values": np.array([0.3, 0.3]),
}


def _gapped_runs(level, fracs, gaps=(1, 2, 3, 4, 5, 6, 5, 4, 3, 2, 1, 6, 1)):
    """Points whose bases floor(2^level x) start at -1 and step by
    ``gaps``, one point per base and fraction."""
    bases = -1 + np.concatenate([[0], np.cumsum(gaps)])
    x = (bases[:, None] + np.asarray(fracs)[None, :]).ravel()
    return np.ldexp(x, -max(level, 0))


# Runs of occupied bins whose bases are 1..6 apart: the translates that
# neighbouring runs reach overlap (spline), touch, or leave translates no
# bin reaches between them; a point on the lattice (frac 0) also reaches
# the closed end of a support, and the point -1e-17 lies in bin -1, so
# close to the lattice point 0 that a float t - floor(t) rounds to 1.
for _level in (0, 5, 12):
    _SCAN_CASES[f"gapped runs off the lattice at level {_level}"] = (
        _gapped_runs(_level, [0.3, 0.7]))
    _on = _gapped_runs(_level, [0.0, 0.3, 0.7])
    _SCAN_CASES[f"gapped runs on the lattice at level {_level}"] = _on
    _SCAN_CASES[f"gapped runs with frac 1 at level {_level}"] = np.append(
        _on, -1e-17 * 2.0 ** -_level)


# near the half-integers of 2^j x, on them and off them, at level 0; the
# rational oracle test scales them to each level
_ORACLE_POINTS = np.array([
    1e-17, -1e-17, 2.0 ** -53, -(2.0 ** -53), 0.5 - 2.0 ** -54,
    1.0 - 2.0 ** -53, 1.5 - 2.0 ** -52, 2.0 - 2.0 ** -51,
    0.0, 0.3, 0.75, 1.0])
_WIDE_PSI = StepFunction(np.arange(-6, 6) / 2.0, np.array(
    [1, -2, 3, -1, 0.5, -0.5, 2, -3, 0.125, 1, -0.625]))


def _ulps_from(value, steps):
    """The float ``steps`` ulps above ``value`` (below when negative)."""
    toward = math.inf if steps > 0 else -math.inf
    for _ in range(abs(steps)):
        value = math.nextafter(value, toward)
    return value


class TestLevelScan:
    """The dyadic-bin level scan matches the ``np.unique`` reference bit for
    bit: the same cells, sums and sums of squares, at every level."""

    @pytest.mark.parametrize("case", sorted(_SCAN_CASES))
    @pytest.mark.parametrize("basis_name", ["haar", "spline"])
    def test_matches_unique_reference(self, case, basis_name, haar, spline):
        # small samples: the wavelet levels 0..16 share one pass
        basis = haar if basis_name == "haar" else spline
        assert_scan_matches_unique(_SCAN_CASES[case], basis, range(-1, 17))

    @pytest.mark.parametrize("basis_name", ["haar", "spline"])
    def test_large_heavy_tailed_draw(self, basis_name, haar, spline):
        # the estimate workload's size and signal: 2^16 hk(2) draws
        basis = haar if basis_name == "haar" else spline
        x = mixture_hk(2.0).sample(np.random.SeedSequence([18, 0]), 2 ** 16)
        assert_scan_matches_unique(x.observations, basis, range(-1, 17))

    def test_scan_memory_stays_linear(self, spline):
        # The 18-level spline scan of these 2^16 draws peaks at 14.1 MB
        # under tracemalloc (numpy 2.4; MB = 2^20 bytes), 12.6 MB of it the
        # table it returns; the per-observation scan before the dyadic bins
        # peaked at 17.4 MB.  The bound adds 6.6 MB to that.  The draws
        # span 766, so a cell index dense over their range would need 5e7
        # cells at level 16.
        sample = mixture_hk(2.0).sample(np.random.SeedSequence([7, 0]),
                                        2 ** 16)
        estimator._scan(sample, spline, 16)  # warm the basis caches
        tracemalloc.start()
        try:
            estimator._scan(sample, spline, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2 ** 20

    @pytest.mark.parametrize("basis_name", ["haar", "spline"])
    def test_heavy_tail_near_the_dyadic_guard(self, basis_name, haar, spline):
        # Cauchy draws scaled so 2^j0 * max|x| lies just below 2^52
        basis = haar if basis_name == "haar" else spline
        draws = np.random.default_rng(7).standard_cauchy(3000)
        j0 = 11
        x = draws * (0.9 * 2.0 ** (52 - j0) / np.max(np.abs(draws)))
        assert len(coefficient_table(Sample.from_data(x), EstimatorConfig(
            basis=basis, mode=practical(), j0_override=j0))) > 0
        assert_scan_matches_unique(x, basis, range(-1, j0 + 1))

    def test_offset_reaching_the_far_end_of_the_support(self, spline):
        # the spline wavelet lives on [-1, 2] and takes the values -1/8,
        # -1/8, 1, -1, 1/8, 1/8 on its half-unit pieces.  1e-17 meets
        # translate 0 at 1, translate -1 at 1/8 and translate 1 at -1/8,
        # and lies past the closed end of translate -2; 0.75 meets the
        # same three at -1, 1/8 and -1/8.  Translate 0's sum is exactly
        # zero, so the scan leaves it out.
        x = np.array([1e-17, 0.75])
        ((ks, s1, s2),) = estimator._level_stats(x, spline, [0])
        assert ks.tolist() == [-1, 1]
        assert s1.tolist() == [0.25, -0.25]
        assert s2.tolist() == [1 / 32, 1 / 32]
        k_ref, s1_ref, _ = unique_level_stats(x, spline, 0)
        assert k_ref.tolist() == [-1, 0, 1]
        assert s1_ref[k_ref == 0].tolist() == [0.0]

    def test_cell_whose_terms_cancel_is_left_out(self, haar):
        # the Haar wavelet is +1 at 0.25 and -1 at 0.75: translate 0 of
        # level 0 is reached but sums to exactly zero, so neither the scan
        # nor the table holds a level-0 cell
        x = np.array([0.25, 0.75])
        ((ks, s1, s2),) = estimator._level_stats(x, haar, [0])
        assert ks.tolist() == s1.tolist() == s2.tolist() == []
        k_ref, s1_ref, _ = unique_level_stats(x, haar, 0)
        assert k_ref.tolist() == [0] and s1_ref.tolist() == [0.0]
        table = coefficient_table(Sample.from_data(x), EstimatorConfig(
            basis=haar, mode=practical(), j0_override=0))
        assert table.j.tolist() == [-1]

    @pytest.mark.parametrize("basis_name", ["haar", "spline"])
    @settings(max_examples=150)
    @given(values=st.lists(st.floats(-1e3, 1e3, allow_nan=False,
                                     allow_subnormal=True),
                           min_size=2, max_size=60),
           level=st.integers(-1, 16))
    def test_matches_unique_reference_on_random_samples(
            self, basis_name, haar, spline, values, level):
        basis = haar if basis_name == "haar" else spline
        assert_scan_matches_unique(values, basis, [level])

    @pytest.mark.parametrize("basis_name", ["haar", "spline"])
    @settings(max_examples=150)
    @given(data=st.data(), level=st.integers(-1, 16))
    def test_matches_unique_reference_on_adversarial_samples(
            self, basis_name, haar, spline, data, level):
        # points at and within 4 ulps of the breakpoints m / 2^(j+1),
        # |m| <= 8, of a drawn level j, where a float 2^j x - k can round
        # onto another piece or the closed end, among zeros, tiny values
        # and subnormals; every level is scanned, the drawn one and others
        basis = haar if basis_name == "haar" else spline
        lattice = st.tuples(st.integers(-8, 8), st.integers(-4, 4)).map(
            lambda mu: _ulps_from(math.ldexp(mu[0], -(level + 1)), mu[1]))
        tiny = st.sampled_from([0.0, -0.0, -1e-17, 1e-17, 2.0 ** -1074,
                                -(2.0 ** -1074), 2.0 ** -1022 - 2.0 ** -1074,
                                -3e-310])
        values = data.draw(st.lists(st.one_of(lattice, tiny), min_size=2,
                                    max_size=40))
        assert_scan_matches_unique(values, basis, range(-1, 17))

    @pytest.mark.parametrize("basis_name", ["haar", "spline"])
    @settings(max_examples=100)
    @given(values=st.lists(st.floats(-1e3, 1e3, allow_nan=False,
                                     allow_subnormal=True),
                           min_size=2, max_size=60))
    def test_duplicating_the_sample_doubles_every_sum(
            self, basis_name, haar, spline, values):
        basis = haar if basis_name == "haar" else spline
        x = Sample.from_data(values).observations
        levels = range(-1, 17)
        once = estimator._level_stats(x, basis, levels)
        twice = estimator._level_stats(np.repeat(x, 2), basis, levels)
        for j, (ks, s1, s2), (ks2, s1_2, s2_2) in zip(levels, once, twice):
            assert np.array_equal(ks2, ks), j
            assert np.array_equal(s1_2, 2.0 * s1), j
            assert np.array_equal(s2_2, 2.0 * s2), j

    @pytest.mark.parametrize("basis_name", ["haar", "spline", "wide"])
    @pytest.mark.parametrize("level", [-1, 0, 5, 12])
    def test_matches_the_rational_oracle(self, basis_name, level, haar,
                                         spline):
        # points within a few ulps of the half-integers of 2^j x, where a
        # float 2^j x - k can round onto another piece or a closed end.
        # The "wide" wavelet lives on [-3, 2.5], so an observation meets
        # translates up to five below its own: the scan takes any support.
        basis = {"haar": haar, "spline": spline,
                 "wide": dataclasses.replace(haar, name="wide",
                                             psi=_WIDE_PSI)}[basis_name]
        x = np.sort(np.ldexp(_ORACLE_POINTS, -max(level, 0)))
        (got,) = estimator._level_stats(x, basis, [level])
        want = fraction_level_stats(x, basis, level)
        for name, g, w in zip(("ks", "s1", "s2"), got, want):
            assert g.dtype == w.dtype, name
            assert np.array_equal(g, w), name

    @pytest.mark.parametrize("breakpoints, values", [
        ([0.0, 2.0, 4.0], [1.0, -1.0]),
        ([0.0, 2.0], [1.0])],
        ids=["two pieces", "one piece"])
    def test_analysis_function_beyond_the_scan_rejected(
            self, haar, breakpoints, values):
        # bins index whole pieces, so a piece may be at most 1 wide
        basis = dataclasses.replace(
            haar, name="other",
            psi=StepFunction(np.array(breakpoints), np.array(values)))
        with pytest.raises(ValueError, match="pieces of width 1 or less"):
            coefficient_table(Sample.from_data([0.1, 0.7]), EstimatorConfig(
                basis=basis, mode=practical(), j0_override=0))

    @staticmethod
    def _count_passes(monkeypatch):
        """Levels of each accumulation pass; the scan runs the finest
        first, and the list keeps them coarsest first."""
        passes = []
        cell_sums = estimator._cell_sums

        def counted(n, step_fn, levels):
            passes.insert(0, levels)
            return cell_sums(n, step_fn, levels)

        monkeypatch.setattr(estimator, "_cell_sums", counted)
        return passes

    def test_one_pass_per_analysis_function(self, spline, monkeypatch):
        # the calibrate workload's scan: n = 1024, levels -1..10 hold 1,139
        # bins, so the father level takes one pass with phi and the eleven
        # wavelet levels one pass with psi
        sample = Bumps().sample(3, 1024)
        levels = range(-1, 11)
        passes = self._count_passes(monkeypatch)
        got = list(estimator._level_stats(sample.observations, spline,
                                          levels))
        assert len(got) == len(levels)
        assert [len(levels) for levels in passes] == [1, 11]
        assert list(estimator._level_stats(sample.observations, spline,
                                           [])) == []
        assert sum(len(level.bins) for level in passes[1]) <= estimator._SCAN_BINS

    @pytest.mark.parametrize("basis_name", ["haar", "spline"])
    def test_bin_cap_splits_levels_with_a_remainder(
            self, basis_name, haar, spline, monkeypatch):
        # 2^16 hk(2) draws: the coarse wavelet levels share passes up to
        # the bin cap, the level that would pass it starts the next pass,
        # and from level 9 on each level holds enough bins to pass alone
        basis = haar if basis_name == "haar" else spline
        x = mixture_hk(2.0).sample(np.random.SeedSequence([19, 0]), 2 ** 16)
        levels = range(-1, 17)
        passes = self._count_passes(monkeypatch)
        assert_scan_matches_unique(x.observations, basis, levels)
        sizes = [[len(level.bins) for level in levels] for levels in passes]
        assert [len(level_bins) for level_bins in sizes] == [1, 9, *[1] * 8]
        cap = estimator._SCAN_BINS
        assert sum(sizes[1]) <= cap < sum(sizes[1]) + sizes[2][0]
        assert all(level_bins[0] > cap - level_bins[0]
                   for level_bins in sizes[3:])

    def test_scan_memory_bounded_by_the_batch(self, spline):
        # n = 2^12 under the theoretical cap with c = 1.5: levels -1..18,
        # the wavelet levels in passes 0..12, 13..16 and 17..18.  The
        # scan peaked at 3.4 MB under tracemalloc (numpy 2.4; MB = 2^20
        # bytes), 3.0 MB of it the returned table; the per-observation scan
        # before the dyadic bins peaked at 4.4 MB, and at 12.9 MB with all
        # 19 wavelet levels in one batch.  The bound adds 1.6 MB to 4.4.
        n = 2 ** 12
        sample = mixture_hk(2.0).sample(np.random.SeedSequence([12, 0]), n)
        j0 = EstimatorConfig(spline, theoretical_gamma(1.0, c=1.5)).j0(n)
        assert j0 == 18
        estimator._scan(sample, spline, j0)  # warm the basis caches
        tracemalloc.start()
        try:
            estimator._scan(sample, spline, j0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2 ** 20


class TestEstimate:
    def test_keep_rule_soundness(self, spline, rng):
        sample = Sample.from_data(rng.normal(size=500))
        n = sample.n
        for mode in (practical(), practical_gamma(0.5), theoretical_gamma(1.5)):
            cfg = EstimatorConfig(basis=spline, mode=mode)
            table = coefficient_table(sample, cfg)
            want = []
            for j, k, beta, sig, sup, eta, kept in zip(
                    table.j.tolist(), table.k.tolist(),
                    table.beta_hat.tolist(), table.sigma_hat_sq.tolist(),
                    table.sup.tolist(), table.eta.tolist(),
                    table.kept.tolist()):
                assert eta == threshold(_Cell(sig, sup), n, mode)
                assert kept == (abs(beta) >= eta)
                if kept:
                    want.append((j, k, beta, eta))
            assert [tuple(row) for row in estimate(sample, cfg).kept] == want

    def test_deterministic(self, spline, rng):
        sample = Sample.from_data(rng.normal(size=300))
        cfg = EstimatorConfig(basis=spline, mode=practical_gamma(0.5))
        assert estimate(sample, cfg) == estimate(sample, cfg)

    def test_empty_survivor_set_is_zero_function(self, haar):
        sample = Sample.from_data([0.2, 0.7])
        # absurd override keeps the cell count tiny; gamma large kills all
        cfg = EstimatorConfig(basis=haar, mode=practical_gamma(500.0),
                              j0_override=-1)
        est = estimate(sample, cfg)
        assert est.kept == ()
        assert np.all(est.evaluate(np.linspace(-1, 2, 50)) == 0.0)

    def test_theoretical_kept_nested_in_practical(self, spline, rng):
        # the inflated-variance thresholds dominate the practical ones, so
        # their survivor set can only shrink
        sample = Sample.from_data(rng.normal(size=600))
        kept_prac = {(r.j, r.k) for r in estimate(
            sample, EstimatorConfig(basis=spline, mode=practical())).kept}
        kept_th = {(r.j, r.k) for r in estimate(
            sample, EstimatorConfig(basis=spline,
                                    mode=theoretical_gamma(1.5))).kept}
        assert kept_th <= kept_prac

    def test_positive_part_flag_per_mode(self, haar, rng):
        sample = Sample.from_data(rng.random(32))
        for mode, flag in [(practical(), True), (practical_gamma(0.7), True),
                           (theoretical_gamma(1.2), False)]:
            est = estimate(sample, EstimatorConfig(basis=haar, mode=mode))
            assert est.positive_part is flag

    def test_sparsity_bound(self, spline, rng):
        # every observation touches at most W+1 translates per level, W the
        # support width in integer shifts (the +1 covers boundary hits)
        sample = Sample.from_data(rng.standard_t(3, size=400))
        cfg = EstimatorConfig(basis=spline, mode=practical())
        table = coefficient_table(sample, cfg)
        a, b = spline.psi.support
        width = int(math.ceil(b - a))
        assert len(table) <= (table.j0 + 2) * sample.n * (width + 1)

    def test_zero_outside_kept_supports(self, spline, rng):
        sample = Sample.from_data(rng.normal(size=200))
        est = estimate(sample, EstimatorConfig(basis=spline, mode=practical()))
        lo, hi = est.support_hull()
        probes = np.array([lo - 0.5, lo - 10.0, hi + 0.5, hi + 10.0])
        assert np.all(est.evaluate(probes) == 0.0)


class TestEstimates:
    @staticmethod
    def _count_scans(monkeypatch):
        scans = []
        scan = estimator._scan

        def counted(sample, basis, j0):
            scans.append((basis.name, j0))
            return scan(sample, basis, j0)

        monkeypatch.setattr(estimator, "_scan", counted)
        return scans

    def test_matches_estimate_per_config(self, haar, spline, rng,
                                         monkeypatch):
        # rules fitted to one sample share its scans; each fit equals the
        # fit on a fresh copy of the sample
        x = rng.normal(size=300)
        sample = Sample.from_data(x)
        configs = [EstimatorConfig(basis=basis, mode=mode, j0_override=j0)
                   for basis in (spline, haar)
                   for mode, j0 in ((practical(), None),
                                    (practical_gamma(0.5), None),
                                    (theoretical_gamma(1.5), None),
                                    (theoretical_gamma(1.5, c=1.5), None),
                                    (practical_gamma(2.0), 4))]
        scans = self._count_scans(monkeypatch)
        shared = [estimate(sample, config) for config in configs]
        # 2 bases x j0 in {8, 12, 4}
        assert sorted(scans) == sorted({(c.basis.name, c.j0(sample.n))
                                        for c in configs})
        assert len(scans) == 6
        for config, fit in zip(configs, shared):
            want = estimate(Sample.from_data(x), config)
            assert fit.basis is want.basis
            for field in dataclasses.fields(want):
                if field.name != "basis":
                    assert getattr(fit, field.name) == getattr(want, field.name)

    def test_oracle_and_estimate_share_a_scan(self, spline, monkeypatch):
        signal = Gauss(0.5, 0.25)
        sample = signal.sample(7, 256)
        cfg = EstimatorConfig(basis=spline, mode=practical())
        scans = self._count_scans(monkeypatch)
        oracle_estimate(sample, signal, cfg)
        estimate(sample, cfg)
        assert len(scans) == 1

    def test_scan_columns_read_only(self, haar, rng):
        # a caller cannot corrupt the scan that later rules reuse
        sample = Sample.from_data(rng.normal(size=50))
        table = coefficient_table(sample,
                                  EstimatorConfig(basis=haar, mode=practical()))
        for name in ("j", "k", "beta_hat", "sigma_hat_sq", "sup"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(table, name)[0] = 0


class TestEvaluate:
    def test_father_only(self, haar):
        est = _manual_estimate(haar, [(-1, 0, 1.0, 0.0)], positive=True)
        assert est.evaluate([0.5])[0] == 1.0
        assert est.evaluate([1.5])[0] == 0.0

    def test_positive_part_clips(self, haar):
        est = _manual_estimate(haar, [(0, 0, -3.0, 0.0)], positive=True)
        assert est.evaluate([0.25])[0] == 0.0
        est = _manual_estimate(haar, [(0, 0, -3.0, 0.0)], positive=False)
        assert est.evaluate([0.25])[0] == -3.0

    def test_overlapping_cells_sum(self, haar):
        est = _manual_estimate(haar, [(-1, 0, 0.5, 0.0), (0, 0, 0.5, 0.0)],
                               positive=False)
        # at x = 0.25 both contribute: 0.5 * 1 + 0.5 * 1 = 1
        assert est.evaluate([0.25])[0] == 1.0
        # at x = 0.75 the wavelet flips sign: 0.5 - 0.5 = 0
        assert est.evaluate([0.75])[0] == 0.0

    def test_unsorted_grid(self, haar, spline, rng):
        est = _manual_estimate(haar, [(-1, 0, 1.0, 0.0)], positive=True)
        out = est.evaluate([1.5, 0.5, -0.5, 0.2])
        assert list(out) == [0.0, 1.0, 0.0, 1.0]
        # a signed spline reconstruction of many cells: any order or shape
        # of the grid gives the sorted grid's values bit for bit
        est = estimate(Bumps().sample(3, 2048),
                       EstimatorConfig(basis=spline,
                                       mode=theoretical_gamma(0.1)))
        assert not est.positive_part and len(est.kept) > 100
        lo, hi = est.support_hull()
        grid = np.linspace(lo - 0.5, hi + 0.5, 4000)
        want = est.evaluate(grid)
        assert np.any(want < 0)
        perm = rng.permutation(len(grid))
        for probe, expect in ((grid[perm], want[perm]),
                              (grid.reshape(40, 100), want.reshape(40, 100)),
                              (grid[perm].reshape(80, 50),
                               want[perm].reshape(80, 50))):
            got = est.evaluate(probe)
            assert got.shape == expect.shape
            assert got.tobytes() == expect.tobytes()

    @staticmethod
    def _both_kinds(spline):
        sample = mixture_gd(10).sample(4, 256)
        return [estimate(sample, EstimatorConfig(basis=spline, mode=practical())),
                fit_kernel(sample)]

    def test_nan_point_gives_nan_in_any_order(self, spline, haar):
        nan = math.nan
        haar_est = _manual_estimate(haar, [(-1, 0, 1.0, 0.0)], positive=True)
        for est in [*self._both_kinds(spline), haar_est]:
            want = est.evaluate([0.0, 1.0, 10.5])
            for probe in ([0.0, nan, 1.0, 10.5], [nan, 0.0, 1.0, 10.5],
                          [10.5, 1.0, nan, 0.0, nan]):
                got = est.evaluate(probe)
                at = np.isnan(probe)
                assert np.all(np.isnan(got[at]))
                assert sorted(got[~at].tolist()) == sorted(want.tolist())
            assert np.isnan(est.evaluate([nan])).all()
            assert np.isnan(est.evaluate(nan))

    def test_scalar_point_stays_0d(self, spline):
        for est in self._both_kinds(spline):
            got = est.evaluate(0.5)
            assert isinstance(got, np.ndarray) and got.shape == ()
            assert got == est.evaluate([0.5])[0]
            assert est.evaluate([[0.5]]).shape == (1, 1)

    def test_support_hull_matches_every_row(self, spline, haar):
        # the per-level extremes give the per-row min and max bit for bit
        fits = []
        for signal in (Bumps(), Gauss(0.5, 0.25), mixture_gd(30), mixture_hk(2)):
            sample = signal.sample(6, 512)
            for basis in (spline, haar):
                for mode in (practical(), practical_gamma(0.25),
                             theoretical_gamma(0.5)):
                    fits.append(estimate(sample,
                                         EstimatorConfig(basis=basis, mode=mode)))
            fits.append(oracle_estimate(
                sample, signal, EstimatorConfig(basis=spline, mode=practical())))
        for est in fits:
            los, his = zip(*(reconstruction_support(est.basis, (r.j, r.k))
                             for r in est.kept))
            assert est.support_hull() == (min(los), max(his))
        assert _manual_estimate(haar, [], positive=True).support_hull() is None

    def test_support_hull_computed_once(self, spline, monkeypatch):
        est = estimate(Bumps().sample(6, 1024),
                       EstimatorConfig(basis=spline, mode=practical()))
        calls = []

        def counted(*args):
            calls.append(args)
            return reconstruction_support(*args)

        monkeypatch.setattr(estimator, "reconstruction_support", counted)
        first = est.support_hull()
        assert calls and first is not None
        calls.clear()
        assert est.support_hull() is first
        assert calls == []

    def test_block_changes_no_value(self, spline, haar, rng):
        # rules evaluated as one block give the values each gets alone,
        # on an ascending and on a shuffled grid, and the block looks up
        # each kept cell once on the points of its window
        sample = Bumps().sample(9, 1024)
        x = np.linspace(-1.0, 2.0, 3001)
        for basis in (spline, haar):
            fits = [estimate(sample, EstimatorConfig(basis=basis, mode=mode))
                    for mode in (practical(), practical_gamma(0.25),
                                 theoretical_gamma(0.5))]
            for grid in (x, x[rng.permutation(len(x))]):
                with _counted_lookups(basis) as looked_up:
                    block = estimator._evaluate_rows(fits, grid)
                assert block.shape == (len(fits), len(grid))
                for est, row in zip(fits, block):
                    assert row.tobytes() == est.evaluate(grid).tobytes()
                cells = {(r.j, r.k) for est in fits for r in est.kept}
                assert sum(looked_up) == sum(
                    _window_size(basis, cell, x) for cell in cells)


def _window_size(basis, cell, x):
    """How many of the points ``x`` the closed support of ``cell`` holds."""
    lo, hi = reconstruction_support(basis, cell)
    return int(np.count_nonzero((x >= lo) & (x <= hi)))


@contextlib.contextmanager
def _counted_lookups(basis):
    """Yield a list that receives the size of each lookup of ``basis``'s
    synthesis functions, in order, while the block runs."""
    sizes = []
    functions = (basis.phi_tilde, basis.psi_tilde)
    cls = type(basis.psi_tilde)
    original = cls.eval

    def counted(self, x):
        if any(self is fn for fn in functions):
            sizes.append(np.size(x))
        return original(self, x)

    cls.eval = counted
    try:
        yield sizes
    finally:
        cls.eval = original


def _ordered_sum(est, grid):
    """The estimate on ``grid`` as the (j, k)-ordered sum of its synthesis
    terms, each scaled as ``(value * amp) * f`` on the points of its
    closed support.  A point off the support whose float argument
    ``scale * x - k`` rounds onto its end gets nothing from the term."""
    out = np.zeros(len(grid))
    for row in est.kept:
        fn, amp, scale = level_function(est.basis, row.j, synthesis=True)
        lo, hi = reconstruction_support(est.basis, (row.j, row.k))
        at = (grid >= lo) & (grid <= hi)
        out[at] += (row.value * amp) * fn.eval(scale * grid[at] - row.k)
    return np.maximum(out, 0.0) if est.positive_part else out


class TestBlock:
    """A block of estimates looks up its kept cells once per synthesis
    function and lookup chunk, and adds each distinct term once into the
    rows that keep it; every row equals the term-by-term sum bit for
    bit."""

    @staticmethod
    def _fits(basis):
        sample = Bumps().sample(21, 1024)
        return [estimate(sample, EstimatorConfig(basis=basis, mode=mode))
                for mode in (practical(), practical_gamma(0.25),
                             theoretical_gamma(0.5))]

    @pytest.mark.parametrize("basis_name", ["haar", "spline"])
    @pytest.mark.parametrize("bounds", [None, (0.4, 0.45), (-30.0, -29.0),
                                        (0.999, 1.6)])
    @pytest.mark.parametrize("points", [None, 700])
    def test_equals_ordered_sum_of_terms(self, basis_name, bounds, points,
                                         haar, spline, monkeypatch):
        # grids narrower than the hull leave some kept cells no point; a
        # small lookup cap splits each function's lookup, and a cell wider
        # than the cap takes one of its own
        basis = haar if basis_name == "haar" else spline
        if points is not None:
            monkeypatch.setattr(estimator, "_LOOKUP_POINTS", points)
        fits = self._fits(basis)
        for est in fits:
            lo, hi = est.support_hull() if bounds is None else bounds
            grid = np.linspace(lo - 0.25, hi + 0.25, 4001)
            missed = [row for row in est.kept
                      if not (grid[0] <= reconstruction_support(
                          basis, (row.j, row.k))[1]
                          and reconstruction_support(
                              basis, (row.j, row.k))[0] <= grid[-1])]
            assert bool(missed) == (bounds is not None)
            want = _ordered_sum(est, grid)
            assert est.evaluate(grid).tobytes() == want.tobytes()
            block = estimator._evaluate_rows(fits, grid)
            assert block[fits.index(est)].tobytes() == want.tobytes()

    @pytest.mark.parametrize("basis_name", ["haar", "spline"])
    def test_rows_that_share_some_cells(self, basis_name, haar, spline):
        # each rule keeps some of another rule's cells and not others; in
        # either order of the rows the values do not change
        basis = haar if basis_name == "haar" else spline
        fits = self._fits(basis)
        grid = np.linspace(-0.5, 1.5, 2049)
        for order in (fits, fits[::-1]):
            for est, row in zip(order, estimator._evaluate_rows(order, grid)):
                assert row.tobytes() == _ordered_sum(est, grid).tobytes()
        theirs = {(r.j, r.k) for r in fits[0].kept}
        mine = {(r.j, r.k) for r in fits[1].kept}
        assert mine & theirs and mine - theirs

    def test_one_lookup_per_function(self, spline, monkeypatch):
        fits = self._fits(spline)
        grid = np.linspace(-0.5, 1.5, 1025)
        levels = {row.j for est in fits for row in est.kept}
        assert min(levels) == -1 and len(levels) > 2
        with _counted_lookups(spline) as sizes:
            estimator._evaluate_rows(fits, grid)
        # the father row and the wavelet levels: one lookup each, of each
        # kept cell's window once
        assert len(sizes) == 2 < len(levels)
        cells = {(r.j, r.k) for est in fits for r in est.kept}
        assert sum(sizes) == sum(_window_size(spline, cell, grid)
                                 for cell in cells)
        # a cap of 700 points splits the lookups into chunks of at most
        # that many points, or of one cell that is wider
        monkeypatch.setattr(estimator, "_LOOKUP_POINTS", 700)
        with _counted_lookups(spline) as chunks:
            estimator._evaluate_rows(fits, grid)
        assert sum(chunks) == sum(sizes) and len(chunks) > 2
        widest = max(_window_size(spline, (r.j, r.k), grid)
                     for est in fits for r in est.kept)
        assert max(chunks) <= max(700, widest)

    @settings(max_examples=60)
    @given(data=st.data(), basis_name=st.sampled_from(["haar", "spline"]),
           seeds=st.tuples(st.integers(0, 2 ** 16), st.integers(0, 2 ** 16)),
           n=st.integers(16, 400))
    def test_rows_equal_ordered_sums(self, haar, spline, data, basis_name,
                                     seeds, n):
        # nested practical-gamma rules with the theoretical rule, which
        # keeps the signed sum; two samples, so that one (j, k) carries
        # two values; a row with no kept cell; rows in any order; and a
        # grid that may be narrower than the hulls, shuffled, with a NaN
        basis = haar if basis_name == "haar" else spline
        modes = [practical_gamma(0.25), practical(), practical_gamma(2.0),
                 theoretical_gamma(0.5)]
        fits = [estimate(Sample(np.random.default_rng(seed).normal(0.5, 0.3, n)),
                         EstimatorConfig(basis=basis, mode=mode))
                for seed in seeds for mode in modes]
        fits.append(_manual_estimate(basis, [], positive=True))
        fits = data.draw(st.permutations(fits))
        lo = data.draw(st.floats(-2.0, 1.0))
        width = data.draw(st.floats(0.01, 4.0))
        grid = np.linspace(lo, lo + width, data.draw(st.integers(1, 3000)))
        if data.draw(st.booleans()):
            grid = np.random.default_rng(seeds[0]).permutation(grid)
        if data.draw(st.booleans()):
            grid[data.draw(st.integers(0, len(grid) - 1))] = np.nan
        block = estimator._evaluate_rows(fits, grid)
        nan = np.isnan(grid)
        for est, row in zip(fits, block):
            assert np.isnan(row[nan]).all()
            want = _ordered_sum(est, grid[~nan])
            assert row[~nan].tobytes() == want.tobytes()


def _manual_estimate(basis, rows, positive):
    from wavedens.estimator import DensityEstimate, KeptCoefficient
    kept = tuple(KeptCoefficient(*r) for r in rows)
    return DensityEstimate(kept=kept, basis=basis, positive_part=positive,
                           n=100, mode=practical(), j0=5)


class TestOracle:
    def test_uniform_keeps_only_father(self, haar, rng):
        signal = Uniform01()
        sample = signal.sample(rng.integers(0, 2 ** 31), 256)
        cfg = EstimatorConfig(basis=haar, mode=practical())
        est = oracle_estimate(sample, signal, cfg)
        assert [CoefficientIndex(r.j, r.k) for r in est.kept] == [
            CoefficientIndex(-1, 0)]
        assert est.kept[0].value == 1.0
        assert est.positive_part is False

    def test_kept_set_independent_of_threshold_mode(self, spline):
        signal = Gauss(0.5, 0.25)
        sample = signal.sample(11, 512)
        keys = []
        for mode in [practical(), practical_gamma(0.5),
                     theoretical_gamma(2.0, c=1.0)]:
            cfg = EstimatorConfig(basis=spline, mode=mode)
            est = oracle_estimate(sample, signal, cfg)
            keys.append(tuple((r.j, r.k) for r in est.kept))
        assert keys[0] == keys[1] == keys[2]

    def test_kept_count_grows_with_n(self, spline):
        signal = Gauss(0.5, 0.25)
        counts = []
        for n in (256, 1024, 4096):
            sample = signal.sample(5, n)
            cfg = EstimatorConfig(basis=spline, mode=practical())
            counts.append(len(oracle_estimate(sample, signal, cfg).kept))
        assert counts[0] <= counts[1] <= counts[2]
        assert counts[0] < counts[2]
