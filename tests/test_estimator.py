"""Tests for the thresholding estimator core."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from wavedens import estimator
from wavedens.basis import CoefficientIndex, eval_decomposition, sup_norm
from wavedens.estimator import (
    EstimatorConfig,
    Mode,
    Sample,
    besov_seminorm,
    coefficient_table,
    estimate,
    estimate_from_json_dict,
    oracle_estimate,
    practical,
    practical_gamma,
    theoretical_gamma,
    threshold,
    variance_hat,
    variance_tilde,
)
from wavedens.signals import Bumps, Gauss, Uniform01


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


def table_cells(sample, config):
    """{(j, k): (beta_hat, sigma_hat_sq, n_jk)} from the coefficient table."""
    t = coefficient_table(sample, config)
    return {(j, k): (beta, sig, njk) for j, k, beta, sig, njk in zip(
        t.j.tolist(), t.k.tolist(), t.beta_hat.tolist(),
        t.sigma_hat_sq.tolist(), t.n_jk.tolist())}


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
        assert cells[(-1, 0)][2] == 4

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
        # whether an exactly-cancelling cell sums to a hard 0.0 depends on
        # float summation order; such cells may appear on either side only
        # with a coefficient at cancellation-noise level
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
        # an observation exactly on an integer belongs to both box translates
        sample = Sample.from_data([1.0, 0.2, 0.4, 1.7])
        cfg = EstimatorConfig(basis=haar, mode=practical(), j0_override=-1)
        cells = table_cells(sample, cfg)
        assert cells[(-1, 0)][2] == 3
        assert cells[(-1, 1)][2] == 2

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
        for name in ("j", "k", "beta_hat", "sigma_hat_sq", "n_jk", "sup"):
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


def _manual_estimate(basis, rows, positive):
    from wavedens.estimator import DensityEstimate, KeptCoefficient
    kept = tuple(KeptCoefficient(*r) for r in rows)
    return DensityEstimate(kept=kept, basis=basis, positive_part=positive,
                           n=100, mode=practical(), j0=5)


class TestSerialization:
    def test_json_round_trip(self, haar, rng):
        sample = Sample.from_data(rng.random(128))
        est = estimate(sample, EstimatorConfig(basis=haar, mode=practical()))
        doc = est.to_json_dict()
        back = estimate_from_json_dict(doc)
        assert back.kept == est.kept
        assert back.n == est.n
        assert back.positive_part == est.positive_part
        assert back.mode == est.mode
        x = np.linspace(-0.5, 1.5, 257)
        assert np.array_equal(back.evaluate(x), est.evaluate(x))

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            estimate_from_json_dict({"format": "nope"})


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


class TestBesovSeminorm:
    def test_single_father_coefficient(self):
        for alpha, p, q in [(0.5, 2, 2), (1.0, 1, math.inf), (2.0, math.inf, 3)]:
            assert besov_seminorm({(-1, 0): 1.0}, alpha, p, q) == 1.0

    def test_level_weight_plug_in(self):
        # j=2, alpha=1, p=q=2: weight 2^{2*(1 + 1/2 - 1/2)} = 4
        assert besov_seminorm({(2, 0): 1.0}, 1.0, 2, 2) == 4.0

    def test_homogeneity(self, rng):
        coeffs = {(int(rng.integers(-1, 6)), int(rng.integers(-5, 6))): float(v)
                  for v in rng.normal(size=20)}
        a = besov_seminorm(coeffs, 0.7, 2, 3)
        b = besov_seminorm({k: 2 * v for k, v in coeffs.items()}, 0.7, 2, 3)
        assert_allclose(b, 2 * a, rtol=1e-12)

    def test_sup_conventions(self):
        coeffs = {(0, 0): 3.0, (0, 1): -4.0, (1, 0): 1.0}
        # p = inf: level norms are max |.|; q = inf: sup over levels
        got = besov_seminorm(coeffs, 0.0, math.inf, math.inf)
        assert got == max(2.0 ** (0.5 * 0) * 4.0, 2.0 ** 0.5 * 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            besov_seminorm({}, 1.0, 0.5, 2)
