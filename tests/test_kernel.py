"""Tests for the cross-validated kernel baseline."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from wavedens.estimator import Sample
from wavedens.kernel import (
    _REACH,
    bandwidth_grid,
    eval_kernel,
    fit_kernel,
    silverman_bandwidth,
)
from wavedens.signals import Bumps, Gauss, mixture_gd, mixture_hk


def _pairwise_sq_diffs(x):
    """Squared differences over the strict upper triangle, flattened."""
    d = x[:, None] - x[None, :]
    return (d * d)[np.triu_indices(len(x), k=1)]


def lscv_score(sample, h):
    """Reference least-squares cross-validation score at bandwidth ``h``,
    from all n(n-1)/2 pairs at once (O(n^2) memory)."""
    if h <= 0:
        raise ValueError("bandwidth must be positive")
    n = sample.n
    e = np.exp(-_pairwise_sq_diffs(sample.observations) / (4.0 * h * h))
    quad = (n + 2.0 * float(np.sum(e))) / (n * n * 2.0 * h * math.sqrt(math.pi))
    loo = 4.0 * float(np.sum(e * e)) / (n * (n - 1) * h * math.sqrt(2.0 * math.pi))
    return quad - loo


class TestLscvScore:
    def test_two_point_hand_value(self):
        # X = {0, 1}, h = 1: quad = (1 + e^-1/4) / (4 sqrt(pi)),
        # loo = 2 e^-1/2 / sqrt(2 pi)
        sample = Sample.from_data([0.0, 1.0])
        want = ((1.0 + math.exp(-0.25)) / (4.0 * math.sqrt(math.pi))
                - 2.0 * math.exp(-0.5) / math.sqrt(2.0 * math.pi))
        assert_allclose(lscv_score(sample, 1.0), want, rtol=1e-14)

    def test_quadratic_term_matches_quadrature(self, rng):
        # closed-form integral of fhat^2 vs brute-force trapezoid
        sample = Sample.from_data(rng.normal(size=80))
        h = 0.3
        est_quad = lscv_score(sample, h)
        x = np.arange(-10.0, 10.0, 2.0 ** -12)
        fhat = _dense_kde(sample.observations, h, x)
        loo = _loo_sum(sample.observations, h)
        brute = np.trapezoid(fhat * fhat, x) - loo
        assert_allclose(est_quad, brute, rtol=1e-6)

    def test_continuous_in_h(self, rng):
        sample = Sample.from_data(rng.normal(size=50))
        hs = np.linspace(0.05, 2.0, 400)
        scores = np.array([lscv_score(sample, h) for h in hs])
        jumps = np.abs(np.diff(scores))
        scale = np.max(np.abs(scores))
        assert np.max(jumps) < 0.05 * scale

    def test_joint_scaling_multiplies_score(self, rng):
        x = rng.normal(size=40)
        h = 0.4
        base = lscv_score(Sample.from_data(x), h)
        for s in (2.0, 0.5, 10.0):
            scaled = lscv_score(Sample.from_data(s * x), s * h)
            assert_allclose(scaled, base / s, rtol=1e-12)

    def test_positive_bandwidth_required(self):
        with pytest.raises(ValueError):
            lscv_score(Sample.from_data([0.0, 1.0]), 0.0)


def _dense_kde(x, h, grid):
    z = (grid[:, None] - x[None, :]) / h
    return np.sum(np.exp(-0.5 * z * z), axis=1) / (len(x) * h * math.sqrt(2 * math.pi))


def _loo_sum(x, h):
    n = len(x)
    z = (x[:, None] - x[None, :]) / h
    k = np.exp(-0.5 * z * z) / (h * math.sqrt(2 * math.pi))
    np.fill_diagonal(k, 0.0)
    return 2.0 * np.sum(k) / (n * (n - 1))


class TestFitKernel:
    def test_selected_bandwidth_in_grid(self, rng):
        sample = Sample.from_data(rng.normal(size=200))
        fit = fit_kernel(sample)
        hs = bandwidth_grid(sample)
        assert fit.bandwidth in hs
        assert len(fit.cv_scores) == len(hs)
        assert [h for h, _ in fit.cv_scores] == list(hs)

    def test_reference_band_sanity(self):
        # selected bandwidth stays near the normal-reference value for
        # normal data in at least 90% of seeded runs
        hits = 0
        sig = Gauss(0.0, 1.0)
        for seed in range(50):
            sample = sig.sample(seed, 1024)
            h0 = silverman_bandwidth(sample)
            h = fit_kernel(sample).bandwidth
            hits += int(0.3 * h0 <= h <= 3.0 * h0)
        assert hits >= 45

    def test_two_point_sample_runs(self):
        fit = fit_kernel(Sample.from_data([0.0, 1.0]))
        assert fit.bandwidth > 0

    def test_degenerate_sample_rejected(self):
        with pytest.raises(ValueError, match="zero variance"):
            fit_kernel(Sample.from_data([1.0, 1.0, 1.0]))

    def test_non_finite_score_rejected(self):
        # the data span overflows float64: no bandwidth can be selected
        with pytest.raises(ValueError, match="not finite"):
            fit_kernel(Sample.from_data([1e308, -1e308, 0.0, 1.0]))

    def test_deterministic(self, rng):
        sample = Sample.from_data(rng.normal(size=100))
        assert fit_kernel(sample) == fit_kernel(sample)

    @pytest.mark.parametrize("signal", [mixture_gd(10), mixture_gd(70),
                                        mixture_hk(2), Bumps()],
                             ids=lambda s: s.name)
    @pytest.mark.parametrize("n", [64, 1024])
    def test_scores_match_pairwise_reference(self, signal, n):
        # the blocked, windowed scan sums the same terms in another order
        sample = signal.sample(7, n)
        fit = fit_kernel(sample)
        hs = np.array([h for h, _ in fit.cv_scores])
        want = np.array([lscv_score(sample, h) for h in hs])
        assert_allclose([s for _, s in fit.cv_scores], want, rtol=1e-13)
        best = len(want) - 1 - int(np.argmin(want[::-1]))
        assert fit.bandwidth == hs[best]

    def test_memory_stays_linear(self):
        # the pairwise reference would hold 8.4M-entry arrays (~450 MB)
        sample = mixture_hk(2).sample(3, 4096)
        tracemalloc.start()
        try:
            fit_kernel(sample)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20

    def test_grid_edge_flag(self):
        # the grid scales with the standard deviation, so far-apart
        # clusters push the score's minimum below its smallest bandwidth
        far = fit_kernel(mixture_gd(70).sample(1, 1024))
        assert far.at_grid_edge
        assert far.bandwidth == far.cv_scores[0][0]
        near = fit_kernel(Gauss(0.0, 1.0).sample(1, 1024))
        assert not near.at_grid_edge

    def test_tie_break_toward_larger_h(self):
        # constant scores force the tie-break: must pick the last grid point
        sample = Sample.from_data([0.0, 1.0, 2.0])
        hs = bandwidth_grid(sample)
        scores = np.zeros(len(hs))
        best = len(scores) - 1 - int(np.argmin(scores[::-1]))
        assert best == len(hs) - 1


class TestSpatialAdaptivity:
    def test_global_bandwidth_loses_on_spiky_signal(self, spline):
        # a single global bandwidth cannot track the narrow spikes, so the
        # kernel fit is worse than the thresholding fit around them
        from wavedens.estimator import EstimatorConfig, estimate, practical
        from wavedens.signals import mixture_hk

        sig = mixture_hk(2)
        sample = sig.sample(2, 1024)
        kde = fit_kernel(sample)
        wav = estimate(sample, EstimatorConfig(basis=spline, mode=practical()))
        x = np.arange(-1.5, 2.5, 2.0 ** -12)
        f = sig.pdf(x)
        err_kde = np.trapezoid((f - kde.evaluate(x)) ** 2, x)
        err_wav = np.trapezoid((f - wav.evaluate(x)) ** 2, x)
        assert err_kde > err_wav


class TestEvalKernel:
    def test_unit_mass_on_padded_grid(self, rng):
        sample = Sample.from_data(rng.normal(size=300))
        fit = fit_kernel(sample)
        lo, hi = fit.support_hull()
        x = np.arange(lo, hi, 0.01 * fit.bandwidth)
        mass = np.trapezoid(eval_kernel(fit, x), x)
        assert abs(mass - 1.0) < 1e-4

    def test_nonnegative_and_far_field_zero(self, rng):
        sample = Sample.from_data(rng.normal(size=50))
        fit = fit_kernel(sample)
        x = np.linspace(-100, 100, 501)
        vals = eval_kernel(fit, x)
        assert np.all(vals >= 0.0)
        assert eval_kernel(fit, np.array([1e6]))[0] == 0.0

    def test_exactly_zero_outside_hull(self):
        # one reach for the hull and the evaluation window, so the values
        # one ulp past either end of the hull are exact zeros; so are the
        # gap points between two clusters that no observation reaches
        sample = mixture_gd(30).sample(4, 256)
        fit = fit_kernel(sample)
        lo, hi = fit.support_hull()
        outside = [np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)]
        assert list(eval_kernel(fit, outside)) == [0.0, 0.0]
        x = sample.observations
        gap = np.argmax(np.diff(x))
        mid = 0.5 * (x[gap] + x[gap + 1])
        assert x[gap + 1] - x[gap] > 2 * _REACH * fit.bandwidth
        assert eval_kernel(fit, [mid])[0] == 0.0

    def test_matches_dense_reference(self, rng):
        # the dense sum keeps the terms past _REACH bandwidths, each below
        # exp(-_REACH^2 / 2) times the kernel's peak
        normal = Sample.from_data(rng.normal(size=64))
        two_clusters = mixture_gd(30).sample(4, 256)
        for sample, x in [(normal, np.linspace(-4, 4, 333)),
                          (two_clusters, np.linspace(-8, 38, 20001))]:
            fit = fit_kernel(sample)
            h = fit.bandwidth
            dense = _dense_kde(sample.observations, h, x)
            dropped = math.exp(-0.5 * _REACH ** 2) / (h * math.sqrt(2 * math.pi))
            assert_allclose(eval_kernel(fit, x), dense, rtol=1e-12, atol=dropped)
