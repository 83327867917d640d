"""Tests for the cross-validated kernel baseline."""

import math
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import wavedens
from wavedens import kernel
from wavedens.estimator import Sample
from wavedens.kernel import (
    _REACH,
    bandwidth_grid,
    eval_kernel,
    fit_kernel,
    silverman_bandwidth,
)
from wavedens.signals import Bumps, Gauss, mixture_gd, mixture_hk


# Signals and sizes of the blocked score's checks.  At n = 1024 the score
# runs several blocks of rows, the last of them partial; below, one block.
SIGNALS = [mixture_gd(10), mixture_gd(70), mixture_hk(1), mixture_hk(2),
           Bumps(), Gauss(0.5, 0.25)]
SIZES = [2, 3, 64, 1024]


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

    def test_underflowing_variance_named(self):
        # distinct values whose squared deviations underflow to 0.0
        data = [0.0, 1e-170, 2e-170, 3e-170]
        assert np.std(data, ddof=1) == 0.0
        with pytest.raises(ValueError, match="spread too small for a "
                                             "float64 variance"):
            fit_kernel(Sample.from_data(data))

    def test_non_finite_score_rejected(self):
        # the data span overflows float64: no bandwidth can be selected
        with pytest.raises(ValueError, match="not finite"):
            fit_kernel(Sample.from_data([1e308, -1e308, 0.0, 1.0]))

    def test_deterministic(self, rng):
        sample = Sample.from_data(rng.normal(size=100))
        assert fit_kernel(sample) == fit_kernel(sample)

    @pytest.mark.parametrize("signal", SIGNALS, ids=lambda s: s.name)
    @pytest.mark.parametrize("n", SIZES)
    def test_scores_match_pairwise_reference(self, signal, n):
        # the blocked, windowed scan sums the same terms in another order,
        # less the terms past its reach
        sample = signal.sample(7, n)
        fit = fit_kernel(sample)
        hs = np.array([h for h, _ in fit.cv_scores])
        want = np.array([lscv_score(sample, h) for h in hs])
        assert_allclose([s for _, s in fit.cv_scores], want, rtol=1e-13)
        best = len(want) - 1 - int(np.argmin(want[::-1]))
        assert fit.bandwidth == hs[best]

    @pytest.mark.parametrize("signal", [mixture_gd(10), mixture_gd(70),
                                        mixture_hk(2)], ids=lambda s: s.name)
    @pytest.mark.parametrize("n", [2, 64, 1024])
    def test_sq_integral_matches_all_pairs(self, signal, n):
        # integral(fhat^2) = sum over all n^2 pairs of phi(X_i - X_j; 2 h^2)
        fit = fit_kernel(signal.sample(7, n))
        x, h = fit.sample.observations, fit.bandwidth
        d = x[:, None] - x[None, :]
        terms = np.exp(-d * d / (4.0 * h * h)).ravel()
        want = math.fsum(terms.tolist()) / (n * n * 2.0 * h * math.sqrt(math.pi))
        assert_allclose(fit.sq_integral, want, rtol=1e-13)

    @pytest.mark.parametrize("signal", [mixture_gd(70), mixture_hk(1)],
                             ids=lambda s: s.name)
    def test_dropped_terms_below_one_ulp(self, signal):
        # every pair the score leaves out lies past ln n + _LSCV_CUT in
        # d^2/4h^2; together those terms move the numerator n + 2 s1 of
        # the score's first part by less than n 2^-53
        n = 1024
        sample = signal.sample(7, n)
        d2 = _pairwise_sq_diffs(sample.observations)
        cut = math.log(n) + kernel._LSCV_CUT
        dropped_any = False
        for h in bandwidth_grid(sample):
            q = d2 / (4.0 * h * h)
            dropped = math.fsum(np.exp(-q[q > cut]))
            assert 2.0 * dropped < n * 2.0 ** -53
            dropped_any |= bool(np.any(q > cut))
        assert dropped_any

    def test_memory_stays_linear(self, monkeypatch):
        # the pairwise reference would hold 8.4M-entry arrays (~450 MB);
        # each thread holds one block's buffers, so measure at the largest
        # thread count whatever the host's
        monkeypatch.setattr(kernel, "_WORKERS", 2)
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

    def test_grid_order_does_not_change_values(self):
        # the points are evaluated in ascending order whatever the grid's
        # order, so a shuffled or reversed grid gives the sorted grid's
        # values bit for bit, in its own order
        fit = fit_kernel(mixture_gd(70).sample(2, 512))
        lo, hi = fit.support_hull()
        grid = np.arange(lo - 1.0, hi + 1.0, 2.0 ** -6)
        want = eval_kernel(fit, grid)
        perm = np.random.default_rng(3).permutation(len(grid))
        assert np.array_equal(eval_kernel(fit, grid[perm]), want[perm])
        assert np.array_equal(eval_kernel(fit, grid[::-1]), want[::-1])
        even = len(grid) - len(grid) % 2
        assert np.array_equal(fit.evaluate(grid[perm][:even].reshape(-1, 2)),
                              want[perm][:even].reshape(-1, 2))

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

    @staticmethod
    def _every_chunk(fit, pts):
        """The chunk loop that windows and sums every chunk, empty or not,
        on ascending points."""
        x, h = fit.sample.observations, fit.bandwidth
        norm = 1.0 / (fit.sample.n * h * math.sqrt(2.0 * math.pi))
        reach = _REACH * h
        out = np.zeros_like(pts)
        for start in range(0, len(pts), kernel._EVAL_CHUNK):
            chunk = pts[start:start + kernel._EVAL_CHUNK]
            i0 = int(np.searchsorted(x, chunk[0] - reach, side="left"))
            i1 = int(np.searchsorted(x, chunk[-1] + reach, side="right"))
            z = (chunk[:, None] - x[None, i0:i1]) / h
            z *= z
            near = z < _REACH * _REACH
            z *= -0.5
            np.exp(z, out=z)
            z *= near
            out[start:start + kernel._EVAL_CHUNK] = norm * np.sum(z, axis=1)
        return out

    def test_empty_chunks_skipped_bit_for_bit(self):
        # the gd(70) grid of the support sweep: two clusters 70 apart, so
        # most chunks lie in the gap and no observation reaches them
        fit = fit_kernel(mixture_gd(70).sample(5, 1024))
        lo, hi = fit.support_hull()
        grid = np.arange(lo - 10.0, hi + 10.0, 2.0 ** -10)
        want = self._every_chunk(fit, grid)
        x = fit.sample.observations
        reach = _REACH * fit.bandwidth
        firsts = grid[::kernel._EVAL_CHUNK]
        lasts = grid[kernel._EVAL_CHUNK - 1::kernel._EVAL_CHUNK]
        empty = (np.searchsorted(x, firsts[:len(lasts)] - reach, "left")
                 == np.searchsorted(x, lasts + reach, "right"))
        assert empty.mean() > 0.5
        assert eval_kernel(fit, grid).tobytes() == want.tobytes()
        perm = np.random.default_rng(8).permutation(len(grid))
        assert eval_kernel(fit, grid[perm]).tobytes() == want[perm].tobytes()


def _fit_in_child(sample, conn):
    conn.send(fit_kernel(sample).cv_scores)
    conn.close()


class TestThreads:
    @pytest.fixture
    def workers(self, monkeypatch):
        """Set the thread count for the rest of the test."""
        return lambda w: monkeypatch.setattr(kernel, "_WORKERS", w)

    @pytest.mark.parametrize("signal", SIGNALS, ids=lambda s: s.name)
    @pytest.mark.parametrize("n", SIZES)
    def test_thread_count_does_not_change_results(self, signal, n, workers):
        # one thread is the serial scan; the block sums are added in block
        # order whichever thread computed them
        sample = signal.sample(7, n)
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for w in (1, 2, 3):
                workers(w)
                fit = fit_kernel(sample)
                lo, hi = fit.support_hull()
                grid = np.arange(lo - 1.0, hi + 1.0, 2.0 ** -6)
                grid = grid[np.random.default_rng(3).permutation(len(grid))]
                results.append((np.array(fit.cv_scores), fit.bandwidth,
                                eval_kernel(fit, grid)))
        finally:
            sys.setswitchinterval(interval)
        for scores, h, values in results[1:]:
            assert np.array_equal(scores, results[0][0])
            assert h == results[0][1]
            assert np.array_equal(values, results[0][2])

    def test_each_item_claimed_once(self, workers):
        # four threads, switching as often as they can
        workers(4)
        calls = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = kernel._in_parallel(lambda i: calls.append(i) or i * i,
                                      range(500))
        finally:
            sys.setswitchinterval(interval)
        assert got == [i * i for i in range(500)]
        assert sorted(calls) == list(range(500))

    def test_caller_errstate_reaches_workers(self, workers):
        workers(2)
        caller = threading.get_ident()
        # neither thread gets past item 0 or 1 before the other holds the
        # other one, so the started thread takes at least one item
        meet = threading.Barrier(2, timeout=60)

        def overflow_off_caller(i):
            if i < 2:
                meet.wait()
            return np.exp(np.float64(1000.0 * (threading.get_ident() != caller)))

        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                kernel._in_parallel(lambda i: np.exp(np.float64(1000.0)),
                                    range(4))
            with pytest.raises(FloatingPointError):
                kernel._in_parallel(overflow_off_caller, range(4))
        # a RuntimeWarning from any thread is an error under pytest's filter
        with np.errstate(over="ignore"):
            got = kernel._in_parallel(lambda i: np.exp(np.float64(1000.0)),
                                      range(4))
        assert got == [np.inf] * 4

    def test_non_finite_score_rejected_across_threads(self, workers):
        # two blocks of rows, one per thread, both overflowing
        workers(2)
        data = [1e308, -1e308] + [float(i) for i in range(62)]
        with pytest.raises(ValueError, match="not finite"):
            fit_kernel(Sample.from_data(data))

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="no fork start method")
    def test_forked_child_fits(self, workers):
        # a fit leaves no thread behind, so a child forked after one fits
        # with threads of its own
        workers(2)
        sample = mixture_gd(30).sample(4, 256)
        want = fit_kernel(sample).cv_scores
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        with recv:
            child = ctx.Process(target=_fit_in_child, args=(sample, send))
            child.start()
            send.close()
            child.join(timeout=60)
            if child.is_alive():
                child.kill()
                child.join()
            assert child.exitcode == 0
            assert recv.recv() == want

    def test_no_thread_outlives_import_or_fit(self):
        # the import also loads no pool module; a parallel fit loads it
        code = ("import sys, threading, wavedens.cli\n"
                "before = threading.active_count()\n"
                "pool = 'concurrent.futures' in sys.modules\n"
                "from wavedens import kernel\n"
                "from wavedens.signals import mixture_gd\n"
                "kernel.fit_kernel(mixture_gd(30).sample(1, 1024))\n"
                "print(before, threading.active_count(), kernel._WORKERS,\n"
                "      int(pool), int('concurrent.futures' in sys.modules))\n")
        src = str(Path(wavedens.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0, proc.stderr
        before, after, workers, pool_at_import, pool_after_fit = map(
            int, proc.stdout.split())
        assert before == after == 1
        assert 1 <= workers <= 2
        assert not pool_at_import
        assert pool_after_fit == (workers == 2)

    def test_cpu_count_fallback(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert kernel._usable_cpus() == 5
