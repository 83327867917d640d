"""Tests for the analytic test densities."""

import math
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats
from scipy.special import ndtr

from wavedens import signals
from wavedens.estimator import estimate, true_level_values
from wavedens.risk import default_grid, method_from_code, replication_seed
from wavedens.signals import (
    Bumps,
    Gauss,
    Uniform01,
    mixture_gd,
    mixture_hk,
)

ALL_SIGNALS = [
    Uniform01(),
    Gauss(0.5, 0.25),
    mixture_gd(10),
    mixture_gd(70),
    mixture_hk(2),
    mixture_hk(16),
    Bumps(),
]


@pytest.mark.parametrize("signal", ALL_SIGNALS, ids=lambda s: s.name)
def test_unit_mass(signal):
    # trapezoid over a finite window plus the analytic mass outside it;
    # signals with kinks on a narrow support get the finer grid
    lo, hi = signal.effective_support
    lo, hi = max(lo, -60.0), min(hi, 130.0)
    step = 2.0 ** -16 if hi - lo < 3 else 2.0 ** -12
    x = np.arange(lo, hi, step)
    inside = np.trapezoid(signal.pdf(x), x)
    assert abs(inside + signal.cdf(x[0]) + signal.sf(x[-1]) - 1.0) < 1e-6


@pytest.mark.parametrize("signal", ALL_SIGNALS, ids=lambda s: s.name)
def test_effective_support_mass(signal):
    lo, hi = signal.effective_support
    assert signal.cdf(lo) + signal.sf(hi) <= 1e-9


@pytest.mark.parametrize("signal", ALL_SIGNALS, ids=lambda s: s.name)
def test_sampler_deterministic(signal):
    a = signal.sample(12345, 200).observations
    b = signal.sample(12345, 200).observations
    assert np.array_equal(a, b)
    c = signal.sample(12346, 200).observations
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("signal", ALL_SIGNALS, ids=lambda s: s.name)
def test_cdf_matches_pdf_quadrature(signal):
    lo, hi = signal.effective_support
    lo, hi = max(lo, -30.0), min(hi, 100.0)
    x = np.arange(lo, hi, 2.0 ** -11)
    mass = np.cumsum(signal.pdf(x)) * (x[1] - x[0])
    got = signal.cdf(x) - signal.cdf(x[0])
    assert np.max(np.abs(mass - got)) < 5e-3


class TestUniform:
    def test_pdf_values(self):
        u = Uniform01()
        assert u.pdf(np.array([0.5]))[0] == 1.0
        assert u.pdf(np.array([-0.1]))[0] == 0.0
        assert u.pdf(np.array([1.1]))[0] == 0.0

    def test_samples_in_unit_interval(self):
        s = Uniform01().sample(7, 1000).observations
        assert np.all((s >= 0.0) & (s < 1.0))


class TestGaussAndMixtures:
    def test_gd_pdf_midpoint_value(self):
        # halfway between the modes of gd(10): 0.5 phi(5) + 0.5 phi(-5)
        phi5 = math.exp(-12.5) / math.sqrt(2 * math.pi)
        assert_allclose(mixture_gd(10).pdf(np.array([5.0]))[0], phi5, rtol=1e-12)
        assert_allclose(phi5, 1.4867195147342979e-06)

    def test_gd_component_proportions(self):
        # classify by the midpoint: binomial fluctuation within 3 s.e.
        n = 10 ** 4
        s = mixture_gd(70).sample(99, n).observations
        upper = int(np.sum(s > 35.0))
        assert abs(upper - n / 2) <= 3 * math.sqrt(n * 0.25)

    def test_hk_heavy_tail_range(self):
        # a heavy-tailed draw of this size is expected to leave [-50, 50]
        s = mixture_hk(2).sample(4, 10 ** 4).observations
        assert np.max(np.abs(s)) > 50.0

    @pytest.mark.parametrize("df", [0.5, 1.0, 2.0, 3.7, 4.0, 8.0, 16.0, 100.0])
    def test_student_component_matches_scipy_stats(self, df, rng):
        # the special-function cdf, sf and quantile agree bit for bit with
        # scipy.stats.t, far tails and infinities included
        t = mixture_hk(df).components[0]
        scales = 10.0 ** rng.integers(0, 7, 4000)
        x = np.concatenate([rng.standard_normal(4000) * scales,
                            [0.0, -0.0, 1e300, -1e300, np.inf, -np.inf]])
        assert np.array_equal(t.cdf(x), stats.t.cdf(x, df))
        assert np.array_equal(t.sf(x), stats.t.sf(x, df))
        q = float(stats.t.ppf(1.0 - 1e-9 / 4.0, df))
        assert t.bracket() == (-q, q)

    def test_normal_components(self):
        # (weight, mean, sd) of a mixture of normals; None otherwise
        assert mixture_gd(10).normal_components == ((0.5, 0.0, 1.0),
                                                    (0.5, 10.0, 1.0))
        assert Gauss(0.5, 0.25).normal_components == ((1.0, 0.5, 0.25),)
        for other in (mixture_hk(2), signals.Bumps(), signals.Uniform01()):
            assert other.normal_components is None

    def test_hk_weights_sum_validated(self):
        sig = mixture_hk(4)
        assert_allclose(np.sum(sig.weights), 1.0)

    def test_student_sampler_matches_cdf(self):
        sig = mixture_hk(8)
        s = sig.sample(5, 20000).observations
        for q in (-2.0, -0.5, 0.5, 1.5):
            emp = np.mean(s <= q)
            assert abs(emp - sig.cdf(np.array([q]))[0]) < 0.02

    def test_sample_too_small(self):
        with pytest.raises(ValueError):
            Gauss(0.0, 1.0).sample(1, 1)

    def test_narrowest_sigma_and_overflowing_z_squared(self):
        # the smallest accepted sigma keeps 1/(2 pi sigma^2) finite; its
        # z * z overflows far from the mean, where the pdf is 0, silently
        sig = Gauss(0.0, 3e-155)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = sig.pdf(np.array([0.0, 3e-155, 1.0, -1e300, np.inf]))
        assert np.isfinite(1.0 / (2.0 * math.pi * 3e-155 ** 2))
        assert f[0] == 1.0 / (3e-155 * math.sqrt(2.0 * math.pi))
        assert 0.0 < f[1] < f[0]
        assert f[2:].tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("build, message", [
        (lambda: Gauss(math.inf, 1.0), "mu must be finite, got inf"),
        (lambda: Gauss(math.nan, 1.0), "mu must be finite, got nan"),
        (lambda: Gauss(0.0, math.nan), "sigma must be positive and finite, got nan"),
        (lambda: Gauss(0.0, math.inf), "sigma must be positive and finite, got inf"),
        (lambda: Gauss(0.0, 0.0), "sigma must be positive and finite, got 0.0"),
        (lambda: Gauss(0.5, 1e-300), "sigma = 1e-300 is too small"),
        (lambda: Gauss(0.5, 2.9e-155), "sigma = 2.9e-155 is too small"),
        (lambda: mixture_gd(math.inf), "d must be finite, got inf"),
        (lambda: mixture_gd(-math.inf), "d must be finite, got -inf"),
        (lambda: mixture_gd(math.nan), "d must be finite, got nan"),
        (lambda: mixture_hk(math.inf), "df must be positive and finite, got inf"),
        (lambda: mixture_hk(math.nan), "df must be positive and finite, got nan"),
        (lambda: mixture_hk(0.0), "df must be positive and finite, got 0.0"),
    ])
    def test_rejects_bad_parameter_by_name(self, build, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            build()


class TestBumps:
    def test_zero_outside_unit_interval(self):
        b = Bumps()
        assert b.pdf(np.array([1.2]))[0] == 0.0
        assert b.pdf(np.array([-0.2]))[0] == 0.0

    def test_normalizer_close_to_conventional_value(self):
        b = Bumps()
        assert abs(b.normalizer - 0.284) / 0.284 < 0.02

    def test_cdf_closed_form_vs_quadrature(self):
        b = Bumps()
        x = np.arange(0.0, 1.0, 2.0 ** -16)
        mass = np.cumsum(b.pdf(x)) * (x[1] - x[0])
        assert abs(mass[-1] - b.cdf(np.array([1.0]))[0]) < 1e-3

    def test_samples_in_unit_interval(self):
        s = Bumps().sample(3, 4000).observations
        assert np.all((s >= 0.0) & (s <= 1.0))

    def test_sample_histogram_tracks_pdf(self):
        b = Bumps()
        s = b.sample(17, 40000).observations
        # mass in a window around the widest bump
        window = (0.35, 0.45)
        want = b.cdf(np.array([window[1]]))[0] - b.cdf(np.array([window[0]]))[0]
        got = np.mean((s >= window[0]) & (s <= window[1]))
        assert abs(got - want) < 0.01

    def test_rejection_cap_trips_on_broken_envelope(self):
        b = Bumps()
        b._envelope = 1e9  # acceptance probability collapses
        with pytest.raises(RuntimeError, match="proposals"):
            b.sample(0, 100)

    @pytest.mark.parametrize("n, seeds", [(2, 2000), (64, 2000), (1024, 2000),
                                          (4096, 20), (20000, 4)])
    def test_draws_equal_full_evaluation_sampler(self, n, seeds):
        b = Bumps()
        for seed in range(seeds):
            got = b._draw(np.random.default_rng(seed), n)
            want, _ = full_evaluation_draw(b, np.random.default_rng(seed), n)
            assert np.array_equal(got, want), seed

    def test_draws_equal_full_evaluation_sampler_over_two_rounds(self):
        # at n = 36 the first batch is the 1024-proposal minimum, which
        # accepts about 54: search for a seed whose first batch falls short
        b, n = Bumps(), 36
        seed = next(s for s in range(5000) if full_evaluation_draw(
            b, np.random.default_rng(s), n)[1] > 1)
        want, rounds = full_evaluation_draw(b, np.random.default_rng(seed), n)
        assert rounds == 2
        assert np.array_equal(b._draw(np.random.default_rng(seed), n), want)

    def test_bin_bound_dominates_pdf(self):
        b = Bumps()
        bins = signals._BOUND_BINS
        lo = np.arange(bins) / bins
        hi = np.arange(1, bins + 1) / bins
        # a bin's bound holds on the whole closed bin, both edges included
        for x in (lo, hi, np.nextafter(lo, 1.0), np.nextafter(hi, 0.0)):
            assert np.all(b._bin_bound >= b.pdf(x))
        # and the sampler reads it at the bin of each point
        lattice = np.arange(2 ** 20) * 2.0 ** -20
        for x in (signals._BUMP_POSITIONS, *np.split(lattice, 16)):
            assert np.all(b._bound_at(x) >= b.pdf(x))
        assert np.max(b._bin_bound) <= b._envelope

    def test_pdf_equals_full_evaluation_formula(self):
        b = Bumps()
        special = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0,
                            np.nextafter(1.0, 2.0), np.nextafter(0.0, -1.0),
                            0.1, 0.25, 0.5, 0.81, -0.3, 1.7])
        est = estimate(b.sample(replication_seed(1, 0), 1024),
                       method_from_code("S").config())
        grid = default_grid(b, [est]).points()
        for x in (special, special.reshape(2, 7), grid, *special):
            got, want = b.pdf(x), full_evaluation_pdf(b, x)
            assert type(got) is type(want) and np.shape(got) == np.shape(x)
            assert np.array_equal(np.asarray(got).view(np.uint64),
                                  np.asarray(want).view(np.uint64))
            outside = ~((x >= 0.0) & (x <= 1.0))
            assert np.all(np.asarray(got).view(np.uint64)[outside] == 0)


def full_evaluation_pdf(b, x):
    """Reference bumps pdf: the peak sum at every point, zeroed off [0, 1]
    by ``np.where``."""
    x = np.asarray(x, dtype=float)
    u = 1.0 + np.abs(x[..., None] - signals._BUMP_POSITIONS) / signals._BUMP_WIDTHS
    out = np.sum(signals._BUMP_HEIGHTS * u ** -4.0, axis=-1)
    return np.where((x >= 0.0) & (x <= 1.0), out, 0.0) / b.normalizer


def full_evaluation_draw(b, rng, n):
    """Reference bumps sampler: the exact pdf at every proposal.  Returns
    the draws and the number of proposal rounds."""
    out = np.empty(n)
    have = 0
    rounds = 0
    while have < n:
        want = n - have
        batch = max(1024, int(1.5 * want * b._envelope))
        x = rng.random(batch)
        u = rng.random(batch)
        accepted = x[u * b._envelope <= b.pdf(x)]
        take = min(len(accepted), want)
        out[have:have + take] = accepted[:take]
        have += take
        rounds += 1
    return out, rounds


def _true_cell(signal, basis, idx):
    """(beta, sigma^2) of one cell, through a batch of one translate."""
    j, k = idx
    beta, sigma_sq = true_level_values(signal, basis, j, [k])
    return float(beta[0]), float(sigma_sq[0])


class TestTrueCoefficients:
    def test_uniform_detail_coefficients_vanish(self, haar):
        assert _true_cell(Uniform01(), haar, (3, 2))[0] == 0.0

    def test_uniform_father_coefficient(self, haar):
        assert _true_cell(Uniform01(), haar, (-1, 0))[0] == 1.0

    def test_gauss_symmetry_and_plug_in(self, haar):
        sig = Gauss(0.5, 0.25)
        got = _true_cell(sig, haar, (0, 0))[0]
        want = (ndtr(0.0) - ndtr(-2.0)) - (ndtr(2.0) - ndtr(0.0))
        assert_allclose(got, want, atol=1e-15)
        assert abs(got) < 1e-12

    def test_uniform_sigma_values(self, haar):
        assert _true_cell(Uniform01(), haar, (0, 0))[1] == 1.0
        assert _true_cell(Uniform01(), haar, (-1, 0))[1] == 0.0

    @pytest.mark.parametrize("signal", ALL_SIGNALS, ids=lambda s: s.name)
    def test_sigma_nonnegative(self, signal, spline, rng):
        for _ in range(20):
            j = int(rng.integers(-1, 8))
            k = int(rng.integers(-8, 80))
            assert _true_cell(signal, spline, (j, k))[1] >= 0.0

    def test_level_values_match_scalar_ops(self, spline):
        sig = Gauss(0.5, 0.25)
        ks = np.arange(-4, 9)
        beta, sig_sq = true_level_values(sig, spline, 2, ks)
        # a batch of translates gives the bits of one-translate batches
        for i, k in enumerate(ks):
            assert (beta[i], sig_sq[i]) == _true_cell(sig, spline, (2, int(k)))

    def test_empirical_tracks_true_at_large_n(self, haar, rng):
        # law-of-large-numbers sanity on 50 random cells
        sig = Uniform01()
        n = 10 ** 5
        x = sig.sample(8, n).observations
        for _ in range(50):
            j = int(rng.integers(0, 9))
            k = int(rng.integers(0, 2 ** j))
            vals = (2.0 ** (j / 2.0)) * np.where(
                (2.0 ** j * x - k) < 0.5, 1.0, -1.0) * (
                ((2.0 ** j * x - k) >= 0) & ((2.0 ** j * x - k) <= 1.0))
            beta_hat = float(np.sum(vals)) / n
            beta, sigma_sq = _true_cell(sig, haar, (j, k))
            sigma = math.sqrt(sigma_sq)
            assert abs(beta_hat - beta) <= 5.0 * sigma / math.sqrt(n)

