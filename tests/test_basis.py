"""Tests for the biorthogonal wavelet families."""

import hashlib
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from wavedens.basis import (
    CascadeError,
    StepFunction,
    TabulatedFunction,
    _cascade_samples,
    basis_by_name,
    eval_decomposition,
    eval_reconstruction,
    level_function,
    reconstruction_support,
    sup_norm,
)


def _quadrature_grid(step=2.0 ** -12, lo=-8.0, hi=9.0):
    return np.arange(lo, hi + step / 2, step)


def _dilate(fn_eval, j, k):
    if j == -1:
        return lambda x: fn_eval(np.asarray(x) - k)
    return lambda x: 2.0 ** (j / 2.0) * fn_eval(2.0 ** j * np.asarray(x) - k)


class TestStepFunction:
    def test_eval_conventions(self):
        f = StepFunction(np.array([0.0, 0.5, 1.0]), np.array([1.0, -1.0]))
        # half-open pieces, last piece closed on the right, zero outside
        assert f.eval(0.0) == 1.0
        assert f.eval(0.25) == 1.0
        assert f.eval(0.5) == -1.0
        assert f.eval(1.0) == -1.0
        assert f.eval(1.0 + 1e-12) == 0.0
        assert f.eval(-1e-12) == 0.0
        # +0.0 at every point outside, infinite ones too; NaN at NaN
        got = f.eval([-np.inf, -2.0, np.nan, 0.25, np.inf])
        assert np.array_equal(got, [0.0, 0.0, np.nan, 1.0, 0.0], equal_nan=True)
        assert not np.signbit(got[[0, 1, 4]]).any()
        assert np.isnan(f.eval(np.nan))

    def test_validation(self):
        with pytest.raises(ValueError):
            StepFunction(np.array([0.0, 0.0, 1.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            StepFunction(np.array([0.0, 1.0]), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("breakpoints", [
        [0.0, 0.5, 1.5],         # uneven
        [0.0, 0.5, 1.0, 1.25],   # uneven at the end
        [0.0, 0.3, 0.6],         # a step that is not a power of two
        [0.0, 3.0],
        [0.25, 1.25, 2.25],      # step 1, breakpoints off its multiples
    ])
    def test_breakpoints_off_one_power_of_two_lattice_raise(self,
                                                            breakpoints):
        with pytest.raises(ValueError, match="power of two"):
            StepFunction(np.array(breakpoints),
                         np.ones(len(breakpoints) - 1))

    def test_pieces_match_a_breakpoint_search(self, haar, spline):
        wide = StepFunction(np.array([-4.0, -2.0, 0.0, 2.0, 4.0]),
                            np.array([1.0, 2.0, 3.0, 4.0]))
        for f in (haar.phi, haar.psi, spline.psi, wide,
                  StepFunction(np.array([0.0, 2.0]), np.array([3.0]))):
            bp = f.breakpoints
            x = np.concatenate([
                bp, np.nextafter(bp, -np.inf), np.nextafter(bp, np.inf),
                [-np.inf, np.inf, -1e308, 1e308, -3e5, 3e5, 2.0 ** -1074,
                 -(2.0 ** -1074), -0.0]])
            want = f.values[np.searchsorted(bp[1:-1], x, side="right")]
            assert np.array_equal(f.pieces(x), want)
            out = np.empty_like(x)
            assert f.pieces(x, out=out) is out
            assert np.array_equal(out, want)
            assert f.pieces(x[0]) == want[0]

    def test_eval_at_nan_is_nan_without_a_warning(self, spline):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = spline.psi.eval(np.array([np.nan, 0.25, np.nan]))
            assert np.isnan(spline.psi.eval(np.nan))
        assert np.array_equal(got, [np.nan, spline.psi.values[2], np.nan],
                              equal_nan=True)

    def test_moment_closed_form(self):
        f = StepFunction(np.array([0.0, 2.0]), np.array([3.0]))
        # 3 * x^2/2 on [0,2] -> 6; 3 * x^3/3 on [0,2] -> 8
        assert f.moment(1) == 6.0
        assert f.moment(2) == 8.0


def _exact_decomposition(basis, j, k, x):
    """``amp * f(scale * x - k)`` with the argument in rational arithmetic:
    pieces closed on the left, the last one also on the right."""
    fn, amp, scale = level_function(basis, j)
    bp = [Fraction(b) for b in fn.breakpoints.tolist()]
    u = Fraction(x) * Fraction(scale) - k
    for lo, hi, value in zip(bp, bp[1:], fn.values.tolist()):
        if lo <= u < hi or u == hi == bp[-1]:
            return amp * value
    return 0.0


class TestDecomposition:
    def test_points_a_float_argument_rounds_onto_a_closed_end(self, haar,
                                                              spline):
        # 2^0 * 1e-17 + 2 rounds to 2.0, the spline wavelet's closed right
        # end, and -1e-17 - 0 lies left of the Haar wavelet's support
        assert eval_decomposition(spline, (0, -2), 1e-17) == 0.0
        assert eval_decomposition(haar, (0, 0), -1e-17) == 0.0
        assert eval_decomposition(spline, (0, -1), 1e-17) == 0.125
        assert eval_decomposition(haar, (0, -1), 0.0) == -1.0

    @pytest.mark.parametrize("basis_name", ["haar", "spline"])
    @settings(max_examples=300)
    @given(j=st.integers(-1, 12), k=st.integers(-8, 8),
           breakpoint=st.integers(0, 6), ulps=st.integers(-3, 3),
           tiny=st.sampled_from([0.0, 1e-17, -1e-17, 2.0 ** -1074]))
    def test_matches_rational_evaluation_near_breakpoints(
            self, basis_name, haar, spline, j, k, breakpoint, ulps, tiny):
        basis = haar if basis_name == "haar" else spline
        # a point within a few ulps of where 2^j x - k meets a breakpoint
        fn, _, scale = level_function(basis, j)
        b = float(fn.breakpoints[breakpoint % len(fn.breakpoints)])
        x = (b + k) / scale + tiny
        for _ in range(abs(ulps)):
            x = math.nextafter(x, math.copysign(math.inf, ulps))
        assert eval_decomposition(basis, (j, k), x) == _exact_decomposition(
            basis, j, k, x)
        assert eval_decomposition(basis, (j, k), np.array([x]))[0] == (
            _exact_decomposition(basis, j, k, x))


class TestBasisByName:
    def test_unknown_name_lists_the_bases(self):
        with pytest.raises(ValueError) as info:
            basis_by_name("wavelet")
        assert str(info.value) == ("unknown basis 'wavelet'; "
                                   "expected 'haar' or 'spline'")


class TestHaar:
    def test_father_indicator(self, haar):
        assert eval_decomposition(haar, (-1, 0), 0.3) == 1.0

    def test_mother_signs(self, haar):
        assert eval_decomposition(haar, (0, 0), 0.25) == 1.0
        assert eval_decomposition(haar, (0, 0), 0.75) == -1.0

    def test_dyadic_scaling_value(self, haar):
        # 2^{2/2} * psi(4*0.3 - 1) = 2 * psi(0.2) = 2
        assert eval_decomposition(haar, (2, 1), 0.3) == 2.0

    def test_self_duality_on_random_probes(self, haar, rng):
        # reconstruction must agree with decomposition exactly, and a
        # scalar probe of any kind gives a Python float on both sides
        for _ in range(1000):
            j = int(rng.integers(-1, 8))
            k = int(rng.integers(-10, 10))
            x = float(rng.uniform(-3, 3))
            want = eval_decomposition(haar, (j, k), x)
            for probe in (x, np.float64(x), np.array(x)):
                for fn in (eval_decomposition, eval_reconstruction):
                    got = fn(haar, (j, k), probe)
                    assert type(got) is float and got == want

    def test_sup_norm(self, haar):
        assert sup_norm(haar, (0, 5)) == 1.0
        assert sup_norm(haar, (4, 0)) == 4.0
        assert sup_norm(haar, (-1, 2)) == 1.0

    def test_support_interval(self, haar):
        # Haar is self-dual: the synthesis supports are the analysis ones
        assert reconstruction_support(haar, (0, 0)) == (0.0, 1.0)
        assert reconstruction_support(haar, (3, 5)) == (5 / 8, 6 / 8)
        assert reconstruction_support(haar, (-1, 2)) == (2.0, 3.0)

    def test_vanishing_moment_exact(self, haar):
        assert haar.psi.moment(0) == 0.0

    def test_frame_equality(self, haar, rng):
        # L2 norm of a random finite reconstruction equals the coefficient
        # l2 norm; midpoint quadrature is exact for the step functions.
        step = 2.0 ** -10
        mids = np.arange(-4.0, 5.0, step) + step / 2
        for _ in range(5):
            cells = [(int(rng.integers(-1, 6)), int(rng.integers(-3, 4)))
                     for _ in range(12)]
            cells = sorted(set(cells))
            coefs = rng.normal(size=len(cells))
            f = np.zeros_like(mids)
            for (j, k), b in zip(cells, coefs):
                f += b * eval_reconstruction(haar, (j, k), mids)
            norm_sq = float(np.sum(f * f) * step)
            assert_allclose(norm_sq, float(np.sum(coefs ** 2)), rtol=1e-4)


class TestSplineConstruction:
    def test_cascade_diverges_on_bad_filter(self):
        # a filter violating the sum rule cannot have a fixed point
        bad = np.array([0.9, 0.9])
        with pytest.raises(CascadeError):
            _cascade_samples(bad, 10, 1e-10, 60)

    def test_scaling_function_unit_mass(self, spline):
        total = np.trapezoid(spline.phi_tilde.samples,
                             dx=2.0 ** -spline.phi_tilde.grid_exponent)
        assert abs(total - 1.0) < 1e-6

    def test_analysis_wavelet_mean_zero_exact(self, spline):
        assert spline.psi.moment(0) == 0.0

    def test_vanishing_moments_up_to_r(self, spline):
        for m in range(int(spline.r) + 1):
            assert abs(spline.psi.moment(m)) < 1e-15

    def test_cross_index_orthogonality(self, spline):
        x = _quadrature_grid()
        f = _dilate(spline.psi.eval, 0, 0)(x)
        g = _dilate(spline.psi_tilde.eval, 0, 1)(x)
        assert abs(np.trapezoid(f * g, x)) < 1e-3

    def test_tabulated_node_is_exact_sample(self, spline):
        tab = spline.psi_tilde
        i = 1234
        node = tab.lo + i * 2.0 ** -tab.grid_exponent
        for probe in (node, np.float64(node), np.array(node)):
            got = eval_reconstruction(spline, (0, 0), probe)
            assert type(got) is float and got == tab.samples[i]

    def test_tabulation_is_pinned_bit_for_bit(self, spline):
        # every output built on the synthesis side inherits these tables
        def digest(tab):
            return hashlib.sha256(tab.samples.tobytes()).hexdigest()
        assert digest(spline.phi_tilde) == (
            "aadfeb9167037ff40a6309343fb6dedfbdc613453c90f186ccaccc17bd222a61")
        assert digest(spline.psi_tilde) == (
            "23c50cc1131c75381a43c9d81c948c9e60d545aa4b6a8f51f200bb4bde5cbbe6")

    def test_nan_point(self, spline, haar):
        # the tabulated side interpolates NaN to NaN, and a step function
        # gives NaN there too
        for j in (-1, 0):
            assert np.isnan(eval_reconstruction(spline, (j, 0), np.nan))
            assert np.isnan(eval_decomposition(spline, (j, 0), np.nan))
            assert np.isnan(eval_reconstruction(haar, (j, 0), np.nan))

    def test_outside_support_is_zero(self, spline):
        lo, hi = reconstruction_support(spline, (0, 0))
        assert eval_reconstruction(spline, (0, 0), lo - 0.01) == 0.0
        assert eval_reconstruction(spline, (0, 0), hi + 0.01) == 0.0

    def test_sup_norm_from_steps(self, spline):
        assert sup_norm(spline, (0, 0)) == np.max(np.abs(spline.psi.values))

    def test_support_shift(self, spline):
        a, b = spline.psi_tilde.support
        assert (reconstruction_support(spline, (1, -2))
                == ((a - 2) / 2, (b - 2) / 2))

    def test_biorthogonality_window(self, spline):
        # full (j, k) x (j', k') pairing window at the quadrature tolerance
        x = _quadrature_grid()
        js = [-1, 0, 1, 2]
        ks = range(-3, 4)
        analysis = {}
        synthesis = {}
        for j in js:
            for k in ks:
                fn = spline.phi.eval if j == -1 else spline.psi.eval
                analysis[j, k] = _dilate(fn, j, k)(x)
                gn = spline.phi_tilde.eval if j == -1 else spline.psi_tilde.eval
                synthesis[j, k] = _dilate(gn, j, k)(x)
        worst = 0.0
        for jk, f in analysis.items():
            for jk2, g in synthesis.items():
                target = 1.0 if jk == jk2 else 0.0
                worst = max(worst, abs(np.trapezoid(f * g, x) - target))
        assert worst < 1e-3

    def test_scaling_law_exact(self, spline):
        base = sup_norm(spline, (0, 0))
        for j in range(0, 12):
            assert sup_norm(spline, (j, 3)) == 2.0 ** (j / 2.0) * base

    def test_tabulated_function_sample_count_checked(self):
        with pytest.raises(ValueError, match="samples"):
            TabulatedFunction(0.0, 1.0, 10, np.zeros(5))

    @pytest.mark.parametrize("lo, hi", [(0.1, 1.0), (0.0, 1.0 + 2.0 ** -11)])
    def test_tabulated_ends_off_the_grid_raise(self, lo, hi):
        with pytest.raises(ValueError, match="multiples of the step"):
            TabulatedFunction(lo, hi, 10, np.zeros(1025))


# the reference every node read must equal; tests below patch np.interp
_INTERP = np.interp


def _table_nodes(tab):
    return tab.lo + np.arange(len(tab.samples)) * 2.0 ** -tab.grid_exponent


def _interpolated(tab, x):
    return _INTERP(x, _table_nodes(tab), tab.samples, left=0.0, right=0.0)


def _assert_same(got, want):
    assert type(got) is type(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestTabulatedNodeRead:
    """A lookup whose points are all nodes of the table reads the samples
    by index, any other lookup interpolates, and both give np.interp's
    output bit for bit."""

    @pytest.fixture(params=["phi_tilde", "psi_tilde"])
    def tab(self, request, spline):
        return getattr(spline, request.param)

    @pytest.fixture
    def interp_sizes(self, monkeypatch):
        sizes = []

        def counted(x, *args, **kwargs):
            sizes.append(np.size(x))
            return _INTERP(x, *args, **kwargs)

        monkeypatch.setattr(np, "interp", counted)
        return sizes

    def test_every_node_as_a_2d_input(self, tab, rng, interp_sizes):
        x = rng.permutation(_table_nodes(tab))
        pad = -len(x) % 8  # repeat a few nodes to fill the last row
        x = np.concatenate([x, x[:pad]]).reshape(-1, 8)
        _assert_same(tab.eval(x), _interpolated(tab, x))
        assert interp_sizes == []

    def test_every_node_as_a_0d_input(self, tab, rng, interp_sizes):
        for node in rng.permutation(_table_nodes(tab)):
            x = np.array(node)
            _assert_same(tab.eval(x), _interpolated(tab, x))
        assert interp_sizes == []

    @pytest.mark.parametrize("where", [0, 777, -1])
    def test_a_point_one_ulp_off_a_node_interpolates(self, tab, rng,
                                                     interp_sizes, where):
        x = rng.permutation(_table_nodes(tab))
        for off in (np.nextafter(x[where], -np.inf),
                    np.nextafter(x[where], np.inf)):
            batch = x.copy()
            batch[where] = off
            _assert_same(tab.eval(batch), _interpolated(tab, batch))
        assert interp_sizes == [len(x), len(x)]

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "below", "above"])
    @pytest.mark.parametrize("where", [0, 777, -1])
    def test_a_point_off_the_table_interpolates(self, tab, rng,
                                                interp_sizes, bad, where):
        step = 2.0 ** -tab.grid_exponent
        x = rng.permutation(_table_nodes(tab))
        x[where] = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf,
                    "below": tab.lo - step, "above": tab.hi + step}[bad]
        _assert_same(tab.eval(x), _interpolated(tab, x))
        assert interp_sizes == [len(x)]

    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    def test_empty_input(self, tab, shape):
        x = np.empty(shape)
        _assert_same(tab.eval(x), _interpolated(tab, x))
