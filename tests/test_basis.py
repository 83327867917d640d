"""Tests for the biorthogonal wavelet families."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from wavedens.basis import (
    CascadeError,
    StepFunction,
    TabulatedFunction,
    _cascade_samples,
    build_spline_basis,
    eval_decomposition,
    eval_reconstruction,
    reconstruction_support,
    sup_norm,
    support_interval,
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

    def test_validation(self):
        with pytest.raises(ValueError):
            StepFunction(np.array([0.0, 0.0, 1.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            StepFunction(np.array([0.0, 1.0]), np.array([1.0, 2.0]))

    def test_moment_closed_form(self):
        f = StepFunction(np.array([0.0, 2.0]), np.array([3.0]))
        # 3 * x^2/2 on [0,2] -> 6; 3 * x^3/3 on [0,2] -> 8
        assert f.moment(1) == 6.0
        assert f.moment(2) == 8.0


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
        # reconstruction must agree with decomposition exactly
        for _ in range(1000):
            j = int(rng.integers(-1, 8))
            k = int(rng.integers(-10, 10))
            x = float(rng.uniform(-3, 3))
            assert (eval_reconstruction(haar, (j, k), x)
                    == eval_decomposition(haar, (j, k), x))

    def test_sup_norm(self, haar):
        assert sup_norm(haar, (0, 5)) == 1.0
        assert sup_norm(haar, (4, 0)) == 4.0
        assert sup_norm(haar, (-1, 2)) == 1.0

    def test_support_interval(self, haar):
        assert support_interval(haar, (0, 0)) == (0.0, 1.0)
        assert support_interval(haar, (3, 5)) == (5 / 8, 6 / 8)
        assert support_interval(haar, (-1, 2)) == (2.0, 3.0)

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
    def test_grid_exponent_validation(self):
        with pytest.raises(ValueError):
            build_spline_basis(9)

    def test_cascade_diverges_on_bad_filter(self):
        # a filter violating the sum rule cannot have a fixed point
        bad = np.array([0.9, 0.9])
        with pytest.raises(CascadeError):
            _cascade_samples(bad, 0, 10, 1e-10, 60)

    def test_scaling_function_unit_mass(self, spline):
        total = np.trapezoid(spline.phi_tilde.samples,
                             dx=spline.phi_tilde.grid_step)
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
        node = tab.lo + i * tab.grid_step
        assert eval_reconstruction(spline, (0, 0), node) == tab.samples[i]

    def test_outside_support_is_zero(self, spline):
        lo, hi = reconstruction_support(spline, (0, 0))
        assert eval_reconstruction(spline, (0, 0), lo - 0.01) == 0.0
        assert eval_reconstruction(spline, (0, 0), hi + 0.01) == 0.0

    def test_sup_norm_from_steps(self, spline):
        assert sup_norm(spline, (0, 0)) == np.max(np.abs(spline.psi.values))

    def test_support_shift(self, spline):
        a, b = spline.psi.support
        assert support_interval(spline, (1, -2)) == ((a - 2) / 2, (b - 2) / 2)

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
