"""Tests for the ISE computation and the Monte-Carlo sweeps."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from wavedens import estimator, kernel, risk
from wavedens.basis import (
    TabulatedFunction,
    basis_by_name,
    haar_basis,
    reconstruction_support,
    spline_basis,
)
from wavedens.estimator import (
    DensityEstimate,
    EstimatorConfig,
    KeptCoefficient,
    estimate,
    practical,
    practical_gamma,
    theoretical_gamma,
)
from wavedens.kernel import _lscv_scores, bandwidth_grid, fit_kernel
from wavedens.risk import (
    METHODS,
    GridCoverageError,
    GridSpec,
    MethodSpec,
    RiskReport,
    default_grid,
    ise,
    method_from_code,
    mise_sweep,
    replication_seed,
    resolve_methods,
    support_sweep,
    tail_sweep,
)
from wavedens.signals import Bumps, Gauss, Uniform01, mixture_gd, mixture_hk


def _haar_estimate(rows, positive=True):
    return DensityEstimate(kept=tuple(KeptCoefficient(*r) for r in rows),
                           basis=haar_basis(), positive_part=positive,
                           n=100, mode=practical(), j0=5)


class _PdfEstimate:
    """Test double: an 'estimate' that is the signal's own pdf."""

    def __init__(self, signal):
        self.signal = signal

    def evaluate(self, x):
        return self.signal.pdf(x)

    def support_hull(self):
        return self.signal.effective_support


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(1.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, -0.1)
        with pytest.raises(ValueError, match="cap"):
            GridSpec(0.0, 1e5, 1e-6)
        # non-finite bounds or step, and spans whose point count overflows,
        # fail before int() sees an infinity
        inf, nan = float("inf"), float("nan")
        for lo, hi, step in ((0.0, inf, 0.1), (-inf, 1.0, 0.1),
                             (0.0, 1.0, inf), (0.0, 1.0, nan),
                             (nan, 1.0, 0.1)):
            with pytest.raises(ValueError, match="finite"):
                GridSpec(lo, hi, step)
        for lo, hi, step in ((0.0, 1.0, 1e-320), (-1e308, 1e308, 1.0)):
            with pytest.raises(ValueError, match="cap"):
                GridSpec(lo, hi, step)
        with pytest.raises(ValueError, match="overflows"):
            GridSpec(1.7e308, 1.75e308, 1e308)

    def test_hi_normalized_to_whole_steps(self):
        g = GridSpec(0.0, 1.05, 0.5)
        assert g.hi == 1.5
        assert g.npoints == 4
        assert_allclose(g.points(), [0.0, 0.5, 1.0, 1.5])

    def test_default_grid_covers_and_pads(self):
        sig = Uniform01()
        g = default_grid(sig)
        assert g.lo <= -1.0 and g.hi >= 2.0

    def test_default_grid_coarsens_under_cap(self):
        sig = mixture_hk(2)
        g = default_grid(sig)
        assert g.npoints <= 10 ** 7 + 1
        lo, hi = sig.effective_support
        assert g.lo <= lo and g.hi >= hi


class TestIse:
    def test_self_estimate_is_zero(self):
        sig = Uniform01()
        grid = GridSpec(-1.0, 2.0, 2.0 ** -10)
        assert ise(_PdfEstimate(sig), sig, grid) <= 1e-10

    def test_zero_estimate_against_unit_box(self):
        sig = Uniform01()
        zero = _haar_estimate([])
        grid = GridSpec(-0.25, 1.25, 2.0 ** -21)
        assert abs(ise(zero, sig, grid) - 1.0) < 1e-6

    def test_half_box_estimate(self):
        # 1 on [0, 1/2) as (phi + psi) / 2: integral of (f - fhat)^2 = 1/2
        sig = Uniform01()
        half = _haar_estimate([(-1, 0, 0.5, 0.0), (0, 0, 0.5, 0.0)])
        grid = GridSpec(-0.25, 1.25, 2.0 ** -21)
        assert abs(ise(half, sig, grid) - 0.5) < 1e-6

    def test_coverage_violation_names_interval(self):
        sig = Gauss(0.5, 0.25)
        zero = _haar_estimate([])
        with pytest.raises(GridCoverageError, match=r"\["):
            ise(zero, sig, GridSpec(0.0, 1.0, 2.0 ** -10))

    def test_grid_refinement_stability(self, spline):
        sig = Gauss(0.5, 0.25)
        sample = sig.sample(3, 1024)
        est = estimate(sample, EstimatorConfig(basis=spline, mode=practical()))
        coarse = ise(est, sig, default_grid(sig, [est], step=2.0 ** -10))
        fine = ise(est, sig, default_grid(sig, [est], step=2.0 ** -11))
        assert abs(coarse - fine) / fine < 0.01

    def test_nonnegative(self, rng):
        sig = Gauss(0.0, 1.0)
        sample = sig.sample(9, 256)
        est = estimate(sample, EstimatorConfig(basis=haar_basis(),
                                               mode=practical()))
        assert ise(est, sig, default_grid(sig, [est])) >= 0.0

    def test_non_finite_raises(self):
        # a density that overflows on the grid, as the pdf of a normal too
        # narrow for float64 did before Gauss rejected such a sigma
        sig = Gauss(0.5, 0.25)
        est = method_from_code("H").fit(sig.sample(1, 64))
        sig.pdf = lambda x: np.full(np.shape(x), np.inf)
        grid = default_grid(sig, [est])
        assert (grid.lo, grid.hi, grid.step) == (-2.5, 3.5, 2.0 ** -10)
        with pytest.raises(
                ValueError, match=r"^ISE against gauss\(0\.5,0\.25\) is not "
                r"finite \(inf\) on the grid \[-2\.5, 3\.5\] at step "
                r"0\.0009765625$"):
            ise(est, sig, grid)


class _OnGrid:
    """Test double: a kernel estimate that offers no exact score, so
    :func:`ise` integrates it on the grid."""

    def __init__(self, est):
        self.evaluate = est.evaluate
        self.support_hull = est.support_hull


def _at_bandwidth(fit, k):
    """``fit`` moved to the k-th bandwidth of its grid, with the
    integral(fhat^2) of that bandwidth."""
    x = fit.sample.observations
    hs = bandwidth_grid(fit.sample)
    quad = _lscv_scores(x, hs)[1]
    return dataclasses.replace(fit, bandwidth=float(hs[k]),
                               sq_integral=float(quad[k]))


class TestKernelExactIse:
    """A kernel estimate against a mixture of normals is scored in closed
    form; everything else is integrated on the grid."""

    @pytest.mark.parametrize("signal", [
        mixture_gd(10), mixture_gd(70), Gauss(0.5, 0.25), Gauss(0.0, 1.0),
        Gauss(0.3, 0.05)], ids=lambda s: s.name)
    @pytest.mark.parametrize("n", [2, 3, 64, 1024])
    @pytest.mark.parametrize("k", [0, 20], ids=["edge", "interior"])
    def test_closed_form_equals_lattice(self, signal, n, k):
        est = _at_bandwidth(fit_kernel(signal.sample(11, n)), k)
        exact = est.exact_ise(signal)
        assert exact is not None
        assert ise(est, signal, default_grid(signal, [est])) == exact
        # the lattice resolves a bandwidth of 8 steps or more; the smallest
        # on Gauss(0.3, 0.05) spans about one default step
        step = min(risk.DEFAULT_GRID_STEP,
                   2.0 ** math.floor(math.log2(est.bandwidth / 8.0)))
        grid = default_grid(signal, [est], step=step)
        assert_allclose(exact, ise(_OnGrid(est), signal, grid), rtol=1e-12)

    def test_grid_untouched(self, monkeypatch):
        def no_eval(estimate, grid):
            raise AssertionError("evaluated on the grid")

        monkeypatch.setattr(kernel, "eval_kernel", no_eval)
        signal = mixture_gd(30)
        est = fit_kernel(signal.sample(2, 256))
        grid = default_grid(signal, [est])
        assert ise(est, signal, grid) > 0.0
        assert not grid._memo

    @pytest.mark.parametrize("signal", [mixture_hk(2), Bumps(), Uniform01()],
                             ids=lambda s: s.name)
    def test_lattice_without_normal_components(self, signal):
        est = fit_kernel(signal.sample(4, 256))
        assert est.exact_ise(signal) is None
        grid = default_grid(signal, [est])
        assert ise(est, signal, grid) == ise(_OnGrid(est), signal, grid)

    def test_cancellation_falls_back_to_lattice(self):
        # integral(fhat^2) shifted so that the closed form is about 0, or
        # negative: rounding could have produced either, so the grid scores
        signal = mixture_gd(10)
        fit = fit_kernel(signal.sample(6, 256))
        grid = default_grid(signal, [fit])
        lattice = ise(_OnGrid(fit), signal, grid)
        exact = fit.exact_ise(signal)
        for shift in (exact, 2.0 * exact):
            forced = dataclasses.replace(
                fit, sq_integral=fit.sq_integral - shift)
            assert forced.exact_ise(signal) is None
            assert ise(forced, signal, grid) == lattice


class TestMethods:
    def test_codes(self):
        assert method_from_code("S").basis_name == "spline"
        assert method_from_code("H").mode.kind == "practical"
        star = method_from_code("S*")
        assert star.mode.gamma == 0.5
        assert method_from_code("K").kind == "kernel"

    def test_table_holds_each_spec_once(self):
        assert list(METHODS) == ["S", "H", "S*", "K"]
        assert method_from_code("S*") == MethodSpec(
            "S*", "wavelet", "spline", practical_gamma(0.5))
        assert method_from_code("K") == MethodSpec("K", "kernel")
        assert all(method_from_code(c) is spec for c, spec in METHODS.items())

    def test_unknown_kind_raises_at_construction(self):
        with pytest.raises(ValueError, match=r"'bogus'.*wavelet.*kernel"):
            MethodSpec("Z", "bogus")

    @pytest.mark.parametrize("spec", [
        *METHODS.values(),
        MethodSpec("P", "wavelet", "spline", practical_gamma(0.75)),
        MethodSpec("T", "wavelet", "haar", theoretical_gamma(0.5))],
        ids=lambda m: m.code)
    def test_fit_is_the_kinds_fitter(self, spec):
        sample = mixture_gd(10).sample(5, 256)
        fitted = spec.fit(sample)
        if spec.kind == "kernel":
            direct = fit_kernel(sample)
            assert fitted.bandwidth == direct.bandwidth
            assert fitted.cv_scores == direct.cv_scores
            assert fitted.sq_integral == direct.sq_integral
        else:
            assert fitted == estimate(sample, spec.config())

    def test_unknown_code_lists_valid(self):
        with pytest.raises(ValueError,
                           match=r"'Q'; valid methods: H, K, S, S\*$"):
            resolve_methods(["S", "Q"])

    def test_one_spline_instance(self):
        # every way of naming the spline pair gives one object, so fits
        # through either name share the sample's one level scan
        assert spline_basis() is basis_by_name("spline")
        sample = Gauss(0.5, 0.25).sample(11, 512)
        direct = estimate(sample, EstimatorConfig(basis=spline_basis(),
                                                  mode=practical()))
        assert direct == estimate(sample, method_from_code("S").config())
        assert len(sample._scans) == 1


class TestSweeps:
    def test_single_replication_mean_is_the_value(self):
        sig = Uniform01()
        methods = [method_from_code("H")]
        (report,) = mise_sweep(sig, 64, methods, 1, 5)
        assert report.replications == 1
        assert report.mean == report.ise_values[0]
        assert report.median == report.ise_values[0]

    def test_deterministic_and_worker_independent(self):
        # replication i depends on (master seed, i) alone, so any split of
        # the replications across runs or processes gives the same values
        sig = Gauss(0.5, 0.25)
        methods = [method_from_code("H"), method_from_code("K")]
        a = mise_sweep(sig, 128, methods, 6, 17)
        b = mise_sweep(sig, 128, methods, 6, 17)
        head = mise_sweep(sig, 128, methods, 4, 17)
        assert a == b
        for full, part in zip(a, head):
            assert full.ise_values[:4] == part.ise_values

    def test_replication_order_does_not_change_errors(self):
        # each replication's errors come from (master seed, index) alone,
        # threaded kernel fit included, so reversed and shuffled runs of
        # the replications reproduce the sweep's values bit for bit
        sig = mixture_gd(30)
        methods = resolve_methods(["S", "H", "S*", "K"])
        reports = mise_sweep(sig, 256, methods, 4, 5)
        want = {rep: [r.ise_values[rep] for r in reports] for rep in range(4)}
        shuffled = [int(i) for i in np.random.default_rng(5).permutation(4)]
        for order in ([3, 2, 1, 0], shuffled):
            got = {rep: risk._run_replication(sig, 256, methods, 5, rep)
                   for rep in order}
            assert got == want

    def test_same_sample_shared_across_methods(self):
        # two labels for the same rule must produce identical error columns
        sig = Gauss(0.5, 0.25)
        methods = [
            MethodSpec("A", "wavelet", "haar", practical()),
            MethodSpec("B", "wavelet", "haar", practical_gamma(1.0)),
        ]
        ra, rb = mise_sweep(sig, 128, methods, 5, 23)
        assert ra.ise_values == rb.ise_values

    @staticmethod
    def _gamma_rules(basis_name):
        return [MethodSpec(f"PG{g:g}", "wavelet", basis_name,
                           practical_gamma(g), parameter=g)
                for g in (0.25 * i for i in range(1, 9))]

    def test_shared_scan_matches_one_method_sweeps(self):
        # fitting the rules together changes no error, bit for bit
        methods = self._gamma_rules("spline")
        together = mise_sweep(Bumps(), 256, methods, 2, 41)
        for m, report in zip(methods, together):
            (alone,) = mise_sweep(Bumps(), 256, [m], 2, 41)
            assert report.ise_values == alone.ise_values

    @pytest.mark.parametrize("basis_name", ["spline", "haar"])
    def test_rules_share_one_level_scan(self, basis_name, monkeypatch):
        calls = []
        level_stats = estimator._level_stats

        def counted(x, basis, levels):
            calls.extend(levels)
            return level_stats(x, basis, levels)

        monkeypatch.setattr(estimator, "_level_stats", counted)
        n = 256
        mise_sweep(Gauss(0.5, 0.25), n, self._gamma_rules(basis_name), 2, 3)
        j0 = EstimatorConfig(basis=basis_by_name(basis_name),
                             mode=practical()).j0(n)
        # j0 + 2 levels once per replication: no scan outlives its sample
        assert calls == list(range(-1, j0 + 1)) * 2

    def test_replication_seed_contract(self):
        sig = Uniform01()
        s0 = sig.sample(replication_seed(99, 0), 16).observations
        s1 = sig.sample(replication_seed(99, 1), 16).observations
        assert not np.array_equal(s0, s1)
        again = sig.sample(replication_seed(99, 0), 16).observations
        assert np.array_equal(s0, again)

    def test_replications_validated(self):
        with pytest.raises(ValueError):
            mise_sweep(Uniform01(), 16, [method_from_code("H")], 0, 1)

    def test_methods_validated(self):
        with pytest.raises(ValueError, match="need at least one method"):
            mise_sweep(Uniform01(), 16, [], 2, 1)

    def test_support_sweep_shapes_and_baseline(self):
        reports = support_sweep([10.0], 64, resolve_methods(["H", "K"]), 2, 3)
        assert [r.method_id for r in reports] == ["H", "K"]
        assert all(r.parameter == 10.0 for r in reports)
        assert all(r.replications == 2 for r in reports)

    def test_tail_sweep_runs(self):
        (report,) = tail_sweep([16.0], 64, resolve_methods(["H"]), 2, 3)
        assert report.parameter == 16.0
        assert all(v >= 0 for v in report.ise_values)


class TestGridMemo:
    """A replication scores every method on one grid object per distinct
    grid.  That grid computes the pdf once and evaluates its wavelet
    estimates as one block, which looks up each kept cell once, in one
    synthesis lookup per function."""

    def test_pdf_once_and_each_cell_once_per_replication(self, spline,
                                                         monkeypatch):
        signal, n, master, reps = Bumps(), 1024, 5, 2
        methods = TestSweeps._gamma_rules("spline")
        sizes, cells, levels, rows, windows = [], set(), 0, 0, 0
        for rep in range(reps):
            sample = signal.sample(replication_seed(master, rep), n)
            fits = [estimate(sample, m.config()) for m in methods]
            (grid,) = {default_grid(signal, [est]) for est in fits}
            sizes.append(grid.npoints)
            mine = {(row.j, row.k) for est in fits for row in est.kept}
            cells |= {(rep, *cell) for cell in mine}
            levels += len({j for j, _ in mine})
            rows += sum(len(est.kept) for est in fits)
            x = grid.points()
            for cell in mine:
                lo, hi = reconstruction_support(spline, cell)
                windows += int(np.count_nonzero((x >= lo) & (x <= hi)))
        assert rows > 2 * len(cells)  # the rules keep many cells in common

        pdf_args, grid_points, evals = [], [], []
        proposals, sampler_points = [], []
        pdf, tab_eval = Bumps.pdf, TabulatedFunction.eval
        points, draw = GridSpec.points, Bumps._draw

        class CountingRng:
            """Forwards to a generator; each proposal takes two uniforms."""

            def __init__(self, rng):
                self.rng = rng

            def random(self, size):
                proposals.append(size / 2)
                return self.rng.random(size)

        def counted_draw(self, rng, n):
            start = len(pdf_args)
            out = draw(self, CountingRng(rng), n)
            sampler_points.extend(np.size(x) for x in pdf_args[start:])
            return out

        def counted_pdf(self, x):
            pdf_args.append(x)
            return pdf(self, x)

        def recorded_points(self):
            grid_points.append(points(self))
            return grid_points[-1]

        def counted_eval(self, x):
            evals.append(np.size(x))
            return tab_eval(self, x)

        monkeypatch.setattr(Bumps, "pdf", counted_pdf)
        monkeypatch.setattr(Bumps, "_draw", counted_draw)
        monkeypatch.setattr(GridSpec, "points", recorded_points)
        monkeypatch.setattr(TabulatedFunction, "eval", counted_eval)
        mise_sweep(signal, n, methods, reps, master)
        on_grid = [np.size(x) for x in pdf_args
                   if any(x is p for p in grid_points)]
        assert on_grid == sizes
        # one grid and one block per replication, which looks up each kept
        # cell's points once, in fewer lookups than levels
        assert sum(evals) == windows
        assert 2 * reps <= len(evals) < levels < len(cells)
        # each synthesis function takes one lookup per chunk of at most
        # _LOOKUP_POINTS points, so with room for all of them, one lookup
        evals.clear()
        monkeypatch.setattr(estimator, "_LOOKUP_POINTS", 2 ** 20)
        mise_sweep(signal, n, methods, reps, master)
        assert len(evals) == 2 * reps and sum(evals) == windows
        # the sampler screens its proposals before it evaluates the pdf
        assert 0 < sum(sampler_points) < 0.15 * sum(proposals)

    @pytest.mark.parametrize("signal, interpolates", [
        (Bumps(), False), (mixture_gd(10), False), (mixture_gd(70), False),
        (Uniform01(), False), (mixture_hk(2), True),
    ], ids=["bumps", "gd10", "gd70", "uniform", "hk2"])
    def test_synthesis_lookups_read_nodes_on_lattice_grids(
            self, spline, signal, interpolates, monkeypatch):
        # a default grid whose ends lie on the 2^-12 lattice puts every
        # synthesis argument on a table node, so no lookup interpolates;
        # hk's bracket ends are off the lattice, and there lookups do.
        # The spline fixture builds the tables before the count starts.
        interp, sizes = np.interp, []

        def counted(x, *args, **kwargs):
            sizes.append(np.size(x))
            return interp(x, *args, **kwargs)

        monkeypatch.setattr(np, "interp", counted)
        reports = mise_sweep(signal, 1024, resolve_methods(["S", "S*"]), 1, 3)
        assert all(math.isfinite(r.ise_values[0]) for r in reports)
        assert (len(sizes) > 0) == interpolates

    @pytest.mark.parametrize("signal", [mixture_gd(10), mixture_hk(2), Bumps()],
                             ids=["gd10", "hk2", "bumps"])
    def test_sweep_ise_equals_lone_ise_on_fresh_grid(self, signal):
        methods = [*resolve_methods(["S", "H", "S*", "K"]),
                   MethodSpec("T", "wavelet", "spline", theoretical_gamma(0.5))]
        n, master = 256, 8
        reports = mise_sweep(signal, n, methods, 1, master)
        sample = signal.sample(replication_seed(master, 0), n)
        for m, report in zip(methods, reports):
            est = m.fit(sample)
            lone = ise(est, signal, default_grid(signal, [est]))
            assert report.ise_values[0] == lone, m.code

    def test_sweep_calls_ise_once_per_method_per_replication(self,
                                                             monkeypatch):
        # the block changes no call: ``risk.ise``, the layer a tracer
        # wraps, scores each method of each replication once, with that
        # method's fit and that fit's grid
        methods = [*resolve_methods(["S", "H", "S*", "K"]),
                   MethodSpec("T", "wavelet", "spline", theoretical_gamma(0.5))]
        fits, calls = [], []
        fit, score = MethodSpec.fit, risk.ise

        def recorded_fit(self, sample):
            fits.append((self, fit(self, sample)))
            return fits[-1][1]

        def recorded_ise(est, signal, grid):
            calls.append((est, grid, score(est, signal, grid)))
            return calls[-1][2]

        monkeypatch.setattr(MethodSpec, "fit", recorded_fit)
        monkeypatch.setattr(risk, "ise", recorded_ise)
        signal, reps = mixture_gd(10), 2
        reports = mise_sweep(signal, 256, methods, reps, 8)
        assert [m for m, _ in fits] == methods * reps
        assert len(calls) == len(fits)
        for (_, est), (scored, grid, _) in zip(fits, calls):
            assert scored is est
            assert grid == default_grid(signal, [est])
        assert [value for _, _, value in calls] == [
            r.ise_values[rep] for rep in range(reps) for r in reports]

    def test_used_grid_compares_hashes_and_prints_as_fresh(self):
        signal = Gauss(0.5, 0.25)
        est = estimate(signal.sample(2, 256), method_from_code("S").config())
        used = default_grid(signal, [est])
        ise(est, signal, used)
        fresh = GridSpec(used.lo, used.hi, used.step)
        assert used._memo and not fresh._memo
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh) and str(used) == str(fresh)
        assert {used: 1}[fresh] == 1
        with pytest.raises(ValueError, match="read-only"):
            used.points()[0] = 0.0
        assert np.array_equal(used.points(), fresh.points())


class TestReports:
    def test_aggregates_recomputable(self, rng):
        values = rng.random(40)
        r = RiskReport("sig", "M", 1.0, 99, 7, tuple(values.tolist()))
        assert_allclose(r.mean, np.mean(values))
        assert_allclose(r.median, np.median(values))
        assert_allclose(r.q25, np.quantile(values, 0.25))
        assert_allclose(r.q75, np.quantile(values, 0.75))
        assert r.replications == len(values)
        # the report stores the errors; every aggregate is read off them
        assert [f.name for f in dataclasses.fields(r)] == [
            "signal_id", "method_id", "parameter", "n", "master_seed",
            "ise_values"]
