"""Tests for the ISE computation and the Monte-Carlo sweeps."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from wavedens.basis import haar_basis
from wavedens.estimator import (
    DensityEstimate,
    EstimatorConfig,
    KeptCoefficient,
    estimate,
    practical,
    practical_gamma,
)
from wavedens.risk import (
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
    write_quartiles_csv,
    write_replications_csv,
    write_summary_json,
)
from wavedens.signals import Gauss, Uniform01, mixture_gd, mixture_hk


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


class TestMethods:
    def test_codes(self):
        assert method_from_code("S").basis_name == "spline"
        assert method_from_code("H").mode.kind == "practical"
        star = method_from_code("S*")
        assert star.mode.gamma == 0.5
        assert method_from_code("K").kind == "kernel"

    def test_unknown_code_lists_valid(self):
        with pytest.raises(ValueError, match="valid methods"):
            resolve_methods(["S", "Q"])


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

    def test_same_sample_shared_across_methods(self):
        # two labels for the same rule must produce identical error columns
        sig = Gauss(0.5, 0.25)
        methods = [
            MethodSpec("A", "wavelet", "haar", practical()),
            MethodSpec("B", "wavelet", "haar", practical_gamma(1.0)),
        ]
        ra, rb = mise_sweep(sig, 128, methods, 5, 23)
        assert ra.ise_values == rb.ise_values

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

    def test_support_sweep_shapes_and_baseline(self):
        reports = support_sweep([10.0], 64, resolve_methods(["H", "K"]), 2, 3)
        assert [r.method_id for r in reports] == ["H", "K"]
        assert all(r.parameter == 10.0 for r in reports)
        assert all(r.replications == 2 for r in reports)

    def test_support_sweep_grid_extends(self):
        for d in (10.0, 70.0):
            g = default_grid(mixture_gd(d), base_interval=(-10.0, d + 10.0))
            assert g.lo <= -10.0 and g.hi >= d + 10.0

    def test_tail_sweep_runs(self):
        (report,) = tail_sweep([16.0], 64, resolve_methods(["H"]), 2, 3)
        assert report.parameter == 16.0
        assert all(v >= 0 for v in report.ise_values)


class TestReports:
    def test_aggregates_recomputable(self, rng):
        values = rng.random(40)
        r = RiskReport.from_values("sig", "M", 1.0, 99, 7, values)
        assert_allclose(r.mean, np.mean(values))
        assert_allclose(r.median, np.median(values))
        assert_allclose(r.q25, np.quantile(values, 0.25))
        assert_allclose(r.q75, np.quantile(values, 0.75))
        assert r.replications == len(values)

    def test_writers_deterministic(self, tmp_path, rng):
        values = rng.random(10)
        r = RiskReport.from_values("sig", "S*", 2.0, 99, 7, values)
        for writer, name in [(write_replications_csv, "reps.csv")]:
            writer(r, tmp_path / name)
            first = (tmp_path / name).read_bytes()
            writer(r, tmp_path / name)
            assert (tmp_path / name).read_bytes() == first
        write_quartiles_csv([r], tmp_path / "q.csv")
        text = (tmp_path / "q.csv").read_text()
        assert text.startswith("method,parameter,mean,q25,median,q75\n")
        assert "S*" in text
        write_summary_json([r], tmp_path / "s.json")
        assert "master_seed" in (tmp_path / "s.json").read_text()
