"""Integrated-squared-error computation and the Monte-Carlo studies.

The realized error of an estimate against an analytic signal is the
estimate's own closed form when it offers one: a kernel estimate does
against a mixture of normals (gd(d) and Gauss).  Otherwise it is a
trapezoidal integral of the squared difference on a uniform grid, plus an
analytic remainder for the squared-density mass outside the grid.  A score
that is not finite raises: no sweep reports an infinite or NaN error.  A grid
memoizes what depends on it alone (its points, each signal's pdf and
remainder there), and a replication scores all methods whose grids are
equal on one grid object, so that work is done once per replication.  The
wavelet estimates scored on one grid are evaluated there as one block,
which looks up each kept cell once and adds each term once.  Sweeps run seeded replications:
replication ``i`` of a study with master seed ``s`` always draws from the
generator seeded by ``(s, i)``, so results are bit-identical regardless
of execution order, and every method inside a replication sees the
identical sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import kernel as kernel_mod
from .basis import basis_by_name
from .estimator import (DensityEstimate, EstimatorConfig, Mode,
                        _evaluate_rows, estimate, practical, practical_gamma)
from .signals import TestSignal, mixture_gd, mixture_hk

__all__ = [
    "GridSpec",
    "GridCoverageError",
    "RiskReport",
    "MethodSpec",
    "METHODS",
    "method_from_code",
    "resolve_methods",
    "default_grid",
    "ise",
    "mise_sweep",
    "support_sweep",
    "tail_sweep",
    "replication_seed",
]

MAX_GRID_POINTS = 10 ** 7
DEFAULT_GRID_STEP = 2.0 ** -10


class GridCoverageError(ValueError):
    """The integration grid fails to cover a required interval."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [lo, hi]; hi is rounded up to a whole number of
    steps at construction.  Non-finite bounds or step, and a grid whose
    point count or end overflows, raise ``ValueError``.

    The grid memoizes what depends on it alone: its points, each signal's
    pdf and tail term on them, and the values of the wavelet estimates
    queued on it that :func:`ise` has not read yet.  The memo takes no
    part in comparing, hashing or printing a grid, and dies with it."""

    lo: float
    hi: float
    step: float
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def __post_init__(self):
        if not all(map(math.isfinite, (self.lo, self.hi, self.step))):
            raise ValueError(f"grid lo, hi and step must be finite, got "
                             f"{self.lo!r}, {self.hi!r}, {self.step!r}")
        if not self.lo < self.hi:
            raise ValueError("need lo < hi")
        if not self.step > 0:
            raise ValueError("step must be positive")
        # inf when hi - lo or the quotient overflows
        steps = (self.hi - self.lo) / self.step - 1e-12
        if not steps <= MAX_GRID_POINTS:
            raise ValueError(f"grid [{self.lo!r}, {self.hi!r}] at step "
                             f"{self.step!r} would have {steps + 1:.4g} "
                             f"points, over the {MAX_GRID_POINTS} cap")
        hi = self.lo + int(np.ceil(steps)) * self.step
        if not math.isfinite(hi):
            raise ValueError(f"grid end {self.hi!r} rounded up to whole "
                             f"steps of {self.step!r} overflows")
        object.__setattr__(self, "hi", hi)

    @property
    def npoints(self) -> int:
        return int(round((self.hi - self.lo) / self.step)) + 1

    def points(self) -> np.ndarray:
        """The grid's points, computed once; read-only."""
        if "points" not in self._memo:
            x = self.lo + np.arange(self.npoints) * self.step
            x.setflags(write=False)
            self._memo["points"] = x
        return self._memo["points"]

    def _signal_terms(self, signal: TestSignal) -> tuple:
        """``(pdf on the points, tail_sq_upper outside [lo, hi])`` for
        ``signal``, computed once per grid; the pdf is read-only."""
        key = ("signal", signal)
        if key not in self._memo:
            f = signal.pdf(self.points())
            f.setflags(write=False)
            self._memo[key] = f, signal.tail_sq_upper(self.lo, self.hi)
        return self._memo[key]

    def _wavelet_values(self, est: DensityEstimate) -> np.ndarray:
        """``est`` on the points, in an array the caller owns.

        A replication queues the wavelet estimates it scores on this grid
        in the memo's ``"wavelets"`` list.  An estimate whose values the
        memo lacks is evaluated in one block with the queued estimates, in
        their order, up to ``MAX_GRID_POINTS`` values and one row at the
        least (:func:`~wavedens.estimator._evaluate_rows`).  The memo
        keeps each other row until a call for its estimate takes it, so a
        later call for the same estimate evaluates it again."""
        rows = self._memo.setdefault("rows", {})
        if id(est) not in rows:
            queue = self._memo.setdefault("wavelets", [])
            others = [e for e in queue if e is not est]
            size = max(1, MAX_GRID_POINTS // self.npoints)
            block, queue[:] = [est, *others[:size - 1]], others[size - 1:]
            # each row keeps its estimate alive, so no other takes its id
            for e, row in zip(block, _evaluate_rows(block, self.points())):
                rows[id(e)] = e, row
        return rows.pop(id(est))[1]


def _required_interval(signal: TestSignal, estimates) -> tuple[float, float]:
    """The signal's effective support joined with every estimate's
    reconstruction hull: the interval an ISE grid must cover."""
    lo, hi = signal.effective_support
    for est in estimates:
        hull = est.support_hull()
        if hull is not None:
            lo, hi = min(lo, hull[0]), max(hi, hull[1])
    return lo, hi


def default_grid(signal: TestSignal, estimates: Sequence = (),
                 step: float = DEFAULT_GRID_STEP) -> GridSpec:
    """Grid covering the signal's effective support and every estimate's
    reconstruction hull, padded by one unit on each side.  The step doubles
    as needed to respect the grid-size cap (wide supports trade resolution
    for coverage)."""
    lo, hi = _required_interval(signal, estimates)
    lo, hi = lo - 1.0, hi + 1.0
    while (hi - lo) / step > MAX_GRID_POINTS:
        step *= 2.0
    return GridSpec(lo, hi, step)


def ise(est, signal: TestSignal, grid: GridSpec) -> float:
    """Realized integrated squared error of ``est`` against ``signal``.

    ``est`` may be any object with ``evaluate(points)`` and
    ``support_hull()``.  The grid must cover the union of the signal's
    effective support and the estimate's hull; a violation raises
    :class:`GridCoverageError` naming the uncovered interval.

    An estimate may also offer ``exact_ise(signal)``: a closed form, or
    None when it has none that it can vouch for.  A
    :class:`~wavedens.kernel.KernelEstimate` offers one against a mixture
    of normals, unless cancellation could have eaten it, and is then not
    evaluated on the grid.  Every other case takes the grid.

    The signal's pdf and tail term come from the grid's memo, and a
    :class:`DensityEstimate` takes its values from the grid's block of
    queued wavelet estimates, so estimates scored on one grid object share
    that work.  The value does not depend on what the memo already holds.
    A value that is not finite raises ``ValueError`` naming the signal,
    the value and the grid.
    """
    req_lo, req_hi = _required_interval(signal, [est])
    tol = 1e-9
    if grid.lo > req_lo + tol or grid.hi < req_hi - tol:
        missing = []
        if grid.lo > req_lo + tol:
            missing.append(f"[{req_lo!r}, {grid.lo!r}]")
        if grid.hi < req_hi - tol:
            missing.append(f"[{grid.hi!r}, {req_hi!r}]")
        raise GridCoverageError(
            "grid does not cover required interval(s): " + ", ".join(missing))
    value = getattr(est, "exact_ise", lambda signal: None)(signal)
    if value is None:
        x = grid.points()
        f, tail = grid._signal_terms(signal)
        if isinstance(est, DensityEstimate):
            fhat = grid._wavelet_values(est)
        else:  # another estimate's values are not ours to overwrite
            fhat = np.array(est.evaluate(x), dtype=float)
        np.subtract(f, fhat, out=fhat)  # (f - fhat)^2 in place
        fhat *= fhat
        value = float(np.trapezoid(fhat, dx=grid.step)) + tail
    if not math.isfinite(value):
        raise ValueError(f"ISE against {signal.name} is not finite ({value!r}) "
                         f"on the grid [{grid.lo!r}, {grid.hi!r}] at step "
                         f"{grid.step!r}")
    return value


# ---------------------------------------------------------------------------
# methods

@dataclass(frozen=True)
class MethodSpec:
    """One estimation method in a sweep: a wavelet basis/threshold pair or
    the cross-validated kernel baseline.  :meth:`fit` is the one place that
    maps a kind to its fitter; an unknown kind raises when the spec is
    built."""

    code: str
    kind: str  # "wavelet" | "kernel"
    basis_name: str = ""
    mode: Optional[Mode] = None
    parameter: Optional[float] = None

    def __post_init__(self):
        kinds = ("wavelet", "kernel")
        if self.kind not in kinds:
            raise ValueError(f"unknown method kind {self.kind!r}; valid "
                             f"kinds: {', '.join(kinds)}")

    def config(self) -> EstimatorConfig:
        if self.kind != "wavelet":
            raise ValueError("only wavelet methods carry an estimator config")
        return EstimatorConfig(basis=basis_by_name(self.basis_name), mode=self.mode)

    def fit(self, sample):
        """The method's estimate of ``sample``: an object offering
        ``evaluate``, ``support_hull`` and optionally ``exact_ise``.  The
        fitters are looked up when called, so a wrapper installed on
        ``risk.estimate`` or ``kernel.fit_kernel`` sees every fit."""
        if self.kind == "kernel":
            return kernel_mod.fit_kernel(sample)
        return estimate(sample, self.config())


# one frozen spec per method code, shared by every lookup, in CLI order
METHODS = {
    "S": MethodSpec("S", "wavelet", "spline", practical()),
    "H": MethodSpec("H", "wavelet", "haar", practical()),
    "S*": MethodSpec("S*", "wavelet", "spline", practical_gamma(0.5)),
    "K": MethodSpec("K", "kernel"),
}


def method_from_code(code: str) -> MethodSpec:
    try:
        return METHODS[code]
    except KeyError:
        raise ValueError(
            f"unknown method {code!r}; valid methods: "
            + ", ".join(sorted(METHODS))) from None


def resolve_methods(codes: Sequence[str]) -> list[MethodSpec]:
    return [method_from_code(c) for c in codes]


# ---------------------------------------------------------------------------
# reports

@dataclass(frozen=True)
class RiskReport:
    """Per-replication errors for one (signal, method, parameter) cell and
    the aggregates computed from them."""

    signal_id: str
    method_id: str
    parameter: Optional[float]
    n: int
    master_seed: int
    ise_values: tuple

    @property
    def replications(self) -> int:
        return len(self.ise_values)

    @property
    def mean(self) -> float:
        return float(np.mean(self.ise_values))

    @property
    def median(self) -> float:
        return float(np.median(self.ise_values))

    @property
    def q25(self) -> float:
        return float(np.quantile(self.ise_values, 0.25))

    @property
    def q75(self) -> float:
        return float(np.quantile(self.ise_values, 0.75))


def replication_seed(master_seed: int, rep: int) -> np.random.SeedSequence:
    """Seed of replication ``rep`` under ``master_seed``; the pair fully
    determines the generator stream."""
    if master_seed < 0 or rep < 0:
        raise ValueError("seeds and replication indices must be nonnegative")
    return np.random.SeedSequence([int(master_seed), int(rep)])


def _run_replication(signal, n, methods, master_seed, rep):
    """One replication: one sample and its level scans, one ISE per method.
    Every method is fitted first.  Methods whose grids are equal score on
    one grid object, so they share its memo, and the wavelet estimates
    are queued on their grid, in method order, for its block."""
    sample = signal.sample(replication_seed(master_seed, rep), n)
    grids, scored = {}, []
    for est in [m.fit(sample) for m in methods]:
        grid = default_grid(signal, [est])
        grid = grids.setdefault(grid, grid)
        if isinstance(est, DensityEstimate):
            grid._memo.setdefault("wavelets", []).append(est)
        scored.append((est, grid))
    return [ise(est, signal, grid) for est, grid in scored]


def mise_sweep(signal: TestSignal, n: int, methods: Sequence[MethodSpec],
               replications: int, master_seed: int) -> list[RiskReport]:
    """Seeded Monte-Carlo risk study: one report per method.

    Within a replication every method is fitted on the identical sample
    (variance reduction and fair comparison).  Any replication failure
    aborts the sweep.
    """
    if replications < 1:
        raise ValueError("need at least one replication")
    if not methods:
        raise ValueError("need at least one method")
    rows = [_run_replication(signal, n, methods, master_seed, rep)
            for rep in range(replications)]
    return [RiskReport(signal.name, m.code, m.parameter, n, master_seed, values)
            for m, values in zip(methods, zip(*rows))]


def _parameter_sweep(values, signal_at, n, methods, replications,
                     master_seed) -> list[RiskReport]:
    """One :func:`mise_sweep` on ``signal_at(value)`` per value."""
    return [replace(rep, parameter=float(v))
            for v in values
            for rep in mise_sweep(signal_at(v), n, methods, replications,
                                  master_seed)]


def support_sweep(d_values: Sequence[float], n: int,
                  methods: Sequence[MethodSpec], replications: int,
                  master_seed: int) -> list[RiskReport]:
    """Risk study across the two-component separation d."""
    return _parameter_sweep(d_values, mixture_gd, n, methods, replications,
                            master_seed)


def tail_sweep(df_values: Sequence[float], n: int,
               methods: Sequence[MethodSpec], replications: int,
               master_seed: int) -> list[RiskReport]:
    """Risk study across the tail-weight parameter of the heavy-tailed
    mixture; grids widen (and coarsen under the point cap) automatically."""
    return _parameter_sweep(df_values, mixture_hk, n, methods, replications,
                            master_seed)

