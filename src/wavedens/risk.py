"""Integrated-squared-error computation and the Monte-Carlo studies.

The realized error of an estimate against an analytic signal is the
estimate's own closed form when it offers one: a kernel estimate does
against a mixture of normals (gd(d) and Gauss).  Otherwise it is a
trapezoidal integral of the squared difference on a uniform grid that
covers the estimate, plus the squared-density mass outside the grid: an
analytic upper bound when the grid covers the signal's effective support,
else the mass itself by adaptive quadrature.  No grid is ever coarsened: a
heavy tail whose effective support would exceed the point cap is scored on
the estimates' hulls at the asked step, and a hull grid over the cap raises.
A score that is not finite raises: no sweep reports an infinite or NaN
error.  A grid memoizes what depends on it alone (its points, each signal's
pdf and remainder there), and a replication scores all methods whose grids
are equal on one grid object, so that work is done once per replication.
The wavelet estimates scored on one grid are evaluated there in blocks,
which look up each kept cell once and add each term once.  Sweeps run seeded replications:
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
# values in one block of wavelet rows evaluated on a grid (8 MB of floats)
_BLOCK_VALUES = 2 ** 20
# quad's error estimate for the squared mass on either side of a grid may
# not exceed this share of that mass, nor 1e-15 when the mass is smaller
_OUTSIDE_RTOL = 1e-8


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
        """``(pdf on the points, squared-density mass outside [lo, hi])``
        for ``signal``, computed once per grid; the pdf is read-only.  A
        grid that covers the signal's effective support takes the bound
        ``tail_sq_upper``; any other the mass itself, by quadrature."""
        key = ("signal", signal)
        if key not in self._memo:
            f = signal.pdf(self.points())
            f.setflags(write=False)
            lo, hi = signal.effective_support
            if self.lo <= lo and self.hi >= hi:
                outside = signal.tail_sq_upper(self.lo, self.hi)
            else:
                outside = _sq_mass_outside(signal, self.lo, self.hi)
            self._memo[key] = f, outside
        return self._memo[key]

    def _wavelet_values(self, est: DensityEstimate) -> np.ndarray:
        """``est`` on the points, in an array the caller owns.

        A replication queues the wavelet estimates it scores on this grid
        in the memo's ``"wavelets"`` list.  An estimate whose values the
        memo lacks is evaluated in one block with the queued estimates, in
        their order, up to ``_BLOCK_VALUES`` values and one row at the
        least (:func:`~wavedens.estimator._evaluate_rows`).  The memo
        keeps each other row until a call for its estimate takes it, so a
        later call for the same estimate evaluates it again."""
        rows = self._memo.setdefault("rows", {})
        if id(est) not in rows:
            queue = self._memo.setdefault("wavelets", [])
            others = [e for e in queue if e is not est]
            size = max(1, _BLOCK_VALUES // self.npoints)
            block, queue[:] = [est, *others[:size - 1]], others[size - 1:]
            # each row keeps its estimate alive, so no other takes its id
            for e, row in zip(block, _evaluate_rows(block, self.points())):
                rows[id(e)] = e, row
        return rows.pop(id(est))[1]


def _sq_mass_outside(signal: TestSignal, lo: float, hi: float) -> float:
    """The integral of the squared pdf over (-inf, lo] and [hi, inf), by
    adaptive quadrature; ``ValueError`` when quad's error estimate on
    either side exceeds ``_OUTSIDE_RTOL`` of that side's mass (or 1e-15).

    ``scipy.integrate`` is imported here: it costs about 26 MB and 0.2 s,
    and only grids narrower than the effective support need it."""
    from scipy.integrate import quad

    def f2(t):
        return float(signal.pdf(t)) ** 2

    total = 0.0
    for a, b in ((-math.inf, lo), (hi, math.inf)):
        # full output: a poor estimate raises below instead of warning
        value, err, *_ = quad(f2, a, b, epsabs=1e-15, epsrel=1e-10,
                              limit=200, full_output=1)
        if not err <= max(1e-15, _OUTSIDE_RTOL * value):
            raise ValueError(f"squared mass of {signal.name} on [{a!r}, "
                             f"{b!r}] is {value!r} with quadrature error "
                             f"{err!r}, over the relative tolerance "
                             f"{_OUTSIDE_RTOL!r}")
        total += value
    return total


def _hull(estimates) -> Optional[tuple[float, float]]:
    """The smallest interval holding every estimate's reconstruction hull,
    or None when no estimate has one."""
    hulls = [h for h in (est.support_hull() for est in estimates)
             if h is not None]
    if not hulls:
        return None
    return min(h[0] for h in hulls), max(h[1] for h in hulls)


def default_grid(signal: TestSignal, estimates: Sequence = (),
                 step: float = DEFAULT_GRID_STEP) -> GridSpec:
    """Grid at ``step`` covering the signal's effective support and every
    estimate's reconstruction hull, padded by one unit on each side.

    When that grid would exceed ``MAX_GRID_POINTS`` (a heavy tail's
    effective support), it covers the estimates' hulls padded by one unit,
    with both ends moved outward onto multiples of ``step``, and :func:`ise`
    adds the exact squared mass outside it.  The step is never coarsened:
    when no estimate has a hull, or the hull grid would itself exceed the
    cap, ``ValueError`` names the cap."""
    lo, hi = signal.effective_support
    hull = _hull(estimates)
    if hull is not None:
        lo, hi = min(lo, hull[0]), max(hi, hull[1])
    lo, hi = lo - 1.0, hi + 1.0
    if not (hi - lo) / step > MAX_GRID_POINTS:
        return GridSpec(lo, hi, step)
    over = (f"an ISE grid for {signal.name} over [{lo!r}, {hi!r}] at step "
            f"{step!r} would exceed the {MAX_GRID_POINTS} point cap")
    if hull is None:
        raise ValueError(f"{over}, and no estimate has a hull to cover "
                         f"instead")
    span = (hull[1] - hull[0] + 2.0) / step
    if not span <= MAX_GRID_POINTS:
        raise ValueError(f"{over}, and so would the one over the estimates' "
                         f"hulls +- 1, with {span + 1:.4g} points")
    return GridSpec(math.floor((hull[0] - 1.0) / step) * step,
                    math.ceil((hull[1] + 1.0) / step) * step, step)


def ise(est, signal: TestSignal, grid: GridSpec) -> float:
    """Realized integrated squared error of ``est`` against ``signal``.

    ``est`` may be any object with ``evaluate(points)`` and
    ``support_hull()``.  The grid must cover the estimate's hull; a
    violation raises :class:`GridCoverageError` naming the uncovered
    interval.  Outside the hull the estimate is 0, so the error there is
    the squared density's mass outside the grid: bounded analytically when
    the grid covers the signal's effective support, else integrated by
    quadrature (see :func:`default_grid`).

    An estimate may also offer ``exact_ise(signal)``: a closed form, or
    None when it has none that it can vouch for.  A
    :class:`~wavedens.kernel.KernelEstimate` offers one against a mixture
    of normals, unless cancellation could have eaten it, and is then not
    evaluated on the grid.  Every other case takes the grid.

    The signal's pdf and outside mass come from the grid's memo, and a
    :class:`DensityEstimate` takes its values from the grid's block of
    queued wavelet estimates, so estimates scored on one grid object share
    that work.  The value does not depend on what the memo already holds.
    A value that is not finite raises ``ValueError`` naming the signal,
    the value and the grid.
    """
    hull = est.support_hull()
    tol = 1e-9
    missing = []
    if hull is not None:
        if grid.lo > hull[0] + tol:
            missing.append(f"[{hull[0]!r}, {grid.lo!r}]")
        if grid.hi < hull[1] - tol:
            missing.append(f"[{grid.hi!r}, {hull[1]!r}]")
    if missing:
        raise GridCoverageError(
            "grid does not cover required interval(s): " + ", ".join(missing))
    value = getattr(est, "exact_ise", lambda signal: None)(signal)
    if value is None:
        x = grid.points()
        f, outside = grid._signal_terms(signal)
        if isinstance(est, DensityEstimate):
            fhat = grid._wavelet_values(est)
        else:  # another estimate's values are not ours to overwrite
            fhat = np.array(est.evaluate(x), dtype=float)
        np.subtract(f, fhat, out=fhat)  # (f - fhat)^2 in place
        fhat *= fhat
        value = float(np.trapezoid(fhat, dx=grid.step)) + outside
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
    mixture.  Grids widen with the tail at a fixed step; where the tail
    would take a grid over the point cap, the grid covers the estimates'
    hulls and the mass beyond is integrated (see :func:`default_grid`)."""
    return _parameter_sweep(df_values, mixture_hk, n, methods, replications,
                            master_seed)

