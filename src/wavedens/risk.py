"""Integrated-squared-error computation and the Monte-Carlo studies.

The realized error of an estimate against an analytic signal is a
trapezoidal integral of the squared difference on a uniform grid, plus an
analytic remainder for the squared-density mass outside the grid.  Sweeps
run seeded replications: replication ``i`` of a study with master seed
``s`` always draws from the generator seeded by ``(s, i)``, so results are
bit-identical regardless of execution order, and every method inside a
replication sees the identical sample.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import kernel as kernel_mod
from .basis import basis_by_name
from .estimator import EstimatorConfig, Mode, estimate, practical, practical_gamma
from .signals import TestSignal, mixture_gd, mixture_hk

__all__ = [
    "GridSpec",
    "GridCoverageError",
    "RiskReport",
    "MethodSpec",
    "method_from_code",
    "resolve_methods",
    "default_grid",
    "ise",
    "mise_sweep",
    "support_sweep",
    "tail_sweep",
    "replication_seed",
    "write_replications_csv",
    "write_quartiles_csv",
    "write_summary_json",
]

MAX_GRID_POINTS = 10 ** 7
DEFAULT_GRID_STEP = 2.0 ** -10


class GridCoverageError(ValueError):
    """The integration grid fails to cover a required interval."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [lo, hi]; hi is rounded up to a whole number of
    steps at construction."""

    lo: float
    hi: float
    step: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("need lo < hi")
        if not self.step > 0:
            raise ValueError("step must be positive")
        m = int(np.ceil((self.hi - self.lo) / self.step - 1e-12))
        if m > MAX_GRID_POINTS:
            raise ValueError(
                f"grid would have {m + 1} points, over the {MAX_GRID_POINTS} cap")
        object.__setattr__(self, "hi", self.lo + m * self.step)

    @property
    def npoints(self) -> int:
        return int(round((self.hi - self.lo) / self.step)) + 1

    def points(self) -> np.ndarray:
        return self.lo + np.arange(self.npoints) * self.step


def default_grid(signal: TestSignal, estimates: Sequence = (),
                 step: float = DEFAULT_GRID_STEP,
                 base_interval: Optional[tuple[float, float]] = None) -> GridSpec:
    """Grid covering the signal's effective support and every estimate's
    reconstruction hull, padded by one unit on each side.  The step doubles
    as needed to respect the grid-size cap (wide supports trade resolution
    for coverage)."""
    lo, hi = signal.effective_support
    if base_interval is not None:
        lo, hi = min(lo, base_interval[0]), max(hi, base_interval[1])
    for est in estimates:
        hull = est.support_hull()
        if hull is not None:
            lo, hi = min(lo, hull[0]), max(hi, hull[1])
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
    """
    req_lo, req_hi = signal.effective_support
    hull = est.support_hull()
    if hull is not None:
        req_lo, req_hi = min(req_lo, hull[0]), max(req_hi, hull[1])
    tol = 1e-9
    if grid.lo > req_lo + tol or grid.hi < req_hi - tol:
        missing = []
        if grid.lo > req_lo + tol:
            missing.append(f"[{req_lo!r}, {grid.lo!r}]")
        if grid.hi < req_hi - tol:
            missing.append(f"[{grid.hi!r}, {req_hi!r}]")
        raise GridCoverageError(
            "grid does not cover required interval(s): " + ", ".join(missing))
    x = grid.points()
    diff = signal.pdf(x) - est.evaluate(x)
    value = float(np.trapezoid(diff * diff, dx=grid.step))
    return value + signal.tail_sq_upper(grid.lo, grid.hi)


# ---------------------------------------------------------------------------
# methods

@dataclass(frozen=True)
class MethodSpec:
    """One estimation method in a sweep: a wavelet basis/threshold pair or
    the cross-validated kernel baseline."""

    code: str
    kind: str  # "wavelet" | "kernel"
    basis_name: str = ""
    mode: Optional[Mode] = None
    parameter: Optional[float] = None

    def config(self) -> EstimatorConfig:
        if self.kind != "wavelet":
            raise ValueError("only wavelet methods carry an estimator config")
        return EstimatorConfig(basis=basis_by_name(self.basis_name), mode=self.mode)


_METHOD_BUILDERS = {
    "S": lambda: MethodSpec("S", "wavelet", "spline", practical()),
    "H": lambda: MethodSpec("H", "wavelet", "haar", practical()),
    "S*": lambda: MethodSpec("S*", "wavelet", "spline", practical_gamma(0.5)),
    "K": lambda: MethodSpec("K", "kernel"),
}


def method_from_code(code: str) -> MethodSpec:
    try:
        return _METHOD_BUILDERS[code]()
    except KeyError:
        raise ValueError(
            f"unknown method {code!r}; valid methods: "
            + ", ".join(sorted(_METHOD_BUILDERS))) from None


def resolve_methods(codes: Sequence[str]) -> list[MethodSpec]:
    return [method_from_code(c) for c in codes]


# ---------------------------------------------------------------------------
# reports

@dataclass(frozen=True)
class RiskReport:
    """Per-replication errors and aggregates for one (signal, method,
    parameter) cell; aggregates are recomputable from ``ise_values``."""

    signal_id: str
    method_id: str
    parameter: Optional[float]
    n: int
    replications: int
    master_seed: int
    ise_values: tuple
    mean: float
    median: float
    q25: float
    q75: float

    @classmethod
    def from_values(cls, signal_id, method_id, parameter, n, master_seed,
                    values) -> "RiskReport":
        arr = np.asarray(values, dtype=float)
        return cls(signal_id=signal_id, method_id=method_id,
                   parameter=parameter, n=n, replications=len(arr),
                   master_seed=master_seed, ise_values=tuple(float(v) for v in arr),
                   mean=float(np.mean(arr)), median=float(np.median(arr)),
                   q25=float(np.quantile(arr, 0.25)),
                   q75=float(np.quantile(arr, 0.75)))


def replication_seed(master_seed: int, rep: int) -> np.random.SeedSequence:
    """Seed of replication ``rep`` under ``master_seed``; the pair fully
    determines the generator stream."""
    if master_seed < 0 or rep < 0:
        raise ValueError("seeds and replication indices must be nonnegative")
    return np.random.SeedSequence([int(master_seed), int(rep)])


def _run_replication(signal, n, methods, master_seed, rep, step, base_interval):
    """One replication: one sample and its level scans, one ISE per method."""
    sample = signal.sample(replication_seed(master_seed, rep), n)
    out = []
    for m in methods:
        if m.kind == "wavelet":
            est = estimate(sample, m.config())
        elif m.kind == "kernel":
            est = kernel_mod.fit_kernel(sample)
        else:
            raise ValueError(f"unknown method kind {m.kind!r}")
        grid = default_grid(signal, [est], step=step, base_interval=base_interval)
        out.append(ise(est, signal, grid))
    return out


def mise_sweep(signal: TestSignal, n: int, methods: Sequence[MethodSpec],
               replications: int, master_seed: int, *,
               step: float = DEFAULT_GRID_STEP,
               base_interval: Optional[tuple[float, float]] = None) -> list[RiskReport]:
    """Seeded Monte-Carlo risk study: one report per method.

    Within a replication every method is fitted on the identical sample
    (variance reduction and fair comparison).  Any replication failure
    aborts the sweep.
    """
    if replications < 1:
        raise ValueError("need at least one replication")
    table = np.asarray([
        _run_replication(signal, n, methods, master_seed, rep, step,
                         base_interval)
        for rep in range(replications)
    ], dtype=float)  # (replications, methods)
    return [
        RiskReport.from_values(signal.name, m.code, m.parameter, n,
                               master_seed, table[:, i])
        for i, m in enumerate(methods)
    ]


def _parameter_sweep(values, signal_at, base_at, n, methods, replications,
                     master_seed, step) -> list[RiskReport]:
    """One :func:`mise_sweep` per value; ``base_at(value)`` as its grid base."""
    return [replace(rep, parameter=float(v))
            for v in values
            for rep in mise_sweep(signal_at(v), n, methods, replications,
                                  master_seed, step=step,
                                  base_interval=base_at(v))]


def support_sweep(d_values: Sequence[float], n: int,
                  methods: Sequence[MethodSpec], replications: int,
                  master_seed: int, *,
                  step: float = DEFAULT_GRID_STEP) -> list[RiskReport]:
    """Risk study across the two-component separation d; the integration
    grid always covers at least [-10, d + 10]."""
    return _parameter_sweep(d_values, mixture_gd,
                            lambda d: (-10.0, float(d) + 10.0), n, methods,
                            replications, master_seed, step)


def tail_sweep(df_values: Sequence[float], n: int,
               methods: Sequence[MethodSpec], replications: int,
               master_seed: int, *,
               step: float = DEFAULT_GRID_STEP) -> list[RiskReport]:
    """Risk study across the tail-weight parameter of the heavy-tailed
    mixture; grids widen (and coarsen under the point cap) automatically."""
    return _parameter_sweep(df_values, mixture_hk, lambda df: None, n,
                            methods, replications, master_seed, step)


# ---------------------------------------------------------------------------
# emission

def write_replications_csv(report: RiskReport, path) -> None:
    """One row per replication."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("replication,ise\n")
        for i, v in enumerate(report.ise_values):
            fh.write(f"{i},{v!r}\n")


def write_quartiles_csv(reports: Sequence[RiskReport], path) -> None:
    """Companion plot data: one row per (method, parameter)."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("method,parameter,mean,q25,median,q75\n")
        for r in reports:
            param = "" if r.parameter is None else repr(r.parameter)
            fh.write(f"{r.method_id},{param},{r.mean!r},{r.q25!r},"
                     f"{r.median!r},{r.q75!r}\n")


def write_summary_json(reports: Sequence[RiskReport], path) -> None:
    doc = [
        {
            "signal": r.signal_id, "method": r.method_id,
            "parameter": r.parameter, "n": r.n,
            "replications": r.replications, "master_seed": r.master_seed,
            "mean": r.mean, "median": r.median, "q25": r.q25, "q75": r.q75,
        }
        for r in reports
    ]
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
