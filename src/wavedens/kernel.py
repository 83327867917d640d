"""Gaussian kernel density baseline with a cross-validated global bandwidth.

Least-squares cross-validation: the score
``integral(fhat^2) - (2/n) sum_i fhat_{-i}(X_i)`` has a closed form for the
Gaussian kernel (pairwise kernel evaluations at scale sqrt(2) h and h), so
no numerical integration is needed.  The bandwidth minimizing the score
over a fixed log-spaced grid around the normal-reference value is selected,
ties broken toward the larger bandwidth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimator import Sample

__all__ = ["KernelEstimate", "lscv_score", "fit_kernel", "eval_kernel",
           "silverman_bandwidth", "bandwidth_grid"]

_GRID_SIZE = 40
_GRID_SPAN = (0.05, 5.0)
_EVAL_CHUNK = 4096
_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class KernelEstimate:
    """Fitted kernel density: data, selected bandwidth and the full
    cross-validation trace over the searched grid."""

    sample: Sample
    bandwidth: float
    cv_scores: tuple  # ((bandwidth, score), ...) over the whole grid

    def evaluate(self, grid) -> np.ndarray:
        return eval_kernel(self, grid)

    def support_hull(self) -> tuple[float, float]:
        lo, hi = self.sample.data_range
        return lo - 8.0 * self.bandwidth, hi + 8.0 * self.bandwidth


def silverman_bandwidth(sample: Sample) -> float:
    """Normal-reference bandwidth 1.06 sigma n^(-1/5)."""
    sd = float(np.std(sample.observations, ddof=1))
    if sd == 0.0:
        raise ValueError("degenerate sample: zero variance")
    return 1.06 * sd * sample.n ** (-0.2)


def bandwidth_grid(sample: Sample) -> np.ndarray:
    """Log-spaced grid of 40 bandwidths over [0.05, 5] times the
    normal-reference value."""
    h0 = silverman_bandwidth(sample)
    lo, hi = _GRID_SPAN
    return h0 * np.logspace(math.log10(lo), math.log10(hi), _GRID_SIZE)


def _pairwise_sq_diffs(x: np.ndarray) -> np.ndarray:
    """Squared differences over the strict upper triangle, flattened."""
    d = x[:, None] - x[None, :]
    return (d * d)[np.triu_indices(len(x), k=1)]


def _lscv_from_sq_diffs(d2: np.ndarray, n: int, h: float) -> float:
    # integral(fhat^2): pairwise Gaussian kernel at scale sqrt(2) h, i.e.
    # exp(-d^2/4h^2); the leave-one-out sum needs the kernel at scale h,
    # which is the square of the same exponential.
    e = np.exp(-d2 / (4.0 * h * h))
    quad = (n + 2.0 * float(np.sum(e))) / (n * n * 2.0 * h * math.sqrt(math.pi))
    loo = 4.0 * float(np.sum(e * e)) / (n * (n - 1) * h * _SQRT_2PI)
    return quad - loo


def lscv_score(sample: Sample, h: float) -> float:
    """Least-squares cross-validation score at bandwidth ``h`` (O(n^2))."""
    if h <= 0:
        raise ValueError("bandwidth must be positive")
    x = sample.observations
    return _lscv_from_sq_diffs(_pairwise_sq_diffs(x), sample.n, h)


def fit_kernel(sample: Sample) -> KernelEstimate:
    """Select the bandwidth minimizing the cross-validation score over the
    fixed grid; on exact ties the larger bandwidth wins.  A non-finite
    score (the data span overflows float64) raises ``ValueError``."""
    with np.errstate(over="ignore", invalid="ignore"):
        hs = bandwidth_grid(sample)
        d2 = _pairwise_sq_diffs(sample.observations)
        scores = np.array([_lscv_from_sq_diffs(d2, sample.n, h) for h in hs])
    if not np.all(np.isfinite(scores)):
        raise ValueError("cross-validation score is not finite; the data "
                         "span overflows float64 arithmetic")
    best = len(scores) - 1 - int(np.argmin(scores[::-1]))
    return KernelEstimate(sample=sample, bandwidth=float(hs[best]),
                          cv_scores=tuple(zip(map(float, hs), map(float, scores))))


def eval_kernel(estimate: KernelEstimate, grid) -> np.ndarray:
    """Gaussian kernel density values on ``grid``; nonnegative everywhere
    and of unit mass up to the far-tail truncation.

    Per grid chunk only the observations within 40 bandwidths contribute;
    beyond that the kernel underflows to an exact float zero, so the
    windowing changes nothing but the cost on wide grids.
    """
    x = estimate.sample.observations  # sorted
    h = estimate.bandwidth
    pts = np.atleast_1d(np.asarray(grid, dtype=float))
    out = np.zeros_like(pts)
    norm = 1.0 / (estimate.sample.n * h * _SQRT_2PI)
    reach = 40.0 * h
    for start in range(0, len(pts), _EVAL_CHUNK):
        chunk = pts[start:start + _EVAL_CHUNK]
        i0 = int(np.searchsorted(x, np.min(chunk) - reach))
        i1 = int(np.searchsorted(x, np.max(chunk) + reach))
        if i0 == i1:
            continue
        z = (chunk[:, None] - x[None, i0:i1]) / h
        out[start:start + _EVAL_CHUNK] = norm * np.sum(np.exp(-0.5 * z * z), axis=1)
    return out
