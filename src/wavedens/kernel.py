"""Gaussian kernel density baseline with a cross-validated global bandwidth.

Least-squares cross-validation: the score
``integral(fhat^2) - (2/n) sum_i fhat_{-i}(X_i)`` has a closed form for the
Gaussian kernel (pairwise kernel evaluations at scale sqrt(2) h and h), so
no numerical integration is needed.  The bandwidth minimizing the score
over a fixed log-spaced grid around the normal-reference value is selected,
ties broken toward the larger bandwidth.

Both passes skip work whose result is zero.  The sample is sorted, so the
pairs of the score are walked in blocks of rows, and each bandwidth reads
only the columns whose kernel term does not underflow to an exact 0.0;
no n-by-n array is built.  The fitted density sums, at each point, only
the observations within ``_REACH`` bandwidths, so it is exactly 0 outside
``support_hull()``; each term it drops is below exp(-_REACH^2 / 2) times
the kernel's peak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimator import Sample

__all__ = ["KernelEstimate", "fit_kernel", "eval_kernel",
           "silverman_bandwidth", "bandwidth_grid"]

_GRID_SIZE = 40
_GRID_SPAN = (0.05, 5.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# Evaluation window and hull half-width in bandwidths.  A power of two, so
# that _REACH * h is exact and every point beyond the hull lies at least
# _REACH bandwidths from every observation in floating point too.
_REACH = 8.0
# Grid points per evaluation chunk: the chunk's window stays in cache.
_EVAL_CHUNK = 256
# Sample rows per block of the cross-validation pairs.
_LSCV_BLOCK = 32
# exp(-q) rounds to exactly 0.0 for every q past this bound.
_EXP_UNDERFLOW = 745.2


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
        """Interval outside which the estimate is exactly zero."""
        lo, hi = self.sample.data_range
        return lo - _REACH * self.bandwidth, hi + _REACH * self.bandwidth

    @property
    def at_grid_edge(self) -> bool:
        """True when the selected bandwidth is the smallest or the largest
        one searched, so the score's minimum may lie outside the grid."""
        return self.bandwidth in (self.cv_scores[0][0], self.cv_scores[-1][0])


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


def _lscv_scores(x: np.ndarray, hs: np.ndarray) -> np.ndarray:
    """Cross-validation scores of the sorted sample ``x`` at each
    bandwidth of ``hs``, from the pairs i < j in blocks of rows."""
    n = len(x)
    four_h2 = 4.0 * hs * hs
    s1 = np.zeros(len(hs))  # sum over pairs of exp(-d^2/4h^2)
    s2 = np.zeros(len(hs))  # sum over pairs of its square, exp(-d^2/2h^2)
    reach = 2.0 * hs * math.sqrt(_EXP_UNDERFLOW)
    buf = np.empty(_LSCV_BLOCK * n)
    for r0 in range(0, n - 1, _LSCV_BLOCK):
        r1 = min(r0 + _LSCV_BLOCK, n - 1)
        # columns past ends[k] are out of reach of every row of the block
        ends = np.searchsorted(x, x[r1 - 1] + reach, side="right") - (r0 + 1)
        d2 = x[r0:r1, None] - x[None, r0 + 1:r0 + 1 + ends[-1]]
        d2 *= d2
        diag = d2[:, :r1 - r0]  # column c is j = r0 + 1 + c; keep j > i
        diag[np.tri(*diag.shape, k=-1, dtype=bool)] = np.inf
        for k, m in enumerate(ends):
            # integral(fhat^2): pairwise Gaussian kernel at scale sqrt(2) h,
            # i.e. exp(-d^2/4h^2); the leave-one-out sum needs the kernel at
            # scale h, which is the square of the same exponential.
            e = buf[:(r1 - r0) * m].reshape(r1 - r0, m)
            np.divide(d2[:, :m], -four_h2[k], out=e)
            np.exp(e, out=e)
            s1[k] += np.sum(e)
            e *= e
            s2[k] += np.sum(e)
    quad = (n + 2.0 * s1) / (n * n * 2.0 * hs * math.sqrt(math.pi))
    loo = 4.0 * s2 / (n * (n - 1) * hs * _SQRT_2PI)
    return quad - loo


def fit_kernel(sample: Sample) -> KernelEstimate:
    """Select the bandwidth minimizing the cross-validation score over the
    fixed grid; on exact ties the larger bandwidth wins.  A non-finite
    score (the data span overflows float64) raises ``ValueError``."""
    with np.errstate(over="ignore", invalid="ignore"):
        hs = bandwidth_grid(sample)
        scores = _lscv_scores(sample.observations, hs)
    if not np.all(np.isfinite(scores)):
        raise ValueError("cross-validation score is not finite; the data "
                         "span overflows float64 arithmetic")
    best = len(scores) - 1 - int(np.argmin(scores[::-1]))
    return KernelEstimate(sample=sample, bandwidth=float(hs[best]),
                          cv_scores=tuple(zip(map(float, hs), map(float, scores))))


def eval_kernel(estimate: KernelEstimate, grid) -> np.ndarray:
    """Gaussian kernel density values on ``grid``; nonnegative everywhere
    and of unit mass up to the truncation at ``_REACH`` bandwidths.

    Each point sums only the observations closer than ``_REACH``
    bandwidths, whatever else the grid holds, so the values are exactly 0
    outside ``support_hull()``.
    """
    x = estimate.sample.observations  # sorted
    h = estimate.bandwidth
    pts = np.atleast_1d(np.asarray(grid, dtype=float))
    out = np.zeros_like(pts)
    norm = 1.0 / (estimate.sample.n * h * _SQRT_2PI)
    reach = _REACH * h
    for start in range(0, len(pts), _EVAL_CHUNK):
        chunk = pts[start:start + _EVAL_CHUNK]
        i0 = int(np.searchsorted(x, np.min(chunk) - reach, side="left"))
        i1 = int(np.searchsorted(x, np.max(chunk) + reach, side="right"))
        z = (chunk[:, None] - x[None, i0:i1]) / h
        z *= z
        near = z < _REACH * _REACH
        z *= -0.5
        np.exp(z, out=z)
        z *= near
        out[start:start + _EVAL_CHUNK] = norm * np.sum(z, axis=1)
    return out
