"""Gaussian kernel density baseline with a cross-validated global bandwidth.

Least-squares cross-validation: the score
``integral(fhat^2) - (2/n) sum_i fhat_{-i}(X_i)`` has a closed form for the
Gaussian kernel (pairwise kernel evaluations at scale sqrt(2) h and h), so
no numerical integration is needed.  The bandwidth minimizing the score
over a fixed log-spaced grid around the normal-reference value is selected,
ties broken toward the larger bandwidth.

Both passes skip work that cannot change their results.  The sample is
sorted, so the score walks its pairs in blocks of rows and leaves out the
far pairs, whose terms add up to under an ulp; no n-by-n array is built.
The fitted density sums, at each point, only the observations within
``_REACH`` bandwidths, so it is exactly 0 outside ``support_hull()``; each
term it drops is below exp(-_REACH^2 / 2) times the kernel's peak.

Against a mixture of normals the estimate scores itself in closed form
(``KernelEstimate.exact_ise``), from integral(fhat^2), which the score
computes anyway, and one pass over the sample per component, so the ISE
needs no evaluation on a grid.

The blocks of the score and the chunks of the evaluation are independent,
so they run on up to min(2, usable CPUs) threads: the caller's and one
of a thread pool created for the call and shut down before it returns,
both in the caller's numpy error state (a context variable from numpy 2
on).  Each thread claims the next unclaimed block or chunk, so the
threads finish together although the blocks shrink along the sample.
The block sums are added in block order and each chunk writes only its
own values, so scores, bandwidths and densities do not depend on the
thread count.
"""

from __future__ import annotations

import contextvars
import math
import os
from dataclasses import dataclass

import numpy as np

from .estimator import Sample, eval_ascending

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
# Rows per block of the cross-validation pairs, for at most about
# _LSCV_PAIRS pairs: a block's two buffers stay in a core's cache.
_LSCV_BLOCK = 128
_LSCV_PAIRS = 2 ** 18
# The score leaves out only pairs past d^2/4h^2 = ln n + _LSCV_CUT.
_LSCV_CUT = 37.0
# The closed-form ISE stands only above this many times its rounding bound
# eps (F + 2 G + Q): its terms F, G and Q, each off by a few ulps, then put
# a relative error under a few times 2^-30 on it.
_EXACT_MARGIN = 2.0 ** 30
_EPS = float(np.finfo(float).eps)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# Threads per parallel loop, the caller's included: the count whose gain
# and memory were measured.
_WORKERS = min(2, _usable_cpus())


def _in_parallel(fn, items) -> list:
    """``[fn(i) for i in items]``, in item order.  Each worker claims the
    next unclaimed item until none is left; the caller is one worker, and
    the others run on a pool created here, each in a copy of the caller's
    context, so the caller's ``np.errstate`` holds there too.  The pool is
    shut down before this returns, and an error in a worker is raised
    here."""
    items = list(items)
    w = min(_WORKERS, len(items))
    if w < 2:
        return [fn(i) for i in items]

    # imported here: the pool module loads logging, and only a parallel
    # call needs it
    import threading
    from concurrent.futures import ThreadPoolExecutor

    out = [None] * len(items)
    claims = iter(range(len(items)))
    lock = threading.Lock()

    def work():
        while True:
            with lock:
                k = next(claims, None)
            if k is None:
                return
            out[k] = fn(items[k])

    with ThreadPoolExecutor(w - 1) as pool:
        others = [pool.submit(contextvars.copy_context().run, work)
                  for _ in range(1, w)]
        work()
        for done in others:
            done.result()
    return out


@dataclass(frozen=True)
class KernelEstimate:
    """Fitted kernel density: data, selected bandwidth, the full
    cross-validation trace over the searched grid and integral(fhat^2)."""

    sample: Sample
    bandwidth: float
    cv_scores: tuple  # ((bandwidth, score), ...) over the whole grid
    sq_integral: float  # integral(fhat^2), the score's quadratic term

    def evaluate(self, grid) -> np.ndarray:
        return eval_kernel(self, grid)

    def exact_ise(self, signal) -> float | None:
        """Closed-form integral((f - fhat)^2) against a mixture of normals:
        F - 2 G + Q with F = integral f^2, G = integral f fhat and
        Q = ``sq_integral``, each a sum of Gaussian convolutions,
        integral N(a, s^2) N(b, t^2) = phi(a - b; s^2 + t^2).  None when
        ``signal.normal_components`` is None, or when the value is not
        above ``_EXACT_MARGIN`` times its rounding bound eps (F + 2 G + Q),
        so that cancellation cannot have eaten it.  ``evaluate``'s window
        is not applied; each term it drops is below exp(-_REACH^2 / 2)
        times the kernel's peak."""
        comps = signal.normal_components
        if comps is None:
            return None
        x = self.sample.observations
        h2 = self.bandwidth * self.bandwidth
        ff = sum(wa * wb * _normal_pdf(ma - mb, sa * sa + sb * sb)
                 for wa, ma, sa in comps for wb, mb, sb in comps)
        ffhat = sum(w * float(np.mean(_normal_pdf(x - m, s * s + h2)))
                    for w, m, s in comps)
        value = ff - 2.0 * ffhat + self.sq_integral
        bound = _EPS * (ff + 2.0 * ffhat + self.sq_integral)
        return float(value) if value > _EXACT_MARGIN * bound else None

    def support_hull(self) -> tuple[float, float]:
        """Interval outside which the estimate is exactly zero."""
        lo, hi = self.sample.data_range
        return lo - _REACH * self.bandwidth, hi + _REACH * self.bandwidth

    @property
    def at_grid_edge(self) -> bool:
        """True when the selected bandwidth is the smallest or the largest
        one searched, so the score's minimum may lie outside the grid."""
        return self.bandwidth in (self.cv_scores[0][0], self.cv_scores[-1][0])


def _normal_pdf(d, var):
    """The N(0, var) density at ``d``."""
    return np.exp(-0.5 * d * d / var) / math.sqrt(2.0 * math.pi * var)


def silverman_bandwidth(sample: Sample) -> float:
    """Normal-reference bandwidth 1.06 sigma n^(-1/5)."""
    sd = float(np.std(sample.observations, ddof=1))
    if sd == 0.0:
        raise ValueError("degenerate sample: " + (
            "zero variance" if np.ptp(sample.observations) == 0.0 else
            "spread too small for a float64 variance"))
    return 1.06 * sd * sample.n ** (-0.2)


def bandwidth_grid(sample: Sample) -> np.ndarray:
    """Log-spaced grid of 40 bandwidths over [0.05, 5] times the
    normal-reference value."""
    h0 = silverman_bandwidth(sample)
    lo, hi = _GRID_SPAN
    return h0 * np.logspace(math.log10(lo), math.log10(hi), _GRID_SIZE)


def _lscv_scores(x: np.ndarray, hs: np.ndarray) -> tuple:
    """Cross-validation scores of the sorted sample ``x`` at each
    bandwidth of ``hs``, and their quadratic terms integral(fhat^2), from
    the pairs i < j in blocks of rows, each bandwidth one pass over a
    prefix of the block's squared differences.

    A pair is left out at bandwidth h only when d^2/4h^2 > q = ln n + 37,
    so at most n(n-1)/2 terms below exp(-q) < 2^-53 / n (and their squares
    in s2) move the numerator n + 2 s1 of ``quad``, by under n 2^-53.
    """
    n = len(x)
    reach = 2.0 * hs * math.sqrt(math.log(n) + _LSCV_CUT)
    scale = -0.25 / (hs * hs)  # exp(-d^2/4h^2) = exp(d^2 * scale)
    step = max(1, min(_LSCV_BLOCK, _LSCV_PAIRS // n))

    def block(r0):
        """Row 0 sums exp(-d^2/4h^2) over the block's pairs at each
        bandwidth, row 1 its square exp(-d^2/2h^2)."""
        r1 = min(r0 + step, n - 1)
        # pairs j > i of rows i in [r0, r1): those with j <= r1, then each
        # later column; columns from stops[k] on are out of reach at h_k
        i, j = np.triu_indices(r1 - r0)
        stops = np.searchsorted(x, x[r1 - 1] + reach, side="right")
        d2 = np.concatenate([x[r0 + 1 + j] - x[r0 + i],
                             (x[r1 + 1:stops[-1], None] - x[r0:r1]).ravel()])
        d2 *= d2
        ends = len(i) + (r1 - r0) * np.maximum(stops - (r1 + 1), 0)
        work = np.empty_like(d2)  # one buffer for every bandwidth
        sums = np.empty((2, len(hs)))
        for k, end in enumerate(ends.tolist()):
            e = work[:end]
            np.multiply(d2[:end], scale[k], out=e)
            np.exp(e, out=e)
            sums[0, k] = e.sum()
            e *= e
            sums[1, k] = e.sum()
        return sums

    # the block sums, added in block order as a serial scan would add them
    s1, s2 = sum(_in_parallel(block, range(0, n - 1, step)))
    quad = (n + 2.0 * s1) / (n * n * 2.0 * hs * math.sqrt(math.pi))
    loo = 4.0 * s2 / (n * (n - 1) * hs * _SQRT_2PI)
    return quad - loo, quad


def fit_kernel(sample: Sample) -> KernelEstimate:
    """Select the bandwidth minimizing the cross-validation score over the
    fixed grid; on exact ties the larger bandwidth wins.  A non-finite
    score (the data span overflows float64) raises ``ValueError``."""
    with np.errstate(over="ignore", invalid="ignore"):
        hs = bandwidth_grid(sample)
        scores, quad = _lscv_scores(sample.observations, hs)
    if not np.all(np.isfinite(scores)):
        raise ValueError("cross-validation score is not finite; the data "
                         "span overflows float64 arithmetic")
    best = len(scores) - 1 - int(np.argmin(scores[::-1]))
    return KernelEstimate(sample=sample, bandwidth=float(hs[best]),
                          cv_scores=tuple(zip(map(float, hs), map(float, scores))),
                          sq_integral=float(quad[best]))


def eval_kernel(estimate: KernelEstimate, grid) -> np.ndarray:
    """Gaussian kernel density values on ``grid``; nonnegative everywhere
    and of unit mass up to the truncation at ``_REACH`` bandwidths.

    Each point sums only the observations closer than ``_REACH``
    bandwidths, whatever else the grid holds, so the values are exactly 0
    outside ``support_hull()``, and NaN at a NaN point.  The points are
    walked in ascending order, whatever the grid's order, so each chunk's
    window stays narrow.
    """
    x = estimate.sample.observations  # sorted
    h = estimate.bandwidth
    norm = 1.0 / (estimate.sample.n * h * _SQRT_2PI)
    reach = _REACH * h

    def density(pts):
        out = np.zeros_like(pts)
        # each chunk's window of observations; a chunk whose window is
        # empty keeps its +0.0
        starts = np.arange(0, len(pts), _EVAL_CHUNK)
        lasts = np.minimum(starts + _EVAL_CHUNK, len(pts)) - 1
        i0 = np.searchsorted(x, pts[starts] - reach, side="left")
        i1 = np.searchsorted(x, pts[lasts] + reach, side="right")
        busy = i0 < i1

        def chunk_at(window):
            start, i0, i1 = window
            chunk = pts[start:start + _EVAL_CHUNK]
            z = np.subtract.outer(chunk, x[i0:i1])
            z /= h
            z *= z
            far = z >= _REACH * _REACH
            z *= -0.5
            np.exp(z, out=z)
            np.putmask(z, far, 0.0)
            out[start:start + _EVAL_CHUNK] = norm * np.sum(z, axis=1)

        _in_parallel(chunk_at, zip(starts[busy].tolist(), i0[busy].tolist(),
                                   i1[busy].tolist()))
        return out

    return eval_ascending(density, grid)
