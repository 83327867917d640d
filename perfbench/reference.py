"""Independent reference for the library's integrated squared error.

The reference integrates (f - fhat)^2 by the trapezoid rule on a fixed
2^-14 lattice over the estimate's hull widened by one unit, and adds the
squared density outside that interval by adaptive quadrature.  It shares
no grid logic with the library's ``ise``: only the signal's pdf and the
estimate's own ``evaluate`` are used.  A Gaussian kernel estimate against
an all-Gaussian mixture gets the exact closed form instead.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

REF_STEP = 2.0 ** -14
_CHUNK = 1 << 18  # lattice points per evaluation block; bounds memory


def reference_ise(est, signal) -> float:
    """Reference value of the ISE of ``est`` against ``signal``."""
    if hasattr(est, "bandwidth") and _gaussian_components(signal):
        return gaussian_kernel_ise(est, signal)
    return lattice_ise(est, signal)


def lattice_ise(est, signal) -> float:
    """Trapezoid on the 2^-14 lattice over the hull +-1, quadrature outside."""
    hull = est.support_hull()
    if hull is None:
        raise ValueError("estimate has an empty support")
    i_lo = math.floor((hull[0] - 1.0) / REF_STEP)
    i_hi = math.ceil((hull[1] + 1.0) / REF_STEP)
    total = 0.0
    for start in range(i_lo, i_hi + 1, _CHUNK):
        x = np.arange(start, min(start + _CHUNK, i_hi + 1)) * REF_STEP
        d = signal.pdf(x) - est.evaluate(x)
        sq = d * d
        if start == i_lo:
            sq[0] *= 0.5
        if x[-1] == i_hi * REF_STEP:
            sq[-1] *= 0.5
        total += float(np.sum(sq))
    lo, hi = i_lo * REF_STEP, i_hi * REF_STEP

    def f2(t):
        return float(signal.pdf(t)) ** 2

    outside = (quad(f2, -math.inf, lo, limit=200)[0]
               + quad(f2, hi, math.inf, limit=200)[0])
    return total * REF_STEP + outside


def _gaussian_components(signal):
    """(weight, mean, sd) triples when every mixture component is Gaussian."""
    comps = getattr(signal, "components", ())
    if not comps or not all(hasattr(c, "sigma") for c in comps):
        return None
    return [(float(w), c.mu, c.sigma) for w, c in zip(signal.weights, comps)]


def _normal_pdf(d, var):
    return np.exp(-0.5 * d * d / var) / np.sqrt(2.0 * np.pi * var)


def gaussian_kernel_ise(est, signal) -> float:
    """Closed-form ISE of a Gaussian kernel estimate against a Gaussian
    mixture: every term of int (f - fhat)^2 is a Gaussian convolution.
    The fine lattice would cost seconds per case on the wide gd(d)
    supports; this is exact and costs one n x n pass."""
    comps = _gaussian_components(signal)
    x = est.sample.observations
    h2 = est.bandwidth ** 2
    ff = sum(wa * wb * _normal_pdf(ma - mb, sa * sa + sb * sb)
             for wa, ma, sa in comps for wb, mb, sb in comps)
    fg = sum(w * float(np.mean(_normal_pdf(x - m, s * s + h2)))
             for w, m, s in comps)
    gg = float(np.mean(_normal_pdf(x[:, None] - x[None, :], 2.0 * h2)))
    return float(ff) - 2.0 * fg + gg


def relative_error(value: float, reference: float) -> float:
    return abs(value - reference) / reference
