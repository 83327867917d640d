"""Biorthogonal wavelet families with a piecewise-constant analysis side.

Two families are provided.  The Haar family is self-dual: analysis and
synthesis functions coincide and are exact step functions.  The "spline"
family keeps the box scaling function and a piecewise-constant mother
wavelet on the analysis side, while the synthesis scaling function and
wavelet are smooth, compactly supported functions tabulated on a dyadic
grid by the cascade (refinement-iteration) algorithm.

Index convention: level ``j = -1`` denotes the father-wavelet row, i.e.
translates of the scaling function ``phi`` without dyadic rescaling.
Levels ``j >= 0`` are the usual dyadic dilations ``2**(j/2) * f(2**j x - k)``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Union

import numpy as np

__all__ = [
    "StepFunction",
    "TabulatedFunction",
    "BiorthogonalBasis",
    "CoefficientIndex",
    "CascadeError",
    "BASES",
    "haar_basis",
    "spline_basis",
    "eval_decomposition",
    "eval_reconstruction",
    "level_function",
    "sup_norm",
]

# Dual low-pass filter of the spline pair, taps at integer shifts -2..3.
# The analysis wavelet is derived from it by the alternating-flip relation
# g_k = (-1)^k h~_{1-k}; the synthesis wavelet combines two half-shifts of
# the tabulated synthesis scaling function.
_DUAL_LOWPASS = np.array([-1 / 16, 1 / 16, 1 / 2, 1 / 2, 1 / 16, -1 / 16])
_DUAL_OFFSET = -2
# the spline pair's synthesis functions are tabulated at step 2**-12
_GRID_EXPONENT = 12


class CascadeError(RuntimeError):
    """Raised when the refinement iteration fails to reach its fixed point."""


class CoefficientIndex(NamedTuple):
    """Dyadic cell index; ``j = -1`` is the father-wavelet row."""

    j: int
    k: int


@dataclass(frozen=True, eq=False)
class StepFunction:
    """Compactly supported piecewise-constant function.

    ``values[i]`` holds on ``[breakpoints[i], breakpoints[i+1])``; the last
    piece is closed on the right.  The function is zero outside
    ``[breakpoints[0], breakpoints[-1]]``.  The breakpoints lie on one
    power-of-two lattice: breakpoint ``i`` is ``(first + i) * 2**-m`` for
    integers ``first`` and ``m``, so a piece is found without a search.
    """

    breakpoints: np.ndarray
    values: np.ndarray
    # (lo, hi, scale, first): the piece holding x is
    # floor(clip(x, lo, hi) * scale) - first, with scale = 2^m
    _lattice: tuple = field(init=False, repr=False)
    _sup_norm: float = field(init=False, repr=False)

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if bp.ndim != 1 or vals.ndim != 1 or len(vals) != len(bp) - 1:
            raise ValueError("need len(values) == len(breakpoints) - 1")
        if not np.all(np.diff(bp) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        mantissa, exponent = math.frexp(float(bp[1] - bp[0]))
        scale = math.ldexp(1.0, 1 - exponent)
        index = bp * scale
        if mantissa != 0.5 or not np.array_equal(
                index, np.floor(index[0]) + np.arange(len(bp))):
            raise ValueError("breakpoints must be the multiples of one "
                             "power of two, evenly spaced by it")
        bp.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_lattice", (float(bp[0]), float(bp[-2]),
                                              scale, float(index[0])))
        object.__setattr__(self, "_sup_norm", float(np.max(np.abs(vals))))

    @property
    def support(self) -> tuple[float, float]:
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    @property
    def sup_norm(self) -> float:
        return self._sup_norm

    def pieces(self, x, out=None):
        """The value of the piece holding each point, elementwise; a point
        outside the support gets its nearer end piece's value.  ``out``, a
        float array of x's shape and possibly ``x`` itself, receives the
        values; only the piece index is a new array then.

        The points are clipped to the first and last piece's left ends, so
        the product by 2^m is exact and fmin/fmax send NaN to the first
        piece without a warning."""
        lo, hi, scale, first = self._lattice
        if out is None:
            out = np.empty(np.shape(x))
        t = np.fmin(np.fmax(x, lo, out=out), hi, out=out)
        if scale < 1.0:
            # pieces wider than 1: floor first, so that a tiny negative t
            # cannot round to -0.0 when scaled; floor(floor(t) / 2^-m) is
            # floor(t / 2^-m)
            np.floor(t, out=t)
        np.floor(np.multiply(t, scale, out=t), out=t)
        index = np.subtract(t, first, out=t).astype(np.intp)
        return np.take(self.values, index, out=out)

    def eval(self, x):
        """Exact lookup, elementwise; NaN at a NaN point."""
        xv = np.asarray(x, dtype=float)
        return np.where(
            (xv >= self.breakpoints[0]) & (xv <= self.breakpoints[-1]),
            self.pieces(xv),
            np.where(np.isnan(xv), np.nan, 0.0),
        )

    def moment(self, m: int) -> float:
        """Exact ``integral of x**m`` against the step function.

        Closed-form polynomial integration over the pieces, no quadrature.
        """
        bp = self.breakpoints
        powers = bp ** (m + 1)
        return float(np.sum(self.values * np.diff(powers)) / (m + 1))


@dataclass(frozen=True, eq=False)
class TabulatedFunction:
    """Function tabulated on a dyadic grid, linear between nodes, 0 outside.

    ``samples[i]`` is the value at ``lo + i * 2**-grid_exponent``; ``lo``
    and ``hi`` are multiples of that step, so the grid covers ``[lo, hi]``
    exactly.  A lookup whose points are all nodes reads their samples by
    index; any other lookup is one ``np.interp``.
    """

    lo: float
    hi: float
    grid_exponent: int
    samples: np.ndarray
    _grid: np.ndarray = field(init=False, repr=False)
    # (first, last, scale): x is node i iff t = x * scale is an integer
    # in [first, last], with scale = 2^grid_exponent; then i = t - first
    _nodes: tuple = field(init=False, repr=False)

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        scale = math.ldexp(1.0, self.grid_exponent)
        first, last = self.lo * scale, self.hi * scale
        if first != math.floor(first) or last != math.floor(last):
            raise ValueError(f"lo and hi must be multiples of the step "
                             f"2^-{self.grid_exponent}")
        npts = round(last - first) + 1
        if len(samples) != npts:
            raise ValueError(
                f"expected {npts} samples covering [{self.lo}, {self.hi}] "
                f"at step 2^-{self.grid_exponent}, got {len(samples)}"
            )
        samples.setflags(write=False)
        grid = self.lo + np.arange(npts) / scale
        grid.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "_grid", grid)
        object.__setattr__(self, "_nodes", (first, last, scale))

    @property
    def support(self) -> tuple[float, float]:
        return float(self.lo), float(self.hi)

    def eval(self, x):
        """Linear interpolation, elementwise; the first and last nodes are
        ``lo`` and ``hi``, so a finite point outside them gives 0.

        At a node, ``np.interp`` returns the node's own sample, so when
        every point is a node the samples are read by index instead, with
        ``np.interp``'s output shape and type.  The first point is tested
        alone first, so points off the nodes pay O(1) before they are
        interpolated.  ``x * 2^grid_exponent`` is exact, and NaN and
        infinite points fail the test."""
        xv = np.asarray(x, dtype=float)
        first, last, scale = self._nodes
        if xv.size:
            t0 = float(xv.flat[0]) * scale
            if first <= t0 <= last and t0 == math.floor(t0):
                t = xv * scale
                whole = np.floor(t)
                if ((whole == t).all() and whole.min() >= first
                        and whole.max() <= last):
                    return self.samples[(whole - first).astype(np.intp)]
        return np.interp(xv, self._grid, self.samples, left=0.0, right=0.0)


ReconstructionFunction = Union[StepFunction, TabulatedFunction]


@dataclass(frozen=True)
class BiorthogonalBasis:
    """The four-function family: analysis pair (phi, psi), synthesis pair
    (phi_tilde, psi_tilde), plus the vanishing-moment order parameter ``r``.

    Immutable after construction; safe to share.
    """

    name: str
    phi: StepFunction
    psi: StepFunction
    phi_tilde: ReconstructionFunction
    psi_tilde: ReconstructionFunction
    r: float


@functools.lru_cache(maxsize=1)
def haar_basis() -> BiorthogonalBasis:
    """Self-dual Haar family: box scaling function and square-wave wavelet.
    One shared instance, so configs naming it can share a level scan."""
    phi = StepFunction(np.array([0.0, 1.0]), np.array([1.0]))
    psi = StepFunction(np.array([0.0, 0.5, 1.0]), np.array([1.0, -1.0]))
    # The dual side reuses the exact step functions so that reconstruction
    # evaluation is bitwise identical to decomposition evaluation.
    return BiorthogonalBasis(name="haar", phi=phi, psi=psi,
                             phi_tilde=phi, psi_tilde=psi, r=0.0)


def _analysis_wavelet() -> StepFunction:
    """Analysis wavelet of the spline pair: 2*g_k on half-integer cells."""
    taps = _DUAL_LOWPASS
    ks = np.arange(len(taps)) + _DUAL_OFFSET          # filter tap positions
    # g_k = (-1)^k h~_{1-k}; tap position m = 1 - k runs over ks reversed.
    g_positions = 1 - ks[::-1]
    g_values = ((-1.0) ** g_positions) * taps[::-1]
    breakpoints = np.concatenate([g_positions, [g_positions[-1] + 1]]) / 2.0
    return StepFunction(breakpoints, 2.0 * g_values)


def _cascade_samples(taps, grid_exponent, tol, max_iter):
    """Fixed-grid refinement iteration for the scaling function samples.

    Starts from a hat function (partition of unity) and iterates
    ``v(x) <- 2 * sum_k h_k v(2x - k)`` on the dyadic grid until successive
    sup-norm differences fall below ``tol``.  Sample i sits at node
    ``i * 2**-grid_exponent`` past the first tap's position, which the
    iteration itself never reads.
    """
    scale = 1 << grid_exponent
    span = (len(taps) - 1) * scale       # grid intervals under the support
    x = np.arange(span + 1) / scale
    v = np.maximum(0.0, 1.0 - np.abs(x - 0.5 * (len(taps) - 1)))
    # Node i of v(2x - k) is node 2i - t * scale of v, t the tap index of k:
    # a stride-2 slice of v laid in zeros, ``span`` nodes of them each side.
    padded = np.zeros(3 * span + 1)
    for _ in range(max_iter):
        padded[span:2 * span + 1] = v
        w = np.zeros_like(v)
        for t, h in enumerate(taps):
            start = span - t * scale
            w += 2.0 * h * padded[start:start + 2 * span + 1:2]
        delta = float(np.max(np.abs(w - v)))
        v = w
        if delta < tol:
            return v
    raise CascadeError(
        f"refinement iteration did not reach sup-norm tolerance {tol} "
        f"within {max_iter} iterations (bad filter?)"
    )


@functools.lru_cache(maxsize=1)
def spline_basis() -> BiorthogonalBasis:
    """The spline biorthogonal pair.  One shared instance, so configs
    naming it can share a level scan.

    Analysis side: box scaling function and the exact piecewise-constant
    wavelet derived from the dual low-pass filter.  Synthesis side: scaling
    function obtained by the cascade algorithm on the ``2**-12`` dyadic
    grid, and the synthesis wavelet assembled from two half-shifts of it.

    Raises
    ------
    CascadeError
        If the refinement iteration does not reach a sup-norm step of
        1e-10 within 60 iterations, which signals a bad filter.
    """
    phi = StepFunction(np.array([0.0, 1.0]), np.array([1.0]))
    psi = _analysis_wavelet()

    phit_lo = _DUAL_OFFSET
    phit_hi = _DUAL_OFFSET + len(_DUAL_LOWPASS) - 1
    phit_samples = _cascade_samples(_DUAL_LOWPASS, _GRID_EXPONENT, 1e-10, 60)
    phi_tilde = TabulatedFunction(float(phit_lo), float(phit_hi),
                                  _GRID_EXPONENT, phit_samples)

    # psi~(x) = phi~(2x) - phi~(2x - 1), supported on [lo/2, (hi+1)/2];
    # both arguments land on phi~ nodes, where the lookup returns the
    # node's own sample, so the tabulation is exact.
    psit_lo = phit_lo / 2.0
    psit_hi = (phit_hi + 1) / 2.0
    scale = 1 << _GRID_EXPONENT
    x = psit_lo + np.arange(round((psit_hi - psit_lo) * scale) + 1) / scale
    psi_tilde = TabulatedFunction(
        psit_lo, psit_hi, _GRID_EXPONENT,
        phi_tilde.eval(2.0 * x) - phi_tilde.eval(2.0 * x - 1.0))

    # r records the vanishing-moment order of the analysis wavelet minus
    # one: psi is orthogonal to polynomials of degree <= r (checked in the
    # test suite by exact piecewise integration).
    return BiorthogonalBasis(name="spline", phi=phi, psi=psi,
                             phi_tilde=phi_tilde, psi_tilde=psi_tilde, r=2.0)


# each basis's name and the function that builds it
BASES = {"haar": haar_basis, "spline": spline_basis}


def basis_by_name(name: str) -> BiorthogonalBasis:
    if name not in BASES:
        raise ValueError(f"unknown basis {name!r}; expected "
                         + " or ".join(map(repr, BASES)))
    return BASES[name]()


def level_function(basis: BiorthogonalBasis, j: int, *,
                   synthesis: bool = False) -> tuple:
    """``(f, amp, scale)`` with ``f_jk(x) = amp * f(scale * x - k)`` at level
    ``j``: ``(phi, 1.0, 1.0)`` for the father row ``j = -1``, else
    ``(psi, 2**(j/2), 2**j)``; the dual functions when ``synthesis``."""
    if j < -1:
        raise ValueError(f"level must be >= -1, got {j}")
    if j == -1:
        return (basis.phi_tilde if synthesis else basis.phi), 1.0, 1.0
    return ((basis.psi_tilde if synthesis else basis.psi),
            2.0 ** (j / 2.0), 2.0 ** j)


def eval_decomposition(basis: BiorthogonalBasis, idx, x):
    """Analysis-side evaluation: ``phi(x - k)`` at level -1, else
    ``2**(j/2) * psi(2**j x - k)``, exactly, and NaN at a NaN point.

    The piece comes from the integer bin ``B = floor(2^(j+m) x)`` of the
    function's pieces of width 2^-m, as in the level scan: x lies in piece
    ``B - 2^m k - first`` when that is a piece, and a point on its bin's
    left end also meets the closed right end of the last piece.  The
    float ``2**j x - k`` is never formed, so no rounding moves x onto
    another piece or a closed end.  ``2^(j+m) x`` and the bin are exact
    while they stay below 2^53, as the scan's guard keeps them."""
    j, k = idx
    fn, amp, scale = level_function(basis, j)
    _, _, per, first = fn._lattice  # per = 2^m
    if per < 1.0:
        raise ValueError("exact evaluation needs an analysis function with "
                         "pieces of width 1 or less")
    xv = np.asarray(x, dtype=float)
    y = xv * (scale * per)
    bins = np.floor(y)
    pieces = len(fn.values)
    piece = bins - (per * k + first)
    piece = piece - ((y == bins) & (piece == pieces))  # the closed end
    inside = (piece >= 0) & (piece < pieces)
    values = fn.values[np.where(inside, piece, 0).astype(np.intp)]
    out = amp * np.where(inside, values, np.where(np.isnan(xv), np.nan, 0.0))
    return float(out) if xv.ndim == 0 else out


def eval_reconstruction(basis: BiorthogonalBasis, idx, x):
    """Synthesis-side evaluation via the dual functions (tabulated lookup
    with linear interpolation for the spline pair, exact for Haar)."""
    j, k = idx
    fn, amp, scale = level_function(basis, j, synthesis=True)
    xv = np.asarray(x, dtype=float)
    out = amp * fn.eval(scale * xv - k)
    return float(out) if xv.ndim == 0 else out


def sup_norm(basis: BiorthogonalBasis, idx) -> float:
    """Sup norm of the analysis function at this index: ``2**(j/2) * ||psi||``
    for levels >= 0, ``||phi||`` for the father row.  Exact from step values."""
    fn, amp, _ = level_function(basis, idx[0])
    return amp * fn.sup_norm


def reconstruction_support(basis: BiorthogonalBasis, idx) -> tuple[float, float]:
    """Closed support of the synthesis function at this index; with an
    integer array of translates ``k``, both ends are arrays."""
    j, k = idx
    fn, _, scale = level_function(basis, j, synthesis=True)
    a, b = fn.support
    return (a + k) / scale, (b + k) / scale
