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
from dataclasses import dataclass, field
from typing import NamedTuple, Union

import numpy as np

__all__ = [
    "StepFunction",
    "TabulatedFunction",
    "BiorthogonalBasis",
    "CoefficientIndex",
    "CascadeError",
    "haar_basis",
    "build_spline_basis",
    "spline_basis",
    "eval_decomposition",
    "eval_reconstruction",
    "level_function",
    "sup_norm",
    "support_interval",
]

DEFAULT_GRID_EXPONENT = 12

# Dual low-pass filter of the spline pair, taps at integer shifts -2..3.
# The analysis wavelet is derived from it by the alternating-flip relation
# g_k = (-1)^k h~_{1-k}; the synthesis wavelet combines two half-shifts of
# the tabulated synthesis scaling function.
_DUAL_LOWPASS = np.array([-1 / 16, 1 / 16, 1 / 2, 1 / 2, 1 / 16, -1 / 16])
_DUAL_OFFSET = -2
_PRIMAL_LOWPASS = np.array([1 / 2, 1 / 2])
_PRIMAL_OFFSET = 0


class CascadeError(RuntimeError):
    """Raised when the refinement iteration fails to reach its fixed point."""


class CoefficientIndex(NamedTuple):
    """Dyadic cell index; ``j = -1`` is the father-wavelet row."""

    j: int
    k: int


@dataclass(frozen=True)
class StepFunction:
    """Compactly supported piecewise-constant function.

    ``values[i]`` holds on ``[breakpoints[i], breakpoints[i+1])``; the last
    piece is closed on the right.  The function is zero outside
    ``[breakpoints[0], breakpoints[-1]]``.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if bp.ndim != 1 or vals.ndim != 1 or len(vals) != len(bp) - 1:
            raise ValueError("need len(values) == len(breakpoints) - 1")
        if not np.all(np.diff(bp) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        bp.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    @property
    def support(self) -> tuple[float, float]:
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def eval(self, x):
        """Exact lookup; scalar in, scalar out."""
        scalar = np.isscalar(x)
        xv = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.breakpoints, xv, side="right") - 1
        idx = np.clip(idx, 0, len(self.values) - 1)
        out = np.where(
            (xv >= self.breakpoints[0]) & (xv <= self.breakpoints[-1]),
            self.values[idx],
            0.0,
        )
        return float(out) if scalar else out

    def moment(self, m: int) -> float:
        """Exact ``integral of x**m`` against the step function.

        Closed-form polynomial integration over the pieces, no quadrature.
        """
        bp = self.breakpoints
        powers = bp ** (m + 1)
        return float(np.sum(self.values * np.diff(powers)) / (m + 1))


@dataclass(frozen=True)
class TabulatedFunction:
    """Function tabulated on a dyadic grid, linear between nodes, 0 outside.

    ``samples[i]`` is the value at ``lo + i * 2**-grid_exponent``; the grid
    covers ``[lo, hi]`` exactly.
    """

    lo: float
    hi: float
    grid_exponent: int
    samples: np.ndarray
    _grid: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        step = 2.0 ** -self.grid_exponent
        npts = round((self.hi - self.lo) / step) + 1
        if len(samples) != npts:
            raise ValueError(
                f"expected {npts} samples covering [{self.lo}, {self.hi}] "
                f"at step 2^-{self.grid_exponent}, got {len(samples)}"
            )
        samples.setflags(write=False)
        grid = self.lo + np.arange(npts) * step
        grid.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "_grid", grid)

    @property
    def support(self) -> tuple[float, float]:
        return float(self.lo), float(self.hi)

    @property
    def grid_step(self) -> float:
        return 2.0 ** -self.grid_exponent

    def eval(self, x):
        scalar = np.isscalar(x)
        xv = np.asarray(x, dtype=float)
        out = np.interp(xv, self._grid, self.samples, left=0.0, right=0.0)
        out = np.where((xv >= self.lo) & (xv <= self.hi), out, 0.0)
        return float(out) if scalar else out


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


def _cascade_samples(taps, offset, grid_exponent, tol, max_iter):
    """Fixed-grid refinement iteration for the scaling function samples.

    Starts from a hat function (partition of unity) and iterates
    ``v(x) <- 2 * sum_k h_k v(2x - k)`` on the dyadic grid until successive
    sup-norm differences fall below ``tol``.
    """
    lo = offset
    hi = offset + len(taps) - 1
    scale = 1 << grid_exponent
    npts = (hi - lo) * scale + 1
    x = lo + np.arange(npts) / scale
    center = 0.5 * (lo + hi)
    v = np.maximum(0.0, 1.0 - np.abs(x - center))
    # Precompute, per tap, the source indices of 2x - k (always grid points).
    index_sets = []
    for i, _ in enumerate(taps):
        k = offset + i
        y = 2.0 * x - k
        idx = np.round((y - lo) * scale).astype(np.int64)
        valid = (idx >= 0) & (idx < npts)
        index_sets.append((np.clip(idx, 0, npts - 1), valid))
    for _ in range(max_iter):
        w = np.zeros_like(v)
        for (idx, valid), h in zip(index_sets, taps):
            w += np.where(valid, 2.0 * h * v[idx], 0.0)
        delta = float(np.max(np.abs(w - v)))
        v = w
        if delta < tol:
            return v
    raise CascadeError(
        f"refinement iteration did not reach sup-norm tolerance {tol} "
        f"within {max_iter} iterations (bad filter?)"
    )


def build_spline_basis(grid_exponent: int = DEFAULT_GRID_EXPONENT,
                       *, tol: float = 1e-10,
                       max_iter: int = 60) -> BiorthogonalBasis:
    """Construct the spline biorthogonal pair.

    Analysis side: box scaling function and the exact piecewise-constant
    wavelet derived from the dual low-pass filter.  Synthesis side: scaling
    function obtained by the cascade algorithm on a ``2**-grid_exponent``
    dyadic grid, and the synthesis wavelet assembled from two half-shifts
    of it.

    Parameters
    ----------
    grid_exponent : int
        Dyadic tabulation resolution; must be at least 10.
    tol, max_iter :
        Fixed-point stopping rule of the cascade iteration.

    Raises
    ------
    CascadeError
        If the refinement iteration does not converge within ``max_iter``
        iterations, which signals a bad filter.
    """
    if grid_exponent < 10:
        raise ValueError("grid_exponent must be at least 10")
    phi = StepFunction(np.array([0.0, 1.0]), np.array([1.0]))
    psi = _analysis_wavelet()

    phit_lo = _DUAL_OFFSET
    phit_hi = _DUAL_OFFSET + len(_DUAL_LOWPASS) - 1
    phit_samples = _cascade_samples(_DUAL_LOWPASS, _DUAL_OFFSET,
                                    grid_exponent, tol, max_iter)
    phi_tilde = TabulatedFunction(float(phit_lo), float(phit_hi),
                                  grid_exponent, phit_samples)

    # psi~(x) = phi~(2x) - phi~(2x - 1), supported on [lo/2, (hi+1)/2];
    # both arguments land on the phi~ grid, so the tabulation is exact
    # (no interpolation in the construction).
    scale = 1 << grid_exponent
    psit_lo = phit_lo / 2.0
    psit_hi = (phit_hi + 1) / 2.0
    m = np.arange(round((psit_hi - psit_lo) * scale) + 1)
    idx1 = 2 * m          # phi~ grid index of 2x
    idx2 = 2 * m - scale  # phi~ grid index of 2x - 1
    take = np.clip(idx1, 0, len(phit_samples) - 1)
    a = np.where((idx1 >= 0) & (idx1 < len(phit_samples)),
                 phit_samples[take], 0.0)
    take = np.clip(idx2, 0, len(phit_samples) - 1)
    b = np.where((idx2 >= 0) & (idx2 < len(phit_samples)),
                 phit_samples[take], 0.0)
    psi_tilde = TabulatedFunction(psit_lo, psit_hi, grid_exponent, a - b)

    # r records the vanishing-moment order of the analysis wavelet minus
    # one: psi is orthogonal to polynomials of degree <= r (checked in the
    # test suite by exact piecewise integration).
    return BiorthogonalBasis(name="spline", phi=phi, psi=psi,
                             phi_tilde=phi_tilde, psi_tilde=psi_tilde, r=2.0)


@functools.lru_cache(maxsize=4)
def spline_basis(grid_exponent: int = DEFAULT_GRID_EXPONENT) -> BiorthogonalBasis:
    """Cached accessor for the spline pair (construction is deterministic)."""
    return build_spline_basis(grid_exponent)


def basis_by_name(name: str,
                  grid_exponent: int = DEFAULT_GRID_EXPONENT) -> BiorthogonalBasis:
    if name == "haar":
        return haar_basis()
    if name == "spline":
        return spline_basis(grid_exponent)
    raise ValueError(f"unknown basis {name!r}; expected 'haar' or 'spline'")


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


def _eval_dilated(basis, idx, x, synthesis):
    j, k = idx
    fn, amp, scale = level_function(basis, j, synthesis=synthesis)
    scalar = np.isscalar(x)
    out = amp * fn.eval(scale * np.asarray(x, dtype=float) - k)
    return float(out) if scalar else out


def eval_decomposition(basis: BiorthogonalBasis, idx, x):
    """Analysis-side evaluation: ``phi(x - k)`` at level -1, else
    ``2**(j/2) * psi(2**j x - k)``.  Exact step-function lookup."""
    return _eval_dilated(basis, idx, x, synthesis=False)


def eval_reconstruction(basis: BiorthogonalBasis, idx, x):
    """Synthesis-side evaluation via the dual functions (tabulated lookup
    with linear interpolation for the spline pair, exact for Haar)."""
    return _eval_dilated(basis, idx, x, synthesis=True)


def sup_norm(basis: BiorthogonalBasis, idx) -> float:
    """Sup norm of the analysis function at this index: ``2**(j/2) * ||psi||``
    for levels >= 0, ``||phi||`` for the father row.  Exact from step values."""
    fn, amp, _ = level_function(basis, idx[0])
    return amp * fn.sup_norm


def _support(basis, idx, synthesis):
    j, k = idx
    fn, _, scale = level_function(basis, j, synthesis=synthesis)
    a, b = fn.support
    return (a + k) / scale, (b + k) / scale


def support_interval(basis: BiorthogonalBasis, idx) -> tuple[float, float]:
    """Closed support of the analysis function at this index."""
    return _support(basis, idx, synthesis=False)


def reconstruction_support(basis: BiorthogonalBasis, idx) -> tuple[float, float]:
    """Closed support of the synthesis function at this index."""
    return _support(basis, idx, synthesis=True)
