"""Wavelet-threshold density estimation on the real line.

Empirical coefficients are computed on the piecewise-constant analysis
side, each one is compared against a fully data-driven threshold, and the
survivors reconstruct the density through the smooth synthesis side.  No
assumption on the support of the density is needed: the analysis functions
are constant on dyadic bins, so each coefficient depends on the sample only
through its bin counts, and the level scan visits only the translates the
occupied bins reach.  It sums each cell exactly, rounds once, and drops the
cells whose empirical coefficient is exactly zero.

Three threshold rules are provided:

* ``practical``          -- sqrt(2 s^2 L/n) + 2 S L / (3n)
* ``practical-gamma``    -- sqrt(2 g s^2 L/n) + 2 g S L / (3n)
* ``theoretical-gamma``  -- same shape but with the variance estimate
  inflated to s~^2 = s^2 + 2 S sqrt(2 g s^2 L/n) + 8 g S^2 L/n,
  giving sqrt(2 g s~^2 L/n) + 2 g S L / (3n)

with ``s^2`` the unbiased variance estimate of the coefficient's summands,
``S`` the sup norm of the analysis function, ``L = ln n`` and ``g`` the
tuning constant.  ``practical`` is ``practical-gamma`` at g = 1, and a
``practical`` mode with any other g is rejected.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .basis import (
    BiorthogonalBasis,
    CoefficientIndex,
    level_function,
    reconstruction_support,
    sup_norm,
)

__all__ = [
    "Sample",
    "Mode",
    "MODE_KINDS",
    "practical",
    "practical_gamma",
    "theoretical_gamma",
    "EstimatorConfig",
    "CoefficientTable",
    "KeptCoefficient",
    "DensityEstimate",
    "coefficient_table",
    "variance_hat",
    "variance_tilde",
    "threshold",
    "estimate",
    "true_level_values",
    "oracle_estimate",
]


@dataclass(frozen=True, eq=False)
class Sample:
    """Sorted 1-D sample with at least two finite observations."""

    observations: np.ndarray
    # the level scans fitted to this sample, (basis, j0) -> columns
    _scans: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        obs = np.asarray(self.observations, dtype=float)
        if obs.ndim != 1 or len(obs) < 2:
            raise ValueError("need a 1-D sample with n >= 2")
        if not np.all(np.isfinite(obs)):
            raise ValueError("sample contains non-finite values")
        obs = np.sort(obs)
        obs.setflags(write=False)
        object.__setattr__(self, "observations", obs)

    @classmethod
    def from_data(cls, values) -> "Sample":
        return cls(np.asarray(values, dtype=float))

    @property
    def n(self) -> int:
        return len(self.observations)

    @property
    def data_range(self) -> tuple[float, float]:
        return float(self.observations[0]), float(self.observations[-1])


MODE_KINDS = ("practical", "practical-gamma", "theoretical-gamma")


@dataclass(frozen=True)
class Mode:
    """Threshold rule selector; use the factory helpers below."""

    kind: str
    gamma: float = 1.0
    c: float = 1.0
    c_prime: float = 0.0

    def __post_init__(self):
        if self.kind not in MODE_KINDS:
            raise ValueError(f"unknown mode kind {self.kind!r}")
        for name, value in (("gamma", self.gamma), ("c", self.c),
                            ("c'", self.c_prime)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if self.kind == "practical" and self.gamma != 1.0:
            raise ValueError("the practical rule has gamma = 1; "
                             "use practical-gamma for another gamma")
        if self.kind == "theoretical-gamma" and self.c < 1:
            raise ValueError("c must be >= 1")
        if self.kind != "theoretical-gamma" and (self.c, self.c_prime) != (1, 0):
            raise ValueError(f"the {self.kind} rule needs c = 1 and c' = 0; "
                             "c and c' cap the levels of theoretical-gamma")

    @property
    def positive_part(self) -> bool:
        """Practical reconstructions are clipped at zero; the theoretical
        rule keeps the raw signed reconstruction."""
        return self.kind != "theoretical-gamma"


def practical() -> Mode:
    return Mode("practical")


def practical_gamma(gamma: float) -> Mode:
    return Mode("practical-gamma", gamma=gamma)


def theoretical_gamma(gamma: float, c: float = 1.0, c_prime: float = 0.0) -> Mode:
    return Mode("theoretical-gamma", gamma=gamma, c=c, c_prime=c_prime)


@dataclass(frozen=True)
class EstimatorConfig:
    basis: BiorthogonalBasis
    mode: Mode
    j0_override: Optional[int] = None

    def j0(self, n: int) -> int:
        """Coarse-to-fine level cap floor(log2(n^c (ln n)^c')), unless
        overridden; the practical rules have c = 1 and c' = 0, which makes
        it floor(log2 n)."""
        if self.j0_override is not None:
            j0 = int(self.j0_override)
        else:
            c, c_prime = self.mode.c, self.mode.c_prime
            try:
                cap = (n ** c) * math.log(n) ** c_prime
                # a cap that underflows to 0.0 lies below every level
                j0 = int(math.floor(math.log2(cap))) if cap > 0 else -math.inf
            except OverflowError:
                raise ValueError(f"n^c (ln n)^c' overflows for n = {n}, "
                                 f"c = {c!r}, c' = {c_prime!r}") from None
        if j0 < -1:
            raise ValueError(f"level cap j0 = {j0} is below -1")
        return j0


class KeptCoefficient(NamedTuple):
    """Surviving cell as a lightweight (j, k, value, threshold) row."""

    j: int
    k: int
    value: float
    threshold: float


def _unbiased_variance(s1, s2, n):
    """Unbiased variance of ``n`` summands from their sum ``s1`` and sum of
    squares ``s2``: ``max(0, (s2 - s1^2/n) / (n - 1))``, elementwise.  The
    level scan and :func:`variance_hat` both use it."""
    return np.maximum(0.0, (s2 - s1 * s1 / n) / (n - 1))


def variance_hat(values) -> float:
    """Unbiased variance of the summands via the O(n) identity
    ``(s2 - s1^2/n) / (n - 1)`` the level scan uses; equals the pairwise
    U-statistic ``sum_{i<l} (v_i - v_l)^2 / (n (n-1))``.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or len(v) < 2:
        raise ValueError("need at least two values")
    return float(_unbiased_variance(np.sum(v), np.sum(v * v), len(v)))


def variance_tilde(sigma_hat_sq, psi_sup, n, gamma):
    """Inflated variance estimate used by the theoretical rule.

    Returns ``s^2 + 2 S sqrt(2 g s^2 L/n) + 8 g S^2 L/n`` with ``L = ln n``;
    never smaller than ``sigma_hat_sq``.  Accepts scalars or arrays.
    """
    if not np.all(np.asarray(gamma) > 0):
        raise ValueError("gamma must be positive")
    if np.any(np.asarray(sigma_hat_sq) < 0) or np.any(np.asarray(psi_sup) < 0):
        raise ValueError("variance and sup norm must be nonnegative")
    if np.any(np.asarray(n) < 2):
        raise ValueError("need n >= 2")
    lnn = np.log(n)
    return (sigma_hat_sq
            + 2.0 * psi_sup * np.sqrt(2.0 * gamma * sigma_hat_sq * lnn / n)
            + 8.0 * gamma * psi_sup ** 2 * lnn / n)


def _threshold_value(sigma_hat_sq, psi_sup, n, mode: Mode):
    """Elementwise threshold; identical expression shape for scalars and
    arrays so stored and re-derived values agree bitwise."""
    g = mode.gamma
    s2 = sigma_hat_sq
    if mode.kind == "theoretical-gamma":
        s2 = variance_tilde(sigma_hat_sq, psi_sup, n, g)
    lnn = np.log(n)
    return (np.sqrt(2.0 * g * s2 * lnn / n)
            + 2.0 * g * psi_sup * lnn / (3.0 * n))


def threshold(cell, n, mode: Mode) -> float:
    """Threshold for one cell under the given rule; ``cell`` is any object
    with ``sigma_hat_sq`` and ``psi_sup_norm`` attributes."""
    if np.any(np.asarray(n) < 2):
        raise ValueError("need n >= 2")
    return float(_threshold_value(cell.sigma_hat_sq, cell.psi_sup_norm, n, mode))


# ---------------------------------------------------------------------------
# level scan

# Bins per accumulation pass: consecutive levels that share one analysis
# function take one pass while their bins add up to at most this many,
# and a level with more bins takes a pass alone.  Without a cap, one pass
# of all 17 wavelet levels of 2^16 hk(2) draws takes 24 ms against 20 ms,
# and the scan's tracemalloc peak rises from 14 to 25 MB; caps from 2^13
# to 2^16 time alike there.
_SCAN_BINS = 2 ** 14

def _last_of_runs(v: np.ndarray) -> np.ndarray:
    """Mask of the last entry of each run of equal values in ``v``."""
    last = np.empty(len(v), dtype=bool)
    np.not_equal(v[1:], v[:-1], out=last[:-1])
    last[-1:] = True
    return last


def _dyadic_bins(x: np.ndarray, exponents) -> list:
    """The sorted sample's bins ``floor(2^e x)`` for each exponent e, as
    ``(bins, ends, lattice_bins, lattice_counts)``: the occupied bins
    ascending, where each bin's run of observations ends, and the bins
    that hold observations on their left end ``bin / 2^e``, with how many.

    Only the finest exponent reads the sample: a coarser bin is a finer
    one shifted right, and a coarser lattice point is a finer one whose
    shifted bits are zero.  ``2^e x`` is exact, and so is its floor, while
    it stays below 2^53, which the scan's guard keeps."""
    out = [None] * len(exponents)
    order = sorted(range(len(exponents)), key=exponents.__getitem__,
                   reverse=True)
    e = exponents[order[0]]
    y = x * 2.0 ** e
    floor = np.floor(y)
    on = np.flatnonzero(y == floor)
    fine = y.view(np.int64)  # the bins take the place of 2^e x
    np.copyto(fine, floor, casting="unsafe")
    del y, floor
    last = _last_of_runs(fine)
    bins, ends = fine[last], np.flatnonzero(last) + 1
    lattice_bins, lattice_counts = np.unique(fine[on], return_counts=True)
    del fine, last, on
    for i in order:
        d, e = e - exponents[i], exponents[i]
        if d:
            shifted = bins >> d
            last = _last_of_runs(shifted)
            bins, ends = shifted[last], ends[last]
        if d and len(lattice_bins):
            keep = (lattice_bins & ((1 << d) - 1)) == 0
            lattice_bins = lattice_bins[keep] >> d
            lattice_counts = lattice_counts[keep]
        out[i] = bins, ends, lattice_bins, lattice_counts
    return out


class _Level(NamedTuple):
    """One level of a scan pass: the amplitude of
    ``psi_jk(x) = amp * f(scale * x - k)`` and the bins ``floor(2^e x)``
    from :func:`_dyadic_bins`."""

    amp: float
    bins: np.ndarray
    ends: np.ndarray
    lattice_bins: np.ndarray
    lattice_counts: np.ndarray


def _piece_lattice(step_fn) -> tuple:
    """``(m, first, P)``: the P pieces of ``step_fn`` have width 2^-m and
    left ends ``(first + q) / 2^m``."""
    bp = step_fn.breakpoints
    width = float(bp[1] - bp[0])
    return 1 - math.frexp(width)[1], int(bp[0] / width), len(bp) - 1


def _exact_sum(terms, out: np.ndarray, tmp: np.ndarray) -> None:
    """``out = sum(w * view for w, view in terms)``.  The views hold counts
    and the weights are multiples of 1/64, so every partial sum is exact
    and any grouping gives the same bits: the terms of one magnitude are
    added first and scaled once."""
    groups = {}
    for w, view in terms:
        groups.setdefault(abs(w), []).append((w, view))
    acc = out
    for mag, group in groups.items():
        group.sort(key=lambda term: term[0] < 0)  # positive weights first
        sign = 1.0 if group[0][0] > 0 else -1.0
        total = group[0][1]
        for w, view in group[1:]:
            total = (np.add if (w > 0) == (sign > 0) else np.subtract)(
                total, view, out=acc)
        if total is not acc or sign * mag != 1.0:
            np.multiply(total, sign * mag, out=acc)
        if acc is not out:
            out += acc
        acc = tmp


def _cell_sums(n: int, step_fn, levels) -> list:
    """One accumulation pass over consecutive levels (:class:`_Level`)
    that share the analysis function ``step_fn``, for a sample of ``n``
    observations: ``(ks, s1, s2)`` per level.

    The pieces have width 2^-m and left ends ``(first + q) / 2^m``, so bin
    ``B`` (``rel = B - first``) holds piece ``q = 2^m i + (rel & mask)``
    of translate ``(rel >> m) - i`` for each i with q < P, and its lattice
    point reaches the closed right end of translate ``(rel - P) / 2^m``
    when that is an integer.  Each bin's translates are an interval.  The
    bins of the pass, level after level, take compact slots: a translate
    sits at its bin's slot less its offset, touching intervals keep their
    distance, and a gap between intervals shrinks to nothing, so slots
    ascend with the translates and no two levels share one.  The counts
    fill one plane per ``rel & mask`` at the bins' slots, and a few
    shifted slice-adds of the planes give every translate's sums
    ``R1 = sum v_q count_q`` and ``R2 = sum v_q^2 count_q``, exactly: the
    values are multiples of 1/8.  The sums returned are ``amp * R1`` and
    ``(amp * amp) * R2``, each rounded once."""
    m, first, pieces = _piece_lattice(step_fn)
    if m < 0:  # bins index whole pieces
        raise ValueError("the level scan needs an analysis function "
                         "with pieces of width 1 or less")
    mask = (1 << m) - 1
    most = (pieces - 1) >> m  # translates a bin's pieces reach below its own
    end_at, end_parity = pieces >> m, pieces & mask
    starts = np.cumsum([0, *(len(level.bins) for level in levels)])
    rel = np.concatenate([level.bins for level in levels])
    ends = np.concatenate([level.ends for level in levels])
    counts = ends.copy()
    counts[1:] -= ends[:-1]
    counts[starts[1:-1]] += n  # each level's run ends restart at 0
    del ends
    rel -= first
    parity = rel & mask
    kappa = np.right_shift(rel, m, out=rel)
    # a bin's pieces reach the translates kappa - below .. kappa, and its
    # lattice point, when it reaches a closed end, reaches down to
    # kappa - (P >> m).  Both ends ascend with the bins.
    below = (pieces - 1) - parity
    below >>= m
    lattice = [(starts[i] + np.searchsorted(level.bins, level.lattice_bins),
                level.lattice_counts)
               for i, level in enumerate(levels) if len(level.lattice_bins)]
    if lattice:
        lat_at, lat_counts = (np.concatenate(col) for col in zip(*lattice))
        reaches_end = parity[lat_at] == end_parity
        lat_at, lat_counts = lat_at[reaches_end], lat_counts[reaches_end]
        below[lat_at] = end_at
    lowest = np.subtract(kappa, below, out=below)
    # shift = translate - slot: it grows by each gap between intervals,
    # and at a new level by whatever puts its first slot next
    skip = lowest[1:] - kappa[:-1]
    skip -= 1
    new_level = starts[1:-1] - 1
    level_skip = skip[new_level]
    np.maximum(skip, 0, out=skip)
    skip[new_level] = level_skip
    shift = np.empty(len(kappa), dtype=np.int64)
    shift[0] = lowest[0]
    shift[1:] = skip
    del skip
    np.cumsum(shift, out=shift)
    size = int(kappa[-1] - shift[-1]) + 1
    level_slots = (lowest[starts[:-1]] - shift[starts[:-1]]).tolist()
    runs = np.concatenate([[0], np.flatnonzero(shift[1:] != shift[:-1]) + 1])
    run_slots = lowest[runs] - shift[runs]
    run_slots[:-1] -= run_slots[1:]
    run_slots[-1] -= size
    slot_shift = shift[runs].repeat(-run_slots)
    del lowest, runs
    slot = np.subtract(kappa, shift, out=kappa)
    span = size + most
    planes = np.zeros((mask + 1) * span)
    at = parity * span
    at += slot
    planes[at] = counts
    del at, parity, counts
    terms = [(v, planes[(q & mask) * span + (q >> m):][:size])
             for q, v in enumerate(step_fn.values.tolist())]
    s1, s2, tmp = np.empty(size), np.empty(size), np.empty(size)
    _exact_sum(terms, s1, tmp)
    _exact_sum([(v * v, view) for v, view in terms], s2, tmp)
    del planes, terms, tmp
    if lattice:
        end_value = float(step_fn.values[-1])
        at = slot[lat_at] - end_at
        s1[at] += end_value * lat_counts
        s2[at] += (end_value * end_value) * lat_counts
    del slot, shift
    # a slot no bin reached keeps its zero, and a translate whose terms
    # cancel sums to an exact zero: both are left out
    cells = np.flatnonzero(s1)
    # compact into the heads of the pass's own arrays, so that the sums
    # kept for the table allocate nothing new
    ks = np.take(slot_shift, cells, out=slot_shift[:len(cells)])
    ks += cells
    s1 = np.take(s1, cells, out=s1[:len(cells)])
    s2 = np.take(s2, cells, out=s2[:len(cells)])
    bounds = [0, *np.searchsorted(cells, level_slots[1:]).tolist(),
              len(cells)]
    out = []
    for level, i0, i1 in zip(levels, bounds[:-1], bounds[1:]):
        s1[i0:i1] *= level.amp
        s2[i0:i1] *= level.amp * level.amp
        out.append((ks[i0:i1], s1[i0:i1], s2[i0:i1]))
    return out


def _level_stats(x: np.ndarray, basis: BiorthogonalBasis, levels) -> list:
    """Exact per-cell sums, level by level.

    ``(ks, s1, s2)`` for each of ``levels``, over the integer translates
    ``ks`` (ascending) whose sum is nonzero: ``s1 = sum psi_jk(X_i)`` and
    ``s2 = sum psi_jk(X_i)^2``.  A translate no observation reaches, or
    whose terms cancel exactly, has a zero empirical coefficient and is
    left out.

    ``x`` must be sorted.  The analysis functions are constant on the
    dyadic bins of width 2^-(j+1) at level j (2^0 for the father row), so
    each sum depends on the sample only through the bin counts: the sample
    is binned once at the finest level and each coarser level's bins are
    the finer ones shifted right (:func:`_dyadic_bins`).  Consecutive
    levels that share one analysis function go through one pass of
    :func:`_cell_sums` while their bins add up to at most ``_SCAN_BINS``.
    The finest passes are the largest, and they run first, so that each
    later pass's work arrays fit in the memory an earlier one freed.
    """
    fns = [level_function(basis, j) for j in levels]
    if not fns:
        return []
    exponents = [_piece_lattice(step_fn)[0] + round(math.log2(scale))
                 for step_fn, _, scale in fns]
    bins = _dyadic_bins(x, exponents)
    passes, i = [], 0
    while i < len(fns):
        total, k = len(bins[i][0]), i + 1
        while (k < len(fns) and fns[k][0] is fns[i][0]
               and total + len(bins[k][0]) <= _SCAN_BINS):
            total += len(bins[k][0])
            k += 1
        passes.append((i, k))
        i = k
    sums = [None] * len(fns)
    for i, k in reversed(passes):
        sums[i:k] = _cell_sums(len(x), fns[i][0], [
            _Level(fns[l][1], *bins[l]) for l in range(i, k)])
        bins[i:k] = [None] * (k - i)
    return sums


def _scan(sample: Sample, basis: BiorthogonalBasis, j0: int) -> tuple:
    """The level scan behind :func:`coefficient_table`: its rule-free
    columns (j, k, beta_hat, sigma_hat_sq, sup) over exactly the cells
    :func:`_level_stats` yields, those with a nonzero sum; read-only
    because every rule fitted to the sample reuses them."""
    x = sample.observations
    n = sample.n
    max_abs = max(abs(float(x[0])), abs(float(x[-1])))
    if max_abs >= math.ldexp(1.0, 52 - max(j0, 0)):
        raise ValueError(f"2^{max(j0, 0)} * max|x| = 2^{max(j0, 0)} * "
                         f"{max_abs!r} reaches 2^52; rescale the data "
                         f"or lower j0")
    levels = range(-1, j0 + 1)
    parts, counts = [], []
    for ks, s1, s2 in _level_stats(x, basis, levels):
        parts.append((ks, s1 / n, _unbiased_variance(s1, s2, n)))
        counts.append(len(ks))
    # join one column at a time and drop its level pieces right away, so
    # the peak holds one copy of the table rather than two
    columns = [list(col) for col in zip(*parts)]
    del parts
    ks, beta, sig = (np.concatenate(columns.pop(0)) for _ in range(3))
    out = (np.repeat(np.arange(-1, j0 + 1, dtype=np.int64), counts), ks,
           beta, sig,
           np.repeat([sup_norm(basis, (level, 0)) for level in levels],
                     counts))
    for col in out:
        col.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class CoefficientTable:
    """Every nonzero empirical cell of levels -1..j0, sorted by (j, k).

    Equal-length columns: level ``j``, translate ``k``, coefficient
    ``beta_hat``, unbiased summand variance ``sigma_hat_sq``, analysis sup
    norm ``sup``, threshold ``eta`` and the keep mask ``kept``
    (|beta_hat| >= eta).
    """

    j: np.ndarray
    k: np.ndarray
    beta_hat: np.ndarray
    sigma_hat_sq: np.ndarray
    sup: np.ndarray
    eta: np.ndarray
    kept: np.ndarray
    j0: int

    def __len__(self) -> int:
        return len(self.j)


def coefficient_table(sample: Sample, config: EstimatorConfig) -> CoefficientTable:
    """Scan levels -1..j0 and threshold every nonzero empirical coefficient.

    At each level exactly the translates whose analysis support meets the
    data are visited, and the scan yields only the cells whose sum is
    nonzero: a zero coefficient adds nothing to the estimate.  Each cell's
    sums are exact before the one rounding by its level's amplitude, so
    they do not depend on the order of the sample or of the summands.
    The scan depends on the sample, basis and j0 alone, so the sample keeps
    it and later rules reuse it; its columns are read-only.  Raises
    ``ValueError`` when ``2**max(j0, 0) * max|x|`` reaches 2^52, where
    floor() and the int64 translate index stop being exact.
    """
    j0 = config.j0(sample.n)
    key = (config.basis, j0)
    if key not in sample._scans:
        sample._scans[key] = _scan(sample, config.basis, j0)
    j, ks, beta, sig, sup = sample._scans[key]
    eta = _threshold_value(sig, sup, sample.n, config.mode)
    return CoefficientTable(j=j, k=ks, beta_hat=beta, sigma_hat_sq=sig,
                            sup=sup, eta=eta, kept=np.abs(beta) >= eta, j0=j0)


def eval_ascending(fn, grid) -> np.ndarray:
    """``fn`` at the points of ``grid``, of any shape and order (a scalar
    gives a 0-d array), and NaN at a NaN point.  ``fn`` maps an ascending
    1-D array to a new array whose last axis holds the values there; the
    result keeps the leading axes and puts the grid's shape in place of
    the last.  A grid that is not ascending is sorted for it (stably, NaN
    last) and its values are put back in the grid's order, so every order
    of the same points gives the same values bit for bit."""
    x = np.asarray(grid, dtype=float)
    shape, x = x.shape, x.ravel()

    def values(xs):
        out = fn(xs)
        out[..., np.searchsorted(xs, np.nan):] = np.nan  # NaN sorts last
        return out

    if np.all(x[1:] >= x[:-1]):
        out = values(x)
    else:
        order = np.argsort(x, kind="stable")
        ascending = values(x[order])
        out = np.empty_like(ascending)
        out[..., order] = ascending
    return out.reshape(out.shape[:-1] + shape)


# Points per synthesis lookup.  It bounds the lookup's temporaries.  A
# replication of the calibrate study (n = 1024) looks up about 5,000
# father and 28,000 wavelet points, so its wavelet lookup takes two
# chunks; caps of 2^14 to 2^16 time alike there.
_LOOKUP_POINTS = 2 ** 14


def _evaluate_rows(estimates, grid) -> np.ndarray:
    """The estimates on ``grid`` as one block: row i is
    ``estimates[i].evaluate(grid)`` bit for bit, and the block's shape is
    ``(len(estimates), *grid.shape)``.

    Each kept cell is looked up once however many rows keep it, and each
    distinct (j, k, value) term is added once into all the rows that keep
    it.  Every row still adds its own terms in (j, k) order, so its values
    do not depend on the other rows."""
    return eval_ascending(lambda x: _rows_ascending(estimates, x), grid)


def _rows_ascending(estimates, x: np.ndarray) -> np.ndarray:
    """:func:`_evaluate_rows` on the ascending points ``x``."""
    out = np.zeros((len(estimates), len(x)))
    by_basis = {}
    for i, est in enumerate(estimates):
        by_basis.setdefault(est.basis, []).append(i)
    for basis, rows in by_basis.items():
        # (j, k) -> {value: the rows that keep it, ascending}
        terms = {}
        for i in rows:
            for j, k, value, _ in estimates[i].kept:
                terms.setdefault((j, k), {}).setdefault(value, []).append(i)
        cells = sorted(terms)
        # the father row's cells, then the wavelet levels' ((j, k) sorts
        # below (0,) iff j = -1): each synthesis function takes its own
        # lookups
        split = bisect.bisect_left(cells, (0,))
        for part in (cells[:split], cells[split:]):
            if part:
                _add_cells(out, x, basis, part, terms)
    for i, est in enumerate(estimates):
        if est.positive_part:
            np.maximum(out[i], 0.0, out=out[i])
    return out


def _add_cells(out: np.ndarray, x: np.ndarray, basis, cells, terms) -> None:
    """Add the terms of ``cells``, (j, k) ascending on one synthesis
    function, into the rows of ``out`` on the ascending points ``x``.
    The supports are one vector, and the cells' arguments
    ``scale * x - k`` over their runs of points take one lookup, end to
    end, per ``_LOOKUP_POINTS`` points.  A term goes into a slice of rows
    when they are contiguous, as the kept sets of nested rules are."""
    levels = {j: level_function(basis, j, synthesis=True)
              for j in {j for j, _ in cells}}
    fn = levels[cells[0][0]][0]
    ks = np.array([k for _, k in cells])
    scales = np.array([levels[j][2] for j, _ in cells])
    a, b = fn.support
    windows = [
        (j, k, c0, c1) for (j, k), c0, c1 in zip(
            cells,
            np.searchsorted(x, (a + ks) / scales, side="left").tolist(),
            np.searchsorted(x, (b + ks) / scales, side="right").tolist())
        if c1 > c0]
    while windows:
        # the next cells that fit in _LOOKUP_POINTS points, one at least
        take, points = 0, 0
        for _, _, c0, c1 in windows:
            if take and points + c1 - c0 > _LOOKUP_POINTS:
                break
            take, points = take + 1, points + c1 - c0
        group, windows = windows[:take], windows[take:]
        sizes = [c1 - c0 for _, _, c0, c1 in group]
        args = np.concatenate([x[c0:c1] for _, _, c0, c1 in group])
        args *= np.repeat([levels[j][2] for j, _, _, _ in group], sizes)
        args -= np.repeat([k for _, k, _, _ in group], sizes)
        values = fn.eval(args)
        end = 0
        for (j, k, c0, c1), size in zip(group, sizes):
            end += size
            cell = values[end - size:end]
            amp = levels[j][1]
            for value, rows in terms[j, k].items():
                # an integer index adds fastest, then a slice
                if len(rows) == 1:
                    at = rows[0]
                elif rows[-1] - rows[0] == len(rows) - 1:
                    at = slice(rows[0], rows[-1] + 1)
                else:
                    at = rows
                out[at, c0:c1] += (value * amp) * cell


@dataclass(frozen=True)
class DensityEstimate:
    """Sparse thresholded reconstruction.

    ``kept`` holds the surviving (j, k, value, threshold) rows sorted by
    (j, k); every kept value satisfies ``|value| >= threshold``.  Immutable
    and shareable.
    """

    kept: tuple
    basis: BiorthogonalBasis
    positive_part: bool
    n: int
    mode: Mode
    j0: int

    @property
    def kept_map(self) -> dict:
        return {CoefficientIndex(row.j, row.k): row.value for row in self.kept}

    def support_hull(self) -> Optional[tuple[float, float]]:
        """Hull of the reconstruction supports of the kept cells, computed
        once per estimate."""
        return self._hull

    @functools.cached_property
    def _levels(self) -> tuple:
        """``(j, rows)`` per level of the kept rows, in (j, k) order."""
        return tuple((j, tuple(rows)) for j, rows in
                     itertools.groupby(self.kept, key=operator.itemgetter(0)))

    @functools.cached_property
    def _hull(self) -> Optional[tuple[float, float]]:
        # a support moves right with k, so each level's first and last
        # cells bound it
        if not self.kept:
            return None
        return (min(reconstruction_support(self.basis, (j, rows[0].k))[0]
                    for j, rows in self._levels),
                max(reconstruction_support(self.basis, (j, rows[-1].k))[1]
                    for j, rows in self._levels))

    def evaluate(self, grid) -> np.ndarray:
        """Pointwise reconstruction on ``grid``, clipped at zero when the
        estimate carries the positive-part flag.  Exactly zero outside the
        kept reconstruction supports, and NaN at a NaN point.  The sum
        adds the kept terms in (j, k) order; it is the one-row block of
        :func:`_evaluate_rows`."""
        return _evaluate_rows([self], grid)[0, ...]

    def to_json_dict(self) -> dict:
        return {
            "format": "wavedens-estimate-v1",
            "n": self.n,
            "basis": self.basis.name,
            "mode": {"kind": self.mode.kind, "gamma": self.mode.gamma,
                     "c": self.mode.c, "c_prime": self.mode.c_prime},
            "j0": self.j0,
            "positive_part": self.positive_part,
            "kept": [[row.j, row.k, row.value, row.threshold]
                     for row in self.kept],
        }


def _kept_rows(table: CoefficientTable, mask, thresholds) -> tuple:
    """(j, k, beta_hat, threshold) rows of the masked cells, in (j, k) order."""
    return tuple(map(KeptCoefficient, table.j[mask].tolist(),
                     table.k[mask].tolist(), table.beta_hat[mask].tolist(),
                     thresholds))


def estimate(sample: Sample, config: EstimatorConfig) -> DensityEstimate:
    """Run the full keep-or-kill procedure.

    Levels -1..j0 are scanned, each nonzero empirical coefficient is kept
    iff its magnitude reaches the mode's threshold, and the survivors are
    packaged for reconstruction through the synthesis side.  Deterministic
    given (sample, config); rules fitted to one sample share its scan.
    """
    table = coefficient_table(sample, config)
    kept = _kept_rows(table, table.kept, table.eta[table.kept].tolist())
    return DensityEstimate(kept=kept, basis=config.basis,
                           positive_part=config.mode.positive_part,
                           n=sample.n, mode=config.mode, j0=table.j0)


def true_level_values(signal, basis: BiorthogonalBasis, j: int,
                      ks) -> tuple[np.ndarray, np.ndarray]:
    """True coefficients and variances for all translates ``ks`` at level j.

    The analysis functions are step functions, so both integrals reduce to
    differences of the signal's cdf across the (scaled) breakpoints:
    ``beta = amp * sum_i v_i dF_i`` and
    ``sigma^2 = amp^2 * sum_i v_i^2 dF_i - beta^2``.
    """
    ks = np.asarray(ks, dtype=float)
    step_fn, amp, scale = level_function(basis, j)
    pts = (step_fn.breakpoints[None, :] + ks[:, None]) / scale
    df = np.diff(signal.cdf(pts), axis=1)
    # row-wise reductions so results do not depend on the batch size
    beta = amp * np.sum(df * step_fn.values, axis=1)
    second = (amp * amp) * np.sum(df * step_fn.values ** 2, axis=1)
    sigma_sq = np.maximum(0.0, second - beta * beta)
    return beta, sigma_sq


def oracle_estimate(sample: Sample, signal, config: EstimatorConfig) -> DensityEstimate:
    """Benchmark estimate keeping exactly the cells whose true coefficient
    beats its own sampling noise: keep ``beta_hat`` iff
    ``beta^2 > sigma^2 / n`` with true beta and sigma from the signal.

    Uses the same cell table as the data-driven path (cells with an
    exactly-zero empirical coefficient would contribute nothing).  Not a
    realizable estimator; benchmark only.
    """
    table = coefficient_table(sample, config)
    beta_true = np.empty(len(table))
    sigma_sq_true = np.empty(len(table))
    for level in np.unique(table.j).tolist():
        at = table.j == level
        beta_true[at], sigma_sq_true[at] = true_level_values(
            signal, config.basis, level, table.k[at])
    survive = beta_true ** 2 > sigma_sq_true / sample.n
    kept = _kept_rows(table, survive, itertools.repeat(0.0))
    return DensityEstimate(kept=kept, basis=config.basis, positive_part=False,
                           n=sample.n, mode=config.mode, j0=table.j0)
