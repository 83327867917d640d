"""Wavelet-threshold density estimation on the real line.

Empirical coefficients are computed on the piecewise-constant analysis
side, each one is compared against a fully data-driven threshold, and the
survivors reconstruct the density through the smooth synthesis side.  No
assumption on the support of the density is needed: at each level only the
translates whose analysis support meets the data range are scanned, and
cells whose empirical coefficient is exactly zero are dropped.

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

# (level, observation) pairs per batch of the level scan.  Measured on
# 2-CPU hosts at n = 1024..16384: 2^14 was fastest or within 3% of it,
# 2^15 and 2^16 were slower from n = 4096 on (their slot arrays leave the
# cache), and smaller batches were slower at n = 1024.
_SCAN_PAIRS = 2 ** 14


def _scan_batches(basis: BiorthogonalBasis, levels, n: int) -> list:
    """``levels`` cut into runs of consecutive levels that share one
    analysis function, each of at most max(1, _SCAN_PAIRS // n) levels:
    ``[(step_fn, [(j, amp, scale), ...]), ...]``."""
    size = max(1, _SCAN_PAIRS // n)
    batches = []
    for j in levels:
        step_fn, amp, scale = level_function(basis, j)
        if (not batches or batches[-1][0] is not step_fn
                or len(batches[-1][1]) == size):
            batches.append((step_fn, []))
        batches[-1][1].append((j, amp, scale))
    return batches


def _level_stats(x: np.ndarray, basis: BiorthogonalBasis, levels):
    """Exact per-cell sums, level by level.

    Yields ``(ks, s1, s2)`` for each of ``levels``, over the integer
    translates ``ks`` (ascending) whose sum is nonzero:
    ``s1 = sum psi_jk(X_i)`` and ``s2 = sum psi_jk(X_i)^2``.  A translate
    no observation reaches, or whose terms sum to exactly zero, has a zero
    empirical coefficient and is not yielded.

    ``x`` must be sorted.  The levels run in batches of consecutive levels
    that share one analysis function, at most max(1, _SCAN_PAIRS // n)
    levels each; a batch's m levels fill (m, n) arrays, row by row.
    Observation i meets translate ``r_i + c``, ``r_i = floor(2^j x_i)``,
    for offsets c that span W integers from ``c_min``.  Each run of equal
    bases gets a compact slot ``z``: 0 for the first run, then the
    previous slot plus ``min(gap, W)``, and a level's first slot lies W
    past the last slot of the level before it.  Cell ``r_i + c`` sits at
    slot ``z_i + c - c_min``, so the slots ascend with the cells, number
    at most W per run, and no two levels share one.  ``np.add.at`` adds
    in index order, offset after offset, over the whole batch: every cell
    adds its terms offset after offset with the observations ascending,
    and the slots with a nonzero sum are read out without a sort.  The
    work arrays are made once per scan, for the longest batch.
    """
    n = len(x)
    batches = _scan_batches(basis, levels, n)
    rows = max((len(level_rows) for _, level_rows in batches), default=0)
    frac, u = np.empty((rows, n)), np.empty((rows, n))
    shift, z, slot = (np.empty((rows, n), dtype=np.int64) for _ in range(3))
    shift_buf = s1_buf = s2_buf = np.empty(0)
    for step_fn, level_rows in batches:
        m = len(level_rows)
        _, amps, scales = (np.array(col) for col in zip(*level_rows))
        fr, w, sh, zm, sl = frac[:m], u[:m], shift[:m], z[:m], slot[:m]
        a, b = step_fn.support
        # sh holds each observation's base r = floor(2^j x) for now
        np.floor(np.multiply(scales[:, None], x, out=fr), out=sh,
                 casting="unsafe")
        fr -= sh
        # frac lies in [0, 1] (it rounds up to 1 when 2^j x is a tiny
        # negative number), so u = frac - c can meet [a, b] for c from
        # ceil(-b) to floor(1 - a).  Rounding is monotone, so u lies in
        # [-c, 1 - c], and an offset whose range lies inside [a, b] needs
        # no inside test.
        hits = []
        for c in range(math.ceil(-b), math.floor(1.0 - a) + 1):
            inside = None
            if not (a <= -c and 1 - c <= b):
                np.subtract(fr, c, out=w)
                inside = w >= a
                inside &= w <= b
                if not inside.any():
                    continue
            hits.append((c, inside))
        # b - a >= 1: every observation meets some translate
        c_min = hits[0][0]
        width = hits[-1][0] - c_min + 1
        # the batch's rows end to end: a level's first step is W
        zf, shf, slf = zm.reshape(-1), sh.reshape(-1), sl.reshape(-1)
        zf[0] = 0
        np.subtract(shf[1:], shf[:-1], out=zf[1:])
        zm[1:, 0] = width
        np.minimum(zf, width, out=zf)
        np.cumsum(zf, out=zf)
        # the observation's slot z + c - c_min holds cell r + c: the slot
        # plus the shift r + c_min - z
        sh += c_min
        sh -= zm
        size = int(zf[-1]) + width
        if size > len(s1_buf):  # size <= width * m * n
            shift_buf, s1_buf, s2_buf = (np.empty(width * m * n, dtype=t)
                                         for t in (np.int64, float, float))
        slot_shift, s1, s2 = shift_buf[:size], s1_buf[:size], s2_buf[:size]
        s1.fill(0.0)
        s2.fill(0.0)
        for c, inside in hits:
            if inside is None:
                v = np.subtract(fr, c, out=w)
                at = np.add(zf, c - c_min, out=slf)
                slot_shift[at] = shf
                amp = amps[:, None]
            else:
                v = fr[inside] - c
                at = zm[inside] + (c - c_min)
                slot_shift[at] = sh[inside]
                amp = np.repeat(amps, np.count_nonzero(inside, axis=1))
            step_fn.pieces(v, out=v)
            v *= amp
            # flat values: the 1-D fast path of np.add.at
            v = v.reshape(-1)
            np.add.at(s1, at, v)
            np.add.at(s2, at, np.multiply(v, v, out=v))
        # a slot no observation reached keeps its +0.0, and an exactly
        # zero sum adds nothing to the estimate: both are left out
        cells = np.flatnonzero(s1)
        cols = cells + slot_shift[cells], s1[cells], s2[cells]
        # each level's slots start at its first observation's slot
        lo = 0
        for hi in [*np.searchsorted(cells, zm[1:, 0]).tolist(), len(cells)]:
            yield tuple(col[lo:hi] for col in cols)
            lo = hi


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
    nonzero: a zero coefficient adds nothing to the estimate.
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
    1-D array to a new array of its values there; a grid that is not
    ascending is sorted for it (stably, NaN last) and its values are put
    back in the grid's order, so every order of the same points gives the
    same values bit for bit."""
    x = np.asarray(grid, dtype=float)
    shape, x = x.shape, x.ravel()

    def values(xs):
        out = fn(xs)
        out[np.searchsorted(xs, np.nan):] = np.nan  # NaN sorts last
        return out

    if np.all(x[1:] >= x[:-1]):
        return values(x).reshape(shape)
    order = np.argsort(x, kind="stable")
    out = np.empty_like(x)
    out[order] = values(x[order])
    return out.reshape(shape)


# Points per synthesis lookup.  It bounds the lookup's temporaries, and
# a replication of the calibrate study (n = 1024) needs at most about
# 9,200 points per level, so there each level takes one lookup.
_LOOKUP_POINTS = 2 ** 14


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

    def evaluate(self, grid, *, cells: Optional[dict] = None) -> np.ndarray:
        """Pointwise reconstruction on ``grid``, clipped at zero when the
        estimate carries the positive-part flag.  Exactly zero outside the
        kept reconstruction supports, and NaN at a NaN point.

        ``cells`` is a cache handle, not an option: a dict that keeps each
        kept cell's synthesis values on these points, ``cells[basis][j, k]``,
        so that estimates evaluated on the same points compute each cell
        once.  Pass it only with the points it was filled on; ``None``
        keeps nothing.  The values do not depend on it.
        """
        return eval_ascending(lambda x: self._evaluate_ascending(x, cells),
                              grid)

    def _evaluate_ascending(self, x: np.ndarray, cells) -> np.ndarray:
        memo = None if cells is None else cells.setdefault(self.basis, {})
        out = np.zeros_like(x)
        for j, rows in self._levels:
            # without a memo, a level's cells live while it is added
            level = {} if memo is None else memo
            new = [row.k for row in rows if (j, row.k) not in level]
            if new:
                self._add_cells(level, x, j, np.array(new))
            # each kept cell touches one run of the ascending points
            for row in rows:
                i0, i1, amp, values = level[j, row.k]
                out[i0:i1] += (row.value * amp) * values
        if self.positive_part:
            np.maximum(out, 0.0, out=out)
        return out

    def _add_cells(self, cells: dict, x: np.ndarray, j: int, ks):
        """Put the synthesis values of level j's cells ``ks`` on the
        ascending points ``x`` into ``cells``, keyed by ``(j, k)``: the
        supports as vectors, and one lookup of the cells' arguments
        ``scale * x - k`` over their runs of points, end to end, per
        ``_LOOKUP_POINTS`` points."""
        fn, amp, scale = level_function(self.basis, j, synthesis=True)
        lo, hi = reconstruction_support(self.basis, (j, ks))
        windows = list(zip(ks.tolist(),
                           np.searchsorted(x, lo, side="left").tolist(),
                           np.searchsorted(x, hi, side="right").tolist()))
        while windows:
            # the next cells that fit in _LOOKUP_POINTS points, one at least
            take, points = 0, 0
            for _, c0, c1 in windows:
                if take and points + c1 - c0 > _LOOKUP_POINTS:
                    break
                take, points = take + 1, points + c1 - c0
            group, windows = windows[:take], windows[take:]
            args = np.concatenate([x[c0:c1] for _, c0, c1 in group])
            args *= scale
            args -= np.repeat([k for k, _, _ in group],
                              [c1 - c0 for _, c0, c1 in group])
            values = fn.eval(args)
            end = 0
            for k, c0, c1 in group:
                end += c1 - c0
                cells[j, k] = c0, c1, amp, values[end - (c1 - c0):end]

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
