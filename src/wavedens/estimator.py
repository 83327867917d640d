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

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Optional

import numpy as np

from .basis import (
    BiorthogonalBasis,
    CoefficientIndex,
    basis_by_name,
    level_function,
    reconstruction_support,
    sup_norm,
)

__all__ = [
    "Sample",
    "Mode",
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
    "oracle_estimate",
    "besov_seminorm",
    "estimate_from_json_dict",
]


@dataclass(frozen=True)
class Sample:
    """Sorted 1-D sample with at least two finite observations."""

    observations: np.ndarray
    # the level scans fitted to this sample, (id(basis), j0) -> (basis,
    # columns); holding the basis keeps its id from being reused
    _scans: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

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


_MODE_KINDS = ("practical", "practical-gamma", "theoretical-gamma")


@dataclass(frozen=True)
class Mode:
    """Threshold rule selector; use the factory helpers below."""

    kind: str
    gamma: float = 1.0
    c: float = 1.0
    c_prime: float = 0.0

    def __post_init__(self):
        if self.kind not in _MODE_KINDS:
            raise ValueError(f"unknown mode kind {self.kind!r}")
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if self.kind == "practical" and self.gamma != 1.0:
            raise ValueError("the practical rule has gamma = 1; "
                             "use practical-gamma for another gamma")
        if self.kind == "theoretical-gamma" and self.c < 1:
            raise ValueError("c must be >= 1")

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
        """Coarse-to-fine level cap: floor(log2(n^c (ln n)^c')) in
        theoretical mode, floor(log2 n) otherwise, unless overridden."""
        if self.j0_override is not None:
            j0 = int(self.j0_override)
        elif self.mode.kind == "theoretical-gamma":
            c, c_prime = self.mode.c, self.mode.c_prime
            try:
                cap = (n ** c) * math.log(n) ** c_prime
                # a cap that underflows to 0.0 lies below every level
                j0 = int(math.floor(math.log2(cap))) if cap > 0 else -math.inf
            except OverflowError:
                raise ValueError(f"n^c (ln n)^c' overflows for n = {n}, "
                                 f"c = {c!r}, c' = {c_prime!r}") from None
        else:
            j0 = int(math.floor(math.log2(n)))
        if j0 < -1:
            raise ValueError(f"level cap j0 = {j0} is below -1")
        return j0


class KeptCoefficient(NamedTuple):
    """Surviving cell as a lightweight (j, k, value, threshold) row."""

    j: int
    k: int
    value: float
    threshold: float


def variance_hat(values) -> float:
    """Unbiased variance of the summands via the O(n) identity
    ``n (m2 - m1^2) / (n - 1)``; equals the pairwise U-statistic
    ``sum_{i<l} (v_i - v_l)^2 / (n (n-1))``.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or len(v) < 2:
        raise ValueError("need at least two values")
    n = len(v)
    m1 = float(np.mean(v))
    m2 = float(np.mean(v * v))
    return max(0.0, n * (m2 - m1 * m1) / (n - 1))


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

def _level_stats(x: np.ndarray, basis: BiorthogonalBasis, j: int):
    """Exact per-cell sums at one level.

    Returns ``(ks, s1, s2, njk)`` for every integer translate whose analysis
    support contains at least one observation: ``s1 = sum psi_jk(X_i)``,
    ``s2 = sum psi_jk(X_i)^2`` and ``njk`` the count of observations in the
    closed support.  Cells never touched by data are not materialized (their
    empirical coefficient is exactly zero).
    """
    step_fn, amp, scale = level_function(basis, j)
    a, b = step_fn.support
    bp = step_fn.breakpoints
    vals = step_fn.values
    t = scale * x
    base = np.floor(t)
    frac = t - base

    k_parts, v_parts = [], []
    # Integer offsets c with u = frac - c possibly inside [a, b]; frac in
    # [0, 1), so c ranges over ceil(-b) .. floor(1 - a).
    for c in range(math.ceil(-b), math.floor(1.0 - a) + 1):
        u = frac - c
        inside = (u >= a) & (u <= b)
        if not np.any(inside):
            continue
        uu = u[inside]
        piece = np.searchsorted(bp, uu, side="right") - 1
        piece = np.clip(piece, 0, len(vals) - 1)
        k_parts.append((base[inside] + c).astype(np.int64))
        v_parts.append(amp * vals[piece])
    # b - a >= 1: every observation lands in some translate
    ks = np.concatenate(k_parts)
    vs = np.concatenate(v_parts)
    # compact the touched translates before aggregating: memory stays O(n)
    # however widely the data are spread
    k_out, inv = np.unique(ks, return_inverse=True)
    s1 = np.bincount(inv, weights=vs, minlength=len(k_out))
    s2 = np.bincount(inv, weights=vs * vs, minlength=len(k_out))
    njk = np.bincount(inv, minlength=len(k_out))
    return k_out, s1, s2, njk


def _scan(sample: Sample, basis: BiorthogonalBasis, j0: int) -> tuple:
    """The level scan behind :func:`coefficient_table`: its rule-free
    columns (j, k, beta_hat, sigma_hat_sq, n_jk, sup), read-only because
    every rule fitted to the sample reuses them."""
    x = sample.observations
    n = sample.n
    max_abs = max(abs(float(x[0])), abs(float(x[-1])))
    if max_abs >= math.ldexp(1.0, 52 - max(j0, 0)):
        raise ValueError(f"2^{max(j0, 0)} * max|x| = 2^{max(j0, 0)} * "
                         f"{max_abs!r} reaches 2^52; rescale the data "
                         f"or lower j0")
    parts = []
    for level in range(-1, j0 + 1):
        ks, s1, s2, njk = _level_stats(x, basis, level)
        nonzero = s1 != 0.0
        s1 = s1[nonzero]
        parts.append((np.full(len(s1), level, dtype=np.int64), ks[nonzero],
                      s1 / n,
                      np.maximum(0.0, (s2[nonzero] - s1 * s1 / n) / (n - 1)),
                      njk[nonzero],
                      np.full(len(s1), sup_norm(basis, (level, 0)))))
    # join one column at a time and drop its level pieces right away, so
    # the peak holds one copy of the table rather than two
    columns = [list(col) for col in zip(*parts)]
    del parts
    out = tuple(np.concatenate(columns.pop(0)) for _ in range(6))
    for col in out:
        col.setflags(write=False)
    return out


@dataclass(frozen=True)
class CoefficientTable:
    """Every nonzero empirical cell of levels -1..j0, sorted by (j, k).

    Equal-length columns: level ``j``, translate ``k``, coefficient
    ``beta_hat``, unbiased summand variance ``sigma_hat_sq``, observation
    count ``n_jk`` in the closed analysis support, analysis sup norm
    ``sup``, threshold ``eta`` and the keep mask ``kept`` (|beta_hat| >= eta).
    """

    j: np.ndarray
    k: np.ndarray
    beta_hat: np.ndarray
    sigma_hat_sq: np.ndarray
    n_jk: np.ndarray
    sup: np.ndarray
    eta: np.ndarray
    kept: np.ndarray
    j0: int

    def __len__(self) -> int:
        return len(self.j)


def coefficient_table(sample: Sample, config: EstimatorConfig) -> CoefficientTable:
    """Scan levels -1..j0 and threshold every nonzero empirical coefficient.

    At each level exactly the translates whose analysis support meets the
    data are visited; cells whose coefficient is exactly zero are dropped.
    The scan depends on the sample, basis and j0 alone, so the sample keeps
    it and later rules reuse it; its columns are read-only.  Raises
    ``ValueError`` when ``2**max(j0, 0) * max|x|`` reaches 2^52, where
    floor() and the int64 translate index stop being exact.
    """
    j0 = config.j0(sample.n)
    key = (id(config.basis), j0)
    if key not in sample._scans:
        sample._scans[key] = (config.basis, _scan(sample, config.basis, j0))
    j, ks, beta, sig, njk, sup = sample._scans[key][1]
    eta = _threshold_value(sig, sup, sample.n, config.mode)
    return CoefficientTable(j=j, k=ks, beta_hat=beta, sigma_hat_sq=sig,
                            n_jk=njk, sup=sup, eta=eta,
                            kept=np.abs(beta) >= eta, j0=j0)


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
        """Hull of the reconstruction supports of the kept cells."""
        if not self.kept:
            return None
        los, his = zip(*(reconstruction_support(self.basis, (row.j, row.k))
                         for row in self.kept))
        return min(los), max(his)

    def evaluate(self, grid) -> np.ndarray:
        """Pointwise reconstruction on ``grid``, clipped at zero when the
        estimate carries the positive-part flag.  Exactly zero outside the
        kept reconstruction supports."""
        x = np.atleast_1d(np.asarray(grid, dtype=float))
        shape, x = x.shape, x.ravel()
        # each kept cell touches one run of an ascending grid
        order = None if np.all(x[1:] >= x[:-1]) else np.argsort(x, kind="stable")
        if order is not None:
            x = x[order]
        out = np.zeros_like(x)
        for row in self.kept:
            fn, amp, scale = level_function(self.basis, row.j, synthesis=True)
            lo, hi = reconstruction_support(self.basis, (row.j, row.k))
            i0 = np.searchsorted(x, lo, side="left")
            i1 = np.searchsorted(x, hi, side="right")
            out[i0:i1] += row.value * amp * fn.eval(scale * x[i0:i1] - row.k)
        if self.positive_part:
            np.maximum(out, 0.0, out=out)
        if order is not None:
            out[order] = out.copy()
        return out.reshape(shape)

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


def estimate_from_json_dict(doc: dict,
                            basis: Optional[BiorthogonalBasis] = None) -> DensityEstimate:
    if doc.get("format") != "wavedens-estimate-v1":
        raise ValueError(f"unrecognized estimate format {doc.get('format')!r}")
    if basis is None:
        basis = basis_by_name(doc["basis"])
    mode = Mode(doc["mode"]["kind"], gamma=doc["mode"]["gamma"],
                c=doc["mode"]["c"], c_prime=doc["mode"]["c_prime"])
    kept = tuple(KeptCoefficient(*row) for row in doc["kept"])
    return DensityEstimate(kept=kept, basis=basis,
                           positive_part=bool(doc["positive_part"]),
                           n=int(doc["n"]), mode=mode, j0=int(doc["j0"]))


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


def oracle_estimate(sample: Sample, signal, config: EstimatorConfig) -> DensityEstimate:
    """Benchmark estimate keeping exactly the cells whose true coefficient
    beats its own sampling noise: keep ``beta_hat`` iff
    ``beta^2 > sigma^2 / n`` with true beta and sigma from the signal.

    Uses the same cell table as the data-driven path (cells with an
    exactly-zero empirical coefficient would contribute nothing).  Not a
    realizable estimator; benchmark only.
    """
    from .signals import true_level_values

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


def besov_seminorm(coeffs: Mapping, alpha: float, p: float, q: float) -> float:
    """Sequential smoothness norm of a finite coefficient map.

    Father row in an l_p norm plus the q-weighted level sums
    ``[sum_j (2^{j(alpha + 1/2 - 1/p)} ||(b_jk)_k||_p)^q]^{1/q}``, with the
    usual sup conventions at p or q infinite.  Diagnostic only.
    """
    if p < 1 or q < 1:
        raise ValueError("p and q must be >= 1")
    levels: dict[int, list[float]] = {}
    for idx, value in coeffs.items():
        j, _k = idx
        levels.setdefault(int(j), []).append(float(value))

    def lp(values: Iterable[float]) -> float:
        arr = np.abs(np.asarray(list(values), dtype=float))
        if arr.size == 0:
            return 0.0
        if math.isinf(p):
            return float(arr.max())
        return float(np.sum(arr ** p) ** (1.0 / p))

    father = lp(levels.get(-1, []))
    inv_p = 0.0 if math.isinf(p) else 1.0 / p
    weighted = [2.0 ** (j * (alpha + 0.5 - inv_p)) * lp(vals)
                for j, vals in sorted(levels.items()) if j >= 0]
    if not weighted:
        return father
    if math.isinf(q):
        detail = max(weighted)
    else:
        detail = float(np.sum(np.asarray(weighted) ** q) ** (1.0 / q))
    return father + detail
