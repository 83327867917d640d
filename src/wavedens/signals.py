"""Analytic test densities with exact evaluation and seeded sampling.

Every signal provides a pdf, a cdf (vectorized, used to integrate the
piecewise-constant analysis functions exactly), a deterministic seeded
sampler, and an effective support: the interval carrying all but at most
1e-9 of the probability mass.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr, stdtr, stdtrit

from .estimator import Sample

__all__ = [
    "TestSignal",
    "Uniform01",
    "Gauss",
    "Mixture",
    "Bumps",
    "mixture_gd",
    "mixture_hk",
    "signal_by_name",
]

_TAIL_MASS = 1e-9
_REJECTION_CAP = 10 ** 7


class TestSignal:
    """Base class: subclasses fill in name, pdf, cdf, _draw and
    effective_support."""

    name: str = ""
    effective_support: tuple[float, float] = (0.0, 1.0)

    def pdf(self, x):
        raise NotImplementedError

    def cdf(self, x):
        raise NotImplementedError

    def sf(self, x):
        """Survival function; override when 1 - cdf loses precision."""
        return 1.0 - self.cdf(x)

    def _draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        raise NotImplementedError

    def sample(self, seed, n: int) -> Sample:
        """n i.i.d. draws (a :class:`Sample` is sorted); identical seed
        gives identical output."""
        if n < 2:
            raise ValueError("need n >= 2")
        return Sample(self._draw(np.random.default_rng(seed), n))

    def mass_outside(self, lo: float, hi: float) -> float:
        return float(self.cdf(lo) + self.sf(hi))

    def tail_sq_upper(self, lo: float, hi: float) -> float:
        """Upper estimate of the squared-density mass outside [lo, hi];
        valid because every signal's tails are monotone out there."""
        return float(self.pdf(lo) * self.cdf(lo) + self.pdf(hi) * self.sf(hi))


class Uniform01(TestSignal):
    """Flat density on the unit interval."""

    name = "uniform"
    effective_support = (0.0, 1.0)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return ((x >= 0.0) & (x <= 1.0)).astype(float)

    def cdf(self, x):
        return np.clip(np.asarray(x, dtype=float), 0.0, 1.0)

    def _draw(self, rng, n):
        return rng.random(n)


class _Normal:
    def __init__(self, mu, sigma):
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        self.mu = float(mu)
        self.sigma = float(sigma)

    def pdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mu) / self.sigma
        return np.exp(-0.5 * z * z) / (self.sigma * math.sqrt(2.0 * math.pi))

    def cdf(self, x):
        return ndtr((np.asarray(x, dtype=float) - self.mu) / self.sigma)

    def sf(self, x):
        return ndtr(-(np.asarray(x, dtype=float) - self.mu) / self.sigma)

    def draw(self, rng, n):
        return self.mu + self.sigma * rng.standard_normal(n)

    def bracket(self):
        # two-sided 8-sigma tail mass ~1.2e-15, far below the 1e-9 budget
        return self.mu - 8.0 * self.sigma, self.mu + 8.0 * self.sigma


class _StudentT:
    """Standard Student t component (location 0, unit scale)."""

    def __init__(self, df):
        if df <= 0:
            raise ValueError("degrees of freedom must be positive")
        self.df = float(df)
        # closed-form density constant, cheaper than the generic machinery
        # on the wide grids the heavy tail forces
        self._pdf_const = math.exp(
            math.lgamma((self.df + 1.0) / 2.0) - math.lgamma(self.df / 2.0)
        ) / math.sqrt(self.df * math.pi)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return self._pdf_const * (1.0 + x * x / self.df) ** (-(self.df + 1.0) / 2.0)

    def cdf(self, x):
        return stdtr(self.df, np.asarray(x, dtype=float))

    def sf(self, x):
        return stdtr(self.df, -np.asarray(x, dtype=float))

    def draw(self, rng, n):
        # ratio construction: exact distribution from the seeded generator
        z = rng.standard_normal(n)
        v = rng.chisquare(self.df, n)
        return z / np.sqrt(v / self.df)

    def bracket(self):
        q = stdtrit(self.df, 1.0 - _TAIL_MASS / 4.0)
        return -float(q), float(q)


class Gauss(TestSignal):
    """Single Gaussian density."""

    def __init__(self, mu: float, sigma: float):
        self._component = _Normal(mu, sigma)
        self.mu = self._component.mu
        self.sigma = self._component.sigma
        self.name = f"gauss({mu:g},{sigma:g})"
        self.effective_support = self._component.bracket()

    def pdf(self, x):
        return self._component.pdf(x)

    def cdf(self, x):
        return self._component.cdf(x)

    def sf(self, x):
        return self._component.sf(x)

    def _draw(self, rng, n):
        return self._component.draw(rng, n)


class Mixture(TestSignal):
    """Finite mixture; sampling draws component counts first, then each
    component's values from the same seeded generator."""

    def __init__(self, name, weights, components):
        weights = np.asarray(weights, dtype=float)
        if np.any(weights <= 0) or abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be positive and sum to 1")
        self.name = name
        self.weights = weights
        self.components = tuple(components)
        los, his = zip(*(c.bracket() for c in self.components))
        self.effective_support = (min(los), max(his))

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return sum(w * c.pdf(x) for w, c in zip(self.weights, self.components))

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return sum(w * c.cdf(x) for w, c in zip(self.weights, self.components))

    def sf(self, x):
        x = np.asarray(x, dtype=float)
        return sum(w * c.sf(x) for w, c in zip(self.weights, self.components))

    def _draw(self, rng, n):
        counts = rng.multinomial(n, self.weights)
        parts = [c.draw(rng, m) for c, m in zip(self.components, counts) if m]
        return np.concatenate(parts)


def mixture_gd(d: float) -> Mixture:
    """Equal-weight pair of unit-variance Gaussians centered at 0 and d;
    the separation d stretches the support without changing the shapes."""
    return Mixture(f"gd({d:g})", [0.5, 0.5], [_Normal(0.0, 1.0), _Normal(d, 1.0)])


def mixture_hk(df: float) -> Mixture:
    """Heavy-tailed and spiky: a Student t component plus four narrow
    Gaussians in the ratios 0.45 : 0.15 : 0.1 : 0.25 : 0.15, normalized to
    unit total mass.  Smaller df means a heavier tail, same main shape."""
    ratios = np.array([0.45, 0.15, 0.10, 0.25, 0.15])
    return Mixture(
        f"hk({df:g})",
        ratios / ratios.sum(),
        [_StudentT(df), _Normal(-1.0, 0.05), _Normal(-0.7, 0.005),
         _Normal(1.0, 0.025), _Normal(2.0, 0.05)],
    )


# The eleven peaks of the bumps density: positions, heights and widths.
_BUMP_POSITIONS = np.array([0.1, 0.13, 0.15, 0.23, 0.25, 0.4,
                            0.44, 0.65, 0.76, 0.78, 0.81])
_BUMP_HEIGHTS = np.array([4.0, 5.0, 3.0, 4.0, 5.0, 4.2, 2.1, 4.3, 3.1, 5.1, 4.2])
_BUMP_WIDTHS = np.array([0.005, 0.005, 0.006, 0.01, 0.01, 0.03,
                         0.01, 0.01, 0.005, 0.008, 0.005])


class Bumps(TestSignal):
    """Renormalized bumps density on [0, 1]: a sum of eleven sharp
    rational-decay peaks, divided by its exact integral (close to the
    conventional rounded value 0.284)."""

    name = "bumps"
    effective_support = (0.0, 1.0)

    def __init__(self):
        self.normalizer = float(self._unnormalized_mass(1.0))
        grid = np.arange(0.0, 1.0 + 2.0 ** -14, 2.0 ** -14)
        self._envelope = 1.05 * float(np.max(self.pdf(grid)))

    def _unnormalized_pdf(self, x):
        x = np.asarray(x, dtype=float)
        u = 1.0 + np.abs(x[..., None] - _BUMP_POSITIONS) / _BUMP_WIDTHS
        out = np.sum(_BUMP_HEIGHTS * u ** -4.0, axis=-1)
        return np.where((x >= 0.0) & (x <= 1.0), out, 0.0)

    def _unnormalized_mass(self, x):
        # antiderivative of each peak: H(u) = sign(u) (w/3) (1 - (1+|u|/w)^-3)
        x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)

        def anti(u):
            w = _BUMP_WIDTHS
            return np.sign(u) * (w / 3.0) * (1.0 - (1.0 + np.abs(u) / w) ** -3.0)

        parts = anti(x[..., None] - _BUMP_POSITIONS) - anti(-_BUMP_POSITIONS)
        return np.sum(_BUMP_HEIGHTS * parts, axis=-1)

    def pdf(self, x):
        return self._unnormalized_pdf(x) / self.normalizer

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = self._unnormalized_mass(x) / self.normalizer
        return np.clip(out, 0.0, 1.0)

    def sf(self, x):
        return 1.0 - self.cdf(x)

    def _draw(self, rng, n):
        out = np.empty(n)
        have = 0
        proposals = 0
        while have < n:
            want = n - have
            batch = max(1024, int(1.5 * want * self._envelope))
            batch = min(batch, _REJECTION_CAP - proposals)
            if batch <= 0:
                raise RuntimeError(
                    f"rejection sampler exceeded {_REJECTION_CAP} proposals "
                    "(broken envelope)")
            proposals += batch
            x = rng.random(batch)
            u = rng.random(batch)
            accepted = x[u * self._envelope <= self.pdf(x)]
            take = min(len(accepted), want)
            out[have:have + take] = accepted[:take]
            have += take
        return out


def signal_by_name(name: str, **params) -> TestSignal:
    """CLI-facing constructor: uniform | gauss | gd | hk | bumps."""
    name = name.lower()
    if name == "uniform":
        return Uniform01()
    if name == "gauss":
        return Gauss(params.get("mu", 0.5), params.get("sigma", 0.25))
    if name == "gd":
        return mixture_gd(params.get("d", 10.0))
    if name == "hk":
        return mixture_hk(params.get("df", 2.0))
    if name == "bumps":
        return Bumps()
    raise ValueError(
        f"unknown signal {name!r}; expected uniform, gauss, gd, hk or bumps")

