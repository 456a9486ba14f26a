"""Catalog of exponential-Lévy log-price models.

Each model supplies a cumulant function ``kappa`` with
``E[exp(z * X_t)] = exp(t * kappa(z))`` on its strip of finiteness, the
per-trading-period moment function ``m(z) = exp(kappa(z) * dt)``, and an
increment sampler (except the hyperbolic model, which has no tractable
subordinator representation and is transform-only here).

Parameter conventions follow the usual model-specific ones:

* ``Gaussian(mu, sigma)``: ``mu`` is the *asset* drift, so
  ``kappa(z) = (mu - sigma^2/2) z + sigma^2 z^2 / 2`` and log returns per
  unit time have mean ``mu - sigma^2/2``.
* ``MertonJD(mu, ...)``: ``mu`` is the drift of the Brownian part of the
  *log* price, i.e. ``kappa(z) = mu z + sigma^2 z^2/2 + jump terms``.
  The Poisson rate is named ``jump_intensity`` because the plain symbol
  lambda is reserved for the hedge feedback constant elsewhere.
* NIG / VG / Hyperbolic use the (alpha, beta, delta, mu) parameterisation
  of the generalized-hyperbolic family.

Everything is in discounted terms; there is no interest-rate parameter.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .numerics import DomainError, bessel_k1e

__all__ = [
    "Gaussian",
    "MertonJD",
    "NIG",
    "VG",
    "Hyperbolic",
    "LevyModelSpec",
    "MomentStrip",
    "UnsupportedModelError",
    "cumulant",
    "mgf_step",
    "strip_of_finiteness",
    "no_arbitrage_check",
    "sample_increment",
    "sample_increments",
    "cumulant_derivatives",
    "gaussian_benchmark",
]


class UnsupportedModelError(ValueError):
    """Operation not available for this model."""


@dataclass(frozen=True)
class Gaussian:
    mu: float
    sigma: float

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise ValueError(f"Gaussian.sigma must be > 0, got {self.sigma}")


@dataclass(frozen=True)
class MertonJD:
    mu: float
    sigma: float
    jump_intensity: float
    jump_mean: float
    jump_sd: float

    def __post_init__(self):
        if self.sigma < 0.0:
            raise ValueError(f"MertonJD.sigma must be >= 0, got {self.sigma}")
        if self.jump_intensity < 0.0:
            raise ValueError(
                f"MertonJD.jump_intensity must be >= 0, got {self.jump_intensity}")
        if self.jump_sd < 0.0:
            raise ValueError(f"MertonJD.jump_sd must be >= 0, got {self.jump_sd}")


@dataclass(frozen=True)
class NIG:
    alpha: float
    beta: float
    delta: float
    mu: float

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError(f"NIG.alpha must be > 0, got {self.alpha}")
        if not self.delta > 0.0:
            raise ValueError(f"NIG.delta must be > 0, got {self.delta}")
        if not abs(self.beta) < self.alpha:
            raise ValueError(f"NIG requires |beta| < alpha, got beta={self.beta}")


@dataclass(frozen=True)
class VG:
    alpha: float
    beta: float
    delta: float
    mu: float

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError(f"VG.alpha must be > 0, got {self.alpha}")
        if not self.delta > 0.0:
            raise ValueError(f"VG.delta must be > 0, got {self.delta}")
        for p in (0.0, 1.0, 2.0):
            if not self.alpha - self.beta * p - 0.5 * p * p > 0.0:
                raise ValueError(
                    f"VG requires alpha - beta*p - p^2/2 > 0 for p in {{0,1,2}}; "
                    f"fails at p={p}")


@dataclass(frozen=True)
class Hyperbolic:
    alpha: float
    beta: float
    delta: float
    mu: float

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError(f"Hyperbolic.alpha must be > 0, got {self.alpha}")
        if not self.delta > 0.0:
            raise ValueError(f"Hyperbolic.delta must be > 0, got {self.delta}")
        if not abs(self.beta) < self.alpha:
            raise ValueError(
                f"Hyperbolic requires |beta| < alpha, got beta={self.beta}")


LevyModelSpec = Union[Gaussian, MertonJD, NIG, VG, Hyperbolic]


@dataclass(frozen=True)
class MomentStrip:
    """Open interval of p with E[exp(p * X_1)] finite.

    Hedging needs ``lo < 0`` and ``hi > 2`` with room to spare: both twice
    the payoff abscissas and the point 2 itself must lie strictly inside.
    """

    lo: float
    hi: float

    def contains(self, p: float) -> bool:
        return self.lo < p < self.hi


@functools.lru_cache(maxsize=64)   # models are frozen and hashable
def strip_of_finiteness(model: LevyModelSpec) -> MomentStrip:
    if isinstance(model, (Gaussian, MertonJD)):
        return MomentStrip(-math.inf, math.inf)
    if isinstance(model, (NIG, Hyperbolic)):
        return MomentStrip(-model.alpha - model.beta, model.alpha - model.beta)
    if isinstance(model, VG):
        # roots of alpha - beta p - p^2/2 = 0
        disc = math.sqrt(model.beta ** 2 + 2.0 * model.alpha)
        return MomentStrip(-model.beta - disc, -model.beta + disc)
    raise UnsupportedModelError(f"unknown model {model!r}")


# -- hyperbolic cumulant -----------------------------------------------------
#
# The hyperbolic cumulant is mu z plus the log of a Bessel/sqrt ratio, which
# winds around the origin along a vertical contour.  The ratio is split as
# exp(-delta(s(z) - s0)) * q(z) with s the principal square root (Re s > 0
# on the strip) and q = (s0/s) K1e(delta s)/K1e(delta s0) built from the
# *scaled* Bessel function, so the winding sits in the exact exponential
# part.  q = F(delta s)/F(delta s0), where F(p) = K1e(p)/p is the Laplace
# transform of sqrt(u^2 + 2u) (DLMF 10.32.8) and F(p) = L[f'](p)/p with
# f'(u) = (u + 1)/sqrt(u^2 + 2u) completely monotone.  L[f'] is then a
# Stieltjes function, whose argument lies between -arg p and 0, so
# |arg q| <= 2 |arg(delta s)| < pi: q never reaches the negative reals,
# its principal log is the distinguished one, and kappa needs no path.

@functools.lru_cache(maxsize=64)
def _hyp_anchor(alpha: float, beta: float, delta: float) -> tuple:
    """(s0, K1e(delta s0)) with s0 = sqrt(alpha^2 - beta^2): the value of
    s and of the scaled Bessel factor at z = 0, fixed per model.  Kept out
    of the node batches: high on a contour every node takes Hankel's
    expansion, and the anchor would add a pass of the Gauss-Laguerre rule
    to each."""
    s0 = complex(np.sqrt(complex(alpha ** 2 - beta ** 2)))
    return s0, bessel_k1e(delta * s0)


def _hyp_parts(model: Hyperbolic, z):
    """(s(z), s0, q(z)) with ratio = exp(-delta (s - s0)) q and kappa(0) = 0.

    Bessel values do not depend on the array they are evaluated in, so
    q(0) is bitwise 1 at z = 0.
    """
    s0, k0 = _hyp_anchor(model.alpha, model.beta, model.delta)
    s = np.sqrt(model.alpha ** 2 - (model.beta + np.asarray(z, dtype=complex)) ** 2)
    q = (s0 / s) * (bessel_k1e(model.delta * s) / k0)
    return s, s0, q


def _hyp_ratio(model: Hyperbolic, z):
    """The quantity whose distinguished log is kappa(z) - mu z."""
    s, s0, q = _hyp_parts(model, z)
    return np.exp(-model.delta * (s - s0)) * q


def cumulant(model: LevyModelSpec, z):
    """Cumulant function kappa with ``E[e^{z X_t}] = e^{t kappa(z)}``.

    Accepts a complex scalar or ndarray; ``Re(z)`` must lie strictly inside
    the model's moment strip.  Every element is evaluated on its own, so
    an array may mix real parts and gives bitwise the values of its
    elements.  Logarithms are the distinguished ones, continuous from the
    real axis; for the hyperbolic model that is the exact exponential part
    plus the principal log of the scaled Bessel ratio, which never reaches
    the negative reals (see the comment above ``_hyp_anchor``).
    """
    scalar = np.ndim(z) == 0
    zz = np.asarray(z, dtype=complex)
    strip = strip_of_finiteness(model)
    lo, hi = zz.real.min(), zz.real.max()
    if lo <= strip.lo or hi >= strip.hi:
        raise DomainError(
            f"Re(z) in [{lo:g}, {hi:g}] outside the open moment strip "
            f"({strip.lo:g}, {strip.hi:g}) of {type(model).__name__}")
    if isinstance(model, Gaussian):
        out = (model.mu - 0.5 * model.sigma ** 2) * zz + 0.5 * model.sigma ** 2 * zz ** 2
    elif isinstance(model, MertonJD):
        out = (model.mu * zz + 0.5 * model.sigma ** 2 * zz ** 2
               + model.jump_intensity
               * (np.exp(model.jump_mean * zz + 0.5 * model.jump_sd ** 2 * zz ** 2) - 1.0))
    elif isinstance(model, NIG):
        a2 = model.alpha ** 2
        g0 = math.sqrt(a2 - model.beta ** 2)
        out = model.mu * zz + model.delta * (g0 - np.sqrt(a2 - (model.beta + zz) ** 2))
    elif isinstance(model, VG):
        # alpha - beta z - z^2/2 stays in the right half-plane on the strip,
        # so the principal log is already branch-continuous along contours.
        denom = model.alpha - model.beta * zz - 0.5 * zz ** 2
        out = model.mu * zz + model.delta * np.log(model.alpha / denom)
    elif isinstance(model, Hyperbolic):
        s, s0, q = _hyp_parts(model, zz)
        out = (model.mu * zz - model.delta * (s - s0)
               + np.where(zz == 0.0, 0.0, np.log(q)))
    else:
        raise UnsupportedModelError(f"unknown model {model!r}")
    return out if not scalar else complex(out)


def mgf_step(model: LevyModelSpec, z, dt: float):
    """Per-period moment function ``m(z) = exp(kappa(z) * dt)``.

    The fractional power is taken through the distinguished logarithm of
    ``cumulant``.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    out = np.exp(np.asarray(cumulant(model, z)) * dt)
    return complex(out) if np.ndim(z) == 0 else out


def cumulant_derivatives(model: LevyModelSpec) -> tuple:
    """(kappa'(0), kappa''(0)): mean and variance of X_1.

    Central differences with one Richardson step; accurate to ~1e-9, which
    is far beyond what moment-matched benchmarking needs.
    """
    def d1(h):
        return (cumulant(model, h).real - cumulant(model, -h).real) / (2.0 * h)

    def d2(h):
        return (cumulant(model, h).real - 2.0 * cumulant(model, 0.0).real
                + cumulant(model, -h).real) / (h * h)

    h = 1e-3
    k1 = (4.0 * d1(h / 2) - d1(h)) / 3.0
    k2 = (4.0 * d2(h / 2) - d2(h)) / 3.0
    return k1, k2


def gaussian_benchmark(model: LevyModelSpec) -> Gaussian:
    """Gaussian model with the same mean and variance of log returns."""
    k1, k2 = cumulant_derivatives(model)
    return Gaussian(mu=k1 + 0.5 * k2, sigma=math.sqrt(k2))


def no_arbitrage_check(model: LevyModelSpec, dt: float) -> bool:
    """True iff the one-period variance denominator m(2) - m(1)^2 is
    materially positive (deterministic prices are rejected)."""
    m1 = mgf_step(model, 1.0, dt).real
    m2 = mgf_step(model, 2.0, dt).real
    return m2 - m1 * m1 > 1e-12 * max(m2, m1 * m1)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def _require_sampler(model: LevyModelSpec) -> None:
    if not isinstance(model, (Gaussian, MertonJD, NIG, VG)):
        raise UnsupportedModelError(
            f"{type(model).__name__} has no increment sampler")


def _increments(model: LevyModelSpec, dt: float, rng: np.random.Generator,
                size, normal) -> np.ndarray:
    """The sampling formula of each model; ``normal()`` supplies the
    standard normals that drive the increments' conditionally Gaussian
    part, and may add a leading axis that the result then carries."""
    if not dt > 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    _require_sampler(model)
    if isinstance(model, Gaussian):
        loc = (model.mu - 0.5 * model.sigma ** 2) * dt
        return loc + model.sigma * math.sqrt(dt) * normal()
    if isinstance(model, MertonJD):
        x = model.mu * dt + model.sigma * math.sqrt(dt) * normal()
        n = rng.poisson(model.jump_intensity * dt, size=size)
        # sum of n iid N(jump_mean, jump_sd^2) given n
        return x + n * model.jump_mean + np.sqrt(n) * model.jump_sd * rng.standard_normal(size=size)
    if isinstance(model, NIG):
        gam = math.sqrt(model.alpha ** 2 - model.beta ** 2)
        y = rng.wald(model.delta * dt / gam, (model.delta * dt) ** 2, size=size)
    else:
        y = rng.gamma(model.delta * dt, 1.0 / model.alpha, size=size)
    return model.mu * dt + model.beta * y + np.sqrt(y) * normal()


def sample_increments(model: LevyModelSpec, dt: float, rng: np.random.Generator,
                      size) -> np.ndarray:
    """Draws of X_{t+dt} - X_t, vectorized.

    Gaussian: closed form.  Merton: Brownian part plus a compound Poisson
    sum of normal jumps (aggregated per step).  NIG: inverse-Gaussian
    subordinator, then conditionally normal.  VG: gamma subordinator, then
    conditionally normal.  The hyperbolic model has no closed subordinator
    representation and is rejected.
    """
    return _increments(model, dt, rng, size,
                       lambda: rng.standard_normal(size=size))


def _antithetic_increments(model: LevyModelSpec, dt: float,
                           rng: np.random.Generator, size) -> np.ndarray:
    """``size = (rows, steps)`` draws in antithetic pairs: the first half of
    the rows, then their mirrors, with every driving normal negated and
    the jump counts, jump sizes and subordinators shared."""
    n_rows = size[0]
    half = ((n_rows + 1) // 2,) + tuple(size[1:])

    def mirrored():
        z = rng.standard_normal(half)
        return np.stack((z, -z))

    x = _increments(model, dt, rng, half, mirrored)
    return x.reshape((-1,) + half[1:])[:n_rows]


def sample_increment(model: LevyModelSpec, dt: float, rng: np.random.Generator) -> float:
    """One draw of X_{t+dt} - X_t."""
    return float(sample_increments(model, dt, rng, size=()))
