"""Variance-optimal hedging with N trading dates.

For a claim ``f(S_N) = int S_N^z Pi(dz)`` on ``S_n = S0 exp(X_n)`` with iid
increments, the optimal initial capital, the locally risk-minimizing ratio
``xi``, the feedback strategy ``phi`` and the exact variance of the
terminal hedging error are all single or double contour integrals against
``Pi``.  With ``m(z) = E[e^{z dX}]`` per trading period:

    g(z)   = (m(z+1) - m(1) m(z)) / (m(2) - m(1)^2)
    h(z)   = m(z) - (m(1) - 1) g(z)
    lambda = (m(1) - 1) / (m(2) - 2 m(1) + 1)
    H_n    = int S_n^z h(z)^(N-n) Pi(dz)          (option "price process")
    xi_n   = int S_(n-1)^(z-1) g(z) h(z)^(N-n) Pi(dz)
    phi_n  = xi_n + (lambda / S_(n-1)) (H_(n-1) - V0 - G_(n-1))

and the error variance is the double integral of

    J(y, z) = S0^(y+z) b(y, z) (a(y,z)^N - m(y+z)^N) / (a(y,z) - m(y+z))

with the degenerate a == m branch equal to N m^(N-1) b.  The geometric sum
is the direct quotient, with a^N taken from per-node roots of a; within
1e-3 of the degeneracy it is evaluated in the stable normalized form
m^(N-1) N q(a/m - 1) with q(r) = ((1+r)^N - 1)/(N r), which passes
smoothly through it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import models as mdl
from . import payoffs as po

__all__ = [
    "DiscreteHedgeCoefficients",
    "DiscreteHedgeState",
    "NegativeCapitalWarning",
    "NegativeVarianceError",
    "coefficients",
    "initial_capital",
    "price_process",
    "xi",
    "phi_step",
    "error_variance",
    "risk_min_fixed_capital",
    "FixedCapitalStrategy",
]


class NegativeCapitalWarning(UserWarning):
    """The variance-optimal initial capital is negative.

    It is not an arbitrage-free price; a negative value for a positive
    payoff is legitimate output, but worth flagging.
    """


class NegativeVarianceError(ArithmeticError):
    """A variance came out materially negative: quadrature failure."""


def _geometric_sum_q(r: np.ndarray, n: int) -> np.ndarray:
    """q(r) = ((1+r)^n - 1)/(n r), with q(0) = 1.

    Series via log1p/expm1 for small r keeps full precision through the
    a == m degeneracy; |r| < 1e-8 snaps to the limit value 1.
    """
    r = np.asarray(r, dtype=complex)
    out = np.ones_like(r)
    tiny = np.abs(r) < 1e-8
    small = (~tiny) & (np.abs(r) < 1e-3)
    if np.any(small):
        rs = r[small]
        # log1p and expm1 for complex, truncated well below 1e-16
        l1p = rs * (1.0 - rs * (0.5 - rs * (1.0 / 3.0 - rs * (0.25 - rs / 5.0))))
        w = n * l1p
        e1m = w * (1.0 + w * (0.5 + w * (1.0 / 6.0 + w * (1.0 / 24.0 + w / 120.0))))
        out[small] = e1m / (n * rs)
    big = ~(tiny | small)
    if np.any(big):
        rb = r[big]
        out[big] = ((1.0 + rb) ** n - 1.0) / (n * rb)
    return out


def _geometric_sum(a: np.ndarray, m: np.ndarray, n: int,
                   log_m=None) -> np.ndarray:
    """(a^n - m^n)/(a - m), guarded against under/overflowed arguments.

    Evaluated as m^(n-1) n q(a/m - 1) in the generic regime; where one
    argument utterly dominates, as the exact ratio m^(n-1) (1 - rho^n) /
    (1 - rho) in the small ratio rho (a/m, or m/a with the roles swapped),
    and where both have underflowed (n >= 2) it vanishes.  ``log_m``
    (a log of m, any branch) turns the m-power into a single exp.
    """
    if n == 1:
        return np.ones_like(a)
    out = np.zeros_like(a)
    live = np.maximum(np.abs(a), np.abs(m)) > 1e-280
    aa, mm = a[live], m[live]
    res = np.empty_like(aa)
    # dominance threshold keeps |a/m|^n and its reciprocal representable
    thresh = 10.0 ** min(12.0, 250.0 / n)
    big_a = np.abs(aa) > thresh * np.abs(mm)
    big_m = np.abs(mm) > thresh * np.abs(aa)
    mid = ~(big_a | big_m)
    if log_m is None:
        m_pow = mm ** (n - 1)
    else:
        m_pow = np.exp((n - 1) * log_m[live])
    rho = mm[big_a] / aa[big_a]
    res[big_a] = aa[big_a] ** (n - 1) * ((1.0 - rho ** n) / (1.0 - rho))
    rho = aa[big_m] / mm[big_m]
    res[big_m] = m_pow[big_m] * ((1.0 - rho ** n) / (1.0 - rho))
    r = aa[mid] / mm[mid] - 1.0
    res[mid] = m_pow[mid] * n * _geometric_sum_q(r, n)
    out[live] = res
    return out


def _geometric_ratio(a, a_pow, m, log_m, n: int):
    """(a^n - m^n)/(a - m) cell by cell, given ``a_pow`` = a^n.

    The direct quotient holds wherever a and m are apart; cells within
    1e-3 of the degeneracy a == m, or where the quotient is not finite,
    go through :func:`_geometric_sum`.
    """
    if n == 1:
        return np.ones(np.shape(m), dtype=complex)
    d = a - m
    with np.errstate(all="ignore"):
        out = (a_pow - np.exp(n * log_m)) / d
        near = ~(np.abs(d) >= 1e-3 * np.abs(m)) | ~np.isfinite(out)
    if near.any():
        out[near] = _geometric_sum(a[near], m[near], n, log_m[near])
    return out


@dataclass(frozen=True)
class DiscreteHedgeCoefficients:
    """Closures g, h and the feedback constant for one (model, T, N)."""

    model: mdl.LevyModelSpec
    T: float
    N: int
    dt: float
    m1: float
    m2: float
    lambda_feedback: float

    def m(self, z):
        return mdl.mgf_step(self.model, z, self.dt)

    def moment_terms(self, z):
        """``(m(z), m(z+1), g(z), h(z))`` from one evaluation of m at z and
        one at z + 1."""
        mz = self.m(z)
        mz1 = self.m(np.asarray(z) + 1.0)
        g = (mz1 - self.m1 * mz) / (self.m2 - self.m1 ** 2)
        return mz, mz1, g, mz - (self.m1 - 1.0) * g

    def g(self, z):
        return self.moment_terms(z)[2]

    def h(self, z):
        return self.moment_terms(z)[3]


def coefficients(model: mdl.LevyModelSpec, T: float, N: int) -> DiscreteHedgeCoefficients:
    if not T > 0.0:
        raise ValueError(f"T must be > 0, got {T}")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    strip = mdl.strip_of_finiteness(model)
    if not (strip.contains(0.0) and strip.contains(2.0)):
        raise ValueError(
            f"moment strip ({strip.lo:g}, {strip.hi:g}) must contain [0, 2]")
    dt = T / N
    if not mdl.no_arbitrage_check(model, dt):
        raise ValueError("degenerate model: var(e^dX) vanishes, no hedge exists")
    m1 = mdl.mgf_step(model, 1.0, dt).real
    m2 = mdl.mgf_step(model, 2.0, dt).real
    lam = (m1 - 1.0) / (m2 - 2.0 * m1 + 1.0)
    return DiscreteHedgeCoefficients(model, float(T), int(N), dt, m1, m2, lam)


# -- shared with the continuous-time engine ---------------------------------

def _admissible_or_raise(coeffs, payoff: po.TransformMeasure) -> None:
    strip = mdl.strip_of_finiteness(coeffs.model)
    if not po.abscissa_admissible(payoff, strip):
        raise ValueError(
            "payoff abscissas inadmissible for this model: need "
            f"2R inside ({strip.lo:g}, {strip.hi:g})")


def _capital_checked(v0: float) -> float:
    """V0, with a :class:`NegativeCapitalWarning` (at the quote's caller)
    when it is negative."""
    if v0 < 0.0:
        warnings.warn(f"variance-optimal initial capital is negative ({v0:.6g})",
                      NegativeCapitalWarning, stacklevel=3)
    return v0


def _variance_clamped(value: float, S0: float) -> float:
    """A quadrature variance clamped to 0 down to -1e-8 * S0^2; materially
    below that it is a quadrature failure."""
    if value < -1e-8 * max(1.0, S0) ** 2:
        raise NegativeVarianceError(
            f"error variance {value:.3e} below -1e-8 * S0^2: quadrature failure")
    return max(value, 0.0)


def price_process(coeffs: DiscreteHedgeCoefficients, payoff: po.TransformMeasure,
                  S_n: float, n: int, *, tol: float = 1e-8) -> float:
    """H_n at stock level S_n; H_N is the payoff itself."""
    if not 0 <= n <= coeffs.N:
        raise ValueError(f"n must lie in [0, {coeffs.N}], got {n}")
    _admissible_or_raise(coeffs, payoff)
    k = coeffs.N - n

    def weight(z):
        return coeffs.h(z) ** k if k else np.ones_like(np.asarray(z))

    res = po.integrate_measure(payoff, S_n, weight,
                               tol_abs=tol * (1.0 + S_n))
    return float(res.value.real)


def initial_capital(coeffs: DiscreteHedgeCoefficients, payoff: po.TransformMeasure,
                    S0: float, *, tol: float = 1e-8) -> float:
    """Variance-optimal initial capital V0 = H_0.

    Emits :class:`NegativeCapitalWarning` when negative: legal, but not a
    price.
    """
    return _capital_checked(price_process(coeffs, payoff, S0, 0, tol=tol))


def xi(coeffs: DiscreteHedgeCoefficients, payoff: po.TransformMeasure,
       S_prev: float, n: int, *, tol: float = 1e-8) -> float:
    """Locally risk-minimizing hedge ratio xi_n given S_(n-1)."""
    if not 1 <= n <= coeffs.N:
        raise ValueError(f"n must lie in [1, {coeffs.N}], got {n}")
    _admissible_or_raise(coeffs, payoff)
    k = coeffs.N - n

    def weight(z):
        _, _, g, h = coeffs.moment_terms(z)
        return g * h ** k

    res = po.integrate_measure(payoff, S_prev, weight,
                               tol_abs=tol * (1.0 + S_prev))
    return float(res.value.real) / S_prev


@dataclass(frozen=True)
class DiscreteHedgeState:
    """Single-owner state of the online feedback recursion.

    The realized price move enters at the *next* call: ``phi_step`` first
    folds ``prev_phi * (S_prev - prev_spot)`` into the running gains, then
    computes phi for the current step.
    """

    step: int                      # next trading date n in [1, N]
    capital: float                 # V0, or the fixed seed c
    gains: float = 0.0             # G_(n-1)
    wealth_gap: float = 0.0        # H_(n-1) - capital - G_(n-1), last computed
    prev_spot: Optional[float] = None
    prev_phi: Optional[float] = None


def phi_step(coeffs: DiscreteHedgeCoefficients, payoff: po.TransformMeasure,
             state: DiscreteHedgeState, S_prev: float, *,
             tol: float = 1e-8):
    """One step of phi_n = xi_n + (lambda/S_(n-1)) (H_(n-1) - V0 - G_(n-1)).

    Returns ``(phi_n, new_state)``; drive it with observed spots.
    """
    if state.step < 1 or state.step > coeffs.N:
        raise ValueError(f"state.step must lie in [1, {coeffs.N}]")
    gains = state.gains
    if state.prev_phi is not None:
        gains += state.prev_phi * (S_prev - state.prev_spot)
    n = state.step
    xi_n = xi(coeffs, payoff, S_prev, n, tol=tol)
    h_prev = price_process(coeffs, payoff, S_prev, n - 1, tol=tol)
    gap = h_prev - state.capital - gains
    phi_n = xi_n + coeffs.lambda_feedback / S_prev * gap
    new_state = DiscreteHedgeState(step=n + 1, capital=state.capital,
                                   gains=gains, wealth_gap=gap,
                                   prev_spot=S_prev, prev_phi=phi_n)
    return phi_n, new_state


@dataclass(frozen=True)
class FixedCapitalStrategy:
    """Risk-minimizing strategy for a fixed initial endowment.

    Identical recursion to the variance-optimal hedge with the capital
    seed replaced by ``c``; when the feedback constant is zero the
    strategy does not depend on c at all.
    """

    coeffs: DiscreteHedgeCoefficients
    payoff: po.TransformMeasure
    state: DiscreteHedgeState

    def step(self, S_prev: float):
        phi, new_state = phi_step(self.coeffs, self.payoff, self.state, S_prev)
        return phi, replace(self, state=new_state)


def risk_min_fixed_capital(coeffs: DiscreteHedgeCoefficients,
                           payoff: po.TransformMeasure, S0: float,
                           c: float) -> FixedCapitalStrategy:
    _admissible_or_raise(coeffs, payoff)
    state = DiscreteHedgeState(step=1, capital=float(c))
    return FixedCapitalStrategy(coeffs, payoff, state)


def error_variance(coeffs: DiscreteHedgeCoefficients, payoff: po.TransformMeasure,
                   S0: float, *, tol: float = 1e-6,
                   return_result: bool = False):
    """Exact variance of the terminal hedging error of the optimal hedge.

    Clamped to 0 down to -1e-8 * S0^2 (a variance computed by oscillatory
    quadrature may come out at a tiny negative); materially below that is
    a quadrature failure and raises :class:`NegativeVarianceError`.
    """
    _admissible_or_raise(coeffs, payoff)
    model, N, dt = coeffs.model, coeffs.N, coeffs.dt
    m1, m2 = coeffs.m1, coeffs.m2
    a_root = math.sqrt((m2 - m1 ** 2) / (m2 - 2.0 * m1 + 1.0))
    var1 = m2 - m1 ** 2
    ln_s0 = math.log(S0)

    # everything that depends on one axis only: S0^z, the moment terms of
    # b (grouped as b groups them, so b is computed as before), and the
    # per-axis root A of a = A_y A_z with its N-th power
    def axis_data(zn):
        mz, mz1, _, h = coeffs.moment_terms(zn)
        root = h * a_root
        return (np.exp(zn * ln_s0), mz, mz1, m2 * mz, m1 * mz1, m1 * mz,
                root, root ** N)

    def pair(ydat, zdat, ysum):
        s0y, _, my1, m2_my, m1_my1, m1_my, ay, ay_n = ydat
        s0z, mz, mz1, _, _, _, az, az_n = zdat
        log_m = mdl.cumulant(model, ysum) * dt
        myz = np.exp(log_m)
        b = myz - (m2_my * mz - m1_my1 * mz - m1_my * mz1 + my1 * mz1) / var1
        geo = _geometric_ratio(ay * az, ay_n * az_n, myz, log_m, N)
        return (s0y * s0z) * b * geo

    kernel = po.PairKernel(axis_data, axis_data, pair)
    res = po.double_integrate_measure(payoff, kernel, tol_abs=tol * (1.0 + S0))
    value = _variance_clamped(float(res.value.real), S0)
    if return_result:
        return value, res
    return value
