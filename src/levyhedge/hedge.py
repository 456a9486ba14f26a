"""Variance-optimal hedging with N trading dates or continuous rebalancing.

For a claim ``f(S_T) = int S_T^z Pi(dz)`` on ``S = S0 exp(X)`` with
stationary independent increments, the optimal initial capital, the
locally risk-minimizing ratio ``xi``, the feedback strategy ``phi`` and
the exact variance of the terminal hedging error are all single or double
contour integrals against ``Pi``.  Both time models run through one
engine; they differ only in the time kernel, which the coefficient
classes supply: ``h(z)^k`` per remaining trading date against
``exp(eta(z) tau)`` over the remaining time.

N trading dates, with ``m(z) = E[e^{z dX}]`` per trading period:

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
1e-3 of the degeneracy it is N m^(N-1) E(N L) / E(L) with L = log(a/m)
and E(w) = (e^w - 1)/w, E(0) = 1, which passes smoothly through it.  The
same E carries the continuous kernel's degenerate branch below.

Continuous rebalancing, driven by the cumulant function ``kappa``:

    gamma(z) = (kappa(z+1) - kappa(z) - kappa(1)) / (kappa(2) - 2 kappa(1))
    eta(z)   = kappa(z) - kappa(1) gamma(z)
    lambda   = kappa(1) / (kappa(2) - 2 kappa(1))
    H_t      = int S_t^z exp(eta(z)(T-t)) Pi(dz)
    xi_t     = int S_t^(z-1) gamma(z) exp(eta(z)(T-t)) Pi(dz)
    phi_t    = xi_t + (lambda / S_t-) (H_t- - V0 - G_t-)

Error variance: double integral of
    S0^(y+z) beta(y,z) (e^(alpha T) - e^(kappa(y+z) T)) / (alpha - kappa(y+z))
with alpha(y,z) = eta(y) + eta(z) - kappa(1)^2/(kappa(2) - 2 kappa(1)) and
beta(y,z) = kappa(y+z) - kappa(y) - kappa(z)
            - (kappa(y+1)-kappa(y)-kappa(1)) (kappa(z+1)-kappa(z)-kappa(1))
              / (kappa(2) - 2 kappa(1)),
the degenerate branch being T e^(kappa T) beta.  For Brownian kappa,
beta vanishes identically: the market is complete and the integrals
collapse to the replicating price and delta.

The continuous-time gains process also has a non-recursive form: with
X~ = int dS/S_, Y = X~ + int lambda/(1 - lambda dX~) d[X~,X~], and the
stochastic exponential E(-lambda X~) given by its explicit product
formula,

    G_t = E(-lambda X~)_t int_0^t (xi_u S_u- + lambda (H_u- - V0))
                                   / E(-lambda X~)_u-  dY_u.

On a discrete path grid the explicit form and the feedback recursion are
algebraically identical step by step; for infinite-activity models both
are the same grid approximation of the continuous-time object, converging
as the grid refines.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import models as mdl
from . import payoffs as po
from .numerics import QuadratureResult

__all__ = [
    "DiscreteHedgeCoefficients",
    "DiscreteHedgeState",
    "ContinuousHedgeCoefficients",
    "GainsPathResult",
    "NegativeCapitalWarning",
    "NegativeVarianceError",
    "ForbiddenJumpError",
    "coefficients",
    "coefficients_ct",
    "initial_capital",
    "initial_capital_ct",
    "price_process",
    "price_process_ct",
    "xi",
    "xi_ct",
    "phi_step",
    "phi_ct",
    "error_variance",
    "error_variance_ct",
    "risk_min_fixed_capital",
    "FixedCapitalStrategy",
    "mean_variance_tradeoff",
    "gains_explicit",
]


class NegativeCapitalWarning(UserWarning):
    """The variance-optimal initial capital is negative.

    It is not an arbitrage-free price; a negative value for a positive
    payoff is legitimate output, but worth flagging.
    """


class NegativeVarianceError(ArithmeticError):
    """A variance came out materially negative: quadrature failure."""


class ForbiddenJumpError(ValueError):
    """A grid increment hit the reciprocal of the feedback constant.

    The explicit gains formula divides by 1 - lambda * dX~; a relative
    price move of exactly 1/lambda (log move log(1 + 1/lambda)) makes the
    stochastic exponential vanish.  No continuous model puts mass there,
    but a discrete grid can manufacture it.
    """


# ---------------------------------------------------------------------------
# Time kernels
#
# Each coefficient class supplies what differs between the time models:
# ``_quote_weight`` (the range check of a quote date, the time left after
# it, and the weight of H or xi as a ``payoffs._TermsWeight`` of its terms,
# so that quotes against one coefficient set share the terms at the
# weight-cap probes of their line integrals) and ``_pair_kernel`` (the
# error-variance kernel, or None when the market is complete).
# ---------------------------------------------------------------------------

def _exp_diff_quotient(w):
    """E(w) = (e^w - 1)/w, with E(0) = 1: the difference quotient of exp
    through which both error-variance kernels cross their degenerate
    branch."""
    w = np.asarray(w, dtype=complex)
    out = np.ones_like(w)
    live = w != 0.0
    out[live] = np.expm1(w[live]) / w[live]
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
        """``(m(z), m(z+1), g(z), h(z))`` from one evaluation of m on the
        stacked z and z + 1."""
        mz, mz1 = self.m(np.stack((z, np.add(z, 1.0))))
        g = (mz1 - self.m1 * mz) / (self.m2 - self.m1 ** 2)
        return mz, mz1, g, mz - (self.m1 - 1.0) * g

    def g(self, z):
        return self.moment_terms(z)[2]

    def h(self, z):
        return self.moment_terms(z)[3]

    def _quote_weight(self, n, ratio):
        """Weight of xi_n (``ratio``: g h^(N-n)) or of H_n (h^(N-n)); H_N's
        needs no terms."""
        first = 1 if ratio else 0
        if not first <= n <= self.N:
            raise ValueError(f"n must lie in [{first}, {self.N}], got {n}")
        k = self.N - n
        if ratio:
            return po._TermsWeight(self.moment_terms, lambda g, h: g * h ** k)
        if k:
            return po._TermsWeight(self.moment_terms, lambda g, h: h ** k)
        return lambda z: np.ones_like(np.asarray(z))

    @staticmethod
    def _geometric_ratio(a, a_pow, m, m_pow, n: int):
        """(a^n - m^n)/(a - m) cell by cell, given ``a_pow`` = a^n and
        ``m_pow`` = m^n.

        The direct quotient holds wherever a and m are apart.  Cells within
        1e-3 of the degeneracy a == m are n m^(n-1) E(n L) / E(L) with
        L = log(a/m); cells where both a and m have underflowed vanish.
        """
        if n == 1:
            return np.ones(np.shape(m), dtype=complex)
        d = a - m
        with np.errstate(all="ignore"):
            out = (a_pow - m_pow) / d
            near = ~(np.abs(d) >= 1e-3 * np.abs(m))
            # the sum vanishes where a and m have both underflowed, which
            # leaves 0/0 or a near cell
            dead = near | ~np.isfinite(out)
            dead[dead] = np.maximum(np.abs(a[dead]), np.abs(m[dead])) <= 1e-280
            out[dead] = 0.0
            near &= ~dead
            if near.any():
                r = d[near] / m[near]
                # log1p(r), which numpy's complex log1p loses to rounding
                L = r * (1.0 - r * (0.5 - r * (1.0 / 3.0 - r * (0.25 - r / 5.0))))
                out[near] = (n * (m_pow[near] / m[near])
                             * _exp_diff_quotient(n * L) / _exp_diff_quotient(L))
        return out

    def _pair_kernel(self, S0):
        model, N, dt = self.model, self.N, self.dt
        m1, m2 = self.m1, self.m2
        a_root = math.sqrt((m2 - m1 ** 2) / (m2 - 2.0 * m1 + 1.0))
        # numpy divides a complex array by a real one as by a complex
        # number, at several times the cost; its quotient by a real is the
        # product with the reciprocal, bit for bit
        inv_var1 = 1.0 / (m2 - m1 ** 2)
        ln_s0 = math.log(S0)

        # everything that depends on one axis only: S0^z, the moment terms
        # of b (grouped as b groups them, so b is computed as before), and
        # the per-axis root A of a = A_y A_z with its N-th power
        def axis_data(zn):
            mz, mz1, _, h = self.moment_terms(zn)
            root = h * a_root
            return (np.exp(zn * ln_s0), mz, mz1, m2 * mz, m1 * mz1, m1 * mz,
                    root, root ** N)

        # everything that depends on y + z alone: m and m^N
        def along_sum(s):
            log_m = mdl.cumulant(model, s) * dt
            return np.exp(log_m), np.exp(N * log_m)

        def pair(ydat, zdat, sdat, scale=None):
            _, _, my1, m2_my, m1_my1, m1_my, ay, ay_n = ydat
            _, mz, mz1, _, _, _, az, az_n = zdat
            myz, myz_n = sdat
            b = myz - (m2_my * mz - m1_my1 * mz - m1_my * mz1
                       + my1 * mz1) * inv_var1
            if scale is not None:
                b = scale * b
            return b * self._geometric_ratio(ay * az, ay_n * az_n, myz, myz_n,
                                             N)

        # |(a^N - m^N)/(a - m)| = |sum_k a^k m^(N-1-k)| <= N max(|a|, |m|)^(N-1)
        def bound(ydat, zdat, sdat):
            _, _, my1, m2_my, m1_my1, m1_my, ay, _ = ydat
            _, mz, mz1, _, _, _, az, _ = zdat
            myz, _ = sdat
            b = myz + ((m2_my + m1_my1) * mz + (m1_my + my1) * mz1) * inv_var1
            if N == 1:
                return b
            return b * (N * np.maximum(ay * az, myz) ** (N - 1))

        return po.PairKernel(axis_data, axis_data, along_sum, pair, bound)


@dataclass(frozen=True)
class ContinuousHedgeCoefficients:
    """Closures gamma, eta and the feedback constant for one (model, T)."""

    model: mdl.LevyModelSpec
    T: float
    k1: float
    k2: float
    lambda_feedback: float
    den: float = field(init=False, repr=False)   # kappa(2) - 2 kappa(1)

    def __post_init__(self):
        object.__setattr__(self, "den", (self.k2 - self.k1) - self.k1)

    def kappa(self, z):
        return mdl.cumulant(self.model, z)

    def cumulant_terms(self, z):
        """``(kappa(z), kappa(z+1) - kappa(z) - kappa(1), gamma(z), eta(z))``
        from one evaluation of kappa on the stacked z and z + 1."""
        kz, kz1 = self.kappa(np.stack((z, np.add(z, 1.0))))
        gt = kz1 - kz - self.k1
        gam = gt / self.den
        return kz, gt, gam, kz - self.k1 * gam

    def gamma(self, z):
        return self.cumulant_terms(z)[2]

    def eta(self, z):
        return self.cumulant_terms(z)[3]

    def _quote_weight(self, t, ratio):
        """Weight of xi_t (``ratio``: gamma e^(eta (T-t))) or of H_t
        (e^(eta (T-t)))."""
        if not 0.0 <= t <= self.T:
            raise ValueError(f"t must lie in [0, {self.T}], got {t}")
        tau = self.T - t
        if ratio:
            return po._TermsWeight(self.cumulant_terms,
                                   lambda gam, eta: gam * np.exp(eta * tau))
        return po._TermsWeight(self.cumulant_terms,
                               lambda gam, eta: np.exp(eta * tau))

    def _pair_kernel(self, S0):
        model, T = self.model, self.T
        k1, den = self.k1, self.den
        rate = k1 * k1 / den
        ln_s0 = math.log(S0)

        # complete market: if the incompleteness kernel beta vanishes to
        # rounding on probe pairs it vanishes identically (Brownian kappa)
        # and the variance is exactly zero -- no quadrature noise to
        # integrate
        for y_p, z_p in [(0.4 + 3.1j, 1.1 - 2.0j), (1.2 - 11.0j, 0.3 + 8.5j),
                         (0.9 + 27.0j, 1.6 - 19.0j)]:
            ky_p, gty_p, _, _ = self.cumulant_terms(y_p)
            kz_p, gtz_p, _, _ = self.cumulant_terms(z_p)
            beta_p = mdl.cumulant(model, y_p + z_p) - ky_p - kz_p \
                - gty_p * gtz_p / den
            scale_p = abs(ky_p) + abs(kz_p) + abs(gty_p * gtz_p / den)
            if abs(beta_p) > 1e-12 * scale_p:
                break
        else:
            return None

        # everything that depends on one axis only: S0^z and
        # e^{(eta - rate/2) T}, whose product over both axes is e^{alpha T}
        def axis_data(zn):
            k, gt, _, eta = self.cumulant_terms(zn)
            return np.exp(zn * ln_s0), k, gt, eta, np.exp((eta - 0.5 * rate) * T)

        # everything that depends on y + z alone: kappa and e^{kappa T}
        def along_sum(s):
            kyz = mdl.cumulant(model, s)
            return kyz, np.exp(kyz * T)

        def pair(ydat, zdat, sdat, scale=None):
            _, ky, gty, eta_y, ey = ydat
            _, kz, gtz, eta_z, ez = zdat
            kyz, e_k = sdat
            beta = kyz - ky - kz - gty * gtz / den
            if scale is not None:
                beta = scale * beta
            # T (e^{alpha T} - e^{kappa T}) / w with w = (alpha - kappa) T
            d = eta_y + eta_z - rate - kyz
            with np.errstate(all="ignore"):
                quot = (ey * ez - e_k) / d
            w = d * T
            near = np.abs(w) < 1e-3
            if near.any():
                # T e^{kappa T} (e^w - 1)/w, which is T e^{kappa T} at w = 0
                quot[near] = T * e_k[near] * _exp_diff_quotient(w[near])
            return beta * quot

        # quot = T int_0^1 e^{(theta alpha + (1 - theta) kappa) T} dtheta, so
        # |quot| <= T max(|e^{alpha T}|, |e^{kappa T}|)
        def bound(ydat, zdat, sdat):
            _, ky, gty, _, ey = ydat
            _, kz, gtz, _, ez = zdat
            kyz, e_k = sdat
            beta = kyz + ky + kz + gty * gtz / abs(den)
            return beta * (T * np.maximum(ey * ez, e_k))

        return po.PairKernel(axis_data, axis_data, along_sum, pair, bound)


def _check_horizon(model: mdl.LevyModelSpec, T: float) -> None:
    if not T > 0.0:
        raise ValueError(f"T must be > 0, got {T}")
    strip = mdl.strip_of_finiteness(model)
    if not (strip.contains(0.0) and strip.contains(2.0)):
        raise ValueError(
            f"moment strip ({strip.lo:g}, {strip.hi:g}) must contain [0, 2]")


def coefficients(model: mdl.LevyModelSpec, T: float, N: int) -> DiscreteHedgeCoefficients:
    _check_horizon(model, T)
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    dt = T / N
    if not mdl.no_arbitrage_check(model, dt):
        raise ValueError("degenerate model: var(e^dX) vanishes, no hedge exists")
    m1 = mdl.mgf_step(model, 1.0, dt).real
    m2 = mdl.mgf_step(model, 2.0, dt).real
    lam = (m1 - 1.0) / (m2 - 2.0 * m1 + 1.0)
    return DiscreteHedgeCoefficients(model, float(T), int(N), dt, m1, m2, lam)


def coefficients_ct(model: mdl.LevyModelSpec, T: float) -> ContinuousHedgeCoefficients:
    _check_horizon(model, T)
    k1 = mdl.cumulant(model, 1.0).real
    k2 = mdl.cumulant(model, 2.0).real
    den = (k2 - k1) - k1
    if not den > 1e-12 * (abs(k2) + 2.0 * abs(k1) + 1e-30):
        raise ValueError(
            "degenerate model: kappa(2) - 2 kappa(1) vanishes, no hedge exists")
    lam = k1 / den
    return ContinuousHedgeCoefficients(model, float(T), k1, k2, lam)


# ---------------------------------------------------------------------------
# The engine: one body per quantity, for either time kernel
# ---------------------------------------------------------------------------

def _admissible_or_raise(coeffs, payoff: po.TransformMeasure) -> None:
    strip = mdl.strip_of_finiteness(coeffs.model)
    if not po.abscissa_admissible(payoff, strip):
        raise ValueError(
            "payoff abscissas inadmissible for this model: need "
            f"2R inside ({strip.lo:g}, {strip.hi:g})")


def _quote(coeffs, payoff: po.TransformMeasure, spot: float, when,
           ratio: bool, tol: float) -> float:
    """H (or, with ``ratio``, xi) at date or time ``when`` and ``spot``."""
    weight = coeffs._quote_weight(when, ratio)
    _admissible_or_raise(coeffs, payoff)
    res = po.integrate_measure(payoff, spot, weight, tol_abs=tol * (1.0 + spot))
    if not res.converged:
        # at the caller of the public quote function
        warnings.warn("quadrature tolerance not met; result is flagged",
                      po.QuadratureWarning, stacklevel=3)
    value = float(res.value.real)
    return value / spot if ratio else value


def price_process(coeffs: DiscreteHedgeCoefficients, payoff: po.TransformMeasure,
                  S_n: float, n: int, *, tol: float = 1e-8) -> float:
    """H_n at stock level S_n; H_N is the payoff itself."""
    return _quote(coeffs, payoff, S_n, n, False, tol)


def price_process_ct(coeffs: ContinuousHedgeCoefficients,
                     payoff: po.TransformMeasure, S_t: float, t: float, *,
                     tol: float = 1e-8) -> float:
    """H_t at stock level S_t."""
    return _quote(coeffs, payoff, S_t, t, False, tol)


def xi(coeffs: DiscreteHedgeCoefficients, payoff: po.TransformMeasure,
       S_prev: float, n: int, *, tol: float = 1e-8) -> float:
    """Locally risk-minimizing hedge ratio xi_n given S_(n-1)."""
    return _quote(coeffs, payoff, S_prev, n, True, tol)


def xi_ct(coeffs: ContinuousHedgeCoefficients, payoff: po.TransformMeasure,
          S_tminus: float, t: float, *, tol: float = 1e-8) -> float:
    """Hedge ratio xi_t as a function of the pre-move spot."""
    return _quote(coeffs, payoff, S_tminus, t, True, tol)


def initial_capital(coeffs: DiscreteHedgeCoefficients | ContinuousHedgeCoefficients,
                    payoff: po.TransformMeasure, S0: float, *,
                    tol: float = 1e-8) -> float:
    """Variance-optimal initial capital V0 = H_0, for either time kernel.

    Emits :class:`NegativeCapitalWarning` when negative: legal, but not a
    price.
    """
    v0 = _quote(coeffs, payoff, S0, 0, False, tol)
    if v0 < 0.0:
        warnings.warn(f"variance-optimal initial capital is negative ({v0:.6g})",
                      NegativeCapitalWarning, stacklevel=2)
    return v0


def error_variance(coeffs: DiscreteHedgeCoefficients | ContinuousHedgeCoefficients,
                   payoff: po.TransformMeasure, S0: float, *,
                   tol: float = 1e-6, return_result: bool = False):
    """Exact variance of the terminal hedging error of the optimal hedge,
    for either time kernel.

    In continuous time the exponential difference quotient is evaluated
    as T e^(kappa T) E(w) with w = (alpha - kappa) T for |w| < 1e-3
    (exactly T e^(kappa T) at w = 0); a complete market gives exactly 0
    without quadrature.  The result is clamped to 0 down to
    -1e-8 * max(1, S0)^2 (a variance computed by oscillatory quadrature
    may come out at a tiny negative); materially below that is a
    quadrature failure and raises :class:`NegativeVarianceError`.
    """
    _admissible_or_raise(coeffs, payoff)
    kernel = coeffs._pair_kernel(S0)
    if kernel is None:
        res = QuadratureResult(0.0 + 0j, 0.0, 3, True)
    else:
        res = po.double_integrate_measure(payoff, kernel,
                                          tol_abs=tol * (1.0 + S0))
        if not res.converged:
            warnings.warn("double quadrature tolerance not met; result flagged",
                          po.QuadratureWarning, stacklevel=2)
    value = float(res.value.real)
    if value < -1e-8 * max(1.0, S0) ** 2:
        raise NegativeVarianceError(
            f"error variance {value:.3e} below -1e-8 * max(1, S0)^2: "
            "quadrature failure")
    value = max(value, 0.0)
    if return_result:
        return value, res
    return value


initial_capital_ct = initial_capital
error_variance_ct = error_variance


# ---------------------------------------------------------------------------
# N trading dates: the online feedback recursion
# ---------------------------------------------------------------------------

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
    xi_n = _quote(coeffs, payoff, S_prev, n, True, tol)
    h_prev = _quote(coeffs, payoff, S_prev, n - 1, False, tol)
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


# ---------------------------------------------------------------------------
# Continuous rebalancing: feedback, trade-off and explicit gains process
# ---------------------------------------------------------------------------

def phi_ct(coeffs: ContinuousHedgeCoefficients, payoff: po.TransformMeasure,
           S_tminus: float, t: float, wealth_gap: float, *,
           tol: float = 1e-8) -> float:
    """phi_t given the caller-tracked wealth gap H_t- - V0 - G_t-."""
    base = _quote(coeffs, payoff, S_tminus, t, True, tol)
    return base + coeffs.lambda_feedback / S_tminus * wealth_gap


def mean_variance_tradeoff(coeffs: ContinuousHedgeCoefficients, t: float) -> float:
    """Deterministic trade-off K_t = kappa(1)^2 t / (kappa(2) - 2 kappa(1)).

    Its determinism is what makes the closed forms of this package
    possible; exposed as a diagnostic.
    """
    return coeffs.k1 ** 2 / coeffs.den * t


@dataclass(frozen=True)
class GainsPathResult:
    """Gains, hedge ratios and price process along one path grid.

    ``gains`` comes from the explicit stochastic-exponential formula;
    ``gains_recursive`` from the feedback recursion on the same grid.  The
    two are algebraically identical step by step and are both returned so
    callers can check the implementations against each other.
    """

    times: np.ndarray
    gains: np.ndarray
    hedge_ratios: np.ndarray
    price_process: np.ndarray
    gains_recursive: np.ndarray


def gains_explicit(coeffs: ContinuousHedgeCoefficients,
                   payoff: po.TransformMeasure, path, S0: float, *,
                   tol: float = 1e-9) -> GainsPathResult:
    """Gains of the optimal strategy along one discretized path.

    Evaluates the explicit product-formula representation and, for
    cross-validation, the feedback recursion on the same grid.  For
    infinite-activity models both are grid approximations whose error
    vanishes under refinement; on the grid itself they agree to rounding.
    """
    _admissible_or_raise(coeffs, payoff)
    times = np.asarray(path.times, dtype=float)
    spots = S0 * np.exp(np.asarray(path.log_prices, dtype=float))
    n = times.size
    lam = coeffs.lambda_feedback
    v0 = initial_capital_ct(coeffs, payoff, S0, tol=tol)

    # xi and H are needed at the left endpoint of every increment, each
    # spot with its own time to expiry: one table pass with the per-spot
    # factor exp(eta (T - t))
    tol_abs = tol * (1.0 + S0)

    def terms(z):
        _, _, gam, eta = coeffs.cumulant_terms(z)
        return np.stack((gam, np.ones_like(gam))), eta

    (xi_left, h_left), _ = po._tabulate(payoff, spots[:-1], terms, tol_abs,
                                        coeffs.T - times[:-1])
    xi_left = xi_left / spots[:-1]

    ds = np.diff(spots)
    dxt = ds / spots[:-1]                     # increments of X~ = int dS/S_
    one_minus = 1.0 - lam * dxt
    if np.any(np.abs(one_minus) < 1e-12):
        k = int(np.argmin(np.abs(one_minus)))
        raise ForbiddenJumpError(
            f"grid increment at step {k} hits the excluded relative move "
            f"1/lambda = {1.0 / lam:.6g}")
    # E(-lambda X~) by the explicit product formula: on a grid every
    # increment is a jump, so the exponential-compensator factors cancel
    # and the product of (1 - lambda dX~) remains.
    stoch_exp = np.concatenate(([1.0], np.cumprod(one_minus)))
    dy = dxt + lam * dxt * dxt / one_minus     # dY = dX~ + lam d[X~,X~]/(1 - lam dX~)
    forcing = xi_left * spots[:-1] + lam * (h_left - v0)
    integral = np.concatenate(([0.0], np.cumsum(forcing * dy / stoch_exp[:-1])))
    gains = stoch_exp * integral

    # feedback recursion on the same grid
    gains_rec = np.zeros(n)
    phi = np.zeros(n - 1)
    for k in range(n - 1):
        phi[k] = xi_left[k] + lam / spots[k] * (h_left[k] - v0 - gains_rec[k])
        gains_rec[k + 1] = gains_rec[k] + phi[k] * ds[k]

    h_path = np.concatenate((h_left, [po.evaluate_payoff(payoff, float(spots[-1]),
                                                         tol_abs=tol_abs)]))
    return GainsPathResult(times=times, gains=gains, hedge_ratios=phi,
                           price_process=h_path, gains_recursive=gains_rec)
