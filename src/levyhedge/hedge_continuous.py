"""Variance-optimal hedging with continuous rebalancing.

The continuous-time analogue of the N-date engine, driven by the cumulant
function ``kappa`` instead of the per-period moment function:

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

The gains process also has a non-recursive form: with
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
from dataclasses import dataclass, field

import numpy as np

from . import models as mdl
from . import payoffs as po
from .hedge_discrete import (_admissible_or_raise, _capital_checked,
                             _variance_clamped)
from .numerics import QuadratureResult

__all__ = [
    "ContinuousHedgeCoefficients",
    "GainsPathResult",
    "ForbiddenJumpError",
    "coefficients_ct",
    "initial_capital_ct",
    "price_process_ct",
    "xi_ct",
    "phi_ct",
    "error_variance_ct",
    "mean_variance_tradeoff",
    "gains_explicit",
]


class ForbiddenJumpError(ValueError):
    """A grid increment hit the reciprocal of the feedback constant.

    The explicit gains formula divides by 1 - lambda * dX~; a relative
    price move of exactly 1/lambda (log move log(1 + 1/lambda)) makes the
    stochastic exponential vanish.  No continuous model puts mass there,
    but a discrete grid can manufacture it.
    """


def _exp_diff_quotient(w):
    """(e^w - 1)/w, stable through w = 0.

    Series below |w| = 1e-3 (error far under machine precision), exact
    limit 1 at 0; this is the analytic continuation across the degenerate
    branch of the error-variance kernel.
    """
    w = np.asarray(w, dtype=complex)
    out = np.ones_like(w)
    near = np.abs(w) < 1e-3
    ws = w[near]
    out[near] = 1.0 + ws * (0.5 + ws * (1.0 / 6.0 + ws * (1.0 / 24.0 + ws / 120.0)))
    far = ~near
    out[far] = (np.exp(w[far]) - 1.0) / w[far]
    return out


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
        from one evaluation of kappa at z and one at z + 1."""
        kz = self.kappa(z)
        gt = self.kappa(np.asarray(z) + 1.0) - kz - self.k1
        gam = gt / self.den
        return kz, gt, gam, kz - self.k1 * gam

    def gamma(self, z):
        return self.cumulant_terms(z)[2]

    def eta(self, z):
        return self.cumulant_terms(z)[3]


def coefficients_ct(model: mdl.LevyModelSpec, T: float) -> ContinuousHedgeCoefficients:
    if not T > 0.0:
        raise ValueError(f"T must be > 0, got {T}")
    strip = mdl.strip_of_finiteness(model)
    if not (strip.contains(0.0) and strip.contains(2.0)):
        raise ValueError(
            f"moment strip ({strip.lo:g}, {strip.hi:g}) must contain [0, 2]")
    k1 = mdl.cumulant(model, 1.0).real
    k2 = mdl.cumulant(model, 2.0).real
    den = (k2 - k1) - k1
    if not den > 1e-12 * (abs(k2) + 2.0 * abs(k1) + 1e-30):
        raise ValueError(
            "degenerate model: kappa(2) - 2 kappa(1) vanishes, no hedge exists")
    lam = k1 / den
    return ContinuousHedgeCoefficients(model, float(T), k1, k2, lam)


def price_process_ct(coeffs: ContinuousHedgeCoefficients,
                     payoff: po.TransformMeasure, S_t: float, t: float, *,
                     tol: float = 1e-8) -> float:
    """H_t at stock level S_t."""
    if not 0.0 <= t <= coeffs.T:
        raise ValueError(f"t must lie in [0, {coeffs.T}], got {t}")
    _admissible_or_raise(coeffs, payoff)
    tau = coeffs.T - t

    def weight(z):
        return np.exp(coeffs.eta(z) * tau)

    res = po.integrate_measure(payoff, S_t, weight, tol_abs=tol * (1.0 + S_t))
    return float(res.value.real)


def initial_capital_ct(coeffs: ContinuousHedgeCoefficients,
                       payoff: po.TransformMeasure, S0: float, *,
                       tol: float = 1e-8) -> float:
    """V0 = H_0; warns when negative (not an arbitrage-free price)."""
    return _capital_checked(price_process_ct(coeffs, payoff, S0, 0.0, tol=tol))


def xi_ct(coeffs: ContinuousHedgeCoefficients, payoff: po.TransformMeasure,
          S_tminus: float, t: float, *, tol: float = 1e-8) -> float:
    """Hedge ratio xi_t as a function of the pre-move spot."""
    if not 0.0 <= t <= coeffs.T:
        raise ValueError(f"t must lie in [0, {coeffs.T}], got {t}")
    _admissible_or_raise(coeffs, payoff)
    tau = coeffs.T - t

    def weight(z):
        _, _, gam, eta = coeffs.cumulant_terms(z)
        return gam * np.exp(eta * tau)

    res = po.integrate_measure(payoff, S_tminus, weight,
                               tol_abs=tol * (1.0 + S_tminus))
    return float(res.value.real) / S_tminus


def phi_ct(coeffs: ContinuousHedgeCoefficients, payoff: po.TransformMeasure,
           S_tminus: float, t: float, wealth_gap: float, *,
           tol: float = 1e-8) -> float:
    """phi_t given the caller-tracked wealth gap H_t- - V0 - G_t-."""
    base = xi_ct(coeffs, payoff, S_tminus, t, tol=tol)
    return base + coeffs.lambda_feedback / S_tminus * wealth_gap


def mean_variance_tradeoff(coeffs: ContinuousHedgeCoefficients, t: float) -> float:
    """Deterministic trade-off K_t = kappa(1)^2 t / (kappa(2) - 2 kappa(1)).

    Its determinism is what makes the closed forms of this package
    possible; exposed as a diagnostic.
    """
    return coeffs.k1 ** 2 / coeffs.den * t


def error_variance_ct(coeffs: ContinuousHedgeCoefficients,
                      payoff: po.TransformMeasure, S0: float, *,
                      tol: float = 1e-6, return_result: bool = False):
    """Variance of the terminal hedging error under continuous rebalancing.

    The exponential difference quotient is evaluated as
    T e^(kappa T) (e^(w) - 1)/w with w = (alpha - kappa) T, series-expanded
    for small |w|; below 1e-8 it snaps to the degenerate branch T e^(kappa T).
    Negative output is clamped at 0 down to -1e-8 * S0^2, a hard error below.
    """
    _admissible_or_raise(coeffs, payoff)
    model, T = coeffs.model, coeffs.T
    k1, den = coeffs.k1, coeffs.den
    rate = k1 * k1 / den
    ln_s0 = math.log(S0)

    # complete market: if the incompleteness kernel beta vanishes to
    # rounding on probe pairs it vanishes identically (Brownian kappa) and
    # the variance is exactly zero -- no quadrature noise to integrate
    complete = True
    for y_p, z_p in [(0.4 + 3.1j, 1.1 - 2.0j), (1.2 - 11.0j, 0.3 + 8.5j),
                     (0.9 + 27.0j, 1.6 - 19.0j)]:
        ky_p, gty_p, _, _ = coeffs.cumulant_terms(y_p)
        kz_p, gtz_p, _, _ = coeffs.cumulant_terms(z_p)
        beta_p = mdl.cumulant(model, y_p + z_p) - ky_p - kz_p \
            - gty_p * gtz_p / den
        scale_p = abs(ky_p) + abs(kz_p) + abs(gty_p * gtz_p / den)
        if abs(beta_p) > 1e-12 * scale_p:
            complete = False
            break
    if complete:
        zero = QuadratureResult(0.0 + 0j, 0.0, 3, True)
        return (0.0, zero) if return_result else 0.0

    # everything that depends on one axis only: S0^z and e^{(eta - rate/2) T},
    # whose product over both axes is e^{alpha T}
    def axis_data(zn):
        k, gt, _, eta = coeffs.cumulant_terms(zn)
        return np.exp(zn * ln_s0), k, gt, eta, np.exp((eta - 0.5 * rate) * T)

    def pair(ydat, zdat, ysum):
        s0y, ky, gty, eta_y, ey = ydat
        s0z, kz, gtz, eta_z, ez = zdat
        kyz = mdl.cumulant(model, ysum)
        beta = kyz - ky - kz - gty * gtz / den
        # T (e^{alpha T} - e^{kappa T}) / w with w = (alpha - kappa) T
        d = eta_y + eta_z - rate - kyz
        e_k = np.exp(kyz * T)
        with np.errstate(all="ignore"):
            quot = (ey * ez - e_k) / d
        w = d * T
        near = np.abs(w) < 1e-3
        if near.any():
            # snaps to the degenerate branch T e^{kappa T} as w -> 0
            quot[near] = T * e_k[near] * _exp_diff_quotient(w[near])
        return (s0y * s0z) * beta * quot

    kernel = po.PairKernel(axis_data, axis_data, pair)
    res = po.double_integrate_measure(payoff, kernel, tol_abs=tol * (1.0 + S0))
    value = _variance_clamped(float(res.value.real), S0)
    if return_result:
        return value, res
    return value


# ---------------------------------------------------------------------------
# Explicit gains process
# ---------------------------------------------------------------------------

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
