"""Monte Carlo path generation and hedging backtests.

The backtester independently verifies the closed-form machinery: it
simulates increments with the model samplers, runs the feedback recursion
path by path, and compares the empirical mean squared hedging error with
the predicted variance.

Paths are generated in fixed-size chunks; chunk ``j`` draws from a
generator seeded with ``(seed, j)``, so results are bit-reproducible for
a given (seed, config) regardless of how chunks are scheduled, and every
path is a deterministic function of (seed, path_index).

Per-step hedge ratios and price levels are tabulated once on a log-spaced
spot grid (refined geometrically around every strike so kinks and jumps
of the payoff are resolved) by the same transform quadrature that defines
them, then linearly interpolated in the spot; the interpolation bias is
orders of magnitude below the Monte Carlo noise the reports quantify.
The terminal error settles against the payoff's closed form
(``TransformMeasure.analytic``), never against a table of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from . import hedge as hg
from . import models as mdl
from . import payoffs as po

__all__ = [
    "PathGrid",
    "BacktestReport",
    "CHUNK_PATHS",
    "simulate_paths",
    "backtest_discrete",
    "backtest_continuous_approx",
]

CHUNK_PATHS = 8192


@dataclass(frozen=True)
class PathGrid:
    """One simulated path: times from 0 to T, log prices with X_0 = 0."""

    times: np.ndarray
    log_prices: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        x = np.asarray(self.log_prices, dtype=float)
        if t.shape != x.shape:
            raise ValueError("times and log_prices must have equal length")
        if t[0] != 0.0 or x[0] != 0.0:
            raise ValueError("paths start at t = 0 with X_0 = 0")
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("times must be strictly increasing")


@dataclass(frozen=True)
class BacktestReport:
    """Empirical hedging-error statistics against the predicted variance.

    ``empirical_error_variance`` is the mean of squared terminal errors
    (capital + gains - payoff), matching the quantity the closed form
    predicts; ``std_error`` is the sample standard deviation of the
    squared errors divided by sqrt(n_paths).  ``table_error`` is the
    largest error estimate of the transform tables the strategy was
    interpolated from; ``clamped_paths`` counts the paths whose spot left
    the tabulated grid at some decision date, where the interpolation
    held the edge value.
    """

    n_paths: int
    capital_used: float
    empirical_mean_error: float
    empirical_error_variance: float
    std_error: float
    predicted_J0: float
    seed: int
    table_error: float = 0.0
    clamped_paths: int = 0

    @property
    def z_score(self) -> float:
        if self.std_error == 0.0:
            return 0.0
        return (self.empirical_error_variance - self.predicted_J0) / self.std_error


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(chunk_index)])


def _increment_chunks(model, dt: float, steps: int, n_paths: int, seed: int,
                      antithetic: bool = False) -> Iterator[np.ndarray]:
    """Log-price increments of ``n_paths`` paths, ``(rows, steps)`` per
    chunk of at most ``CHUNK_PATHS`` rows; chunk j draws from the
    generator seeded with ``(seed, j)``."""
    for chunk_index, first in enumerate(range(0, n_paths, CHUNK_PATHS)):
        rng = _chunk_rng(seed, chunk_index)
        size = (min(CHUNK_PATHS, n_paths - first), steps)
        yield (mdl._antithetic_increments(model, dt, rng, size) if antithetic
               else mdl.sample_increments(model, dt, rng, size=size))


def simulate_paths(model, S0: float, T: float, steps: int, n_paths: int,
                   seed: int) -> Iterator[PathGrid]:
    """Stream of iid paths on the uniform grid, one PathGrid per path."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if n_paths < 0:
        raise ValueError(f"n_paths must be >= 0, got {n_paths}")
    times = np.linspace(0.0, T, steps + 1)
    for dx in _increment_chunks(model, T / steps, steps, n_paths, seed):
        x = np.concatenate((np.zeros((dx.shape[0], 1)), np.cumsum(dx, axis=1)),
                           axis=1)
        for row in x:
            yield PathGrid(times=times, log_prices=row)


# ---------------------------------------------------------------------------
# Spot grids and transform tables
# ---------------------------------------------------------------------------

def _spot_grid(model, payoff, S0, T, n_sigma=8.0):
    k1, k2 = mdl.cumulant_derivatives(model)
    sd = math.sqrt(max(k2 * T, 1e-12))
    lo = math.log(S0) + min(k1 * T, 0.0) - n_sigma * sd
    hi = math.log(S0) + max(k1 * T, 0.0) + n_sigma * sd
    pts = [np.linspace(lo, hi, 1400)]
    for line in payoff.lines():
        k = math.log(line.strike_scale)
        if lo < k < hi:
            offs = 10.0 ** np.arange(-8.0, 0.0)
            pts.append(np.concatenate((k - offs, [k], k + offs)))
    grid = np.unique(np.concatenate(pts))
    grid = grid[(grid >= lo) & (grid <= hi)]
    return np.exp(grid)


def _discrete_weight(coeffs: hg.DiscreteHedgeCoefficients):
    """Weight rows of the N-date tables: xi_n for n = 1..N (weight
    g h^(N-n), still to be divided by the spot), then H_n for n = 0..N-1
    (weight h^(N-n)).  The payoff itself is taken in closed form."""
    N = coeffs.N

    def weight(z):
        _, _, g, h = coeffs.moment_terms(z)
        powers = np.empty((N,) + np.shape(h), dtype=complex)
        powers[0] = 1.0
        for k in range(N - 1):
            powers[k + 1] = powers[k] * h
        return np.concatenate((g * powers[::-1], h * powers[::-1]))

    return weight


def _continuous_weight(coeffs: hg.ContinuousHedgeCoefficients, taus):
    """Weight rows of the continuous-time tables at times to expiry
    ``taus``: xi (weight gamma e^(eta tau), still to be divided by the
    spot), then H (weight e^(eta tau))."""
    def weight(z):
        _, _, gam, eta = coeffs.cumulant_terms(z)
        e = np.exp(np.multiply.outer(taus, eta))
        return np.concatenate((gam * e, e))

    return weight


def _check_backtest(model, payoff, n_paths: int) -> None:
    # before any quadrature: a model without a sampler, or a payoff
    # without a closed form to settle the paths with, fails at once
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if payoff.analytic is None:
        raise ValueError("backtests need the payoff's closed form "
                         "(TransformMeasure.analytic)")
    mdl._require_sampler(model)


def _backtest(coeffs, weight, steps: int, payoff, S0: float, n_paths: int,
              seed: int, capital: Optional[float], antithetic: bool,
              tol: float) -> BacktestReport:
    """The body of both backtests, for either time kernel.

    ``weight`` gives the table rows: xi before each of the ``steps``
    rebalancing steps (still to be divided by the spot), then H at the
    same times.  Row k of the xi and H tables holds their values on the
    spot grid before step k; the terminal error settles against the
    payoff's closed form.  Errors are aggregated per chunk, then
    compensated across chunks.
    """
    model = coeffs.model
    v0 = hg.initial_capital(coeffs, payoff, S0)
    capital = v0 if capital is None else float(capital)
    predicted = hg.error_variance(coeffs, payoff, S0)

    s_grid = _spot_grid(model, payoff, S0, coeffs.T)
    rows, table_error = po.tabulate_transform(payoff, s_grid, weight,
                                              tol_abs=tol * (1.0 + S0))
    xi_tab, h_tab = rows[:steps] / s_grid, rows[steps:]
    lam = coeffs.lambda_feedback
    sums = []
    clamped = 0
    for dx in _increment_chunks(model, coeffs.T / steps, steps, n_paths, seed,
                                antithetic):
        s_prev = np.full(dx.shape[0], float(S0))
        s_lo = s_prev.copy()
        s_hi = s_prev.copy()
        gains = np.zeros(dx.shape[0])
        for k in range(steps):
            np.minimum(s_lo, s_prev, out=s_lo)
            np.maximum(s_hi, s_prev, out=s_hi)
            phi = np.interp(s_prev, s_grid, xi_tab[k])
            if lam != 0.0:
                h_prev = np.interp(s_prev, s_grid, h_tab[k])
                phi = phi + lam / s_prev * (h_prev - capital - gains)
            s_next = s_prev * np.exp(dx[:, k])
            gains += phi * (s_next - s_prev)
            s_prev = s_next
        err = capital + gains - payoff.analytic(s_prev)
        clamped += int(np.count_nonzero((s_lo < s_grid[0])
                                        | (s_hi > s_grid[-1])))
        sums.append((float(np.sum(err)), float(np.sum(err ** 2)),
                     float(np.sum(err ** 4))))
    s1, s2, s4 = (math.fsum(c[i] for c in sums) for i in range(3))
    mean_sq = s2 / n_paths
    var_sq = max(s4 / n_paths - mean_sq ** 2, 0.0)
    return BacktestReport(n_paths, capital, s1 / n_paths, mean_sq,
                          math.sqrt(var_sq / n_paths), predicted, int(seed),
                          table_error, clamped)


def backtest_discrete(model, payoff, S0: float, T: float, N: int,
                      n_paths: int, seed: int,
                      capital: Optional[float] = None, *,
                      antithetic: bool = False,
                      tol: float = 1e-6) -> BacktestReport:
    """Run the N-date feedback strategy over simulated paths.

    Capital defaults to the variance-optimal V0; a fixed endowment c runs
    the risk-minimizing strategy seeded with c instead (its squared-error
    mean is reported raw, still against the optimal-capital prediction).
    """
    _check_backtest(model, payoff, n_paths)
    coeffs = hg.coefficients(model, T, N)
    return _backtest(coeffs, _discrete_weight(coeffs), N, payoff, S0,
                     n_paths, seed, capital, antithetic, tol)


def backtest_continuous_approx(model, payoff, S0: float, T: float, steps: int,
                               n_paths: int, seed: int, *,
                               antithetic: bool = False,
                               tol: float = 1e-6) -> BacktestReport:
    """Grid approximation of the continuously rebalanced strategy.

    The strategy is exact only in the continuous limit; applied at grid
    times its empirical error approaches the predicted variance from above
    as ``steps`` grows (additional discretization error on top of the
    inherent incompleteness).
    """
    _check_backtest(model, payoff, n_paths)
    coeffs = hg.coefficients_ct(model, T)
    taus = T - np.linspace(0.0, T, steps + 1)[:-1]
    return _backtest(coeffs, _continuous_weight(coeffs, taus), steps, payoff,
                     S0, n_paths, seed, None, antithetic, tol)
