"""Backtest transform tables and path tables against the pointwise quotes."""

import numpy as np
import pytest

import levyhedge as lh
from levyhedge import payoffs as po
from levyhedge import simulate as sim
from levyhedge.simulate import PathGrid

NIG_FIT = lh.NIG(alpha=75.49, beta=-4.089, delta=3.024, mu=-0.04)
S0, T = 100.0, 0.25
TOL_ABS = 1e-6 * (1.0 + S0)          # the backtests' table tolerance
PAYOFFS = {
    "call": lh.call(100.0),
    "call_low_moment": lh.call_low_moment(100.0),
    "spread": lh.call(95.0) - lh.call(105.0),
    "digital": lh.digital(100.0),
}


def discrete_tables(co, payoff, grid):
    rows, _ = po.tabulate_transform(payoff, grid, sim._discrete_weight(co),
                                    tol_abs=TOL_ABS)
    return rows[:co.N] / grid, rows[co.N:]


def continuous_tables(co, payoff, grid, times):
    taus = co.T - np.asarray(times)
    rows, _ = po.tabulate_transform(payoff, grid,
                                    sim._continuous_weight(co, taus),
                                    tol_abs=TOL_ABS)
    h_term, _ = po.tabulate_transform(payoff, grid, None, tol_abs=TOL_ABS)
    return rows[:taus.size] / grid, rows[taus.size:], h_term


def spots_off_strike(grid):
    # grid points nearest to spots at least 0.02 in log-spot from 95/100/105
    idx = [int(np.argmin(np.abs(grid - s))) for s in (88.0, 97.0, 103.0, 115.0)]
    return idx


@pytest.mark.parametrize("name", sorted(PAYOFFS))
def test_discrete_tables_match_pointwise_quotes(name):
    payoff = PAYOFFS[name]
    N = 4
    co = lh.coefficients(NIG_FIT, T, N)
    grid = sim._spot_grid(NIG_FIT, payoff, S0, T)
    xi_tab, h_tab = discrete_tables(co, payoff, grid)
    for i in spots_off_strike(grid):
        s = float(grid[i])
        for n in range(1, N + 1):
            assert abs(xi_tab[n - 1, i] - lh.xi(co, payoff, s, n)) \
                <= 1e-8 * (1.0 + s)
        for n in range(N):
            assert abs(h_tab[n, i] - lh.price_process(co, payoff, s, n)) \
                <= 1e-8 * (1.0 + s)
        # the undamped terminal row is only as good as the table tolerance
        assert abs(h_tab[N, i] - lh.price_process(co, payoff, s, N)) <= TOL_ABS


@pytest.mark.parametrize("name", sorted(PAYOFFS))
def test_continuous_tables_match_pointwise_quotes(name):
    payoff = PAYOFFS[name]
    times = (0.0, 0.1, 0.2)
    co = lh.coefficients_ct(NIG_FIT, T)
    grid = sim._spot_grid(NIG_FIT, payoff, S0, T)
    xi_tab, h_tab, h_term = continuous_tables(co, payoff, grid, times)
    for i in spots_off_strike(grid):
        s = float(grid[i])
        for k, t in enumerate(times):
            assert abs(xi_tab[k, i] - lh.xi_ct(co, payoff, s, t)) \
                <= 1e-8 * (1.0 + s)
            assert abs(h_tab[k, i] - lh.price_process_ct(co, payoff, s, t)) \
                <= 1e-8 * (1.0 + s)
        assert abs(h_term[i] - lh.price_process_ct(co, payoff, s, T)) <= TOL_ABS


def test_row_batched_tail_completion_matches_per_row_calls():
    co = lh.coefficients(NIG_FIT, T, 6)
    line = lh.call(100.0).lines()[0]
    s_sel = np.array([70.0, 90.0, 112.0, 140.0])
    cs = np.array([600.0, 900.0, 800.0, 400.0])

    def rows(z):
        _, _, g, h = co.moment_terms(z)
        return np.stack([g * h ** k for k in range(4)] + [h ** k for k in range(4)])

    tails, resids = po.tail_completion(line, s_sel, cs, rows)
    assert tails.shape == resids.shape == (8, s_sel.size)
    for r in range(8):
        tail, resid = po.tail_completion(line, s_sel, cs,
                                         lambda z, r=r: rows(z)[r])
        assert np.allclose(tails[r], tail, rtol=1e-15, atol=0.0)
        assert np.allclose(resids[r], resid, rtol=1e-15, atol=0.0)


def test_gains_explicit_matches_pointwise_quotes():
    model = lh.MertonJD(mu=0.05, sigma=0.15, jump_intensity=0.8,
                        jump_mean=-0.06, jump_sd=0.12)
    co = lh.coefficients_ct(model, T)
    payoff = lh.call(99.0)
    steps = 40
    rng = np.random.default_rng(5)
    dx = lh.sample_increments(model, T / steps, rng, size=steps)
    path = PathGrid(times=np.linspace(0.0, T, steps + 1),
                    log_prices=np.concatenate(([0.0], np.cumsum(dx))))
    res = lh.gains_explicit(co, payoff, path, S0)
    spots = S0 * np.exp(path.log_prices)
    v0 = lh.initial_capital_ct(co, payoff, S0)
    lam = co.lambda_feedback
    for k in (0, 13, 27, steps - 1):
        s, t = float(spots[k]), float(path.times[k])
        h = lh.price_process_ct(co, payoff, s, t)
        phi = lh.xi_ct(co, payoff, s, t) \
            + lam / s * (h - v0 - res.gains_recursive[k])
        assert abs(res.price_process[k] - h) <= 1e-8 * (1.0 + s)
        assert abs(res.hedge_ratios[k] - phi) <= 1e-8 * (1.0 + s)
