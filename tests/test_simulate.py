import math

import numpy as np
import pytest

import levyhedge as lh
from levyhedge import models as mdl
from levyhedge import simulate as sim
from levyhedge.payoffs import PointMass, TransformMeasure
from levyhedge.simulate import (
    backtest_continuous_approx,
    backtest_discrete,
    simulate_paths,
)

NIG_FIT = lh.NIG(alpha=75.49, beta=-4.089, delta=3.024, mu=-0.04)
GAUSS = lh.Gaussian(mu=0.08, sigma=0.2)
MERTON = lh.MertonJD(mu=0.05, sigma=0.15, jump_intensity=0.8,
                     jump_mean=-0.06, jump_sd=0.12)

STOCK = TransformMeasure((PointMass(1.0 + 0j, 1.0 + 0j),),
                         analytic=lambda s: s)


def test_empty_stream():
    assert list(simulate_paths(GAUSS, 100.0, 1.0, 12, 0, seed=1)) == []


def test_path_shape_and_start():
    paths = list(simulate_paths(GAUSS, 100.0, 0.5, 10, 3, seed=42))
    assert len(paths) == 3
    for p in paths:
        assert p.times[0] == 0.0 and p.times[-1] == 0.5
        assert p.log_prices[0] == 0.0
        assert p.times.size == 11


def test_paths_deterministic_per_seed():
    a = list(simulate_paths(NIG_FIT, 100.0, 0.5, 8, 5, seed=9))
    b = list(simulate_paths(NIG_FIT, 100.0, 0.5, 8, 5, seed=9))
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.log_prices, pb.log_prices)
    c = list(simulate_paths(NIG_FIT, 100.0, 0.5, 8, 5, seed=10))
    assert not np.array_equal(a[0].log_prices, c[0].log_prices)


def test_gaussian_terminal_mean():
    n = 100_000
    xt = np.array([p.log_prices[-1]
                   for p in simulate_paths(GAUSS, 100.0, 1.0, 4, n, seed=3)])
    want = GAUSS.mu - 0.5 * GAUSS.sigma ** 2
    assert abs(xt.mean() - want) <= 3.0 * GAUSS.sigma / math.sqrt(n)


def test_nig_terminal_exponential_moment():
    n = 200_000
    T = 0.25
    xt = np.array([p.log_prices[-1]
                   for p in simulate_paths(NIG_FIT, 100.0, T, 2, n, seed=8)])
    emp = np.exp(xt)
    want = math.exp(mdl.cumulant(NIG_FIT, 1.0).real * T)
    assert abs(emp.mean() - want) <= 3.0 * emp.std() / math.sqrt(n)


def test_backtest_reports_are_bit_reproducible():
    kw = dict(S0=100.0, T=0.25, N=4, n_paths=20_000, seed=77)
    a = backtest_discrete(NIG_FIT, lh.call(99.0), **kw)
    b = backtest_discrete(NIG_FIT, lh.call(99.0), **kw)
    assert a == b


def test_backtest_stock_replicates_exactly():
    rep = backtest_discrete(GAUSS, STOCK, 100.0, 0.25, 4, 10_000, seed=1)
    assert rep.empirical_error_variance <= 1e-18
    assert rep.capital_used == pytest.approx(100.0, rel=1e-12)


@pytest.mark.parametrize("model,n_dates", [(GAUSS, 4), (NIG_FIT, 12),
                                           (MERTON, 1)],
                         ids=["gauss4", "nig12", "merton1"])
def test_backtest_call_within_three_sigma(model, n_dates):
    rep = backtest_discrete(model, lh.call(99.0), 100.0, 0.25, n_dates,
                            100_000, seed=31)
    assert abs(rep.z_score) <= 3.0, rep


def test_backtest_engine_matches_stepping_protocol():
    # the vectorized table-driven engine and the scalar online recursion
    # are the same strategy; chunk seeding makes their paths identical
    from levyhedge import hedge as hd

    model, S0, T, N, seed = NIG_FIT, 100.0, 0.25, 4, 61
    payoff = lh.call(99.0)
    co = lh.coefficients(model, T, N)
    v0 = lh.initial_capital(co, payoff, S0)
    sq_errors = []
    for path in simulate_paths(model, S0, T, N, 5, seed):
        spots = S0 * np.exp(path.log_prices)
        state = hd.DiscreteHedgeState(step=1, capital=v0)
        gains = 0.0
        for n in range(1, N + 1):
            phi, state = lh.phi_step(co, payoff, state, float(spots[n - 1]))
            gains += phi * (spots[n] - spots[n - 1])
        err = v0 + gains - lh.evaluate_payoff(payoff, float(spots[-1]))
        sq_errors.append(err ** 2)
    rep = backtest_discrete(model, payoff, S0, T, N, 5, seed=seed)
    want = float(np.mean(sq_errors))
    assert rep.empirical_error_variance == pytest.approx(want, rel=1e-4,
                                                         abs=1e-8)


def test_benchmark_gaussian_matches_reference_error():
    # the moment-matched Gaussian model at twelve weekly dates backtests
    # onto the reference discrete hedging error near 0.83
    bench = mdl.gaussian_benchmark(NIG_FIT)
    rep = backtest_discrete(bench, lh.call(99.0), 100.0, 0.25, 12,
                            100_000, seed=4)
    assert rep.predicted_J0 == pytest.approx(0.83, rel=0.02)
    assert abs(rep.empirical_error_variance - 0.83) <= 0.02 * 0.83 \
        + 3.0 * rep.std_error


def test_backtest_fixed_capital_raw_reporting():
    rep0 = backtest_discrete(NIG_FIT, lh.call(99.0), 100.0, 0.25, 4,
                             30_000, seed=5)
    rep1 = backtest_discrete(NIG_FIT, lh.call(99.0), 100.0, 0.25, 4,
                             30_000, seed=5, capital=rep0.capital_used + 1.0)
    assert rep1.capital_used == pytest.approx(rep0.capital_used + 1.0)
    assert rep1.predicted_J0 == rep0.predicted_J0   # prediction stays optimal
    assert rep1.empirical_error_variance > rep0.empirical_error_variance


def test_antithetic_runs_and_reproduces():
    kw = dict(S0=100.0, T=0.25, N=4, n_paths=20_000, seed=13, antithetic=True)
    a = backtest_discrete(MERTON, lh.call(99.0), **kw)
    b = backtest_discrete(MERTON, lh.call(99.0), **kw)
    assert a == b
    assert abs(a.z_score) <= 4.0


def test_backtests_reject_a_model_without_sampler_before_quadrature(
        monkeypatch):
    from levyhedge import hedge as hc
    from levyhedge import hedge as hd

    def quadrature(*args, **kwargs):
        raise AssertionError("error variance computed for an unsampled model")

    monkeypatch.setattr(hd, "error_variance", quadrature)
    monkeypatch.setattr(hc, "error_variance_ct", quadrature)
    hyp = lh.Hyperbolic(alpha=8.0, beta=2.0, delta=1.5, mu=-0.3)
    with pytest.raises(lh.UnsupportedModelError):
        backtest_discrete(hyp, lh.call(99.0), 100.0, 0.25, 1, 100, seed=1)
    with pytest.raises(lh.UnsupportedModelError):
        backtest_continuous_approx(hyp, lh.call(99.0), 100.0, 0.25, 4, 100,
                                   seed=1)


def _nig_call_backtest(mode):
    if mode == "discrete":
        return backtest_discrete(NIG_FIT, lh.call(99.0), 100.0, 0.25, 4,
                                 8_000, seed=3)
    return backtest_continuous_approx(NIG_FIT, lh.call(99.0), 100.0, 0.25, 4,
                                      8_000, seed=3)


@pytest.mark.parametrize("mode", ["discrete", "continuous"])
def test_backtest_reports_clamped_paths(mode, monkeypatch):
    rep = _nig_call_backtest(mode)
    # the default 8-sigma grid holds every path
    assert rep.clamped_paths == 0
    assert 0.0 < rep.table_error < math.inf
    spot_grid = sim._spot_grid
    monkeypatch.setattr(
        sim, "_spot_grid",
        lambda model, payoff, S0, T: spot_grid(model, payoff, S0, T,
                                               n_sigma=0.5))
    narrow = _nig_call_backtest(mode)
    assert 0 < narrow.clamped_paths <= narrow.n_paths


def test_linear_pieces_are_np_interp_bit_for_bit():
    grid = sim._spot_grid(NIG_FIT, lh.call(99.0), 100.0, 0.25)
    rows = np.random.default_rng(8).standard_normal((3, grid.size))
    slope, left = sim._linear_pieces(grid, rows)
    lo, hi = grid[0], grid[-1]
    spots = np.concatenate((
        [0.5 * lo, np.nextafter(lo, 0.0), lo, np.nextafter(lo, np.inf),
         np.nextafter(hi, 0.0), hi, np.nextafter(hi, np.inf), 2.0 * hi],
        grid,                                       # every node exactly
        np.random.default_rng(9).uniform(0.9 * lo, 1.1 * hi, 5000)))
    piece = np.searchsorted(grid, spots, side="right")
    left_spot = np.concatenate((grid[:1], grid))[piece]
    for k, row in enumerate(rows):
        got = slope[k, piece] * (spots - left_spot) + left[k, piece]
        want = np.interp(spots, grid, row)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_backtest_settles_against_the_closed_form_payoff():
    # one date: the terminal error is V0 + xi_1 (S_1 - S_0) - 1{S_1 > K}
    # on the backtest's own draws, with no table of the payoff in it
    K, S0, T, n_paths, seed = 100.41, 100.0, 0.25, sim.CHUNK_PATHS, 7
    payoff = lh.digital(K)
    rep = backtest_discrete(MERTON, payoff, S0, T, 1, n_paths, seed)
    xi1 = lh.xi(lh.coefficients(MERTON, T, 1), payoff, S0, 1)
    dx = mdl.sample_increments(MERTON, T, sim._chunk_rng(seed, 0),
                               size=(n_paths, 1))
    s1 = S0 * np.exp(dx[:, 0])
    err = rep.capital_used + xi1 * (s1 - S0) - (s1 > K)
    assert rep.empirical_error_variance == pytest.approx(np.mean(err ** 2),
                                                         rel=1e-6)


def test_backtests_need_a_closed_form_payoff(monkeypatch):
    from levyhedge import hedge as hc
    from levyhedge import hedge as hd

    def quadrature(*args, **kwargs):
        raise AssertionError("quadrature ran for a payoff without closed form")

    for mod, name in ((hd, "initial_capital"), (hd, "error_variance"),
                      (hc, "initial_capital_ct"), (hc, "error_variance_ct")):
        monkeypatch.setattr(mod, name, quadrature)
    bare = TransformMeasure(lh.call(99.0).components)
    with pytest.raises(ValueError, match="closed form"):
        backtest_discrete(NIG_FIT, bare, 100.0, 0.25, 1, 100, seed=1)
    with pytest.raises(ValueError, match="closed form"):
        backtest_continuous_approx(NIG_FIT, bare, 100.0, 0.25, 4, 100, seed=1)


@pytest.mark.xfail(strict=True, reason=(
    "the xi rows nearest expiry (weights g and gamma e^(eta tau), barely "
    "damped) miss the table tolerance far out of the money: their "
    "tail-completion residual is 1.9e-4 near s=56 against tol_abs=1.01e-4"))
@pytest.mark.parametrize("mode", ["discrete", "continuous"])
def test_backtest_table_error_within_tolerance(mode):
    rep = _nig_call_backtest(mode)
    assert rep.table_error <= 1e-6 * (1.0 + 100.0)


def test_continuous_approx_stock():
    rep = backtest_continuous_approx(GAUSS, STOCK, 100.0, 0.25, 16, 5_000,
                                     seed=2)
    assert rep.empirical_error_variance <= 1e-18


def test_continuous_approx_gaussian_refines_to_zero():
    payoff = lh.call(99.0)
    errs = []
    for steps in (16, 64, 256):
        rep = backtest_continuous_approx(GAUSS, payoff, 100.0, 0.25, steps,
                                         20_000, seed=21)
        errs.append(rep.empirical_error_variance)
    assert errs[0] > errs[1] > errs[2]
    assert rep.predicted_J0 <= 1e-10
    # discretization error decays like 1/steps: 16x steps, ~16x smaller
    assert errs[-1] <= errs[0] / 10.0


def test_continuous_approx_nig_approaches_prediction_from_above():
    payoff = lh.call(99.0)
    emp = []
    rep = None
    for steps in (8, 32, 128):
        rep = backtest_continuous_approx(NIG_FIT, payoff, 100.0, 0.25, steps,
                                         40_000, seed=17)
        emp.append(rep.empirical_error_variance)
    assert rep.predicted_J0 == pytest.approx(0.257, rel=0.02)
    assert emp[0] > emp[-1]
    # approaches the continuous-time value from above, within noise
    assert emp[-1] >= rep.predicted_J0 - 3.0 * rep.std_error
    assert emp[-1] <= emp[0]
