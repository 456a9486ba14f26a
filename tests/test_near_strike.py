"""Quotes and backtests with the strike a few 1e-4 from the spot in
log-spot, where a line integral's first segment must still resolve the
bulk of the integrand near v = 0."""

import pytest

import levyhedge as lh
from levyhedge.simulate import backtest_discrete

S0, T = 100.0, 0.25
MODELS = {
    "gaussian": lh.Gaussian(mu=0.08, sigma=0.2),
    "merton": lh.MertonJD(mu=0.05, sigma=0.15, jump_intensity=0.8,
                          jump_mean=-0.06, jump_sd=0.12),
    "nig": lh.NIG(alpha=75.49, beta=-4.089, delta=3.024, mu=-0.04),
}


def quotes(model, payoff, dates):
    if dates is None:
        co = lh.coefficients_ct(model, T)
        return (lh.initial_capital_ct(co, payoff, S0),
                lh.xi_ct(co, payoff, S0, 0.0))
    co = lh.coefficients(model, T, dates)
    return lh.initial_capital(co, payoff, S0), lh.xi(co, payoff, S0, 1)


@pytest.mark.filterwarnings("error::levyhedge.QuadratureWarning")
@pytest.mark.filterwarnings("ignore::levyhedge.NegativeCapitalWarning")
@pytest.mark.parametrize("dates", [1, 12, None], ids=["N1", "N12", "ct"])
@pytest.mark.parametrize("strike", [99.98, 100.01, 100.02])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_call_put_parity_near_the_strike(name, strike, dates):
    model = MODELS[name]
    v_call, xi_call = quotes(model, lh.call(strike), dates)
    v_put, xi_put = quotes(model, lh.put(strike), dates)
    assert abs(v_call - v_put - (S0 - strike)) <= 1e-6 * (1.0 + S0)
    assert abs(xi_call - xi_put - 1.0) <= 1e-6 * (1.0 + S0)


@pytest.mark.parametrize("seed", [1, 2])
def test_near_strike_put_backtest_meets_its_prediction(seed):
    rep = backtest_discrete(MODELS["gaussian"], lh.put(100.02), S0, T, 4,
                            4096, seed)
    assert abs(rep.z_score) < 4.0, rep


@pytest.mark.xfail(strict=True, raises=lh.QuadratureWarning,
                   reason="ROADMAP item 2: VG quotes 1.5e-2 from the strike in "
                          "log-spot are flagged unconverged")
@pytest.mark.filterwarnings("error::levyhedge.QuadratureWarning")
@pytest.mark.parametrize("dates", [1, 12, None], ids=["N1", "N12", "ct"])
def test_vg_put_capital_off_the_strike_converges(dates):
    model = lh.VG(alpha=20.0, beta=-1.0, delta=1.5, mu=0.05)
    if dates is None:
        v0 = lh.initial_capital_ct(lh.coefficients_ct(model, T), lh.put(101.0), 99.5)
    else:
        v0 = lh.initial_capital(lh.coefficients(model, T, dates), lh.put(101.0), 99.5)
    assert 4.8 < v0 < 4.9
