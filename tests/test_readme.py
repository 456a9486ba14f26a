"""The README's library quick start, called as it is written there."""

import pytest

import levyhedge as lh


def test_readme_quick_start():
    nig = lh.NIG(alpha=75.49, beta=-4.089, delta=3.024, mu=-0.04)
    payoff = lh.call(99.0)

    co = lh.coefficients_ct(nig, T=0.25)
    v0 = lh.initial_capital_ct(co, payoff, S0=100.0)
    xi0 = lh.xi_ct(co, payoff, 100.0, t=0.0)
    j0 = lh.error_variance_ct(co, payoff, 100.0)

    cd = lh.coefficients(nig, T=0.25, N=12)
    j0_12 = lh.error_variance(cd, payoff, 100.0)

    assert v0 == pytest.approx(4.4740, abs=1e-4)
    assert xi0 == pytest.approx(0.5562, abs=1e-4)
    assert j0 == pytest.approx(0.2572, abs=1e-4)
    assert j0_12 == pytest.approx(1.0442, abs=1e-4)
