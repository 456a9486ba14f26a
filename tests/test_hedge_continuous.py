import math

import numpy as np
import pytest

import levyhedge as lh
from levyhedge import hedge as hc
from levyhedge import models as mdl
from levyhedge import numerics
from levyhedge.payoffs import PointMass, TransformMeasure
from levyhedge.simulate import PathGrid

NIG_FIT = lh.NIG(alpha=75.49, beta=-4.089, delta=3.024, mu=-0.04)
MERTON = lh.MertonJD(mu=0.05, sigma=0.15, jump_intensity=0.8,
                     jump_mean=-0.06, jump_sd=0.12)
GAUSS = lh.Gaussian(mu=0.08, sigma=0.2)

STOCK = TransformMeasure((PointMass(1.0 + 0j, 1.0 + 0j),),
                         analytic=lambda s: s)


def bs_price(S0, K, sigma, T):
    d1 = (math.log(S0 / K) + 0.5 * sigma * sigma * T) / (sigma * math.sqrt(T))
    d2 = d1 - sigma * math.sqrt(T)
    phi = lambda x: 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
    return S0 * phi(d1) - K * phi(d2)


def bs_delta(S0, K, sigma, T):
    d1 = (math.log(S0 / K) + 0.5 * sigma * sigma * T) / (sigma * math.sqrt(T))
    return 0.5 * (1.0 + math.erf(d1 / math.sqrt(2.0)))


def test_gamma_eta_at_one_exact():
    for model in (GAUSS, MERTON, NIG_FIT):
        co = lh.coefficients_ct(model, 0.5)
        assert complex(co.gamma(1.0)) == 1.0
        assert complex(co.eta(1.0)) == 0.0


def test_gaussian_gamma_is_identity():
    co = lh.coefficients_ct(GAUSS, 0.7)
    rng = np.random.default_rng(4)
    z = rng.uniform(-3, 3, 20) + 1j * rng.uniform(-40, 40, 20)
    assert np.allclose(co.gamma(z), z, rtol=1e-12)
    assert co.lambda_feedback == pytest.approx(
        mdl.cumulant(GAUSS, 1.0).real / GAUSS.sigma ** 2, rel=1e-13)


def test_coefficients_against_direct_formula():
    co = lh.coefficients_ct(NIG_FIT, 0.25)
    z = 1.5 + 3j
    k = lambda x: mdl.cumulant(NIG_FIT, x)
    k1, k2 = k(1.0).real, k(2.0).real
    gamma_direct = (k(z + 1.0) - k(z) - k1) / (k2 - 2.0 * k1)
    eta_direct = k(z) - k1 * gamma_direct
    assert complex(co.gamma(z)) == pytest.approx(gamma_direct, rel=1e-13)
    assert complex(co.eta(z)) == pytest.approx(eta_direct, rel=1e-13)
    assert co.lambda_feedback == pytest.approx(k1 / (k2 - 2 * k1), rel=1e-13)


def test_black_scholes_price_and_delta():
    co = lh.coefficients_ct(GAUSS, 0.5)
    payoff = lh.call(95.0)
    v0 = lh.initial_capital_ct(co, payoff, 100.0)
    x0 = lh.xi_ct(co, payoff, 100.0, 0.0)
    assert v0 == pytest.approx(bs_price(100.0, 95.0, 0.2, 0.5), rel=1e-8)
    assert x0 == pytest.approx(bs_delta(100.0, 95.0, 0.2, 0.5), rel=1e-8)


def test_gaussian_market_is_complete():
    co = lh.coefficients_ct(GAUSS, 0.5)
    payoff = lh.call(95.0)
    v0 = lh.initial_capital_ct(co, payoff, 100.0)
    assert lh.error_variance_ct(co, payoff, 100.0) <= 1e-10 * v0 ** 2


def test_merton_negative_capital():
    mer = lh.MertonJD(mu=0.01, sigma=0.03, jump_intensity=0.01,
                      jump_mean=0.2, jump_sd=0.02)
    co = lh.coefficients_ct(mer, 1.0)
    with pytest.warns(lh.NegativeCapitalWarning):
        v0 = lh.initial_capital_ct(co, lh.call(110.0), 100.0)
    assert -0.135 <= v0 <= -0.125


def test_price_process_terminal_and_stock():
    co = lh.coefficients_ct(MERTON, 0.5)
    payoff = lh.call(95.0)
    got = lh.price_process_ct(co, payoff, 110.0, 0.5)
    assert got == pytest.approx(15.0, abs=1e-6)
    for t in (0.0, 0.2, 0.5):
        assert lh.price_process_ct(co, STOCK, 87.3, t) == pytest.approx(
            87.3, rel=1e-12)
    assert lh.xi_ct(co, STOCK, 87.3, 0.1) == pytest.approx(1.0, rel=1e-12)


def test_xi_digital_tolerance_stable():
    co = lh.coefficients_ct(NIG_FIT, 0.25)
    payoff = lh.digital(99.0)
    a = lh.xi_ct(co, payoff, 100.0, 0.1, tol=1e-8)
    b = lh.xi_ct(co, payoff, 100.0, 0.1, tol=1e-10)
    assert a == pytest.approx(b, abs=5e-7)


def test_phi_ct_feedback():
    co = lh.coefficients_ct(NIG_FIT, 0.25)
    payoff = lh.call(99.0)
    xi0 = lh.xi_ct(co, payoff, 100.0, 0.0)
    assert lh.phi_ct(co, payoff, 100.0, 0.0, 0.0) == pytest.approx(xi0, rel=1e-12)
    gap = 0.7
    want = xi0 + co.lambda_feedback / 100.0 * gap
    assert lh.phi_ct(co, payoff, 100.0, 0.0, gap) == pytest.approx(want, rel=1e-12)
    # martingale model: feedback constant vanishes
    co0 = lh.coefficients_ct(lh.Gaussian(mu=0.0, sigma=0.3), 0.25)
    assert co0.lambda_feedback == 0.0


def test_mean_variance_tradeoff():
    co = lh.coefficients_ct(GAUSS, 1.0)
    assert lh.mean_variance_tradeoff(co, 0.0) == 0.0
    k1 = mdl.cumulant(GAUSS, 1.0).real
    want = k1 ** 2 / GAUSS.sigma ** 2
    assert lh.mean_variance_tradeoff(co, 1.0) == pytest.approx(want, rel=1e-12)
    assert lh.mean_variance_tradeoff(co, 0.5) == pytest.approx(0.5 * want,
                                                               rel=1e-12)


def test_error_variance_stock_zero():
    co = lh.coefficients_ct(NIG_FIT, 0.25)
    assert lh.error_variance_ct(co, STOCK, 100.0) == 0.0


def test_beta_kernel_symmetry_and_stock_direction():
    k = lambda x: mdl.cumulant(MERTON, x)
    k1 = k(1.0).real
    den = k(2.0).real - 2.0 * k1

    def beta(y, z):
        return (k(y + z) - k(y) - k(z)
                - (k(y + 1) - k(y) - k1) * (k(z + 1) - k(z) - k1) / den)

    rng = np.random.default_rng(8)
    for _ in range(25):
        y = complex(rng.uniform(-0.5, 2.0), rng.uniform(-20, 20))
        z = complex(rng.uniform(-0.5, 2.0), rng.uniform(-20, 20))
        assert beta(y, z) == pytest.approx(beta(z, y), rel=1e-12, abs=1e-12)
        assert abs(beta(y, 1.0)) <= 1e-12 * max(1.0, abs(k(y + 1)))


def test_degenerate_branch_continuity_ct():
    # (e^(alpha T) - e^(kappa T))/(alpha - kappa) -> T e^(kappa T) across
    # the degeneracy, evaluated through the stable quotient
    T = 0.25
    kappa = -0.3 + 0.2j
    limit = T * np.exp(kappa * T)
    errs = []
    for j in range(4, 11):
        alpha = kappa + 10.0 ** (-j)
        w = (alpha - kappa) * T
        got = np.exp(kappa * T) * T * hc._exp_diff_quotient(np.array([w]))[0]
        errs.append(abs(got - limit) / abs(limit))
    # deviation from the limit is the analytic |w|/2, no noise floor
    assert all(e <= 1e-4 for e in errs)
    assert errs[-1] <= 1e-10
    assert all(a >= b - 1e-13 for a, b in zip(errs, errs[1:]))
    exact = np.exp(kappa * T) * T * hc._exp_diff_quotient(np.array([0.0]))[0]
    assert exact == pytest.approx(limit, rel=1e-15)


def test_exp_diff_quotient_matches_mpmath():
    # E(w) = (e^w - 1)/w to a rounding or so across the 1e-3 switch of the
    # degenerate branches, against 50-digit arithmetic
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(15)
    mags = np.logspace(-14.0, math.log10(3.0), 60)
    w = mags * np.exp(1j * rng.uniform(-np.pi, np.pi, mags.size))
    got = hc._exp_diff_quotient(w)
    with mp.workdps(50):
        for wk, gk in zip(w, got):
            want = complex(mp.expm1(mp.mpc(wk)) / mp.mpc(wk))
            assert abs(gk - want) <= 1e-15 * abs(want), wk


def test_nig_continuous_error_variance():
    co = lh.coefficients_ct(NIG_FIT, 0.25)
    assert lh.error_variance_ct(co, lh.call(99.0), 100.0) == pytest.approx(
        0.257, rel=0.02)


def test_hyperbolic_hedging_transform_only():
    # no sampler exists, but every transform quantity must work, and the
    # value must not depend on the admissible abscissa: that invariance is
    # exactly what validates the distinguished-log branch tracking
    hyp = lh.Hyperbolic(alpha=8.0, beta=2.0, delta=1.5, mu=-0.3)
    co = lh.coefficients_ct(hyp, 0.25)
    v0 = {r: lh.initial_capital_ct(co, lh.call(99.0, abscissa=r), 100.0,
                                   tol=1e-10)
          for r in (1.25, 1.75)}
    assert abs(v0[1.25] - v0[1.75]) <= 1e-8 * v0[1.25]
    assert 0.0 < lh.xi_ct(co, lh.call(99.0), 100.0, 0.0) < 1.0


@pytest.mark.parametrize("N, want", [(12, 0.08643820348816642),
                                     (None, 0.07846988911075596)],
                         ids=["N=12", "continuous"])
def test_hyperbolic_digital_error_variance_far_ridge(N, want):
    # a digital line decays slowly, so the far-ridge integral runs up to
    # |v| ~ 2e6, where kappa must stay on its distinguished branch; the
    # pinned values were computed by unwrapping arg q along each contour
    hyp = lh.Hyperbolic(alpha=8.0, beta=2.0, delta=1.5, mu=-0.3)
    co = (lh.coefficients_ct(hyp, 0.25) if N is None
          else lh.coefficients(hyp, 0.25, N))
    j0, res = lh.error_variance(co, lh.digital(100.5), 100.0,
                                return_result=True)
    assert res.converged
    assert res.nodes_used == 487332
    assert abs(j0 - want) <= res.error_estimate


def test_quadrature_warnings_name_the_caller():
    # flagged quotes, error variances and payoff reconstructions warn at
    # the line that asked for them, not inside the engine
    nig_co = lh.coefficients_ct(NIG_FIT, 0.25)
    vg_co = lh.coefficients_ct(lh.VG(alpha=60.0, beta=-3.0, delta=5.0,
                                     mu=0.01), 0.25)
    for run in (lambda: lh.xi_ct(nig_co, lh.call(100.0), 95.1229, 0.2495),
                lambda: lh.phi_ct(nig_co, lh.call(100.0), 95.1229, 0.2495, 0.0),
                lambda: lh.error_variance_ct(vg_co, lh.self_quanto_call(100.0),
                                             100.0),
                lambda: lh.evaluate_payoff(lh.digital(2.0), 2.000002,
                                           tol_abs=1e-12)):
        with pytest.warns(lh.QuadratureWarning) as caught:
            run()
        assert [w.filename for w in caught] == [__file__]


# ---------------------------------------------------------------------------
# explicit gains process
# ---------------------------------------------------------------------------

def _simulated_path(model, T, steps, seed):
    rng = np.random.default_rng(seed)
    dx = mdl.sample_increments(model, T / steps, rng, size=steps)
    times = np.linspace(0.0, T, steps + 1)
    return PathGrid(times=times, log_prices=np.concatenate(([0.0],
                                                            np.cumsum(dx))))


def test_gains_explicit_matches_recursion():
    # jump intensity high enough that every path really contains jumps
    jumpy = lh.MertonJD(mu=0.05, sigma=0.15, jump_intensity=16.0,
                        jump_mean=-0.04, jump_sd=0.08)
    for model in (jumpy, MERTON, lh.VG(alpha=20.0, beta=-1.0, delta=1.5,
                                       mu=0.05)):
        co = lh.coefficients_ct(model, 0.25)
        payoff = lh.call(99.0)
        for seed in (1, 2, 3):
            path = _simulated_path(model, 0.25, 200, seed)
            res = lh.gains_explicit(co, payoff, path, 100.0)
            scale = np.max(np.abs(res.gains_recursive)) + 1e-12
            assert np.max(np.abs(res.gains - res.gains_recursive)) \
                <= 1e-9 * scale
            assert res.gains[0] == 0.0


def test_gains_explicit_low_moment_call_matches_call():
    # the low-moment call's point mass reaches the table through the
    # per-spot rate path of the gains evaluation
    co = lh.coefficients_ct(MERTON, 0.25)
    path = _simulated_path(MERTON, 0.25, 64, 4)
    ref = lh.gains_explicit(co, lh.call(99.0), path, 100.0)
    low = lh.gains_explicit(co, lh.call_low_moment(99.0), path, 100.0)
    scale = np.max(np.abs(ref.gains)) + 1e-12
    assert np.max(np.abs(low.gains - ref.gains)) <= 1e-9 * scale
    assert np.allclose(low.hedge_ratios, ref.hedge_ratios, rtol=0, atol=1e-9)


def test_reference_quotes_take_one_integrand_call_each(monkeypatch):
    # a quote adapts every segment up to its start height in shared rounds:
    # one or two integrand calls, not one per split panel
    payoff = lh.call(99.0)
    co_ct = lh.coefficients_ct(NIG_FIT, 0.25)
    co_12 = lh.coefficients(NIG_FIT, 0.25, 12)
    calls = []
    inner = numerics._eval_panels

    def spy(fv, a, b):
        calls.append(a.size)
        return inner(fv, a, b)

    monkeypatch.setattr(numerics, "_eval_panels", spy)
    for quote, want in ((lambda: lh.xi_ct(co_ct, payoff, 100.0, 0.0),
                         0.556191857642),
                        (lambda: lh.initial_capital(co_12, payoff, 100.0),
                         4.446886786020)):
        calls.clear()
        assert quote() == pytest.approx(want, abs=1e-11)
        assert 1 <= len(calls) <= 2


def test_gains_martingale_reduces_to_plain_integral():
    model = lh.Gaussian(mu=0.0, sigma=0.3)
    co = lh.coefficients_ct(model, 0.25)
    assert co.lambda_feedback == 0.0
    payoff = lh.call(99.0)
    path = _simulated_path(model, 0.25, 64, 5)
    res = lh.gains_explicit(co, payoff, path, 100.0)
    spots = 100.0 * np.exp(path.log_prices)
    plain = np.concatenate(([0.0],
                            np.cumsum(res.hedge_ratios * np.diff(spots))))
    # with zero feedback phi == xi and the gains are the plain integral
    assert np.allclose(res.gains, plain, rtol=0, atol=1e-12)
    assert np.allclose(res.gains, res.gains_recursive, rtol=0, atol=1e-12)


def test_gains_constant_path():
    co = lh.coefficients_ct(MERTON, 0.25)
    payoff = lh.call(99.0)
    path = PathGrid(times=np.linspace(0.0, 0.25, 11),
                    log_prices=np.zeros(11))
    res = lh.gains_explicit(co, payoff, path, 100.0)
    assert np.all(res.gains == 0.0)


def test_forbidden_jump_detected():
    co = lh.coefficients_ct(NIG_FIT, 0.25)
    lam = co.lambda_feedback
    bad = math.log(1.0 + 1.0 / lam)
    path = PathGrid(times=np.linspace(0.0, 0.25, 4),
                    log_prices=np.array([0.0, 0.01, 0.01 + bad, 0.02]))
    with pytest.raises(lh.ForbiddenJumpError):
        lh.gains_explicit(co, lh.call(99.0), path, 100.0)


def test_discrete_converges_to_continuous():
    payoff = lh.call(99.0)
    co_ct = lh.coefficients_ct(NIG_FIT, 0.25)
    v_ct = lh.initial_capital_ct(co_ct, payoff, 100.0)
    xi_ct0 = lh.xi_ct(co_ct, payoff, 100.0, 0.0)
    v_prev = None
    gaps = []
    for n in (4, 8, 16, 32, 64, 128, 256):
        co = lh.coefficients(NIG_FIT, 0.25, n)
        v = lh.initial_capital(co, payoff, 100.0)
        if v_prev is not None:
            gaps.append(abs(v - v_prev))
        v_prev = v
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    # first-order convergence: the N = 256 gap is of size O(T/N)
    assert abs(v_prev - v_ct) <= 6e-3
    co = lh.coefficients(NIG_FIT, 0.25, 256)
    assert lh.xi(co, payoff, 100.0, 1) == pytest.approx(xi_ct0, abs=6e-3)
