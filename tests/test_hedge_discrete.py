import math

import numpy as np
import pytest

import levyhedge as lh
from levyhedge import hedge as hd
from levyhedge import models as mdl
from levyhedge import payoffs as po
from levyhedge.numerics import QuadratureResult
from levyhedge.payoffs import PointMass, TransformMeasure

NIG_FIT = lh.NIG(alpha=75.49, beta=-4.089, delta=3.024, mu=-0.04)
MERTON = lh.MertonJD(mu=0.05, sigma=0.15, jump_intensity=0.8,
                     jump_mean=-0.06, jump_sd=0.12)
GAUSS = lh.Gaussian(mu=0.08, sigma=0.2)

STOCK = TransformMeasure((PointMass(1.0 + 0j, 1.0 + 0j),),
                         analytic=lambda s: s)


def test_g_h_at_one_exact():
    for model in (GAUSS, MERTON, NIG_FIT):
        co = lh.coefficients(model, 0.25, 12)
        assert complex(co.g(1.0)) == 1.0
        assert complex(co.h(1.0)) == 1.0


def test_martingale_case():
    # zero asset drift makes m(1) = 1: no feedback, h collapses to m
    co = lh.coefficients(lh.Gaussian(mu=0.0, sigma=0.3), 1.0, 4)
    assert co.lambda_feedback == 0.0
    z = np.array([0.7 + 2j, 1.5 - 5j, 2.0 + 0j])
    assert np.allclose(co.h(z), co.m(z), rtol=1e-14)


def test_coefficients_against_direct_formula():
    co = lh.coefficients(NIG_FIT, 0.25, 12)
    z = 1.5 + 2j
    m = lambda x: mdl.mgf_step(NIG_FIT, x, 0.25 / 12)
    m1, m2 = m(1.0).real, m(2.0).real
    g_direct = (m(z + 1.0) - m1 * m(z)) / (m2 - m1 ** 2)
    h_direct = m(z) - (m1 - 1.0) * g_direct
    lam_direct = (m1 - 1.0) / (m2 - 2.0 * m1 + 1.0)
    assert complex(co.g(z)) == pytest.approx(g_direct, rel=1e-14)
    assert complex(co.h(z)) == pytest.approx(h_direct, rel=1e-14)
    assert co.lambda_feedback == pytest.approx(lam_direct, rel=1e-14)


def test_degenerate_model_rejected():
    dead = lh.MertonJD(mu=0.05, sigma=0.0, jump_intensity=0.0,
                       jump_mean=0.0, jump_sd=0.0)
    with pytest.raises(ValueError):
        lh.coefficients(dead, 1.0, 4)


def test_initial_capital_stock():
    co = lh.coefficients(NIG_FIT, 0.25, 12)
    assert lh.initial_capital(co, STOCK, 100.0) == pytest.approx(100.0,
                                                                 rel=1e-12)


def test_price_process_terminal_is_payoff():
    co = lh.coefficients(MERTON, 0.5, 8)
    payoff = lh.call(95.0)
    for s in (80.0, 95.0, 110.0):
        got = lh.price_process(co, payoff, s, 8)
        want = lh.evaluate_payoff(payoff, s, tol_abs=1e-9)
        assert got == pytest.approx(want, abs=1e-6)


def test_price_process_stock_every_date():
    co = lh.coefficients(NIG_FIT, 0.25, 6)
    for n in range(7):
        assert lh.price_process(co, STOCK, 87.3, n) == pytest.approx(
            87.3, rel=1e-12)


def test_xi_stock_is_one():
    co = lh.coefficients(NIG_FIT, 0.25, 6)
    assert lh.xi(co, STOCK, 120.0, 3) == pytest.approx(1.0, rel=1e-12)


def test_xi_deep_otm_decays():
    co = lh.coefficients(GAUSS, 0.25, 12)
    payoff = lh.call(100.0)
    xs = [lh.xi(co, payoff, s, 1) for s in (90.0, 70.0, 50.0, 30.0)]
    assert all(a > b for a, b in zip(xs, xs[1:]))
    assert xs[-1] == pytest.approx(0.0, abs=1e-8)


def test_phi_step_matches_hand_recursion():
    rng = np.random.default_rng(77)
    T, N, S0 = 0.5, 6, 100.0
    co = lh.coefficients(MERTON, T, N)
    payoff = lh.call(100.0)
    v0 = lh.initial_capital(co, payoff, S0)
    dx = mdl.sample_increments(MERTON, T / N, rng, size=N)
    spots = S0 * np.exp(np.concatenate(([0.0], np.cumsum(dx))))

    # hand-rolled feedback recursion, straight from the definition
    gains = 0.0
    phis_hand = []
    for n in range(1, N + 1):
        s_prev = spots[n - 1]
        xi_n = lh.xi(co, payoff, s_prev, n)
        h_prev = lh.price_process(co, payoff, s_prev, n - 1)
        phi = xi_n + co.lambda_feedback / s_prev * (h_prev - v0 - gains)
        phis_hand.append(phi)
        gains += phi * (spots[n] - spots[n - 1])

    state = hd.DiscreteHedgeState(step=1, capital=v0)
    phis = []
    for n in range(1, N + 1):
        phi, state = lh.phi_step(co, payoff, state, float(spots[n - 1]))
        phis.append(phi)
    assert np.allclose(phis, phis_hand, rtol=1e-10)


def test_phi_equals_xi_when_gap_zero():
    co = lh.coefficients(NIG_FIT, 0.25, 12)
    payoff = lh.call(99.0)
    state = hd.DiscreteHedgeState(step=1,
                                  capital=lh.initial_capital(co, payoff, 100.0))
    phi, _ = lh.phi_step(co, payoff, state, 100.0)
    # at the first date the gap H_0 - V0 - 0 vanishes identically
    assert phi == pytest.approx(lh.xi(co, payoff, 100.0, 1), rel=1e-9)


def test_fixed_capital_strategy():
    co = lh.coefficients(NIG_FIT, 0.25, 4)
    payoff = lh.call(99.0)
    v0 = lh.initial_capital(co, payoff, 100.0)
    strat_v0 = lh.risk_min_fixed_capital(co, payoff, 100.0, v0)
    state = hd.DiscreteHedgeState(step=1, capital=v0)
    spots = [100.0, 103.0, 97.0]
    for s in spots:
        phi_a, strat_v0 = strat_v0.step(s)
        phi_b, state = lh.phi_step(co, payoff, state, s)
        assert phi_a == phi_b
    # with zero feedback the strategy ignores the capital seed
    co0 = lh.coefficients(lh.Gaussian(mu=0.0, sigma=0.3), 0.25, 4)
    sa = lh.risk_min_fixed_capital(co0, payoff, 100.0, 3.0)
    sb = lh.risk_min_fixed_capital(co0, payoff, 100.0, 9.0)
    for s in spots:
        pa, sa = sa.step(s)
        pb, sb = sb.step(s)
        assert pa == pytest.approx(pb, rel=1e-12)


def test_error_variance_stock_is_zero():
    co = lh.coefficients(NIG_FIT, 0.25, 12)
    assert lh.error_variance(co, STOCK, 100.0) <= 1e-8 * 100.0 ** 2


def test_b_kernel_symmetry_and_stock_direction():
    # the covariance kernel is symmetric and vanishes against the stock
    co = lh.coefficients(MERTON, 0.5, 8)
    dt = co.dt
    m = lambda x: mdl.mgf_step(MERTON, x, dt)
    m1, m2 = co.m1, co.m2

    def b(y, z):
        return m(y + z) - (m2 * m(y) * m(z) - m1 * m(y + 1) * m(z)
                           - m1 * m(y) * m(z + 1)
                           + m(y + 1) * m(z + 1)) / (m2 - m1 ** 2)

    rng = np.random.default_rng(3)
    for _ in range(25):
        y = complex(rng.uniform(-0.5, 2.0), rng.uniform(-20, 20))
        z = complex(rng.uniform(-0.5, 2.0), rng.uniform(-20, 20))
        assert b(y, z) == pytest.approx(b(z, y), rel=1e-12, abs=1e-12)
        assert abs(b(y, 1.0)) <= 1e-12 * abs(m(y + 1))


def geometric_ratio(a, m, N):
    """(a^N - m^N)/(a - m) through the kernel's own cell-by-cell quotient."""
    a = np.asarray(a, dtype=complex)
    m = np.asarray(m, dtype=complex)
    with np.errstate(all="ignore"):
        a_pow, m_pow = a ** N, m ** N
    return hd.DiscreteHedgeCoefficients._geometric_ratio(a, a_pow, m, m_pow, N)


def test_degenerate_branch_continuity():
    # (a^N - m^N)/(a - m) converges to N m^(N-1) as a -> m
    N = 12
    m = np.array([0.97 + 0.05j])
    limit = N * m ** (N - 1)
    prev = np.inf
    for k in range(4, 11):
        a = m * (1.0 + 10.0 ** (-k))
        got = geometric_ratio(a, m, N)
        err = abs(complex(got[0] - limit[0]) / complex(limit[0]))
        assert err <= prev + 1e-12
        prev = err
    assert prev <= 1e-9
    exact = geometric_ratio(m.copy(), m, N)
    assert exact[0] == pytest.approx(complex(limit[0]), rel=1e-14)


@pytest.mark.parametrize("dominant", ["m", "a"])
def test_geometric_sum_dominance_keeps_first_order_term(dominant):
    # at N = 63 with |a/m| = 1e-4 the sum is m^(N-1) (1 + a/m + ...), not
    # m^(N-1): the direct quotient keeps the first-order term
    mp = pytest.importorskip("mpmath")
    N = 63
    big = 0.97 + 0.05j
    small = big * 1e-4 * complex(math.cos(0.3), math.sin(0.3))
    a, m = (small, big) if dominant == "m" else (big, small)
    got = complex(geometric_ratio(np.array([a]), np.array([m]), N)[0])
    with mp.workdps(50):
        am, mm = mp.mpc(a), mp.mpc(m)
        want = complex((am ** N - mm ** N) / (am - mm))
    assert abs(got - want) <= 1e-12 * abs(want)


def test_geometric_ratio_matches_mpmath_across_the_degeneracy():
    # both sides of the 1e-3 switch between the direct quotient and
    # N m^(N-1) E(N L)/E(L), down to a == m, against 50-digit arithmetic
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(15)
    m = np.full(8, 0.97 + 0.05j)
    for N in (2, 12, 26, 40, 63):
        for dist in (0.0, 1e-12, 1e-8, 1e-6, 1e-4, 9.99e-4, 1.01e-3, 1e-2,
                     0.3):
            a = m * (1.0 + dist * np.exp(1j * rng.uniform(-np.pi, np.pi, 8)))
            got = geometric_ratio(a, m, N)
            with mp.workdps(50):
                for ak, mk, gk in zip(a, m, got):
                    am, mm = mp.mpc(ak), mp.mpc(mk)
                    want = complex(N * mm ** (N - 1) if am == mm
                                   else (am ** N - mm ** N) / (am - mm))
                    assert abs(gk - want) <= 2e-13 * abs(want), (N, dist)


def test_geometric_ratio_underflow_and_overflow():
    # where a and m have both underflowed the sum vanishes, whether or not
    # they coincide; an overflowing cell is left as it is, not zeroed
    tiny = np.array([0j, 1e-300 + 1e-300j, 2e-290 + 0j])
    for m in (tiny.copy(), tiny * (1.0 + 0.5j)):
        assert np.all(geometric_ratio(tiny, m, 12) == 0.0)
    huge = geometric_ratio(np.array([1e10 + 0j]), np.array([1.0 + 0j]), 63)
    assert huge[0] != 0.0


def test_error_variance_nonnegative_catalog():
    co = lh.coefficients(MERTON, 0.25, 4)
    for payoff in (lh.call(99.0), lh.put(99.0), lh.digital(99.0),
                   lh.self_quanto_call(99.0)):
        assert lh.error_variance(co, payoff, 100.0) >= 0.0


@pytest.mark.parametrize("N", [1, 12, None], ids=["N1", "N12", "continuous"])
@pytest.mark.parametrize("model", [
    NIG_FIT, MERTON, lh.VG(alpha=60.0, beta=-3.0, delta=5.0, mu=0.01)],
    ids=["nig", "merton", "vg"])
def test_low_moment_call_error_variance_equals_call_and_put(model, N):
    # the three differ by a multiple of the stock and a constant, both
    # hedged exactly; the low-moment call alone runs the line-point cross
    # terms of the double integral
    co = (lh.coefficients_ct(model, 0.25) if N is None
          else lh.coefficients(model, 0.25, N))
    low, low_res = lh.error_variance(co, lh.call_low_moment(99.0), 100.0,
                                     return_result=True)
    for twin in (lh.call(99.0), lh.put(99.0)):
        j0, res = lh.error_variance(co, twin, 100.0, return_result=True)
        assert abs(low - j0) <= (low_res.error_estimate + res.error_estimate
                                 + 1e-12 * abs(low))


def test_gaussian_capital_converges_to_black_scholes():
    # with many trading dates the discrete capital approaches the
    # replicating price of the continuous-trading limit
    payoff = lh.call(95.0)
    co_ct = lh.coefficients_ct(GAUSS, 0.5)
    bs = lh.initial_capital_ct(co_ct, payoff, 100.0)
    gaps = []
    for n in (8, 32, 128):
        co = lh.coefficients(GAUSS, 0.5, n)
        gaps.append(abs(lh.initial_capital(co, payoff, 100.0) - bs))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[-1] <= 5e-3


def test_error_variance_decreases_with_dates():
    payoff = lh.call(99.0)
    vals = []
    for n in (1, 2, 4, 8, 16):
        co = lh.coefficients(GAUSS, 0.25, n)
        vals.append(lh.error_variance(co, payoff, 100.0))
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_paper_figure_values():
    payoff = lh.call(99.0)
    co = lh.coefficients(NIG_FIT, 0.25, 12)
    assert lh.error_variance(co, payoff, 100.0) == pytest.approx(1.04, rel=0.02)
    bench = lh.gaussian_benchmark(NIG_FIT)
    cb = lh.coefficients(bench, 0.25, 12)
    assert lh.error_variance(cb, payoff, 100.0) == pytest.approx(0.83, rel=0.02)


def test_least_squares_oracle_single_date():
    # static hedge: explicit least-squares projection of the payoff onto
    # {1, price move} matches the transform capital and hedge ratio
    rng = np.random.default_rng(2024)
    model, S0, T = MERTON, 100.0, 0.25
    payoff = lh.call(99.0)
    co = lh.coefficients(model, T, 1)
    v0 = lh.initial_capital(co, payoff, S0)
    xi1 = lh.xi(co, payoff, S0, 1)

    n = 400_000
    x = mdl.sample_increments(model, T, rng, size=n)
    s1 = S0 * np.exp(x)
    h = np.maximum(s1 - 99.0, 0.0)
    ds = s1 - S0
    X = np.column_stack((np.ones(n), ds))
    beta, *_ = np.linalg.lstsq(X, h, rcond=None)
    resid = h - X @ beta
    xtx_inv = np.linalg.inv(X.T @ X)
    meat = X.T @ (X * resid[:, None] ** 2)
    cov = xtx_inv @ meat @ xtx_inv
    se = np.sqrt(np.diag(cov))
    assert abs(beta[0] - v0) <= 3.0 * se[0]
    assert abs(beta[1] - xi1) <= 3.0 * se[1]


@pytest.mark.xfail(strict=True, reason=(
    "log-contract J0 depends on S0: NIG, N=1 gives 4.488e-5 (converged, "
    "estimate 3.81e-6) at S0=1 but 2.212e-5 with converged=False, estimate "
    "2.67e-3 and a QuadratureWarning at S0=100; log S0 is absorbed by the "
    "capital, so J0 cannot depend on it (the exact value is 5.174e-5, see "
    "test_log_contract.py)"))
@pytest.mark.filterwarnings("ignore::levyhedge.QuadratureWarning")
def test_log_contract_error_variance_independent_of_spot():
    co = lh.coefficients(NIG_FIT, 0.25, 1)
    payoff = lh.log_contract()
    j1, r1 = lh.error_variance(co, payoff, 1.0, return_result=True)
    j100, r100 = lh.error_variance(co, payoff, 100.0, return_result=True)
    assert r1.converged and r100.converged
    assert j100 == pytest.approx(j1, rel=1e-3)


@pytest.mark.parametrize("kernel", ["discrete", "continuous"])
def test_error_variance_clamp_and_negative_variance_error(kernel,
                                                          monkeypatch):
    if kernel == "discrete":
        co, j0 = lh.coefficients(NIG_FIT, 0.25, 12), lh.error_variance
    else:
        co, j0 = lh.coefficients_ct(NIG_FIT, 0.25), lh.error_variance_ct

    def integral_gives(value):
        monkeypatch.setattr(po, "double_integrate_measure",
                            lambda *a, **k: QuadratureResult(value + 0j, 0.0, 1))

    # a rounding-sized negative is clamped, down to -1e-8 * max(1, S0)^2
    integral_gives(-1e-9)
    assert j0(co, lh.call(99.0), 100.0) == 0.0
    integral_gives(-9e-9)
    assert j0(co, lh.call(0.5), 0.5) == 0.0
    integral_gives(-1e-3)
    with pytest.raises(lh.NegativeVarianceError):
        j0(co, lh.call(99.0), 100.0)
