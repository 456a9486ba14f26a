"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line with its runtime.  Run with ``pytest tests/test_acceptance.py
-v -s`` to see the per-criterion report."""

import math
import time

import numpy as np
import pytest

import levyhedge as lh
from levyhedge import hedge as hc
from levyhedge import hedge as hd
from levyhedge import models as mdl
from levyhedge.simulate import backtest_discrete

NIG_FIT = lh.NIG(alpha=75.49, beta=-4.089, delta=3.024, mu=-0.04)

MODELS = {
    "gaussian": lh.Gaussian(mu=0.08, sigma=0.2),
    "merton": lh.MertonJD(mu=0.05, sigma=0.15, jump_intensity=0.8,
                          jump_mean=-0.06, jump_sd=0.12),
    "nig": NIG_FIT,
    "vg": lh.VG(alpha=20.0, beta=-1.0, delta=1.5, mu=0.05),
}


class Criterion:
    def __init__(self, number, label):
        self.number = number
        self.label = label
        self.t0 = time.time()

    def report(self, ok, detail=""):
        dt = time.time() - self.t0
        status = "PASS" if ok else "FAIL"
        print(f"\ncriterion {self.number} [{status}] {self.label} "
              f"({dt:.1f}s) {detail}")
        assert ok, f"criterion {self.number}: {detail}"


def bs_price(S0, K, sigma, T):
    d1 = (math.log(S0 / K) + 0.5 * sigma * sigma * T) / (sigma * math.sqrt(T))
    d2 = d1 - sigma * math.sqrt(T)
    phi = lambda x: 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
    return S0 * phi(d1) - K * phi(d2)


def bs_delta(S0, K, sigma, T):
    d1 = (math.log(S0 / K) + 0.5 * sigma * sigma * T) / (sigma * math.sqrt(T))
    return 0.5 * (1.0 + math.erf(d1 / math.sqrt(2.0)))


def test_criterion_1_merton_negative_capital():
    c = Criterion(1, "Merton continuous-time negative capital")
    mer = lh.MertonJD(mu=0.01, sigma=0.03, jump_intensity=0.01,
                      jump_mean=0.2, jump_sd=0.02)
    co = lh.coefficients_ct(mer, 1.0)
    with pytest.warns(lh.NegativeCapitalWarning):
        v0 = lh.initial_capital_ct(co, lh.call(110.0), 100.0)
    runtime = time.time() - c.t0
    ok = -0.135 <= v0 <= -0.125 and runtime < 1.0
    c.report(ok, f"V0={v0:.6f}, runtime {runtime:.2f}s (< 1s)")


def test_criterion_2_black_scholes_consistency():
    c = Criterion(2, "Black-Scholes price/delta consistency on 20-point grid")
    sigma, mu = 0.2, 0.1
    model = lh.Gaussian(mu=mu, sigma=sigma)
    worst_price = worst_delta = worst_var = 0.0
    grid = [(s0, 100.0, t) for s0 in (80.0, 95.0, 100.0, 115.0, 130.0)
            for t in (0.1, 0.5, 1.0, 2.0)]
    assert len(grid) == 20
    for s0, k, t in grid:
        co = lh.coefficients_ct(model, t)
        payoff = lh.call(k)
        v0 = lh.initial_capital_ct(co, payoff, s0, tol=1e-11)
        x0 = lh.xi_ct(co, payoff, s0, 0.0, tol=1e-11)
        j0 = lh.error_variance_ct(co, payoff, s0)
        pb, db = bs_price(s0, k, sigma, t), bs_delta(s0, k, sigma, t)
        worst_price = max(worst_price, abs(v0 - pb) / pb)
        worst_delta = max(worst_delta, abs(x0 - db) / db)
        worst_var = max(worst_var, j0 / v0 ** 2)
    runtime = time.time() - c.t0
    ok = (worst_price <= 1e-6 and worst_delta <= 1e-6
          and worst_var <= 1e-10 and runtime < 5.0)
    c.report(ok, f"price rel {worst_price:.2e}, delta rel {worst_delta:.2e}, "
                 f"J0/V0^2 {worst_var:.2e}, runtime {runtime:.1f}s (< 5s)")


def test_criterion_3_nig_figure_reproduction():
    c = Criterion(3, "figure reproduction: N=1..63 sweep at the spot config")
    payoff = lh.call(99.0)
    s0, t_mat = 100.0, 0.25
    bench = mdl.gaussian_benchmark(NIG_FIT)
    co_ct = lh.coefficients_ct(NIG_FIT, t_mat)
    j0_ct = lh.error_variance_ct(co_ct, payoff, s0)
    sweep_nig, sweep_bench = {}, {}
    for n in range(1, 64):
        sweep_nig[n] = lh.error_variance(
            lh.coefficients(NIG_FIT, t_mat, n), payoff, s0, tol=3e-5)
        sweep_bench[n] = lh.error_variance(
            lh.coefficients(bench, t_mat, n), payoff, s0, tol=3e-5)
    co_bct = lh.coefficients_ct(bench, t_mat)
    price_bench = lh.initial_capital_ct(co_bct, payoff, s0)
    runtime = time.time() - c.t0
    checks = {
        "J0_ct~0.257": abs(j0_ct - 0.257) <= 0.02 * 0.257,
        "J0_N12~1.04": abs(sweep_nig[12] - 1.04) <= 0.02 * 1.04,
        "J0_bench12~0.83": abs(sweep_bench[12] - 0.83) <= 0.02 * 0.83,
        "price_bench~4.50": abs(price_bench - 4.50) <= 0.01 * 4.50,
        "monotone": all(sweep_nig[n] > sweep_nig[n + 1]
                        for n in range(1, 63)),
        "runtime<30s": runtime < 30.0,
    }
    c.report(all(checks.values()),
             f"ct={j0_ct:.4f} N12={sweep_nig[12]:.4f} "
             f"bench={sweep_bench[12]:.4f} price={price_bench:.4f} "
             f"runtime {runtime:.1f}s; " +
             ", ".join(k for k, v in checks.items() if not v))


def test_criterion_4_mc_vs_closed_form():
    c = Criterion(4, "MC backtests vs closed form, 3 SE, 36 cells")
    payoffs = {"call": lh.call(99.0), "put": lh.put(99.0),
               "digital": lh.digital(99.0)}
    fails = []
    worst = 0.0
    for mname, model in MODELS.items():
        for pname, payoff in payoffs.items():
            for n in (1, 4, 12):
                rep = backtest_discrete(model, payoff, 100.0, 0.25, n,
                                        100_000, seed=20240 + n)
                worst = max(worst, abs(rep.z_score))
                if abs(rep.z_score) > 3.0:
                    fails.append(f"{mname}/{pname}/N={n}: z={rep.z_score:.2f}")
    runtime = time.time() - c.t0
    ok = not fails and runtime < 300.0
    c.report(ok, f"36 cells, worst |z|={worst:.2f}, runtime {runtime:.0f}s "
                 f"(< 300s) {fails}")


def test_criterion_5_least_squares_oracle():
    c = Criterion(5, "static-hedge least-squares oracle, per model")
    rng = np.random.default_rng(555)
    fails = []
    for mname, model in MODELS.items():
        s0, t_mat = 100.0, 0.25
        payoff = lh.call(99.0)
        co = lh.coefficients(model, t_mat, 1)
        v0 = lh.initial_capital(co, payoff, s0)
        xi1 = lh.xi(co, payoff, s0, 1)
        n = 1_000_000
        x = mdl.sample_increments(model, t_mat, rng, size=n)
        s1 = s0 * np.exp(x)
        h = np.maximum(s1 - 99.0, 0.0)
        ds = s1 - s0
        X = np.column_stack((np.ones(n), ds))
        beta, *_ = np.linalg.lstsq(X, h, rcond=None)
        resid = h - X @ beta
        xtx_inv = np.linalg.inv(X.T @ X)
        meat = X.T @ (X * resid[:, None] ** 2)
        cov = xtx_inv @ meat @ xtx_inv
        se = np.sqrt(np.diag(cov))
        zc = (beta[0] - v0) / se[0]
        zt = (beta[1] - xi1) / se[1]
        if abs(zc) > 3.0 or abs(zt) > 3.0:
            fails.append(f"{mname}: z_c={zc:.2f} z_theta={zt:.2f}")
    runtime = time.time() - c.t0
    ok = not fails and runtime < 120.0
    c.report(ok, f"4 models, runtime {runtime:.0f}s (< 120s) {fails}")


def test_criterion_6_payoff_reconstruction():
    c = Criterion(6, "transform reconstruction of the payoff catalog")
    K = 99.0
    catalog = {
        "call": lh.call(K), "put": lh.put(K),
        "call_low_moment": lh.call_low_moment(K),
        "power2": lh.power_call(K, 2),
        "power_frac_1.5": lh.power_call_fractional(K, 1.5),
        "self_quanto": lh.self_quanto_call(K),
        "digital": lh.digital(K), "log_contract": lh.log_contract(),
    }
    grid = np.exp(np.linspace(math.log(K / 2), math.log(2 * K), 25))
    grid[12] = K
    worst = {}
    for name, m in catalog.items():
        w = 0.0
        for s in grid:
            want = m.analytic(float(s))
            got = lh.evaluate_payoff(m, float(s),
                                     tol_abs=2e-7 * (1.0 + abs(want)))
            w = max(w, abs(got - want) / (1.0 + abs(want)))
        worst[name] = w
    dig_at_k = lh.evaluate_payoff(lh.digital(K), K, tol_abs=1e-6)
    runtime = time.time() - c.t0
    bad = {k: f"{v:.1e}" for k, v in worst.items() if v > 1e-6}
    ok = (not bad and abs(dig_at_k - 0.5) <= 1e-4 and runtime < 10.0)
    c.report(ok, f"worst rel {max(worst.values()):.2e}, digital@K "
                 f"{dig_at_k:.6f}, runtime {runtime:.1f}s (< 10s) {bad}")


def test_criterion_7_property_suite():
    c = Criterion(7, "structural identities, abscissa freedom, explicit gains")
    payoff = lh.call(99.0)
    s0, t_mat = 100.0, 0.25
    checks = {}

    cd = lh.coefficients(NIG_FIT, t_mat, 12)
    cc = lh.coefficients_ct(NIG_FIT, t_mat)
    checks["g(1)=1"] = complex(cd.g(1.0)) == 1.0
    checks["h(1)=1"] = complex(cd.h(1.0)) == 1.0
    checks["gamma(1)=1"] = complex(cc.gamma(1.0)) == 1.0
    checks["eta(1)=0"] = complex(cc.eta(1.0)) == 0.0

    rng = np.random.default_rng(71)
    m = lambda z: mdl.mgf_step(NIG_FIT, z, cd.dt)
    k = lambda z: mdl.cumulant(NIG_FIT, z)
    k1 = k(1.0).real
    den = k(2.0).real - 2.0 * k1
    ok_b = ok_beta = True
    for _ in range(20):
        y = complex(rng.uniform(-0.5, 2.0), rng.uniform(-20.0, 20.0))
        b_y1 = m(y + 1.0) - (cd.m2 * m(y) * cd.m1 - cd.m1 * m(y + 1.0) * cd.m1
                             - cd.m1 * m(y) * cd.m2 + m(y + 1.0) * cd.m2) \
            / (cd.m2 - cd.m1 ** 2)
        ok_b &= abs(b_y1) <= 1e-12 * max(1.0, abs(m(y + 1.0)))
        beta_y1 = (k(y + 1.0) - k(y) - k(1.0)
                   - (k(y + 1.0) - k(y) - k1) * (k(2.0) - k(1.0) - k1) / den)
        ok_beta &= abs(beta_y1) <= 1e-12 * max(1.0, abs(k(y + 1.0)))
    checks["b(y,1)=0"] = ok_b
    checks["beta(y,1)=0"] = ok_beta

    # degenerate-branch continuity, both time conventions
    mm = np.array([0.97 + 0.05j])
    lim = 12 * mm ** 11

    def geo(a):
        return complex(hd.DiscreteHedgeCoefficients._geometric_ratio(
            a, a ** 12, mm, mm ** 12, 12)[0])

    ok_disc = abs(geo(mm * (1 + 1e-4)) - lim[0]) <= 1e-3 * abs(complex(lim[0]))
    ok_disc &= geo(mm.copy()) == pytest.approx(complex(lim[0]), rel=1e-13)
    w_small = np.array([1e-9 + 0j])
    ok_ct = complex(hc._exp_diff_quotient(w_small)[0]) == pytest.approx(
        1.0, abs=1e-8)
    checks["degenerate_branches"] = bool(ok_disc and ok_ct)

    # abscissa freedom for the call at 1e-8 relative
    vals = {}
    for r in (1.25, 1.75):
        pr = lh.call(99.0, abscissa=r)
        vals[r] = (
            lh.initial_capital(cd, pr, s0, tol=1e-12),
            lh.xi(cd, pr, s0, 1, tol=1e-12),
            lh.error_variance(cd, pr, s0, tol=1e-10),
        )
    rel = [abs(a - b) / (abs(a) + 1e-30)
           for a, b in zip(vals[1.25], vals[1.75])]
    checks["abscissa_invariance<=1e-8"] = all(r <= 1e-8 for r in rel)

    # explicit gains == feedback recursion on simulated paths
    from levyhedge.simulate import simulate_paths
    ok_gains = True
    for i, path in enumerate(simulate_paths(NIG_FIT, s0, t_mat, 150, 3,
                                            seed=99)):
        res = lh.gains_explicit(cc, payoff, path, s0)
        scale = np.max(np.abs(res.gains_recursive)) + 1e-12
        ok_gains &= np.max(np.abs(res.gains - res.gains_recursive)) \
            <= 1e-9 * scale
    checks["gains_explicit==recursion"] = ok_gains

    a = backtest_discrete(NIG_FIT, payoff, s0, t_mat, 4, 20_000, seed=12)
    b = backtest_discrete(NIG_FIT, payoff, s0, t_mat, 4, 20_000, seed=12)
    checks["bit_reproducible"] = a == b

    runtime = time.time() - c.t0
    ok = all(checks.values()) and runtime < 60.0
    c.report(ok, f"runtime {runtime:.1f}s (< 60s); invariance rel "
                 f"{max(rel):.1e}; failing: "
                 f"{[k for k, v in checks.items() if not v] or 'none'}")


def test_criterion_8_fixed_capital_optimality():
    c = Criterion(8, "fixed-capital risk minimization: V0 is the optimum")
    payoff = lh.call(99.0)
    co = lh.coefficients(NIG_FIT, 0.25, 12)
    assert co.lambda_feedback != 0.0
    base = backtest_discrete(NIG_FIT, payoff, 100.0, 0.25, 12, 100_000,
                             seed=2027)
    v0 = base.capital_used
    margins = {}
    ok = True
    for shift in (+1.0, -1.0):
        rep = backtest_discrete(NIG_FIT, payoff, 100.0, 0.25, 12, 100_000,
                                seed=2027, capital=v0 + shift)
        margin = rep.empirical_error_variance - base.empirical_error_variance
        # paired runs share paths; the sum of the two standard errors is a
        # conservative bound for the standard error of the difference
        bound = 3.0 * (rep.std_error + base.std_error)
        margins[shift] = (margin, bound)
        ok &= margin > bound
    runtime = time.time() - c.t0
    ok = ok and runtime < 120.0
    c.report(ok, f"margins {{+1: {margins[1.0][0]:.3f} > {margins[1.0][1]:.3f}, "
                 f"-1: {margins[-1.0][0]:.3f} > {margins[-1.0][1]:.3f}}}, "
                 f"runtime {runtime:.0f}s (< 120s)")
