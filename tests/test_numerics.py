import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levyhedge import numerics
from levyhedge.numerics import (
    ContourSpec,
    DomainError,
    bessel_k1,
    beta,
    double_contour_integrate,
    log_gamma,
)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

_GL_X, _GL_W = np.polynomial.legendre.leggauss(64)


def _gl_integral(f, a, b, panels=8):
    edges = np.linspace(a, b, panels + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        total = total + half * np.sum(_GL_W * f(mid + half * _GL_X))
    return total


def k1_integral_oracle(w):
    """Brute-force K1 via the integral over exp(-w cosh t) cosh t."""
    w = complex(w)
    tmax = math.acosh(max(2.0, 720.0 / w.real))
    return _gl_integral(lambda t: np.exp(-w * np.cosh(t)) * np.cosh(t),
                        0.0, tmax, panels=16)


def beta_integral_oracle(a, b):
    """Direct integral of t^(a-1) (1-t)^(b-1) over (0, 1).

    Panels graded geometrically into both endpoints: the integrand is
    smooth inside each dyadic panel even when its endpoint derivatives
    are algebraically singular.
    """
    def f(t):
        return t ** (a - 1.0) * (1.0 - t) ** (b - 1.0)

    delta = 0.5 ** 50
    edges = np.concatenate((
        0.5 ** np.arange(50, 0, -1), [0.5],
        1.0 - 0.5 ** np.arange(2, 51)))
    edges = np.unique(edges)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi > lo:
            total = total + _gl_integral(f, lo, hi, panels=1)
    # analytic slivers at both endpoints (leading order in delta)
    total = total + delta ** a / a + delta ** b / b
    return total


# ---------------------------------------------------------------------------
# bessel_k1
# ---------------------------------------------------------------------------

def test_k1_at_one():
    # value fixed by the integral-representation oracle
    assert bessel_k1(1.0) == pytest.approx(0.6019072301972346, rel=1e-13)


def test_k1_real_axis_is_real():
    for w in [0.3, 1.0, 2.5, 7.0, 30.0]:
        assert bessel_k1(w).imag == 0.0


def test_k1_complex_frozen_oracle():
    # oracle: high-precision quadrature of the cosh-integral representation
    want = -0.0864999764812817292 + 0.0390614340052144719j
    assert bessel_k1(2 + 3j) == pytest.approx(want, rel=1e-13)


def test_k1_oracle_grid():
    rng = np.random.default_rng(42)
    re = rng.uniform(0.2, 12.0, 50)
    im = rng.uniform(-15.0, 15.0, 50)
    for w in re + 1j * im:
        got = bessel_k1(w)
        want = k1_integral_oracle(w)
        assert abs(got - want) <= 1e-10 * abs(want), f"w={w}"


def test_k1_domain_error():
    with pytest.raises(DomainError):
        bessel_k1(-1.0 + 2j)


@given(st.floats(0.1, 40.0), st.floats(-40.0, 40.0))
@settings(max_examples=40, deadline=None)
def test_k1_conjugate_symmetry(re, im):
    w = complex(re, im)
    assert bessel_k1(np.conj(w)) == np.conj(bessel_k1(w))


# a 2-D array mixing the series (|w| < 1.5), its boundary, both Gauss-Laguerre
# rules (1.5 <= |w| < 5 and 5 <= |w| < 20) and Hankel's expansion
# (|w| >= 20), as contours pass them
_W_MIXED = np.array([
    [0.3 + 0.2j, 1.1 - 1.4j, 1.5 + 0.0j, 1.2 + 1.6j],
    [1.5 + 9.0j, 4.5 - 3.0j, 12.0 + 14.0j, 0.6 - 1.2j],
    [7.0 + 0.0j, 0.9 + 0.0j, 2.5 - 0.5j, 3.0 - 14.5j],
    [25.0 + 0.0j, 6.0 + 21.0j, 30.0 - 12.0j, 2.5 - 40.0j],
])


def test_k1_array_oracle():
    got = bessel_k1(_W_MIXED)
    assert got.shape == _W_MIXED.shape
    assert bessel_k1(np.empty((0, 3))).shape == (0, 3)
    for w, g in zip(_W_MIXED.ravel(), got.ravel()):
        want = k1_integral_oracle(w)
        assert abs(g - want) <= 1e-10 * abs(want), f"w={w}"


def test_k1e_array_is_scaled_k1():
    got = numerics.bessel_k1e(_W_MIXED)
    want = np.exp(_W_MIXED) * bessel_k1(_W_MIXED)
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


def test_k1_array_conjugate_symmetric_and_real():
    assert np.array_equal(bessel_k1(np.conj(_W_MIXED)),
                          np.conj(bessel_k1(_W_MIXED)))
    x = np.array([0.3, 0.9, 2.0, 7.0, 30.0])
    assert np.all(bessel_k1(x).imag == 0.0)
    assert np.all(numerics.bessel_k1e(x).imag == 0.0)


def test_k1_elements_match_their_batch():
    # each element alone is bitwise its value in the mixed batch
    for f in (bessel_k1, numerics.bessel_k1e):
        batch = f(_W_MIXED)
        for w, got in zip(_W_MIXED.ravel(), batch.ravel()):
            alone = f(np.array([w]))[0]
            assert alone == got and f(w) == got, f"w={w}"


def test_k1e_mpmath_across_the_middle_band():
    # the Gauss-Laguerre regime from |w| = 2 across the seam of its two
    # rules at 5 to the Hankel seam, up to 1e-9 from the imaginary axis
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    r = np.array([2.0, 2.0001, 3.0, 4.0, 4.9999, 5.0, 6.0, 8.6, 12.0, 19.99])
    arg = np.linspace(-1.0, 1.0, 9) * (0.5 * math.pi - 1e-9)
    w = (r[:, None] * np.exp(1j * arg)).ravel()
    for wk, got in zip(w, numerics.bessel_k1e(w)):
        want = complex(mp.besselk(1, mp.mpc(wk)) * mp.exp(mp.mpc(wk)))
        assert abs(got - want) <= 1e-15 * abs(want), f"w={wk}"


# K1e across 2 <= |w| < 20, frozen from mpmath at 25 digits, so that the
# middle band is checked where mpmath is absent
_K1E_MIDDLE_BAND = [
    (2 + 0j, 1.033476847068688573175357 + 0.0j),
    (1.25 - 1.6j, 0.8333857607551749358393944 + 0.5273054917099433851106127j),
    (1e-06 + 2.5j, 0.488385604286160623656983 - 0.6509353449627704353624803j),
    (3 - 0.5j, 0.795376219848191596386229 + 0.07829185771827556468489349j),
    (2.5 + 3.5j, 0.5470734675990915884506345 - 0.3260167621817855221689224j),
    (0.02 - 4.5j, 0.3868502676877840112463177 + 0.4537273045407712400155372j),
    (3 + 4j, 0.5102450299328521621680121 - 0.290121551266938438618628j),
    (6 + 0j, 0.5421759102771335382848695 + 0.0j),
    (4 + 5.5j, 0.4331543277760653718633243 - 0.2433914401455296067303408j),
    (0.5 - 8.6j, 0.2992027643501516449719597 + 0.3076324189239208031438387j),
    (9 + 7j, 0.3577756889360356594464032 - 0.1303596898348650568440922j),
    (0.001 + 12j, 0.2480700142211830099033015 - 0.2640082717418569438278927j),
    (14 - 6j, 0.3209849763887676884033541 + 0.06895224255173671436916512j),
    (0.0001 - 19.9j, 0.1949816884306965486402834 + 0.202462876870719335409631j),
    (19.99 + 0j, 0.2854994321517989394973775 + 0.0j),
]


def test_k1_mpmath_across_the_series_seam():
    # the series ends and the 48-node Gauss-Laguerre rule starts at
    # |w| = 1.5; both sides, up to 1e-9 from the imaginary axis.  The last
    # point, with |w| just below 2, is where the series, which used to run
    # up to 2, was off by 1.8e-15
    mp = pytest.importorskip("mpmath")
    r = np.array([1.25, 1.5, 1.75, 1.9, 1.9999999999999998])
    arg = np.linspace(-1.0, 1.0, 9) * (0.5 * math.pi - 1e-9)
    w = np.append(r[:, None] * np.exp(1j * arg),
                  1.420559556288615 - 1.407838963460343j)
    with mp.workdps(30):
        for wk, k1, k1e in zip(w, bessel_k1(w), numerics.bessel_k1e(w)):
            want = mp.besselk(1, mp.mpc(wk))
            assert abs(k1 - complex(want)) <= 1e-15 * abs(want), f"w={wk}"
            want = complex(want * mp.exp(mp.mpc(wk)))
            assert abs(k1e - want) <= 1e-15 * abs(want), f"w={wk}"


def test_k1e_frozen_middle_band_table():
    w, want = (np.array(c) for c in zip(*_K1E_MIDDLE_BAND))
    assert np.all((np.abs(w) >= 2.0) & (np.abs(w) < 20.0))
    got = numerics.bessel_k1e(w)
    assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))


def test_k1e_mpmath_across_hankel_seam():
    # the Gauss-Laguerre rule ends and Hankel's expansion starts at |w| = 20;
    # both sides, and the expansion far out, against mpmath's besselk
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 20
    r = np.array([19.9, 19.99, 20.0, 20.01, 20.1, 150.0, 1e3, 1e4])
    w = (r[:, None] * np.exp(1j * np.linspace(-1.5, 1.5, 7))).ravel()
    for wk, got in zip(w, numerics.bessel_k1e(w)):
        want = complex(mp.besselk(1, mp.mpc(wk)) * mp.exp(mp.mpc(wk)))
        assert abs(got - want) <= 1e-15 * abs(want), f"w={wk}"


@pytest.mark.parametrize("bad", [-1.0 + 2j, 0.0 + 3j, -0.5 + 0j])
def test_k1_array_domain_error(bad):
    w = _W_MIXED.copy()
    w[1, 2] = bad
    with pytest.raises(DomainError):
        bessel_k1(w)


# ---------------------------------------------------------------------------
# log_gamma / beta
# ---------------------------------------------------------------------------

def test_log_gamma_known_values():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
    assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-13)
    # frozen from an independent high-precision evaluation
    want = -2.22265586405325822 - 0.592536981977034589j
    assert log_gamma(0.5 + 2j) == pytest.approx(want, rel=1e-12)


def test_log_gamma_exp_matches_gamma_on_real_axis():
    for x in [0.5, 1.5, 3.2, 7.9, -0.5, -1.5, -2.3]:
        got = np.exp(log_gamma(x))
        assert got == pytest.approx(math.gamma(x), rel=1e-11), f"x={x}"


def test_log_gamma_oracle_grid():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    rng = np.random.default_rng(7)
    re = rng.uniform(0.5, 20.0, 50)
    im = rng.uniform(-20.0, 20.0, 50)
    for z in re + 1j * im:
        want = complex(mp.loggamma(complex(z)))
        assert abs(log_gamma(z) - want) <= 1e-10 * (1 + abs(want)), f"z={z}"


def test_log_gamma_poles():
    for z in [0.0, -1.0, -5.0]:
        with pytest.raises(DomainError):
            log_gamma(z)


def test_log_gamma_array_oracle_across_reflection():
    # Re z on both sides of 0.5 and |Im z| on both sides of 10, where the
    # reflection switches between its two forms of log(sin(pi z)).  Off
    # the real axis left of 0.5 only exp(log_gamma) is fixed, so the
    # imaginary part is compared modulo 2 pi.
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    z = np.array([[-3.3 + 15.0j, -0.7 - 12.5j, 0.2 + 9.5j, -5.5 - 3.0j],
                  [-2.5 + 0.5j, 0.3 - 0.2j, 4.0 + 11.0j, 7.5 - 25.0j],
                  [-1.5 + 0.0j, 0.45 + 10.5j, 0.5 + 0.0j, 2.2 - 9.9j]])
    got = log_gamma(z)
    assert got.shape == z.shape
    for zk, g in zip(z.ravel(), got.ravel()):
        want = complex(mp.loggamma(complex(zk)))
        turns = (g.imag - want.imag) / (2.0 * math.pi)
        assert abs(g.real - want.real) <= 1e-10 * (1 + abs(want)), f"z={zk}"
        assert abs(turns - round(turns)) * 2.0 * math.pi <= 1e-10 * (1 + abs(want)), \
            f"z={zk}"
        if zk.real >= 0.5:
            assert round(turns) == 0, f"z={zk}"


def test_log_gamma_array_poles():
    for pole in [0.0, -1.0, -5.0]:
        z = np.array([[1.5 + 2j, -0.5 + 0j], [3.0 + 0j, pole]])
        with pytest.raises(DomainError):
            log_gamma(z)


def test_beta_values():
    assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-13)
    assert beta(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-13)
    want = 0.131158457617659255 + 0.165792532675297457j
    assert beta(2.5, 1.3 - 0.7j) == pytest.approx(want, rel=1e-12)


def test_beta_integral_oracle_grid():
    cases = [(2.5, 1.3 - 0.7j), (1.5, 2.5), (3.0, 0.8 + 0.4j), (2.0, 2.0)]
    for a, b in cases:
        want = beta_integral_oracle(a, b)
        assert abs(beta(a, b) - want) <= 1e-10 * abs(want)


def test_beta_array_second_argument():
    a = 2.5
    b = np.array([1.3 - 0.7j, 2.5 + 0j, 0.8 + 0.4j, 2.0 + 1.5j])
    got = beta(a, b)
    assert got.shape == b.shape
    for bk, g in zip(b, got):
        want = beta_integral_oracle(a, bk)
        assert abs(g - want) <= 1e-10 * abs(want), f"b={bk}"


# ---------------------------------------------------------------------------
# contour quadrature
# ---------------------------------------------------------------------------

def _call_density_integrand(s, K=1.0):
    def f(z):
        return K ** (1.0 - z) / (2.0 * math.pi * z * (z - 1.0)) \
            * np.exp(z * math.log(s))
    return f


def _adapt_folded_call(budget):
    # the call integrand at s = 2 folded onto v >= 0 as 2 Re f(2 + iv),
    # adapted on [0, 400] from eight uniform panels
    f = _call_density_integrand(2.0)
    (value,), (err,), nevals, _ = numerics._adapt(
        lambda v: 2.0 * np.real(f(2.0 + 1j * v)) + 0j,
        [np.linspace(0.0, 400.0, 9)], 1e-14, budget)
    return value, err, nevals


def test_refinement_convergence_budget_doubling():
    small, small_err, _ = _adapt_folded_call(480)
    big, _, _ = _adapt_folded_call(960)
    assert abs(big - small) <= small_err + 1e-15


def test_budget_between_split_steps_keeps_the_refined_result():
    # a budget that is no multiple of a split's 30 nodes must not swap the
    # refined result for a coarse one, nor spend more than it allows
    ref, _, _ = _adapt_folded_call(480)
    for budget in (490, 500):
        value, _, nevals = _adapt_folded_call(budget)
        assert nevals <= budget
        assert abs(value.real - 1.0) <= 2.0 * abs(ref.real - 1.0)


def _peak(v):
    # a Lorentzian peak of width 1e-3 at v = 2.3: int_a^b has a closed form
    return 1.0 / (1e-6 + (v - 2.3) ** 2) + 0j


def _peak_integral(a, b):
    return (math.atan((b - 2.3) / 1e-3) - math.atan((a - 2.3) / 1e-3)) / 1e-3


def test_panel_results_do_not_depend_on_the_batch():
    # one panel's K15 value and |K15 - G7| error, bit for bit, alone and
    # in batches of 2, 3 and 64 panels
    def f(v):
        return np.exp(1j * v) / (1.0 + (v - 2.3) ** 2)

    edges = np.linspace(0.0, 10.0, 65)
    a, b = edges[:-1], edges[1:]
    for i in (0, 17, 63):
        alone = numerics._eval_panels(f, a[i:i + 1], b[i:i + 1])
        for size in (2, 3, 64):
            idx = (i + np.arange(size)) % a.size
            value, error = numerics._eval_panels(f, a[idx], b[idx])
            assert value[0] == alone[0][0]
            assert error[0] == alone[1][0]


def test_adapt_rounds_cover_the_interval_within_the_budget():
    for budget in (100, 120, 600, 1830, 200_000):
        (value,), (err,), nevals, (edges,) = numerics._adapt(
            _peak, [np.linspace(0.0, 10.0, 9)], 1e-9, budget)
        # the 8 initial panels (120 nodes) are always evaluated
        assert nevals <= max(budget, 120)
        assert edges[0] == 0.0 and edges[-1] == 10.0
        assert np.all(np.diff(edges) > 0.0)
        # K15 on the final edges gives the reported value and error
        v, e = numerics._eval_panels(_peak, edges[:-1], edges[1:])
        assert v.sum() == pytest.approx(value, rel=1e-14)
        assert abs(e.sum() - err) <= 1e-14 * abs(value)
    # with the full budget the peak is resolved within the estimate
    exact = _peak_integral(0.0, 10.0)
    assert err <= 1e-9
    assert abs(value - exact) <= err + 1e-12 * exact


def test_adapt_intervals_run_together_equal_separate_runs():
    cuts = [np.linspace(0.0, 1.0, 9), np.linspace(1.0, 3.0, 9),
            np.array([3.0, 3.5, 10.0])]
    values, errors, nevals, edges = numerics._adapt(_peak, cuts, 1e-8,
                                                    200_000)
    total = 0
    for i, c in enumerate(cuts):
        (v,), (e,), n, (ed,) = numerics._adapt(_peak, [c], 1e-8, 200_000)
        assert np.array_equal(ed, edges[i])
        assert values[i] == pytest.approx(v, rel=1e-15, abs=1e-300)
        # |K15 - G7| cancels: its rounding is that of the value
        assert abs(errors[i] - e) <= 1e-14 * abs(v)
        assert abs(v - _peak_integral(c[0], c[-1])) <= e + 1e-12 * abs(v)
        total += n
    assert nevals == total


def test_adapt_independent_intervals_keep_their_own_budgets():
    # peaks of widths 1e-3 to 1e-1, one per interval; the integrand learns
    # each node's interval, and every interval adapts as it would alone
    widths = np.array([1e-3, 1e-2, 1e-1, 1e-3])

    def peaks(v, k):
        return widths[k] / (widths[k] ** 2 + (v - 2.3) ** 2) + 0j

    cuts = [np.linspace(0.0, 10.0, 9)] * widths.size
    for budget in (600, 200_000):
        values, errors, nevals, edges = numerics._adapt(
            peaks, cuts, 1e-8, budget, independent=True)
        total = 0
        for k, c in enumerate(cuts):
            (v,), (e,), n, (ed,) = numerics._adapt(
                lambda x: peaks(x, np.full(x.shape, k)), [c], 1e-8, budget)
            assert np.array_equal(ed, edges[k])
            assert values[k] == v
            assert errors[k] == pytest.approx(e, rel=1e-12)
            assert n <= max(budget, 120)
            total += n
        assert nevals == total
    # so the budget of 600 binds
    assert nevals > 600 * widths.size


def test_double_contour_zero_kernel():
    spec = ContourSpec(1.0, 50.0)
    res = double_contour_integrate(lambda y, z: np.zeros_like(y), spec, spec)
    assert res.value == 0.0


def test_double_contour_gaussian_variance_kernel_vanishes():
    # for Brownian cumulants the covariance kernel of the hedging error is
    # identically zero; its double integral against call densities must
    # come out at rounding level
    sigma, mu, dt = 0.2, 0.08, 0.25
    K = 99.0

    def kappa(z):
        return (mu - 0.5 * sigma * sigma) * z + 0.5 * sigma * sigma * z * z

    k1 = kappa(1.0)
    den = kappa(2.0) - 2.0 * k1

    def kernel(y, z):
        gty = kappa(y + 1.0) - kappa(y) - k1
        gtz = kappa(z + 1.0) - kappa(z) - k1
        beta = kappa(y + z) - kappa(y) - kappa(z) - gty * gtz / den
        dens = (K ** (1.0 - y) / (2.0 * math.pi * y * (y - 1.0))
                * K ** (1.0 - z) / (2.0 * math.pi * z * (z - 1.0)))
        return beta * np.exp((y + z) * math.log(100.0) + kappa(y + z) * dt) * dens

    spec = ContourSpec(1.5, 200.0)
    res = double_contour_integrate(kernel, spec, spec, tol_abs=1e-9,
                                   symmetric=True)
    assert abs(res.value) <= 1e-9


def test_double_contour_separable_fubini():
    # product kernel integrates to the product of the 1-d integrals
    def fy(v):
        return 1.0 / (1.0 + v ** 2)

    def kernel(y, z):
        return fy(np.imag(y)) * fy(np.imag(z)) + 0j

    spec = ContourSpec(0.5, 300.0)
    res = double_contour_integrate(kernel, spec, spec, tol_abs=1e-10,
                                   symmetric=True)
    one_d = 2.0 * math.atan(300.0)
    assert res.value == pytest.approx(one_d ** 2, rel=1e-7)


def test_g12_rule_matches_mpmath():
    mp = pytest.importorskip("mpmath")
    x, w = numerics._G12
    assert x.size == w.size == 12
    with mp.workdps(40):
        for xk, wk in zip(x.tolist(), w.tolist()):
            # Newton on P12 from the double root, then the Gauss weight
            # 2 / ((1 - t^2) P12'(t)^2), P12' = 12 (t P12 - P11) / (t^2 - 1)
            def dp12(t):
                return 12 * (t * mp.legendre(12, t) - mp.legendre(11, t)) \
                    / (t * t - 1)

            t = mp.mpf(xk)
            for _ in range(4):
                t -= mp.legendre(12, t) / dp12(t)
            assert abs(xk - t) <= 1e-15
            assert abs(wk - 2 / ((1 - t * t) * dp12(t) ** 2)) <= 1e-15


def test_g12_rule_integrates_polynomials_to_degree_23():
    x, w = numerics._G12
    for k in range(24):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(w @ x ** k - exact) <= 1e-15, k
    # and no further: the rule has degree 23 exactly
    assert abs(w @ x ** 24 - 2.0 / 25) > 1e-8


def test_double_contour_fine_passes_on_g12_probe_on_k15(monkeypatch):
    passes = []
    inner = numerics._tensor_value

    def spy(kernel, Ry, Rz, edges_y, edges_z, rule, symmetric, tol_abs):
        passes.append((rule[0].size, edges_y.size - 1, edges_z.size - 1))
        return inner(kernel, Ry, Rz, edges_y, edges_z, rule, symmetric,
                     tol_abs)

    monkeypatch.setattr(numerics, "_tensor_value", spy)

    def kernel(y, z):   # its far field fails the probe: two refinements
        return np.exp(0.3 * y) / ((1.0 + y * y) * (2.0 + z * z)) \
            + 1.0 / (4.0 + y + 2.0 * z)

    double_contour_integrate(kernel, ContourSpec(0.5, 300.0),
                             ContourSpec(1.5, 300.0), tol_abs=1e-8)
    (base, by, bz), (probe, py, pz), *refined = passes
    assert (base, probe) == (12, 15)
    assert (py, pz) == ((by + 1) // 2, (bz + 1) // 2)
    assert [r[1:] for r in refined] == [(2 * by, 2 * bz), (4 * by, 4 * bz)]
    assert all(r[0] == 12 for r in refined)
