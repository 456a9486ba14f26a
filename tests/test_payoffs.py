import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import levyhedge as lh
from levyhedge import payoffs as po
from levyhedge.models import NIG, Gaussian, strip_of_finiteness
from levyhedge.payoffs import (
    PointMass,
    TransformMeasure,
    abscissa_admissible,
    evaluate_payoff,
    tabulate_transform,
)


def reconstruct(measure, s, tol=1e-9):
    return evaluate_payoff(measure, s, tol_abs=tol)


def test_call_examples():
    m = lh.call(1.0)
    assert reconstruct(m, 2.0) == pytest.approx(1.0, abs=1e-8)
    assert reconstruct(m, 1.0) == pytest.approx(0.0, abs=1e-8)
    assert reconstruct(m, 0.5) == pytest.approx(0.0, abs=1e-8)


def test_scaled_low_moment_call_scales_its_point_mass():
    m = 2.0 * lh.call_low_moment(99.0)
    assert reconstruct(m, 120.0) == pytest.approx(42.0, abs=1e-7)
    assert reconstruct(m, 80.0) == pytest.approx(0.0, abs=1e-7)


def test_put_examples():
    m = lh.put(1.0)
    assert reconstruct(m, 0.5) == pytest.approx(0.5, abs=1e-8)
    assert reconstruct(m, 1.0) == pytest.approx(0.0, abs=1e-8)
    assert reconstruct(m, 2.0) == pytest.approx(0.0, abs=1e-8)


def test_call_low_moment_examples():
    m = lh.call_low_moment(1.0)
    assert reconstruct(m, 2.0) == pytest.approx(1.0, abs=1e-8)
    assert reconstruct(m, 0.5) == pytest.approx(0.0, abs=1e-8)
    # the point mass alone is the stock itself
    pm = [c for c in m.components if isinstance(c, PointMass)]
    assert len(pm) == 1 and pm[0].location == 1.0 and pm[0].weight == 1.0
    stock = TransformMeasure((pm[0],))
    assert evaluate_payoff(stock, 3.7) == pytest.approx(3.7, rel=1e-14)


def test_power_call_examples():
    m2 = lh.power_call(1.0, 2)
    assert reconstruct(m2, 2.0) == pytest.approx(1.0, abs=1e-8)
    assert reconstruct(m2, 1.0) == pytest.approx(0.0, abs=1e-8)
    m3 = lh.power_call(1.0, 3)
    assert reconstruct(m3, 3.0) == pytest.approx(8.0, rel=1e-8)


def test_power_call_fractional_examples():
    for abscissa in (None, 1.8):
        # an abscissa below a + 1/2 puts z - a in log_gamma's reflection
        # branch, also at |Im z| >= 10
        mf = lh.power_call_fractional(1.0, 1.5, abscissa)
        assert reconstruct(mf, 2.0) == pytest.approx(1.0, abs=1e-8)
        assert reconstruct(mf, 4.0) == pytest.approx(3.0 ** 1.5, rel=1e-8)
    # integer power 2 through the Beta-function route agrees with the
    # rational-density route
    m2a = lh.power_call_fractional(1.0, 2.0)
    m2b = lh.power_call(1.0, 2)
    assert reconstruct(m2a, 3.0) == pytest.approx(reconstruct(m2b, 3.0),
                                                  rel=1e-6)


def test_self_quanto_examples():
    m = lh.self_quanto_call(1.0)
    assert reconstruct(m, 2.0) == pytest.approx(2.0, rel=1e-8)
    assert reconstruct(m, 1.0) == pytest.approx(0.0, abs=1e-8)
    assert reconstruct(m, 3.0) == pytest.approx(6.0, rel=1e-8)


def test_digital_examples():
    m = lh.digital(1.0)
    assert reconstruct(m, 2.0) == pytest.approx(1.0, abs=1e-7)
    assert reconstruct(m, 1.0) == pytest.approx(0.5, abs=1e-7)
    assert reconstruct(m, 0.5) == pytest.approx(0.0, abs=1e-7)


def test_digital_at_strike_pv():
    m = lh.digital(99.0)
    assert evaluate_payoff(m, 99.0, tol_abs=1e-6) == pytest.approx(0.5, abs=1e-4)


def test_log_contract_examples():
    m = lh.log_contract()
    assert reconstruct(m, 1.0) == pytest.approx(0.0, abs=1e-9)
    assert reconstruct(m, math.e) == pytest.approx(1.0, rel=1e-8)
    assert reconstruct(m, 1.0 / math.e) == pytest.approx(-1.0, rel=1e-8)


def test_empty_measure():
    empty = TransformMeasure(())
    assert evaluate_payoff(empty, 1.0) == 0.0


def test_call_plus_put_at_strike():
    K = 10.0
    total = lh.call(K) + lh.put(K)
    assert evaluate_payoff(total, K, tol_abs=1e-8) == pytest.approx(0.0, abs=1e-7)


@given(st.floats(-2.0, 3.0), st.floats(-2.0, 3.0), st.floats(0.4, 2.5))
@settings(max_examples=20, deadline=None)
# a drawn example: each 1e-7-weighted line stops at its 64-high cap in one
# segment, whose whole value is then counted as its tail error, so the
# combination is flagged with a QuadratureWarning although it is right
@example(1e-07, 1e-07, 1.4760772383159768)
def test_linearity(a, b, s):
    m1, m2 = lh.call(1.0), lh.call(1.3)
    combo = a * m1 + b * m2
    got = evaluate_payoff(combo, s, tol_abs=1e-8)
    want = (a * evaluate_payoff(m1, s, tol_abs=1e-9)
            + b * evaluate_payoff(m2, s, tol_abs=1e-9))
    assert got == pytest.approx(want, abs=5e-7)


def test_realness():
    for m in [lh.call(2.0), lh.digital(2.0), lh.log_contract()]:
        res = po.integrate_measure(m, 1.7, None, tol_abs=1e-9)
        assert abs(res.value.imag) <= 1e-10 * (1.0 + abs(res.value.real))


def test_abscissa_admissible():
    gauss_strip = strip_of_finiteness(Gaussian(mu=0.0, sigma=0.2))
    assert abscissa_admissible(lh.call(100.0, 1.5), gauss_strip)
    # 2R = 5 needs strip above 5; this NIG tops out at alpha - beta = 4.5
    tight = strip_of_finiteness(NIG(alpha=5.0, beta=0.5, delta=1.0, mu=0.0))
    assert not abscissa_admissible(lh.power_call(100.0, 2, 2.5), tight)
    nig_strip = strip_of_finiteness(NIG(75.49, -4.089, 3.024, -0.04))
    assert abscissa_admissible(lh.digital(99.0, 0.5), nig_strip)
    # point masses are checked too
    assert abscissa_admissible(lh.call_low_moment(100.0), nig_strip)


def test_pv_uniqueness_enforced():
    d1, d2 = lh.digital(1.0), lh.digital(2.0)
    with pytest.raises(ValueError):
        _ = d1 + d2


def test_conjugate_point_masses_enforced():
    with pytest.raises(ValueError):
        TransformMeasure((PointMass(1.0 + 2.0j, 1.0 + 0j),))
    paired = TransformMeasure((PointMass(1.0 + 2.0j, 0.5 - 0.1j),
                               PointMass(1.0 - 2.0j, 0.5 + 0.1j)))
    val = evaluate_payoff(paired, 1.7)
    assert isinstance(val, float)


def test_construction_validation():
    with pytest.raises(ValueError):
        lh.call(-1.0)
    with pytest.raises(ValueError):
        lh.call(1.0, abscissa=0.9)
    with pytest.raises(ValueError):
        lh.put(1.0, abscissa=0.5)
    with pytest.raises(ValueError):
        lh.power_call(1.0, 1)
    with pytest.raises(ValueError):
        lh.digital(1.0, abscissa=-0.5)
    with pytest.raises(ValueError):
        lh.log_contract(0.5, 0.5)


def test_pv_doubling_stability_off_strike():
    # the completed digital value moves by less than 1e-8 when the
    # truncation height doubles
    line = lh.digital(1.0).lines()[0]
    vals = {}
    for mult in (1.0, 2.0):
        heights, _, _ = po._height_plan(line, [2.0], 1e-9)
        c = float(heights[0]) * mult
        ln_s = math.log(2.0)

        def f(z):
            return line.density(z) * np.exp(z * ln_s)

        fv = po.numerics._wrap_integrand(f, line.abscissa, True)
        (v,), _, _, _ = po.numerics._adapt(fv, [np.linspace(0.0, c, 17)],
                                           1e-11, 600_000)
        tail, _ = po.tail_completion(line, [2.0], [c])
        vals[mult] = v.real + tail[0]
    assert abs(vals[1.0] - vals[2.0]) <= 1e-8


def test_tabulate_matches_pointwise():
    m = lh.call(99.0)
    grid = np.exp(np.linspace(math.log(60.0), math.log(160.0), 31))
    vals, err = tabulate_transform(m, grid, None, tol_abs=1e-6)
    for s, v in zip(grid[::5], vals[::5]):
        direct = evaluate_payoff(m, float(s), tol_abs=1e-8)
        assert v == pytest.approx(direct, abs=5e-6)
    assert err < 1e-5


def test_tabulate_with_weight():
    # a flat weight of 2 doubles everything, including point masses
    m = lh.call_low_moment(10.0)
    grid = np.array([8.0, 10.0, 14.0])
    base, _ = tabulate_transform(m, grid, None, tol_abs=1e-8)
    double, _ = tabulate_transform(m, grid, lambda z: 2.0 * np.ones_like(z),
                                   tol_abs=1e-8)
    assert np.allclose(double, 2.0 * base, rtol=1e-10, atol=1e-10)


def test_measure_scaling():
    m = 2.5 * lh.call(1.0)
    assert evaluate_payoff(m, 2.0, tol_abs=1e-9) == pytest.approx(2.5, rel=1e-7)
    assert m.analytic(2.0) == 2.5


def test_bull_spread():
    spread = lh.call(95.0) - lh.call(105.0)
    for s in (90.0, 100.0, 120.0):
        want = max(s - 95.0, 0.0) - max(s - 105.0, 0.0)
        assert evaluate_payoff(spread, s, tol_abs=1e-7) == pytest.approx(
            want, abs=1e-5)
        assert spread.analytic(s) == want


@pytest.mark.parametrize("m", [
    lh.call(100.0), lh.put(100.0), lh.call_low_moment(100.0),
    lh.power_call(100.0, 2), lh.power_call_fractional(100.0, 1.5),
    lh.self_quanto_call(100.0), lh.digital(100.0), lh.log_contract(),
    lh.call(95.0) - 2.0 * lh.call(105.0),
], ids=["call", "put", "low_moment", "power", "fractional", "quanto",
        "digital", "log", "combination"])
def test_analytic_is_vectorized(m):
    s = np.array([[80.0, 99.5, 100.0], [100.5, 104.0, 130.0]])
    got = m.analytic(s)
    assert isinstance(got, np.ndarray) and got.shape == s.shape
    for si, gi in zip(s.ravel().tolist(), got.ravel().tolist()):
        one = m.analytic(si)
        assert isinstance(one, float)
        assert one == gi
    assert lh.digital(100.0).analytic(100.0) == 0.5
