import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levyhedge import models as mdl
from levyhedge.models import (
    Gaussian,
    Hyperbolic,
    MertonJD,
    NIG,
    VG,
    UnsupportedModelError,
    cumulant,
    cumulant_derivatives,
    gaussian_benchmark,
    mgf_step,
    no_arbitrage_check,
    sample_increment,
    sample_increments,
    strip_of_finiteness,
)

GAUSS = Gaussian(mu=0.08, sigma=0.2)
MERTON = MertonJD(mu=0.05, sigma=0.15, jump_intensity=0.8,
                  jump_mean=-0.06, jump_sd=0.12)
NIG_FIT = NIG(alpha=75.49, beta=-4.089, delta=3.024, mu=-0.04)
VG_FIT = VG(alpha=20.0, beta=-1.0, delta=1.5, mu=0.05)
HYP = Hyperbolic(alpha=8.0, beta=2.0, delta=1.5, mu=-0.3)
ALL = [GAUSS, MERTON, NIG_FIT, VG_FIT, HYP]


def test_cumulant_zero_and_unit_step():
    for m in ALL:
        assert cumulant(m, 0.0) == 0.0
        assert mgf_step(m, 0.0, 0.37) == 1.0


def test_gaussian_variance_identity():
    # kappa(2) - 2 kappa(1) recovers the squared volatility
    k1 = cumulant(GAUSS, 1.0).real
    k2 = cumulant(GAUSS, 2.0).real
    assert k2 - 2.0 * k1 == pytest.approx(GAUSS.sigma ** 2, rel=1e-14)


@given(st.sampled_from(ALL), st.floats(-0.4, 2.2), st.floats(-60.0, 60.0))
@settings(max_examples=100, deadline=None)
def test_conjugate_symmetry(model, re, im):
    z = complex(re, im)
    strip = strip_of_finiteness(model)
    if not strip.lo + 1e-6 < re < strip.hi - 1e-6:
        return
    assert cumulant(model, np.conj(z)) == pytest.approx(
        np.conj(cumulant(model, z)), rel=1e-12, abs=1e-12)


def test_semigroup_property():
    rng = np.random.default_rng(5)
    for m in ALL:
        strip = strip_of_finiteness(m)
        lo, hi = max(strip.lo, -5.0), min(strip.hi, 5.0)
        res = rng.uniform(lo + 0.2, hi - 0.2, 20)
        ims = rng.uniform(-30.0, 30.0, 20)
        z = res + 1j * ims
        for dt1, dt2 in [(0.1, 0.25), (0.03, 0.7)]:
            lhs = np.array([mgf_step(m, zz, dt1) * mgf_step(m, zz, dt2)
                            for zz in z])
            rhs = np.array([mgf_step(m, zz, dt1 + dt2) for zz in z])
            assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) <= 1e-12


def test_strips():
    s = strip_of_finiteness(GAUSS)
    assert s.lo == -math.inf and s.hi == math.inf
    s = strip_of_finiteness(NIG_FIT)
    assert s.lo == pytest.approx(-71.401, abs=1e-12)
    assert s.hi == pytest.approx(79.579, abs=1e-12)
    s = strip_of_finiteness(VG(alpha=10.0, beta=1.0, delta=1.0, mu=0.0))
    # roots of 10 - p - p^2/2
    assert s.lo == pytest.approx(-1.0 - math.sqrt(21.0), rel=1e-14)
    assert s.hi == pytest.approx(-1.0 + math.sqrt(21.0), rel=1e-14)


def test_strip_boundary_behaviour():
    # finite just inside, rejected at and outside the boundary
    s = strip_of_finiteness(NIG_FIT)
    assert np.isfinite(mgf_step(NIG_FIT, s.hi - 1e-6, 0.1))
    with pytest.raises(mdl.DomainError):
        cumulant(NIG_FIT, s.hi + 0.1)


def test_no_arbitrage():
    assert no_arbitrage_check(GAUSS, 0.02)
    assert not no_arbitrage_check(
        MertonJD(mu=0.05, sigma=0.0, jump_intensity=0.0,
                 jump_mean=0.0, jump_sd=0.0), 0.02)
    with pytest.raises(ValueError):
        Gaussian(mu=0.05, sigma=0.0)  # degenerate vol rejected at the type


def test_merton_without_jumps_matches_gaussian():
    g = Gaussian(mu=0.08, sigma=0.2)
    m = MertonJD(mu=0.08 - 0.5 * 0.2 ** 2, sigma=0.2, jump_intensity=0.0,
                 jump_mean=0.0, jump_sd=0.0)
    zs = np.array([0.3, 1.0, 2.0, 1.5 + 7j, -0.2 + 3j])
    assert np.allclose(cumulant(g, zs), cumulant(m, zs), rtol=0, atol=1e-15)


def test_validation_errors():
    with pytest.raises(ValueError):
        NIG(alpha=1.0, beta=2.0, delta=1.0, mu=0.0)
    with pytest.raises(ValueError):
        VG(alpha=1.0, beta=2.0, delta=1.0, mu=0.0)  # strip misses [0, 2]
    with pytest.raises(ValueError):
        MertonJD(mu=0.0, sigma=-1.0, jump_intensity=0.0,
                 jump_mean=0.0, jump_sd=0.0)


# ---------------------------------------------------------------------------
# samplers vs transforms
# ---------------------------------------------------------------------------

def test_gaussian_sample_mean():
    rng = np.random.default_rng(11)
    dt = 0.1
    x = sample_increments(GAUSS, dt, rng, size=1_000_000)
    want = (GAUSS.mu - 0.5 * GAUSS.sigma ** 2) * dt
    se = GAUSS.sigma * math.sqrt(dt) / 1000.0
    assert abs(x.mean() - want) <= 3.0 * se


@pytest.mark.parametrize("model", [GAUSS, MERTON, NIG_FIT, VG_FIT],
                         ids=["gauss", "merton", "nig", "vg"])
def test_sampler_matches_transform(model):
    rng = np.random.default_rng(123)
    dt = 0.25
    x = sample_increments(model, dt, rng, size=1_000_000)
    for p in (0.5, 1.0, 2.0):
        emp = np.exp(p * x)
        want = mgf_step(model, p, dt).real
        se = emp.std() / 1000.0
        assert abs(emp.mean() - want) <= 3.0 * se, f"p={p}"


def test_vg_variance_matches_second_cumulant():
    rng = np.random.default_rng(321)
    dt = 0.5
    x = sample_increments(VG_FIT, dt, rng, size=1_000_000)
    _, k2 = cumulant_derivatives(VG_FIT)
    v = x.var()
    # standard error of a sample variance ~ var * sqrt(2/n + kurtosis term)
    m4 = np.mean((x - x.mean()) ** 4)
    se = math.sqrt((m4 - v ** 2) / 1_000_000)
    assert abs(v - k2 * dt) <= 3.0 * se


def test_antithetic_gaussian_pairs_sum_to_twice_the_mean():
    dt = 0.1
    x = mdl._antithetic_increments(GAUSS, dt, np.random.default_rng(7), (7, 3))
    assert x.shape == (7, 3)
    # rows 0..3 are drawn, rows 4..6 mirror rows 0..2
    loc = (GAUSS.mu - 0.5 * GAUSS.sigma ** 2) * dt
    assert np.allclose(x[:3] + x[4:], 2.0 * loc, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("model", [GAUSS, MERTON, NIG_FIT, VG_FIT],
                         ids=["gauss", "merton", "nig", "vg"])
def test_antithetic_moments_match_cumulants(model):
    dt, n = 0.25, 400_000
    x = mdl._antithetic_increments(model, dt, np.random.default_rng(99),
                                   (n, 1))[:, 0]
    k1, k2 = cumulant_derivatives(model)
    drawn, mirror = x[:n // 2], x[n // 2:]
    # the two halves of a pair are dependent, so standard errors are
    # taken over pair averages; 1e-9 covers the finite-difference cumulant
    # derivatives where the pair average has no spread (Gaussian)
    pair_mean = 0.5 * (drawn + mirror)
    se = pair_mean.std() / math.sqrt(n // 2)
    assert abs(pair_mean.mean() - k1 * dt) <= 3.0 * se + 1e-9
    pair_sq = 0.5 * ((drawn - k1 * dt) ** 2 + (mirror - k1 * dt) ** 2)
    se = pair_sq.std() / math.sqrt(n // 2)
    assert abs(pair_sq.mean() - k2 * dt) <= 3.0 * se + 1e-9


def test_sample_increment_scalar():
    rng = np.random.default_rng(0)
    x = sample_increment(NIG_FIT, 0.01, rng)
    assert isinstance(x, float)


def test_hyperbolic_sampling_unsupported():
    rng = np.random.default_rng(0)
    with pytest.raises(UnsupportedModelError):
        sample_increment(HYP, 0.1, rng)


# ---------------------------------------------------------------------------
# hyperbolic distinguished logarithm
# ---------------------------------------------------------------------------

def test_hyperbolic_contour_continuity():
    R = 1.2
    v = np.linspace(-300.0, 300.0, 12001)
    k = cumulant(HYP, R + 1j * v)
    # |m| must follow the real part of kappa, and the unwound imaginary
    # part must move smoothly: no jumps of order 2 pi between grid points
    dt = 0.25
    m = mgf_step(HYP, R + 1j * v, dt)
    assert np.allclose(np.abs(m), np.exp(k.real * dt), rtol=1e-12)
    dk = np.abs(np.diff(k.imag))
    assert np.max(dk) < math.pi


def test_hyperbolic_scalar_agrees_near_axis():
    z = 1.2 + 0.5j
    arr = cumulant(HYP, np.array([1.2 + 0.0j, z]))
    assert cumulant(HYP, z) == pytest.approx(arr[1], rel=1e-13)


def test_hyperbolic_winding_actually_happens():
    # the naive principal log of the full ratio must disagree with the
    # branch-continuous value somewhere (by whole turns), otherwise this
    # model would not need the distinguished logarithm at all
    R = 1.2
    v = np.linspace(0.0, 100.0, 2001)   # keep the raw ratio above underflow
    tracked = cumulant(HYP, R + 1j * v)
    naive = HYP.mu * (R + 1j * v[::100]) \
        + np.log(mdl._hyp_ratio(HYP, R + 1j * v[::100]))
    diff = np.abs(tracked[::100].imag - naive.imag)
    assert np.max(diff) > 1.0  # at least one 2 pi sheet apart
    turns = diff[diff > 1.0] / (2.0 * math.pi)
    assert np.allclose(turns, np.round(turns), atol=1e-6)


# extreme fits: delta from 0.01 to 40, strips from 0.8 to 160 wide
_HYP_EXTREMES = [
    Hyperbolic(8.0, 2.0, 0.01, -0.3), Hyperbolic(8.0, 2.0, 40.0, -0.3),
    Hyperbolic(3.0, 0.5, 1.0, 0.1), Hyperbolic(120.0, -40.0, 0.2, 0.0),
    Hyperbolic(2.2, -0.1, 15.0, 0.02), Hyperbolic(50.0, 20.0, 5.0, -1.0),
    HYP,
]


@pytest.mark.parametrize("model", _HYP_EXTREMES, ids=lambda m: f"delta={m.delta}")
def test_hyperbolic_bessel_ratio_stays_off_negative_reals(model):
    # kappa takes the principal log of q = (s0/s) K1e(delta s)/K1e(delta s0);
    # that is the distinguished log because |arg q| <= 2 |arg s| < pi on
    # the whole strip, checked here up to v = 3e6
    v = np.concatenate(([0.0], np.geomspace(1e-3, 3e6, 2000)))
    strip = strip_of_finiteness(model)
    for frac in (0.01, 0.25, 0.5, 0.75, 0.99):
        R = strip.lo + frac * (strip.hi - strip.lo)
        s, _, q = mdl._hyp_parts(model, R + 1j * v)
        arg_q = np.abs(np.angle(q))
        assert np.all(arg_q <= 2.0 * np.abs(np.angle(s)) + 1e-12)
        assert np.max(arg_q) < 0.5 * math.pi    # and far from pi


def test_hyperbolic_cumulant_mpmath_high_on_contour():
    # mpmath's complex besselk is independent of the continued fraction
    # and the Hankel expansion of numerics._k1
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    a, b, d, mu = (mp.mpf(x) for x in (HYP.alpha, HYP.beta, HYP.delta, HYP.mu))
    s0 = mp.sqrt(a ** 2 - b ** 2)
    for z in (1.2 + 40j, 1.2 + 3e3j, -0.7 + 2.5e4j, 3.1 - 1e5j, 5.0 + 7j):
        s = mp.sqrt(a ** 2 - (b + mp.mpc(z)) ** 2)
        q = ((s0 / s) * mp.besselk(1, d * s) * mp.exp(d * (s - s0))
             / mp.besselk(1, d * s0))
        want = complex(mu * mp.mpc(z) - d * (s - s0) + mp.log(q))
        assert abs(cumulant(HYP, z) - want) <= 1e-14 * abs(want), f"z={z}"


@pytest.mark.parametrize("model", ALL, ids=lambda m: type(m).__name__)
def test_cumulant_array_with_mixed_real_parts_is_its_pieces(model):
    # the hedge engines evaluate kappa once on np.stack((z, z + 1)), which
    # is only sound if every element is evaluated on its own
    z = np.array([0.3 + 0.0j, 1.2 + 40.0j, -0.4 - 7.5j, 1.7 + 3e3j, 0.0j,
                  0.9 - 250.0j])
    both = cumulant(model, np.stack((z, z + 1.0)))
    assert np.array_equal(both[0], cumulant(model, z))
    assert np.array_equal(both[1], cumulant(model, z + 1.0))
    for zk, got in zip(z, both[0]):
        assert got == cumulant(model, complex(zk))


def test_gaussian_benchmark_moments():
    bench = gaussian_benchmark(NIG_FIT)
    k1, k2 = cumulant_derivatives(NIG_FIT)
    assert bench.sigma ** 2 == pytest.approx(k2, rel=1e-12)
    assert bench.mu - 0.5 * bench.sigma ** 2 == pytest.approx(k1, rel=1e-9)
    # matched in distributional moments, verified against samples
    rng = np.random.default_rng(9)
    xb = sample_increments(bench, 1.0, rng, size=500_000)
    xn = sample_increments(NIG_FIT, 1.0, rng, size=500_000)
    assert abs(xb.mean() - xn.mean()) <= 4.0 * xn.std() / math.sqrt(500_000)
