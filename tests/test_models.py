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
from levyhedge.numerics import continuous_log

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
# hyperbolic branch tracking
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


def test_hyperbolic_ladder_extension_matches_cold_build():
    # a contour that needs more height grows the cached ladder from its
    # top rung; the values must be those of a ladder built in one go
    R = 1.2
    v = np.linspace(-300.0, 300.0, 6001)
    mdl._HYP_LADDER_CACHE.clear()
    cold = cumulant(HYP, R + 1j * v)
    (cold_ladder,) = mdl._HYP_LADDER_CACHE.values()
    mdl._HYP_LADDER_CACHE.clear()
    cumulant(HYP, R + 1j * np.linspace(-20.0, 20.0, 401))
    (short_ladder,) = mdl._HYP_LADDER_CACHE.values()
    warm = cumulant(HYP, R + 1j * v)
    (long_ladder,) = mdl._HYP_LADDER_CACHE.values()
    assert short_ladder.size < long_ladder.size == cold_ladder.size
    assert np.array_equal(long_ladder[:short_ladder.size], short_ladder)
    assert np.allclose(long_ladder, cold_ladder, rtol=0.0, atol=1e-12)
    assert np.all(np.abs(warm - cold) <= 1e-13 * np.abs(cold))
    sheets = np.round((warm.imag - cold.imag) / (2.0 * math.pi))
    assert np.all(sheets == 0)


def test_hyperbolic_ladder_grown_in_chunks_matches_one_call():
    # a tall first request grows its ladder _HYP_CHUNK rungs per Bessel
    # call; the rungs must be those of one continuous_log over all of them
    R = 1.2
    mdl._HYP_LADDER_CACHE.clear()
    step, ladder = mdl._hyp_ladder(HYP, R, 700.0)
    assert ladder.size > 4 * mdl._HYP_CHUNK
    _, _, q = mdl._hyp_parts(HYP, R + 1j * step * np.arange(ladder.size))
    cold = continuous_log(q).imag
    assert np.all(np.abs(ladder - cold) <= 1e-13 * np.maximum(1.0,
                                                              np.abs(cold)))


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
