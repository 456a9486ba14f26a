"""Lines on one abscissa share one tensor block of J0.

J0 is bilinear in the payoff's transform measure, so the lines of a
spread, a butterfly or a digital spread, which share their abscissa, are
integrated as one line carrying their summed density.  The block is
planned from its line pairs as each would be planned alone.
"""

import math

import pytest

import levyhedge as lh
from levyhedge import numerics, payoffs

NIG_FIT = lh.NIG(alpha=75.49, beta=-4.089, delta=3.024, mu=-0.04)
VG = lh.VG(alpha=60.0, beta=-3.0, delta=5.0, mu=0.01)
MERTON = lh.MertonJD(mu=0.05, sigma=0.15, jump_intensity=0.8,
                     jump_mean=-0.06, jump_sd=0.12)
T = 0.25
S0 = 100.0

SAME_ABSCISSA = {
    "spread": lambda: lh.call(95.0) - lh.call(105.0),
    "butterfly": lambda: (lh.call(95.0) - 2.0 * lh.call(100.0)
                          + lh.call(105.0)),
    "digital_spread": lambda: lh.digital(99.0) - lh.digital(101.0),
}


def _spy(monkeypatch, module, name):
    """Records ``(args, kwargs, result)`` of every call of ``module.name``."""
    calls = []
    inner = getattr(module, name)

    def spy(*args, **kwargs):
        out = inner(*args, **kwargs)
        calls.append((args, kwargs, out))
        return out

    monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("name", list(SAME_ABSCISSA))
def test_same_abscissa_lines_run_one_block(name, monkeypatch):
    co = lh.coefficients(NIG_FIT, T, 12)
    blocks = _spy(monkeypatch, numerics, "double_contour_integrate")
    far = _spy(monkeypatch, payoffs, "_far_ridge_integral")
    _, res = lh.error_variance(co, SAME_ABSCISSA[name](), S0,
                               return_result=True)
    assert len(blocks) == 1
    assert blocks[0][1]["symmetric"]
    assert len(far) <= 1
    assert res.converged


def test_block_plan_covers_every_line_pair(monkeypatch):
    # strikes 1% apart: their summed density beats, vanishing near each
    # multiple of v = 2 pi / ln(100.5 / 99.5), about 628, where no pair's
    # kernel is small; the plan must not rest on probes of the sum
    co = lh.coefficients(NIG_FIT, T, 12)
    narrow = lh.call(99.5) - lh.call(100.5)
    truncations = _spy(monkeypatch, payoffs, "_pair_truncation")
    widths = _spy(monkeypatch, payoffs, "_ridge_transverse_width")
    plans = _spy(monkeypatch, payoffs, "_plan_block")
    blocks = _spy(monkeypatch, numerics, "double_contour_integrate")
    lh.error_variance(co, narrow, S0)
    [(args, kwargs, _)] = blocks
    [(_, _, (_, _, _, block_far, _, _))] = plans
    cy, cz = args[1].truncation, args[2].truncation
    # the pairs (99.5, 99.5), (99.5, 100.5) and (100.5, 100.5): each
    # probes both axes, then its ridge width
    assert len(truncations) == 2 * len(widths) == 6
    for k, (_, _, width) in enumerate(widths):
        (ci, _, _), (cj, _, _) = (truncations[2 * k][2],
                                  truncations[2 * k + 1][2])
        assert min(cy, cz) >= max(ci, cj)
        cap = width * (1.5 if block_far else 3.0)
        assert kwargs["max_panel_width"] <= cap


# each payoff as pieces a + b S between its kinks
PIECES = {
    "call": ([0.0, 99.0, math.inf], [(0.0, 0.0), (-99.0, 1.0)]),
    "put": ([0.0, 101.0, math.inf], [(101.0, -1.0), (0.0, 0.0)]),
    "digital": ([0.0, 100.5, math.inf], [(0.0, 0.0), (1.0, 0.0)]),
    "spread": ([0.0, 95.0, 105.0, math.inf],
               [(0.0, 0.0), (-95.0, 1.0), (10.0, 0.0)]),
    "butterfly": ([0.0, 95.0, 100.0, 105.0, math.inf],
                  [(0.0, 0.0), (-95.0, 1.0), (105.0, -1.0), (0.0, 0.0)]),
    "digital_spread": ([0.0, 99.0, 101.0, math.inf],
                       [(0.0, 0.0), (1.0, 0.0), (0.0, 0.0)]),
}


def _merton_single_date_j0(kinks, pieces):
    """``Var f - Cov(f, S)^2 / Var S`` at one trading date, in mpmath.

    Given n jumps the log-return is normal, so each truncated moment
    ``E[S^j; a < S < b]`` is a Poisson sum of lognormal ones.
    """
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    mu, sigma, lam, m_j, s_j = (mp.mpf(repr(x)) for x in (
        MERTON.mu, MERTON.sigma, MERTON.jump_intensity, MERTON.jump_mean,
        MERTON.jump_sd))
    t, s0 = mp.mpf(repr(T)), mp.mpf(repr(S0))
    moments = [[mp.mpf(0)] * 3 for _ in pieces]
    for n in range(60):
        weight = mp.exp(-lam * t) * (lam * t) ** n / mp.factorial(n)
        mean = mp.log(s0) + mu * t + n * m_j
        var = sigma ** 2 * t + n * s_j ** 2
        for j in range(3):
            full = mp.exp(j * mean + j * j * var / 2)

            def above(k):
                if k == math.inf:
                    return mp.mpf(0)
                if k == 0.0:
                    return full
                return full * mp.ncdf((mean + j * var - mp.log(k))
                                      / mp.sqrt(var))

            for i in range(len(pieces)):
                moments[i][j] += weight * (above(kinks[i])
                                           - above(kinks[i + 1]))
    ef = sum(a * m[0] + b * m[1] for (a, b), m in zip(pieces, moments))
    ef2 = sum(a * a * m[0] + 2 * a * b * m[1] + b * b * m[2]
              for (a, b), m in zip(pieces, moments))
    efs = sum(a * m[1] + b * m[2] for (a, b), m in zip(pieces, moments))
    es = sum(m[1] for m in moments)
    es2 = sum(m[2] for m in moments)
    return float(ef2 - ef ** 2 - (efs - ef * es) ** 2 / (es2 - es ** 2))


# ROADMAP item 3: J0's estimate does not see its truncation.  Each cell
# named here misses the gate by far more than its estimate; the
# multi-line payoffs do so with the lines in one block and with each
# line pair in a block of its own alike.  The call and the put miss by
# the far ridge they skip, which their estimates count.
ORACLE_PAYOFFS = {
    "call": lambda: lh.call(99.0),
    "put": lambda: lh.put(101.0),
    "digital": lambda: lh.digital(100.5),
    **SAME_ABSCISSA,
}
ORACLE_MISSES = {
    "digital": "J0 0.1050469377 against 0.1050547054 (-7.77e-6, estimate "
               "4.3e-7)",
    "spread": "J0 4.3156975957 against 4.3156985571 (-9.6e-7, estimate "
              "7.4e-9); with a block per line pair -1.11e-6",
    "butterfly": "J0 2.5602062863 against 2.5602053828 (+9.0e-7, estimate "
                 "2.1e-8); with a block per line pair +1.80e-6",
    "digital_spread": "J0 0.0858599347 against 0.0859440938 (-8.42e-5, "
                      "estimate 9.9e-7); with a block per line pair "
                      "-8.24e-5",
}


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(
        strict=True, reason=ORACLE_MISSES[name]))
    if name in ORACLE_MISSES else name
    for name in ORACLE_PAYOFFS])
def test_merton_single_date_oracle(name):
    truth = _merton_single_date_j0(*PIECES[name])
    co = lh.coefficients(MERTON, T, 1)
    j0, res = lh.error_variance(co, ORACLE_PAYOFFS[name](), S0,
                                return_result=True)
    assert res.converged
    assert abs(j0 - truth) <= res.error_estimate + 1e-12 * truth


@pytest.mark.parametrize("model", [NIG_FIT, VG, MERTON],
                         ids=["nig", "vg", "merton"])
def test_spread_agrees_across_abscissas(model):
    # Cauchy's theorem: the same J0 on any admissible abscissa, from
    # blocks that share no nodes
    co = lh.coefficients(model, T, 12)
    results = []
    for R in (1.5, 2.0):
        spread = lh.call(95.0, abscissa=R) - lh.call(105.0, abscissa=R)
        results.append(lh.error_variance(co, spread, S0,
                                         return_result=True))
    (a, res_a), (b, res_b) = results
    assert res_a.converged and res_b.converged
    assert abs(a - b) <= res_a.error_estimate + res_b.error_estimate
