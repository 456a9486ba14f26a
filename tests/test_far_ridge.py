"""The far-ridge integral of J0: against one inner integral at a time,
and against the ridge tail a block counts when it skips the integral."""

import math

import numpy as np
import pytest

import levyhedge as lh
from levyhedge import numerics
from levyhedge import payoffs as po

NIG_FIT = lh.NIG(alpha=75.49, beta=-4.089, delta=3.024, mu=-0.04)
HYP = lh.Hyperbolic(alpha=8.0, beta=2.0, delta=1.5, mu=-0.3)
VG = lh.VG(alpha=60.0, beta=-3.0, delta=5.0, mu=0.01)
MERTON = lh.MertonJD(mu=0.05, sigma=0.15, jump_intensity=0.8,
                     jump_mean=-0.06, jump_sd=0.12)
S0 = 100.0


def far_ridge_one_v_at_a_time(pair_kernel, Ry, Rz, c, tol_abs, budget):
    """``payoffs._far_ridge_integral`` with each inner integral adapted
    alone, segment by segment; returns the value, the error estimate and
    the largest number of nodes one inner segment took."""
    inner_tol = 0.05 * tol_abs * c
    most = 0

    def g(v):
        nonlocal most
        y = np.array([Ry + 1j * v])
        ydat = pair_kernel.axis_y(y)

        def fu_pair(uu):
            n = uu.size
            z = Rz + 1j * (np.concatenate((uu, -uu)) - v)
            zdat = pair_kernel.axis_z(z)
            vals = pair_kernel.pair(ydat, zdat, pair_kernel.along_sum(y + z),
                                    ydat[0] * zdat[0])
            return vals[:n] + vals[n:]

        val, err, lo = 0.0 + 0j, 0.0, 0.0
        for U in (256.0 * 2.0 ** np.arange(14)).tolist():
            (seg,), (e,), used, _ = numerics._adapt(
                fu_pair, [np.linspace(lo, U, 9)], inner_tol, budget)
            most = max(most, used)
            val += seg
            err += e
            if abs(seg) < inner_tol:
                break
            lo = U
        return val, err

    total, err_total, seg, prev_small = 0.0 + 0j, 0.0, 0.0 + 0j, 0
    t_edges = np.linspace(0.0, 14.0, 15)
    for a, b in zip(t_edges[:-1], t_edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        seg = 0.0 + 0j
        for node, wgt in zip(numerics._K15_NODES, numerics._K15_WEIGHTS):
            t = mid + half * node
            gv, ge = g(c * math.exp(t))
            seg += half * wgt * gv * c * math.exp(t)
            err_total += half * wgt * ge * c * math.exp(t)
        total += seg
        if abs(seg) < 0.02 * tol_abs:
            prev_small += 1
            if prev_small >= 2:
                break
        else:
            prev_small = 0
    return 2.0 * total.real, err_total + abs(seg), most


def _far_ridge_calls(monkeypatch, co, payoff):
    """The arguments and results of every far-ridge integral of one J0."""
    calls = []
    inner = po._far_ridge_integral

    def spy(*args):
        calls.append((args, inner(*args)))
        return calls[-1][1]

    monkeypatch.setattr(po, "_far_ridge_integral", spy)
    lh.error_variance(co, payoff, 100.0)
    return calls


@pytest.mark.parametrize("model, payoff", [
    (NIG_FIT, lh.digital(100.5)),
    # inner integrals that run out to |v| ~ 2e6
    (HYP, lh.digital(100.5)),
], ids=["nig-digital", "hyperbolic-digital"])
def test_batched_far_ridge_equals_one_v_at_a_time(model, payoff, monkeypatch):
    calls = _far_ridge_calls(monkeypatch, lh.coefficients(model, 0.25, 12),
                             payoff)
    assert calls
    for args, (value, err) in calls:
        want, want_err, _ = far_ridge_one_v_at_a_time(
            *args, po._FAR_INNER_NODES)
        assert value == want
        assert err == pytest.approx(want_err, rel=1e-12)


def _narrowing_ridge():
    """A kernel whose ridge at Im(y + z) = 3 narrows towards small Im y,
    so that its inner integrals need very different numbers of panels."""
    def axis(x):
        return 1.0 / (1.0 + np.abs(x)) + 0j, x

    def along_sum(s):
        return (s.imag - 3.0,)

    def pair(ydat, zdat, sdat, scale=None):
        w = 1e-2 * (ydat[1].imag / 1024.0)
        out = w / (w * w + sdat[0] ** 2) + 0j
        return out if scale is None else scale * out

    return po.PairKernel(axis, axis, along_sum, pair)


def test_far_ridge_inner_budgets_are_not_shared(monkeypatch):
    # with a budget that some inner segments exhaust, each batched inner
    # integral still stops where it would alone
    args = (_narrowing_ridge(), 0.5, 0.5, 1024.0, 1e-14)
    budget = 600
    monkeypatch.setattr(po, "_FAR_INNER_NODES", budget)
    value, err = po._far_ridge_integral(*args)
    want, want_err, most = far_ridge_one_v_at_a_time(*args, budget)
    assert most > budget - 30
    assert value == want
    assert err == pytest.approx(want_err, rel=1e-12)
    # the budget binds: a larger one gives another value
    assert far_ridge_one_v_at_a_time(*args, 2 * budget)[0] != want


PAYOFFS = {
    "call": lambda: lh.call(99.0),
    "put": lambda: lh.put(101.0),
    "spread": lambda: lh.call(95.0) - lh.call(105.0),
    "butterfly": lambda: (lh.call(95.0) - 2.0 * lh.call(100.0)
                          + lh.call(105.0)),
    "digital": lambda: lh.digital(100.5),
    "digital_spread": lambda: lh.digital(99.0) - lh.digital(101.0),
}


@pytest.mark.parametrize("model", [NIG_FIT, VG, MERTON],
                         ids=["nig", "vg", "merton"])
@pytest.mark.parametrize("N", [1, None], ids=["1", "ct"])
def test_counted_ridge_tail_bounds_the_far_ridge(model, N):
    # every block with a line pair that needs the far ridge extrapolates
    # it from that pair's probes; the estimate bounds the far-ridge
    # integral it stands for, whether the block then runs it or not
    co = (lh.coefficients_ct(model, 0.25) if N is None
          else lh.coefficients(model, 0.25, N))
    kernel = co._pair_kernel(S0)
    tol_abs = 1e-6 * (1.0 + S0)     # error_variance's default
    checked, misses = 0, []
    for name, payoff in PAYOFFS.items():
        groups = {}
        for line in payoff().lines():
            groups.setdefault(line.abscissa, []).append(line)
        groups = list(groups.values())
        for i, gi in enumerate(groups):
            for gj in groups[i:]:
                cy, cz, _, _, _, ridge_tail = po._plan_block(kernel, gi, gj,
                                                             tol_abs)
                if ridge_tail is None:
                    continue
                value, _ = po._far_ridge_integral(
                    po._group_kernel(kernel, gi, gj), gi[0].abscissa,
                    gj[0].abscissa, max(cy, cz), tol_abs)
                checked += 1
                if not ridge_tail >= abs(value):
                    misses.append((name, ridge_tail, value))
    assert checked
    assert not misses


def test_small_far_ridge_is_a_counted_tail(monkeypatch):
    # the NIG call's far ridge holds a few hundredths of tol_abs: its
    # block counts the ridge as a tail and skips the integral; the
    # digital's holds ten tol_abs, and its integral runs
    co = lh.coefficients(NIG_FIT, 0.25, 12)
    plans = []
    plan_block = po._plan_block

    def spy(*args):
        plans.append(plan_block(*args))
        return plans[-1]

    monkeypatch.setattr(po, "_plan_block", spy)
    assert not _far_ridge_calls(monkeypatch, co, lh.call(99.0))
    [(_, _, tails, far, _, ridge_tail)] = plans
    assert not far and ridge_tail in tails
    assert len(_far_ridge_calls(monkeypatch, co, lh.digital(100.5))) == 1
    assert plans[-1][3]
