"""The fixed block shared by quotes against one fit.

Every quote on abscissa R starts its line integral at the same points
(``payoffs._BLOCK_V``: the weight-cap probes, then the base panels'
nodes); the claim's density there is cached per line, and the time
kernel's terms at the cap probes per terms source and abscissa.  These
tests pin that a cached quote is bit for bit the uncached one, that a
repeat quote evaluates the kernel in one call on its plan's nodes only,
and that the caches stay bounded.
"""

import gc
import math
import tracemalloc

import numpy as np
import pytest

import levyhedge as lh
from levyhedge import models as mdl
from levyhedge import payoffs as po

T, N = 0.25, 12
MODELS = {
    "nig": lh.NIG(alpha=75.49, beta=-4.089, delta=3.024, mu=-0.04),
    "vg": lh.VG(alpha=20.0, beta=-1.0, delta=1.5, mu=0.05),
    "hyperbolic": lh.Hyperbolic(alpha=8.0, beta=2.0, delta=1.5, mu=-0.3),
}
# name: (measure, spot)
PAYOFFS = {
    "call": (lambda: lh.call(99.0), 101.0),
    "put": (lambda: lh.put(101.0), 97.0),
    "call_low_moment": (lambda: lh.call_low_moment(99.0), 104.0),
    "power_call": (lambda: lh.power_call(10.0, 2), 10.4),
    "power_call_fractional": (lambda: lh.power_call_fractional(100.0, 1.5),
                              98.0),
    "self_quanto_call": (lambda: lh.self_quanto_call(100.0), 102.0),
    "digital": (lambda: lh.digital(100.5), 100.3),
    "log_contract": (lambda: lh.log_contract(), 1.1),
}
KERNELS = {"N=12": (lambda m: lh.coefficients(m, T, N), 6),
           "continuous": (lambda m: lh.coefficients_ct(m, T), 0.125)}


def clear_blocks():
    po._cap_terms.cache_clear()
    po._line_block.cache_clear()


def fields(res):
    return (complex(res.value), res.error_estimate, res.nodes_used,
            res.converged)


@pytest.mark.filterwarnings("ignore::levyhedge.QuadratureWarning")
@pytest.mark.parametrize("ratio", [False, True], ids=["H", "xi"])
@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("payoff", sorted(PAYOFFS))
@pytest.mark.parametrize("model", sorted(MODELS))
def test_a_quote_is_bitwise_the_same_cold_warm_and_uncached(model, payoff,
                                                           kernel, ratio):
    build, when = KERNELS[kernel]
    co = build(MODELS[model])
    measure, spot = PAYOFFS[payoff][0](), PAYOFFS[payoff][1]
    weight = co._quote_weight(when, ratio)
    assert isinstance(weight, po._TermsWeight)
    tol = 1e-8 * (1.0 + spot)
    clear_blocks()
    cold = po.integrate_measure(measure, spot, weight, tol_abs=tol)
    warm = po.integrate_measure(measure, spot, weight, tol_abs=tol)
    # a plain callable takes no terms from the block
    plain = po.integrate_measure(measure, spot, lambda z: weight(z),
                                 tol_abs=tol)
    assert fields(cold) == fields(warm) == fields(plain)


def test_a_second_quote_evaluates_the_kernel_on_its_nodes_only(monkeypatch):
    co = lh.coefficients_ct(MODELS["hyperbolic"], T)
    measure = lh.call(99.0)
    tol = 1e-8 * (1.0 + 105.0)
    clear_blocks()
    first = po.integrate_measure(measure, 103.0, co._quote_weight(0.0, False),
                                 tol_abs=tol)
    calls, nodes = [], []
    cumulant, adapt = mdl.cumulant, po.numerics._adapt

    def spy(model, z):
        calls.append(np.array(z, dtype=complex))
        return cumulant(model, z)

    def recording_adapt(fv, intervals, *args, **kwargs):
        def recorded(v, *rest):
            nodes.append(np.array(v))
            return fv(v, *rest)
        return adapt(recorded, intervals, *args, **kwargs)

    monkeypatch.setattr(mdl, "cumulant", spy)
    monkeypatch.setattr(po.numerics, "_adapt", recording_adapt)
    second = po.integrate_measure(measure, 105.0, co._quote_weight(0.1, True),
                                  tol_abs=tol)
    assert first.converged and second.converged
    # one integrand call, and one kernel call: the stacked z and z + 1 of
    # exactly its nodes, so none at the cap probes
    assert len(nodes) == len(calls) == 1
    (z,) = calls
    assert np.all(z.real == np.array([[1.5], [2.5]]))
    assert np.array_equal(z.imag, np.stack((nodes[0], nodes[0])))


def test_the_block_caches_stay_bounded():
    def quote(i):
        model = lh.NIG(alpha=75.49 * (1.0 + 1e-3 * i), beta=-4.089,
                       delta=3.024, mu=-0.04)
        co = lh.coefficients_ct(model, T)
        lh.initial_capital_ct(co, lh.call(99.0 + 1e-3 * i), 101.0)

    clear_blocks()
    for i in range(8):
        quote(-1 - i)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(200):
            quote(i)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    for cache in (po._cap_terms, po._line_block):
        assert cache.cache_info().currsize == po._BLOCK_ENTRIES == 64
    assert grown < 2 * 2 ** 20


def test_the_block_starts_every_plan(monkeypatch):
    line = lh.call(99.0).lines()[0]
    edges, _, _ = po._planned_edges(line, np.array([101.0]), 1e-8, 256.0)
    assert math.isclose(edges[12], 8.0) and edges[13] > 8.0
    n_cap = po._CAP_PROBES.size
    x = np.concatenate([0.5 * (a + b) + 0.5 * (b - a) * po.numerics._K15_NODES
                        for a, b in zip(edges[:12], edges[1:13])])
    assert np.array_equal(po._BLOCK_V[n_cap:], x)
    # the first integrand call of a quote evaluates those nodes first,
    # which is what lets it take their values from the block
    first = []
    adapt = po.numerics._adapt

    def spy(fv, intervals, *args, **kwargs):
        def recorded(v, *rest):
            if not first:
                first.append(np.array(v))
            return fv(v, *rest)
        return adapt(recorded, intervals, *args, **kwargs)

    monkeypatch.setattr(po.numerics, "_adapt", spy)
    lh.initial_capital_ct(lh.coefficients_ct(MODELS["hyperbolic"], T),
                          lh.call(99.0), 101.0)
    assert np.array_equal(first[0][:x.size], x)
