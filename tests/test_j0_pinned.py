"""J0 pinned on cheap cells: value, node count and convergence flag.

The values were computed at commit eab1eb4.  A change that makes J0
cheaper keeps its nodes and flags, and moves its values only by rounding.
A change that makes J0 take fewer nodes re-pins the cells it moves, with
evidence that the new values are no worse: the three spreads whose lines
share one abscissa were re-pinned when such lines came to share one
tensor block (old and new values, node counts and oracle errors are in
CHANGES.md).  The spread whose lines sit on two abscissas keeps the
block between them.
"""

import pytest

import levyhedge as lh

MODELS = {
    "nig": lh.NIG(alpha=75.49, beta=-4.089, delta=3.024, mu=-0.04),
    "vg": lh.VG(alpha=60.0, beta=-3.0, delta=5.0, mu=0.01),
    "merton": lh.MertonJD(mu=0.05, sigma=0.15, jump_intensity=0.8,
                          jump_mean=-0.06, jump_sd=0.12),
}
PAYOFFS = {
    "call": lambda: lh.call(99.0),
    "digital": lambda: lh.digital(100.5),
    "spread": lambda: lh.call(95.0) - lh.call(105.0),
    "cross_spread": lambda: lh.call(95.0) - lh.call(105.0, abscissa=2.0),
}

# (model, payoff, N or None for continuous time, J0, nodes_used): each
# model meets each payoff and each N at least once
CELLS = [
    ("nig", "call", 1, 8.06703282501513, 497070),
    ("nig", "call", None, 0.2571898866630864, 478380),
    ("nig", "digital", 12, 0.03813366057410676, 450900),
    ("nig", "spread", None, 0.22399857644245974, 1541790),
    ("nig", "cross_spread", 12, 0.8549708518334229, 1967700),
    ("vg", "call", 1, 21.223207641570916, 681960),
    ("vg", "call", 12, 14.169329492346346, 681960),
    ("vg", "digital", None, 0.09400866496730956, 681960),
    ("vg", "spread", 1, 6.050918086434738, 681960),
    ("merton", "call", None, 3.9277133362795684, 497070),
    ("merton", "digital", 1, 0.10504693774951919, 478380),
    ("merton", "digital", 12, 0.07090398437319566, 478380),
    ("merton", "spread", 12, 2.52606216985615, 497070),
]


@pytest.mark.parametrize("model, payoff, N, want, nodes", CELLS,
                         ids=[f"{m}-{p}-{'ct' if n is None else n}"
                              for m, p, n, _, _ in CELLS])
def test_error_variance_pinned_cell(model, payoff, N, want, nodes):
    co = (lh.coefficients_ct(MODELS[model], 0.25) if N is None
          else lh.coefficients(MODELS[model], 0.25, N))
    j0, res = lh.error_variance(co, PAYOFFS[payoff](), 100.0,
                                return_result=True)
    assert abs(j0 - want) <= 1e-13 * want
    assert res.nodes_used == nodes
    assert res.converged
