"""J0 pinned on cheap cells: value, node count and convergence flag.

The values were computed at commit 615e868, with the tensor passes on
12-point Gauss-Legendre panels, the error probe on K15, and every pass
banded around the ridge (see CHANGES.md for each cell's old and new
value, nodes and estimate).  A change that makes J0 cheaper keeps its
nodes and flags, and moves its values only by rounding.  A change that
makes J0 take fewer nodes re-pins the cells it moves, with evidence that
the new values are no worse.
"""

import pytest

import levyhedge as lh

MODELS = {
    "nig": lh.NIG(alpha=75.49, beta=-4.089, delta=3.024, mu=-0.04),
    "vg": lh.VG(alpha=60.0, beta=-3.0, delta=5.0, mu=0.01),
    "merton": lh.MertonJD(mu=0.05, sigma=0.15, jump_intensity=0.8,
                          jump_mean=-0.06, jump_sd=0.12),
    "hyperbolic": lh.Hyperbolic(alpha=8.0, beta=2.0, delta=1.5, mu=-0.3),
}
PAYOFFS = {
    "call": lambda: lh.call(99.0),
    "digital": lambda: lh.digital(100.5),
    "spread": lambda: lh.call(95.0) - lh.call(105.0),
    "cross_spread": lambda: lh.call(95.0) - lh.call(105.0, abscissa=2.0),
}

# (model, payoff, N or None for continuous time, J0, nodes_used): each
# of the three MC-verified models meets each payoff and each N at least
# once; the Hyperbolic call refines its tensor layout once
CELLS = [
    ("nig", "call", 1, 8.06703282501359, 46950),
    ("nig", "call", 12, 1.0441816499851622, 51381),
    ("nig", "call", None, 0.2571898866551003, 52740),
    ("nig", "digital", 12, 0.03813366057381526, 48744),
    ("nig", "spread", None, 0.2239985764414907, 90210),
    ("nig", "cross_spread", 12, 0.8549708527759474, 169440),
    ("vg", "call", 1, 21.223207633543176, 362265),
    ("vg", "call", 12, 14.169329492301209, 487032),
    ("vg", "digital", None, 0.09400866515063375, 485724),
    ("vg", "spread", 1, 6.050918085658686, 374961),
    ("merton", "call", None, 3.9277133366169696, 44493),
    ("merton", "digital", 1, 0.10504693774957626, 53541),
    ("merton", "digital", 12, 0.07090398437384443, 54486),
    ("merton", "spread", 12, 2.526062169874435, 56955),
    ("hyperbolic", "call", None, 22.749016600961824, 163953),
]
# relative tolerance of J0: 1e-13, and 1e-12 for the Hyperbolic cell, the
# tolerance it was pinned with before it joined this table
REL_TOL = {"hyperbolic": 1e-12}


@pytest.mark.parametrize("model, payoff, N, want, nodes", CELLS,
                         ids=[f"{m}-{p}-{'ct' if n is None else n}"
                              for m, p, n, _, _ in CELLS])
def test_error_variance_pinned_cell(model, payoff, N, want, nodes):
    co = (lh.coefficients_ct(MODELS[model], 0.25) if N is None
          else lh.coefficients(MODELS[model], 0.25, N))
    j0, res = lh.error_variance(co, PAYOFFS[payoff](), 100.0,
                                return_result=True)
    assert abs(j0 - want) <= REL_TOL.get(model, 1e-13) * want
    assert res.nodes_used == nodes
    assert res.converged
