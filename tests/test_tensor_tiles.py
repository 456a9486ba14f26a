"""The tile evaluator of the double contour against direct pair sums."""

import tracemalloc

import numpy as np
import pytest

import levyhedge as lh
from levyhedge import numerics
from levyhedge.payoffs import PairKernel

NIG_FIT = lh.NIG(alpha=75.49, beta=-4.089, delta=3.024, mu=-0.04)
VG = lh.VG(alpha=60.0, beta=-3.0, delta=5.0, mu=0.01)

# small fixed node sets: the folded axes hold 60 and 45 nodes, so the
# evaluator runs two tiles of rows
EDGES_Y = np.array([0.0, 2.0, 7.0, 20.0, 60.0])
EDGES_Z = np.array([0.0, 5.0, 25.0, 80.0])
# evenly spaced panels: pairs on one antidiagonal share their node sums
EVEN = np.linspace(0.0, 60.0, 7)


def _direct_sum(kernel, Ry, Rz, vy, wy, vz, wz, symmetric):
    """Sum of w_i w_j Re K(y_i, z_j), pair by pair on 1-D arrays.

    Without symmetry the pairs cover both full axes.  With it they cover
    the fundamental domain |v_z| <= v_y of the joint swap/conjugation
    group, weighted by orbit size (4 inside, 2 on its edges): the folding
    assumes exact symmetry, which the rounding of a cancelling kernel
    does not have, so the full plane is no reference there.
    """
    vz_full = np.concatenate((-vz[::-1], vz))
    wz_full = np.concatenate((wz[::-1], wz))
    if symmetric:
        rows, cols = np.nonzero(vy[:, None] >= np.abs(vz_full)[None, :])
        mult = np.where(vy[rows] > np.abs(vz_full[cols]), 4.0, 2.0)
    else:
        vy = np.concatenate((-vy[::-1], vy))
        wy = np.concatenate((wy[::-1], wy))
        rows, cols = (a.ravel() for a in np.indices((vy.size, vz_full.size)))
        mult = 1.0
    y = Ry + 1j * vy[rows]
    z = Rz + 1j * vz_full[cols]
    vals = kernel(y, z)
    return float(np.sum(mult * wy[rows] * wz_full[cols] * np.real(vals)))


def _check_tiles(kernel, Ry, Rz, symmetric, edges_y=EDGES_Y, edges_z=EDGES_Z,
                 rule=numerics._G12):
    vy, wy = numerics._nodes_from_edges(edges_y, rule)
    vz, wz = (vy, wy) if symmetric else numerics._nodes_from_edges(edges_z,
                                                                   rule)
    got, nev, skipped = numerics._tensor_value(kernel, Ry, Rz, edges_y,
                                               edges_z, rule, symmetric)
    want = _direct_sum(kernel, Ry, Rz, vy, wy, vz, wz, symmetric)
    assert got == pytest.approx(want, rel=1e-13, abs=0.0)
    # without a tolerance the pass evaluates every cell
    assert skipped == 0.0
    # the fundamental domain |v_z| <= v_y holds 2(i+1) columns in row i
    assert nev == (vy.size * (vy.size + 1) if symmetric
                   else vy.size * 2 * vz.size)


def test_tiles_match_direct_sum_plain_kernels():
    def sym(y, z):
        return 1.0 / ((1.0 + y * y) * (1.0 + z * z)) + 1.0 / (3.0 + y * z)

    def asym(y, z):
        return np.exp(0.3 * y) / ((1.0 + y * y) * (2.0 + z * z)) \
            + 1.0 / (4.0 + y + 2.0 * z)

    _check_tiles(sym, 0.5, 0.5, symmetric=True)
    _check_tiles(asym, 0.5, 1.5, symmetric=False)


def _line_kernels(monkeypatch, run):
    """The per-block pair kernels that ``double_integrate_measure`` hands
    to the double contour, with their abscissas and symmetry."""
    seen = []
    inner = numerics.double_contour_integrate

    def spy(kernel, cy, cz, **kwargs):
        seen.append((kernel, cy.abscissa, cz.abscissa, kwargs["symmetric"]))
        return inner(kernel, cy, cz, **kwargs)

    monkeypatch.setattr(numerics, "double_contour_integrate", spy)
    run()
    return seen


@pytest.mark.parametrize("mode", ["discrete", "continuous"])
def test_tiles_match_direct_sum_error_variance_kernels(mode, monkeypatch):
    spread = lh.call(95.0) - lh.call(105.0, abscissa=2.0)
    if mode == "discrete":
        co = lh.coefficients(NIG_FIT, 0.25, 12)
        blocks = _line_kernels(
            monkeypatch, lambda: lh.error_variance(co, spread, 100.0))
    else:
        co = lh.coefficients_ct(NIG_FIT, 0.25)
        blocks = _line_kernels(
            monkeypatch, lambda: lh.error_variance_ct(co, spread, 100.0))
    # two line blocks and the cross-line block between them
    assert [b[3] for b in blocks] == [True, False, True]
    for kernel, Ry, Rz, symmetric in blocks:
        assert isinstance(kernel, PairKernel)
        _check_tiles(kernel, Ry, Rz, symmetric)


def _class_counts(monkeypatch):
    """Records (touched pairs, classes) of every sum-line table built."""
    counts = []
    inner = numerics._pair_classes

    def spy(*args):
        cls, first = inner(*args)
        counts.append((cls.size, first.size))
        return cls, first

    monkeypatch.setattr(numerics, "_pair_classes", spy)
    return counts


def test_tiles_share_sum_classes_on_even_panels(monkeypatch):
    def plain(y, z):
        return np.exp(0.3 * y) / ((1.0 + y * y) * (2.0 + z * z)) \
            + 1.0 / (4.0 + y + 2.0 * z)

    _check_tiles(plain, 0.5, 1.5, False, EVEN, EVEN)
    spread = lh.call(95.0) - lh.call(105.0, abscissa=2.0)
    blocks = []
    for co in (lh.coefficients(NIG_FIT, 0.25, 12),
               lh.coefficients_ct(NIG_FIT, 0.25)):
        with monkeypatch.context() as mp:
            blocks += _line_kernels(
                mp, lambda: lh.error_variance(co, spread, 100.0))
    counts = _class_counts(monkeypatch)
    for kernel, Ry, Rz, symmetric in blocks:
        _check_tiles(kernel, Ry, Rz, symmetric, EVEN, EVEN)
    assert len(counts) == len(blocks) == 6
    assert all(classes < pairs for pairs, classes in counts)


@pytest.mark.parametrize("model, payoff, N", [
    (NIG_FIT, lh.call(99.0), 12),
    (VG, lh.call(95.0) - lh.call(105.0), 63),
    (NIG_FIT, lh.call(99.0), None),
])
def test_shared_sum_classes_match_one_class_per_pair(model, payoff, N,
                                                     monkeypatch):
    co = (lh.coefficients_ct(model, 0.25) if N is None
          else lh.coefficients(model, 0.25, N))
    shared, res = lh.error_variance(co, payoff, 100.0, return_result=True)

    def one_per_pair(mid_y, half_y, mid_z, half_z, p, q, quantum):
        return np.arange(p.size), np.arange(p.size)

    monkeypatch.setattr(numerics, "_pair_classes", one_per_pair)
    alone, res_alone = lh.error_variance(co, payoff, 100.0,
                                         return_result=True)
    assert abs(shared - alone) <= 1e-12 * max(1.0, alone)
    assert res.nodes_used == res_alone.nodes_used


def test_error_variance_peak_memory_bounded():
    # tiles keep the double contour's working set small; whole-plane
    # blocks of node pairs took about 400 MB here
    co = lh.coefficients(VG, 0.25, 63)
    spread = lh.call(95.0) - lh.call(105.0)
    tracemalloc.start()
    try:
        lh.error_variance(co, spread, 100.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


MERTON = lh.MertonJD(mu=0.05, sigma=0.15, jump_intensity=0.8,
                     jump_mean=-0.06, jump_sd=0.12)


def _passes(monkeypatch, run):
    """The arguments of every tensor pass that ``run`` makes."""
    seen = []
    inner = numerics._tensor_value

    def spy(*args):
        seen.append(args)
        return inner(*args)

    monkeypatch.setattr(numerics, "_tensor_value", spy)
    run()
    return seen


@pytest.mark.parametrize("model", [NIG_FIT, MERTON], ids=["nig", "merton"])
@pytest.mark.parametrize("mode", ["discrete", "continuous"])
def test_banded_pass_within_its_skipped_bound(model, mode, monkeypatch):
    co = (lh.coefficients(model, 0.25, 12) if mode == "discrete"
          else lh.coefficients_ct(model, 0.25))
    spread = lh.call(95.0) - lh.call(105.0, abscissa=2.0)
    passes = _passes(monkeypatch,
                     lambda: lh.error_variance(co, spread, 100.0))
    # each block's base pass: two line blocks and the cross-line block
    bases = [p for p in passes if p[5] is numerics._G12][:3]
    assert [p[6] for p in bases] == [True, False, True]
    for *args, tol_abs in bases:
        banded, nev, skipped = numerics._tensor_value(*args, tol_abs)
        full, nev_full, none = numerics._tensor_value(*args, 0.0)
        assert none == 0.0
        assert 0.0 < skipped <= numerics._BAND_FRACTION * tol_abs
        assert nev < nev_full / 2
        # the skipped cells, and the rounding of a sum in another order
        assert abs(banded - full) <= skipped + 1e-14 * abs(full)


def test_kernel_without_decay_is_not_banded():
    # the sum factor keeps its size along the whole sum line, so every
    # panel pair's bound stays far above the skip budget
    def axis(x):
        return 1.0 / (1.0 + x * x), x

    def along_sum(s):
        return (np.cos(s.imag) + 0j,)

    def pair(ydat, zdat, sdat, scale=None):
        out = sdat[0] * (1.0 + 0.0 * ydat[1] * zdat[1])
        return out if scale is None else scale * out

    def bound(ymag, zmag, smag):
        return smag[0]

    kernel = PairKernel(axis, axis, along_sum, pair, bound)
    for Ry, Rz, symmetric in ((0.5, 0.5, True), (0.5, 1.5, False)):
        args = (kernel, Ry, Rz, EDGES_Y, EDGES_Z, numerics._G12, symmetric)
        assert (numerics._tensor_value(*args, 1e-8)
                == numerics._tensor_value(*args, 0.0))
        value, nev, skipped = numerics._tensor_value(*args, 1e-8)
        assert skipped == 0.0
        _check_tiles(kernel, Ry, Rz, symmetric)
