"""Complex special functions and adaptive quadrature on vertical contours.

Everything downstream (model transforms, payoff inversion, hedging
integrals) is built on the primitives in this module:

* ``bessel_k1``/``bessel_k1e``, ``log_gamma``, ``beta`` -- special
  functions of complex arguments as numpy array code (``K1`` by series,
  fixed Gauss-Laguerre rules or Hankel's expansion, by ``|w|``),
* ``_adapt`` -- adaptive Gauss-Kronrod (K15/G7) quadrature of one or
  several intervals in level-synchronous rounds, on which the payoff
  engine's line integrals, the ``J0`` axis layouts and the far-ridge
  integral run,
* ``double_contour_integrate`` -- tensor-product quadrature over two
  vertical segments ``{R + iv : |v| <= c}``, always symmetrically
  truncated, so principal values come out right.

Convention: a contour integral here always means the integral of
``f(R + iv)`` with respect to the *real* coordinate ``v``.  Measure
densities elsewhere in the package carry their own ``1/(2*pi)``
normalisation, so results compose without stray factors of ``i``.

All functions are pure; there is no shared mutable state.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainError",
    "ContourSpec",
    "QuadratureResult",
    "bessel_k1",
    "bessel_k1e",
    "log_gamma",
    "beta",
    "double_contour_integrate",
]

EULER_GAMMA = 0.57721566490153286060651209008240243


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


@dataclass(frozen=True)
class ContourSpec:
    """One axis of ``double_contour_integrate``: the vertical segment
    ``{abscissa + iv : |v| <= truncation}``.

    ``node_budget`` caps the nodes of the axis's panel layout, and the
    product of both axes' budgets the node pairs of the tensor passes.
    The quadrature grid is symmetric about ``v = 0`` by construction
    (opposite-sign nodes are always evaluated in pairs), so a principal
    value needs no special mode.
    """

    abscissa: float
    truncation: float
    node_budget: int = 200_000

    def __post_init__(self):
        if not self.truncation > 0.0:
            raise ValueError(f"truncation must be > 0, got {self.truncation}")
        if self.node_budget < 16:
            raise ValueError(f"node_budget must be >= 16, got {self.node_budget}")


@dataclass
class QuadratureResult:
    """Value of a contour integral plus an error-estimate heuristic.

    ``error_estimate`` is an upper-bound heuristic, not a guarantee.
    ``converged`` is False when the node budget ran out before the
    tolerance was met; the value is still the best available estimate.
    """

    value: complex
    error_estimate: float
    nodes_used: int
    converged: bool = True


# ---------------------------------------------------------------------------
# Special functions
# ---------------------------------------------------------------------------

def _k1_series(w: np.ndarray) -> np.ndarray:
    # Ascending series around 0:
    #   K1(w) = 1/w + I1(w) log(w/2) - (w/4) sum_k [psi(k+1)+psi(k+2)] q^k/(k!(k+1)!)
    # with q = w^2/4.  Used for |w| < 1.5 where no cancellation occurs.  The
    # psi sum is common to every element; each element stops at its own
    # term and leaves the working arrays once it has converged.
    q = 0.25 * w * w
    psi_sum = 1.0 - 2.0 * EULER_GAMMA    # psi(k+1) + psi(k+2) at k = 0
    i1_out = np.empty_like(w)
    s_out = np.empty_like(w)
    live = np.arange(w.size)
    term = np.ones_like(w)               # q^k / (k! (k+1)!)
    i1 = term
    s = term * psi_sum
    for k in range(1, 80):
        term = term * (q / (k * (k + 1)))
        i1 = i1 + term
        psi_sum += 1.0 / k + 1.0 / (k + 1)
        ds = term * psi_sum
        s = s + ds
        done = np.abs(ds) <= 1e-18 * np.abs(s)
        if np.count_nonzero(done):
            i1_out[live[done]] = i1[done]
            s_out[live[done]] = s[done]
            keep = ~done
            live, q, term, i1, s = live[keep], q[keep], term[keep], i1[keep], s[keep]
            if not live.size:
                break
    # elements still live after 80 terms keep their partial sums
    i1_out[live] = i1
    s_out[live] = s
    return 1.0 / w + np.log(0.5 * w) * (i1_out * (0.5 * w)) - 0.25 * w * s_out


def _gauss_laguerre(n: int):
    """Nodes and weights of the n-point Gauss rule for t^(1/2) e^-t on (0, inf).

    Golub-Welsch eigenvalues, polished by two Newton steps on p_n, where p_k
    are the orthonormal polynomials up to one common factor; the weights are
    the Christoffel numbers 1/sum_{k<n} p_k^2, scaled to the exact total
    Gamma(3/2), which removes that factor and the rounding the recurrence
    leaves in their sum.
    """
    j = np.arange(n + 1.0)
    a, b = 2.0 * j + 1.5, np.sqrt(j * (j + 0.5))

    def recurrence(x):    # p_n(x), p_n'(x) and sum_{k<n} p_k(x)^2
        p, p_old, dp, dp_old, norm = np.ones_like(x), 0.0, 0.0, 0.0, 0.0
        for k in range(n):
            norm = norm + p * p
            p, p_old, dp, dp_old = (((x - a[k]) * p - b[k] * p_old) / b[k + 1], p,
                                    (p + (x - a[k]) * dp - b[k] * dp_old) / b[k + 1], dp)
        return p, dp, norm

    x = np.linalg.eigvalsh(np.diag(a[:n]) + np.diag(b[1:n], -1))
    for _ in range(2):
        p, dp = recurrence(x)[:2]
        x = x - p / dp
    weights = 1.0 / recurrence(x)[2]
    return x, weights * (math.gamma(1.5) / weights.sum())


def _k1_laguerre(w: np.ndarray, rule: tuple, scaled: bool) -> np.ndarray:
    # DLMF 10.32.8 at order 1: K1e(w) = sqrt(2/w) int_0^inf t^(1/2) e^-t
    # sqrt(1 + t/2w) dt = (1/w) int_0^inf t^(1/2) e^-t sqrt(2w + t) dt, the
    # square roots combining for Re w > 0.  A row sum, not a matrix
    # product, so that an element's value does not depend on its batch.
    t, weights = rule
    f = t + 2.0 * w[:, None]       # one (elements, nodes) block, in place
    np.sqrt(f, out=f)
    f *= weights
    out = f.sum(axis=-1) / w
    return out if scaled else out * np.exp(-w)


# Hankel's expansion K1(w) = sqrt(pi/2w) e^{-w} sum_k a_k w^{-k} (DLMF
# 10.40.2) with a_k = a_{k-1} (4 - (2k-1)^2)/(8k).  Cut after 23 terms, its
# remainder is at most 2 |a_23 w^{-23}| e^{3/(4|w|)} (DLMF 10.40.10), below
# 1.1e-16 from |w| = 20 on.
_HANKEL_FROM = 20.0
_K1_HANKEL = tuple(itertools.accumulate(
    range(1, 23), lambda a, k: a * (4 - (2 * k - 1) ** 2) / (8 * k),
    initial=1.0))


def _k1_hankel(w: np.ndarray, scaled: bool) -> np.ndarray:
    u = np.reciprocal(w)
    s = _K1_HANKEL[-1] * u + _K1_HANKEL[-2]
    for a in _K1_HANKEL[-3::-1]:    # Horner's rule in 1/w
        s = s * u + a
    out = np.sqrt((0.5 * math.pi) * u) * s
    return out if scaled else out * np.exp(-w)


# The integrand's branch point t = -2w lies at least 2|w| from the nodes,
# so larger |w| needs fewer nodes.  Against mpmath, 48 nodes from |w| = 1.5
# and 16 from |w| = 5 are within 7e-16 up to |w| = 20, 1e-9 from the
# imaginary axis; each band costs one fixed pass per element.  Below 1.5
# the series is the more accurate (7.2e-16 at |w| = 1.5, 1.9e-15 at 1.9).
_LAGUERRE_FROM = 1.5
_K1_LAGUERRE_BANDS = ((_LAGUERRE_FROM, 5.0, _gauss_laguerre(48)),
                      (5.0, _HANKEL_FROM, _gauss_laguerre(16)))


def _k1(w, scaled: bool):
    arr = np.asarray(w, dtype=complex)
    flat = arr.ravel()
    ok = np.isfinite(flat) & (flat.real > 0.0)
    if not ok.all():
        raise DomainError("bessel_k1 requires finite w with Re(w) > 0, "
                          f"got {complex(flat[np.argmin(ok)])}")
    out = np.empty_like(flat)
    r = np.abs(flat)
    small = r < _LAGUERRE_FROM
    large = r >= _HANKEL_FROM
    if small.any():
        ws = flat[small]
        out[small] = _k1_series(ws) * np.exp(ws) if scaled else _k1_series(ws)
    for lo, hi, rule in _K1_LAGUERRE_BANDS:
        band = (r >= lo) & (r < hi)
        if band.any():
            out[band] = _k1_laguerre(flat[band], rule, scaled)
    if large.any():
        out[large] = _k1_hankel(flat[large], scaled)
    if arr.ndim == 0:
        return complex(out[0])
    return out.reshape(arr.shape)


def bessel_k1(w):
    """Modified Bessel function of the third kind, index 1, for Re(w) > 0.

    Three regimes by ``|w|``: the ascending series below 1.5, Gauss-Laguerre
    rules for the integral of DLMF 10.32.8 from 1.5 to 20 (48 nodes below 5,
    16 from 5 on), and Hankel's asymptotic expansion (23 terms) from 20
    on.  All three are conjugate-symmetric, so ``bessel_k1(conj(w)) == conj(bessel_k1(w))``
    and real arguments give real results.  Arrays are evaluated
    elementwise; a scalar argument returns a Python complex.
    """
    return _k1(w, scaled=False)


def bessel_k1e(w):
    """Exponentially scaled variant ``exp(w) * bessel_k1(w)``.

    The scaled value decays only algebraically along vertical contours, so
    Bessel ratios built from it stay clear of underflow high on a contour
    while the exponential factor is carried analytically.
    """
    return _k1(w, scaled=True)


# Lanczos approximation, g = 7, 9 coefficients (double-precision classic set).
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _log_gamma_lanczos(z: np.ndarray) -> np.ndarray:
    # valid for Re(z) >= 0.5
    zz = z - 1.0
    x = _LANCZOS_C[0]
    for i in range(1, 9):
        x = x + _LANCZOS_C[i] / (zz + i)
    t = zz + _LANCZOS_G + 0.5
    return 0.5 * math.log(2.0 * math.pi) + (zz + 0.5) * np.log(t) - t + np.log(x)


def _log_sin_pi(z: np.ndarray) -> np.ndarray:
    # log(sin(pi z)) written to avoid overflow for large |Im z|.
    piz = math.pi * z
    out = np.empty_like(z)
    near = np.abs(z.imag) < 10.0
    up = ~near & (z.imag > 0)
    down = ~near & ~up
    if near.any():
        out[near] = np.log(np.sin(piz[near]))
    if up.any():
        # sin(pi z) = (e^{i pi z} - e^{-i pi z}) / 2i; the second term dominates
        p = piz[up]
        out[up] = -1j * p + np.log((np.exp(2j * p) - 1.0) / (2j))
    if down.any():
        # ... and here the first
        p = piz[down]
        out[down] = 1j * p + np.log((1.0 - np.exp(-2j * p)) / (2j))
    return out


def log_gamma(z):
    """Principal-branch log-gamma; ``exp(log_gamma(z))`` equals Gamma(z).

    Poles at the nonpositive integers raise :class:`DomainError`.  Arrays
    are evaluated elementwise; a scalar argument returns a Python complex.
    """
    arr = np.asarray(z, dtype=complex)
    flat = arr.ravel()
    pole = (flat.imag == 0.0) & (flat.real <= 0.0) & (flat.real == np.floor(flat.real))
    if pole.any():
        raise DomainError(f"log_gamma pole at z={complex(flat[np.argmax(pole)])}")
    refl = flat.real < 0.5
    if refl.any():
        # Reflection.  exp(result) equals Gamma(z) everywhere; on the real
        # axis and for Re(z) >= 0.5 the principal branch is returned.
        zr = flat[refl]
        out = _log_gamma_lanczos(np.where(refl, 1.0 - flat, flat))
        out[refl] = (math.log(math.pi) - _log_sin_pi(zr)) - out[refl]
    else:
        out = _log_gamma_lanczos(flat)
    if arr.ndim == 0:
        return complex(out[0])
    return out.reshape(arr.shape)


def beta(a, b):
    """Euler beta function ``exp(log_gamma(a) + log_gamma(b) - log_gamma(a+b))``."""
    lg = log_gamma(a) + log_gamma(b) - log_gamma(np.add(a, b))
    return np.exp(lg) if np.ndim(lg) else cmath.exp(lg)


# ---------------------------------------------------------------------------
# Adaptive Gauss-Kronrod machinery
# ---------------------------------------------------------------------------

# 15-point Kronrod extension of 7-point Gauss, nodes ascending on [-1, 1].
_K15_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_K15_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_G7_WEIGHTS = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])
_G7_IDX = np.arange(1, 15, 2)
_K15 = (_K15_NODES, _K15_WEIGHTS)
# 12-point Gauss-Legendre: K15's polynomial degree (23) on 12 nodes, and
# at least as fast on analytic integrands.  The tensor passes of the
# double contour run on it; everything that needs K15's G7 error
# estimate or K15's coarse-probe accuracy stays on K15.
_G12 = np.polynomial.legendre.leggauss(12)


def _eval_panels(fv, a, b, owner=None):
    """K15 values and |K15 - G7| errors of the panels [a, b], one fv call;
    given the ``owner`` of each panel, fv also gets each node's owner."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = mid[:, None] + half[:, None] * _K15_NODES[None, :]
    y = fv(x.ravel()) if owner is None else fv(x.ravel(),
                                               np.repeat(owner, x.shape[1]))
    y = np.asarray(y, dtype=complex).reshape(x.shape)
    # einsum sums each row in a loop of its own; a matrix product (BLAS)
    # or a row sum rounds a lone row differently from a batch of rows, and
    # a panel's value and error must not depend on the panels in its call
    ik = half * np.einsum("ij,j->i", y, _K15_WEIGHTS)
    ig = half * np.einsum("ij,j->i", y[:, _G7_IDX], _G7_WEIGHTS)
    return ik, np.abs(ik - ig)


def _adapt(fv, intervals, tol_abs: float, max_evals: int, *,
           independent: bool = False):
    """Adaptively integrate ``fv`` over several intervals at once.

    ``intervals`` holds the initial panel edges of each interval.  Each
    round splits, in every interval whose error exceeds ``tol_abs``, the
    fewest worst panels whose errors must go for the rest to meet it, all
    in one call of ``fv``; a panel too narrow to split counts as exact.
    The initial panels are always evaluated; splits stop before
    ``max_evals`` would be passed.  With ``independent`` the intervals are
    separate integrals: ``fv(x, k)`` also gets the index ``k`` of each
    node's interval, and every interval has a budget of ``max_evals`` of
    its own, so that it adapts as it would alone.  Returns ``(values,
    errors, nevals, edges)``: ``nevals`` in total, the rest per interval.
    """
    def panels(a, b, owner):
        if independent:
            return _eval_panels(fv, a, b, owner)
        return _eval_panels(fv, a, b)

    ids = np.arange(len(intervals))
    owner = np.repeat(ids, [len(e) - 1 for e in intervals])
    a = np.concatenate([e[:-1] for e in intervals])
    b = np.concatenate([e[1:] for e in intervals])
    val, err = panels(a, b, owner)
    # nodes spent, per interval only when each has a budget of its own
    spent = 15 * (np.bincount(owner, minlength=ids.size) if independent
                  else a.size)
    while True:
        # worst first within each interval; a panel is split while the
        # error it and the panels better than it leave exceeds tol_abs
        order = np.lexsort((-err, owner))
        groups = np.split(order, np.searchsorted(owner[order], ids[1:]))
        split = np.concatenate([g[np.cumsum(err[g][::-1])[::-1] > tol_abs]
                                for g in groups])
        narrow = b[split] - a[split] <= 1e-14 * (np.abs(a[split])
                                                 + np.abs(b[split]) + 1.0)
        if narrow.any():
            err[split[narrow]] = 0.0
            continue
        split = split[np.argsort(-err[split])]
        if independent:
            # the worst splits of each interval that its own budget allows
            room = np.maximum(0, max_evals - spent) // 30
            split = np.concatenate([split[owner[split] == k][:room[k]]
                                    for k in ids])
        else:
            split = split[:max(0, max_evals - spent) // 30]
        if not split.size:
            break
        m = 0.5 * (a[split] + b[split])
        ca, cb = np.concatenate((a[split], m)), np.concatenate((m, b[split]))
        co = np.tile(owner[split], 2)
        cv, ce = panels(ca, cb, co)
        spent += 30 * (np.bincount(owner[split], minlength=ids.size)
                       if independent else split.size)
        owner, a, b, val, err = (
            np.concatenate((np.delete(x, split), y)) for x, y in
            ((owner, co), (a, ca), (b, cb), (val, cv), (err, ce)))
    order = np.lexsort((a, owner))
    owner, a, b, val, err = (x[order] for x in (owner, a, b, val, err))
    starts = np.searchsorted(owner, ids)
    edges = [np.append(ai, bi[-1]) for ai, bi in
             zip(np.split(a, starts[1:]), np.split(b, starts[1:]))]
    return (np.add.reduceat(val, starts), np.add.reduceat(err, starts).tolist(),
            int(np.sum(spent)), edges)


# ---------------------------------------------------------------------------
# Double contour integrals
# ---------------------------------------------------------------------------

def _axis_layout(kernel, cy: ContourSpec, cz: ContourSpec, tol_abs: float,
                 which: str, max_width: float = math.inf):
    """Adapt a 1-d panel layout for one axis on slices of the kernel.

    Three slices keep the layout honest: the companion variable at 0, at
    minus a third of its height, and mirrored along the antidiagonal.
    Error-variance kernels have a ridge where the arguments' imaginary
    parts cancel (the joint moment factor stops decaying there); the ridge
    crosses tensor cells diagonally, so its transverse scale additionally
    caps the panel width everywhere.
    """
    Ry, Rz = cy.abscissa, cz.abscissa
    if which == "y":
        c, other_c, budget = cy.truncation, cz.truncation, cy.node_budget

        def at(v, w):   # the kernel with this axis at v, the other at w
            return kernel(Ry + 1j * v, Rz + 1j * w)
    else:
        c, other_c, budget = cz.truncation, cy.truncation, cz.node_budget

        def at(v, w):
            return kernel(Ry + 1j * w, Rz + 1j * v)

    def fv(v):
        w = np.zeros_like(v)
        return (np.abs(at(v, w)) + np.abs(at(v, w - other_c / 3.0))
                + np.abs(at(v, -v)))

    edges = _adapt(fv, [np.linspace(0.0, c, 9)], tol_abs, budget)[3][0]
    if math.isfinite(max_width):
        pieces = [edges]
        for a, b in zip(edges[:-1], edges[1:]):
            if b - a > max_width:
                k = int(math.ceil((b - a) / max_width))
                pieces.append(np.linspace(a, b, k + 1)[1:-1])
        edges = np.unique(np.concatenate(pieces))
    return edges


def _mids_halves(edges: np.ndarray):
    """Midpoints and half-widths of the panels between ``edges``."""
    return 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])


def _nodes_from_edges(edges: np.ndarray, rule):
    """Nodes and weights of ``rule = (nodes, weights)`` on [-1, 1] mapped
    onto each panel between ``edges``, panel by panel."""
    x, wx = rule
    mid, half = _mids_halves(edges)
    v = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    w = (half[:, None] * wx[None, :]).ravel()
    return v, w


def _pair_protocol(kernel):
    """``(axis_y, axis_z, along_sum, pair, bound)`` of a kernel.

    Structured kernels (see ``payoffs.PairKernel``) bring their own; a
    plain callable ``kernel(y, z)`` gets a unit linear factor and the
    nodes as its axis data, no sum data (``along_sum`` is None) and no
    bound, and is called on the broadcast tile.
    """
    if hasattr(kernel, "pair") and hasattr(kernel, "axis_y"):
        return (kernel.axis_y, kernel.axis_z, kernel.along_sum, kernel.pair,
                kernel.bound)

    def axis(nodes):
        return np.ones(nodes.shape), nodes

    def pair(ydat, zdat, sdat):
        return kernel(*np.broadcast_arrays(ydat[1], zdat[1]))

    return axis, axis, None, pair, None


def _pair_classes(mid_y, half_y, mid_z, half_z, p, q, quantum):
    """Classes of the panel pairs ``(p[i], q[i])`` that share their node sums.

    The sums of a pair are ``mid_p + mid_q + half_p x_k + half_q x_l``, so
    pairs with equal halves and equal ``mid_p + mid_q`` share all of them.
    Equality is taken on a grid of spacing ``quantum``: subdivided layouts
    give equal panels' halves and midpoints that differ in their last bits.
    ``half_*`` may be any fixed multiple of the half-widths.  Returns the
    class of each pair and the index of each class's first pair.
    """
    key = np.zeros(p.size, dtype=np.int64)
    for part in (mid_y[p] + mid_z[q], half_y[p], half_z[q]):
        codes = np.unique(np.round(part / quantum), return_inverse=True)[1]
        key = key * (int(codes.max()) + 1) + codes
    _, first, cls = np.unique(key, return_index=True, return_inverse=True)
    return cls, first


def _sum_line_tables(along_sum, n, y_nodes, edges_y, z_nodes, edges_z,
                     tiles):
    """``along_sum(y + z)`` once per class of the panel pairs that any of
    ``tiles`` touches.

    ``n`` is the rule's node count per panel; ``z_nodes`` cover the full
    axis, the mirror of the panels between ``edges_z`` and those panels.
    One set of tables serves the whole tensor pass.  The factors are
    evaluated on each class's first pair's own sums, in chunks no larger
    than a tile of one row panel.  Returns ``gather(lo, hi, cols)``, the
    tuple of sum data on the tile of rows ``lo:hi`` and columns ``cols``.
    """
    mid_y, half_y = _mids_halves(edges_y)
    mid_z, half_z = _mids_halves(edges_z)
    mid_z = np.concatenate((-mid_z[::-1], mid_z))
    half_z = np.concatenate((half_z[::-1], half_z))
    touched = np.zeros((mid_y.size, mid_z.size), dtype=bool)
    for lo, hi, cols in tiles:
        touched[lo // n:(hi - 1) // n + 1,
                cols.start // n:(cols.stop - 1) // n + 1] = True
    p, q = np.nonzero(touched)
    # a grid far below any panel width, far above the layout's rounding
    quantum = 2.0 ** -40 * max(edges_y[-1], edges_z[-1])
    cls, first = _pair_classes(mid_y, half_y, mid_z, half_z, p, q, quantum)
    cls_base = np.zeros(touched.shape, dtype=np.intp)   # read where touched
    cls_base[p, q] = cls * (n * n)
    first_rows = (n * p[first])[:, None] + np.arange(n)
    first_cols = (n * q[first])[:, None] + np.arange(n)
    chunk = max(1, z_nodes.size // n)
    tables = ()
    for i in range(0, first.size, chunk):
        part = along_sum((y_nodes[first_rows[i:i + chunk]][:, :, None]
                          + z_nodes[first_cols[i:i + chunk]][:, None, :])
                         .ravel())
        if not tables:
            tables = tuple(np.empty(first.size * n * n, dtype=t.dtype)
                           for t in part)
        for t, x in zip(tables, part):
            t[i * n * n:i * n * n + x.size] = x
    row_panel, row_node = np.divmod(np.arange(y_nodes.size), n)
    col_panel, col_node = np.divmod(np.arange(z_nodes.size), n)

    def gather(lo, hi, cols):
        idx = (cls_base[row_panel[lo:hi, None], col_panel[None, cols]]
               + n * row_node[lo:hi, None] + col_node[None, cols])
        return tuple(t[idx] for t in tables)

    return gather


# A tensor pass skips panel pairs, smallest bound first, while their
# summed bound stays within this fraction of the pass's tol_abs.
_BAND_FRACTION = 1e-3
# most samples of the sum line per pass for the envelope of its factors
_BAND_SAMPLES = 4096


def _range_max(f, i0, i1):
    """``max(f[..., i0:i1 + 1])`` for index arrays ``i0 <= i1``, from a
    sparse table of ``f`` along its last axis."""
    level = np.log2(i1 - i0 + 1).astype(int)
    out = np.empty(f.shape[:-1] + i0.shape)
    table = f   # table[..., i] = max f[..., i:i + 2^k] at level k
    for k in range(int(level.max()) + 1):
        at = level == k
        out[..., at] = np.maximum(table[..., i0[at]],
                                  table[..., i1[at] - 2 ** k + 1])
        table = np.maximum(table[..., :-2 ** k], table[..., 2 ** k:])
    return out


def _band(bound, along_sum, ydat, zdat, u, v, Rs, edges_y, edges_z, n,
          symmetric: bool, budget: float):
    """Column-panel windows ``[q0, q1)`` of each row panel of a tensor
    pass, and the summed bound of the panel pairs outside them.

    Rows are the panels between ``edges_y``, columns those of the full
    axis (the mirror of the panels between ``edges_z``, then those).  The
    cells of pair ``(p, q)`` add at most ``B_pq U_p V_q`` times the fold's
    multiplicity to the pass, with ``U_p``, ``V_q`` the sums of ``|u|``,
    ``|v|`` over the panels and ``B_pq = bound(ymag, zmag, smag)``, where
    ``ymag``, ``zmag`` hold each panel's largest magnitudes of its axis
    data and ``smag`` the largest magnitudes of the sum data over the
    pair's sums, taken from samples of the sum line ``Rs + it`` that
    bracket them.  Pairs are dropped smallest bound first while the
    dropped bounds sum to at most ``budget``; each row keeps the span of
    the rest, widened by one panel in both directions.
    """
    py, ez = edges_y.size - 1, np.concatenate((-edges_z[::-1], edges_z[1:]))
    pz = ez.size - 1
    if bound is None or not budget > 0.0:
        return np.tile((0, pz), (py, 1)), 0.0

    def panel_max(x):
        return np.abs(x).reshape(-1, n).max(axis=1)

    ymag = tuple(panel_max(d)[:, None] for d in ydat)
    zmag = tuple(panel_max(d)[None, :] for d in zdat)
    t_lo = edges_y[:-1, None] + ez[None, :-1]
    t_hi = edges_y[1:, None] + ez[None, 1:]
    t0, t1 = t_lo[0, 0], t_hi[-1, -1]
    h = max(0.5 * min(np.diff(edges_y).min(), np.diff(edges_z).min()),
            (t1 - t0) / _BAND_SAMPLES)
    count = int(math.ceil((t1 - t0) / h)) + 1
    samples = np.abs(np.stack(along_sum(Rs + 1j * (t0 + h * np.arange(count)))))
    i0 = np.clip(np.floor((t_lo - t0) / h).astype(int), 0, count - 1)
    i1 = np.clip(np.ceil((t_hi - t0) / h).astype(int), i0, count - 1)
    smag = tuple(_range_max(samples, i0, i1))
    b = bound(ymag, zmag, smag) * (np.abs(u).reshape(-1, n).sum(axis=1)[:, None]
                                   * np.abs(v).reshape(-1, n).sum(axis=1))
    b *= 4.0 if symmetric else 2.0
    if symmetric:
        # pairs beyond the fundamental domain |v_z| <= v_y hold no cells
        b[np.maximum(ez[:-1], -ez[1:])[None, :] >= edges_y[1:, None]] = 0.0
    order = np.argsort(b, axis=None)
    kept = np.ones(b.shape, dtype=bool)
    kept.flat[order[np.cumsum(b.flat[order]) <= budget]] = False
    # and the pairs next to a kept one, diagonals included
    kept = np.pad(kept, 1)
    keep = np.logical_or.reduce([kept[i:i + py, j:j + pz]
                                 for i in range(3) for j in range(3)])
    q0 = np.where(keep.any(axis=1), keep.argmax(axis=1), 0)
    q1 = np.where(keep.any(axis=1), pz - keep[:, ::-1].argmax(axis=1), 0)
    cols = np.arange(pz)
    inside = (cols >= q0[:, None]) & (cols < q1[:, None])
    return np.stack((q0, q1), axis=1), float(b[~inside].sum())


def _tensor_value(kernel, Ry, Rz, edges_y, edges_z, rule, symmetric: bool,
                  tol_abs: float = 0.0):
    """Tensor-product sum with conjugation folding, on broadcast tiles.

    The panels between ``edges_y`` on [0, c] make the folded axis, those
    between ``edges_z`` and their mirror the full symmetric range; each
    panel carries the nodes of ``rule`` (``_nodes_from_edges``).
    Conjugating both variables conjugates the kernel, so the
    integral equals twice the real part of the folded sum.  When
    ``symmetric`` and the contours coincide, only the fundamental domain
    ``|v_z| <= v_y`` of the joint conjugation/swap group is evaluated (a
    quarter of the plane), with multiplicity weights.  Axis data are
    computed once per node, and a structured kernel's sum data once per
    pass and class of panel pairs sharing their node sums
    (``_sum_line_tables``).  Each tile, one row panel, passes ``(r, 1)``
    row views, ``(1, c)`` column views and the ``(r, c)`` gathered sum
    data to the pair kernel.  The kernel is linear in the leading axis
    factors ``ydat[0]``, ``zdat[0]``, which ``pair`` leaves out: they
    enter with the weights, as ``Re(u @ values @ v)`` with ``u = wy
    ydat[0]`` and ``v = wz zdat[0]``.

    A kernel with a ``bound`` is banded: each tile evaluates only a
    window of columns around the ridge ``v_z = -v_y``, outside which the
    panel pairs' bounds sum to at most ``_BAND_FRACTION * tol_abs``
    (``_band``); ``tol_abs = 0`` evaluates every column.  Returns the
    sum, the number of cells evaluated in the fundamental domain, and the
    summed bound of the skipped panel pairs.
    """
    axis_y, axis_z, along_sum, pair, bound = _pair_protocol(kernel)
    if symmetric:
        edges_z = edges_y
    n = rule[0].size
    vy, wy = _nodes_from_edges(edges_y, rule)
    vz, wz = (vy, wy) if symmetric else _nodes_from_edges(edges_z, rule)
    m = vy.size
    vz_full = np.concatenate((-vz[::-1], vz))
    wz_full = np.concatenate((wz[::-1], wz))
    z_nodes = Rz + 1j * vz_full
    zdat = axis_z(z_nodes)
    y_nodes = Ry + 1j * vy
    if symmetric and axis_y is axis_z:
        # the folded axis is the upper half of the full one
        ydat = tuple(d[m:] for d in zdat)
    else:
        ydat = axis_y(y_nodes)
    u = wy * ydat[0]
    v = wz_full * zdat[0]
    windows, skipped = _band(bound, along_sum, ydat, zdat, u, v, Ry + Rz,
                             edges_y, edges_z, n, symmetric,
                             _BAND_FRACTION * tol_abs)
    tiles = []
    for p, (q0, q1) in enumerate(windows.tolist()):
        lo, hi = p * n, (p + 1) * n
        c0, c1 = q0 * n, q1 * n
        if symmetric:
            # columns [m-hi, m+hi) hold every |v_z| <= vy[hi-1]
            c0, c1 = max(c0, m - hi), min(c1, m + hi)
        if c0 < c1:
            tiles.append((lo, hi, slice(c0, c1)))
    if along_sum is not None:
        gather = _sum_line_tables(along_sum, n, y_nodes, edges_y, z_nodes,
                                  edges_z, tiles)
    if symmetric:
        v4 = 4.0 * v
        # in the tile of rows lo:hi, columns [m-lo, m+lo) lie inside
        # |v_z| < v_y for every row (weight 4); the n outer columns on
        # either side take 4/2/0 from v_y against |v_z|, which within one
        # panel is the order of the rule's nodes
        right = 4.0 * np.tri(n, k=-1) + 2.0 * np.eye(n)
    total = 0.0
    nev = 0
    for lo, hi, cols in tiles:
        vals = pair(tuple(d[lo:hi, None] for d in ydat),
                    tuple(d[None, cols] for d in zdat),
                    None if along_sum is None else gather(lo, hi, cols))
        if symmetric:
            # the window meets the inner columns and the two outer blocks
            row = 0.0
            for a, b, weights in ((m - lo, m + lo, None),
                                  (m - hi, m - lo, right[:, ::-1]),
                                  (m + lo, m + hi, right)):
                a2, b2 = max(a, cols.start), min(b, cols.stop)
                if a2 >= b2:
                    continue
                part = vals[:, a2 - cols.start:b2 - cols.start]
                if weights is None:
                    row = row + part @ v4[a2:b2]
                    nev += part.size
                else:
                    weights = weights[:, a2 - a:b2 - a]
                    row = row + (part * weights) @ v[a2:b2]
                    nev += int(np.count_nonzero(weights))
            total += float((u[lo:hi] @ row).real)
        else:
            nev += vals.size
            total += 2.0 * float((u[lo:hi] @ (vals @ v[cols])).real)
    return total, nev, skipped


def double_contour_integrate(kernel, contour_y: ContourSpec,
                             contour_z: ContourSpec, *,
                             tol_abs: float = 1e-9,
                             symmetric: bool = False,
                             max_panel_width: float = math.inf) -> QuadratureResult:
    """Tensor-product quadrature of ``kernel(y, z)`` over two segments.

    ``kernel`` is either vectorized over ndarray arguments of equal shape
    or structured with ``axis_y``/``axis_z``/``pair`` (see
    ``payoffs.PairKernel``), and conjugate-symmetric under simultaneous
    conjugation of both arguments (true of every error-variance kernel in
    this package); the result is real.  Declaring ``symmetric=True``
    (kernel(y,z) == kernel(z,y) with identical contours) halves the kernel
    evaluations.  Principal-value
    contours use jointly symmetric truncation by construction.

    The base pass and any refinement passes put 12-point Gauss-Legendre
    nodes on each panel: K15's polynomial degree on 12 nodes, so 144 node
    pairs per panel pair instead of 225.  The error estimate compares the
    base pass against a half-resolution pass on K15 panels, a quarter of
    the base panel pairs; on G12 that coarse pass is the less accurate,
    and its larger estimates would refine cells that need no refinement.
    A failed estimate escalates to uniform refinement of the layout.
    Passes over a kernel with a ``bound`` are banded around the ridge
    (``_tensor_value``); the probe skips the same region, so the bounds
    of both compared passes' skipped panel pairs are added to the
    estimate.  ``nodes_used`` counts the node pairs evaluated.
    """
    symmetric = symmetric and (contour_y == contour_z)
    axis_tol = 0.1 * tol_abs
    edges_y = _axis_layout(kernel, contour_y, contour_z, axis_tol, "y",
                           max_panel_width)
    if symmetric:
        edges_z = edges_y
    else:
        edges_z = _axis_layout(kernel, contour_y, contour_z, axis_tol, "z",
                               max_panel_width)
    Ry, Rz = contour_y.abscissa, contour_z.abscissa

    def run(ey, ez, rule=_G12):
        return _tensor_value(kernel, Ry, Rz, ey, ez, rule, symmetric,
                             tol_abs)

    val1, n1, skip1 = run(edges_y, edges_z)

    def split(edges):
        mids = 0.5 * (edges[:-1] + edges[1:])
        return np.sort(np.concatenate((edges, mids)))

    def coarsen(edges):
        e = edges[::2]
        return e if e[-1] == edges[-1] else np.append(e, edges[-1])

    # error probe against a half-resolution pass first (quarter the cost);
    # escalate to genuine refinement only when it fails the tolerance
    val0, n0, skip0 = run(coarsen(edges_y), coarsen(edges_z), _K15)
    err = abs(val1 - val0) + skip1 + skip0
    n2 = 0
    val = val1
    budget = contour_y.node_budget * contour_z.node_budget
    if err > tol_abs and (n0 + n1) * 5 <= budget:
        val2, n2, skip2 = run(split(edges_y), split(edges_z))
        err = abs(val2 - val1) + skip2 + skip1
        val = val2
        if err > tol_abs and (n0 + n1 + n2) * 4 <= budget:
            val3, n3, skip3 = run(split(split(edges_y)),
                                  split(split(edges_z)))
            err = abs(val3 - val2) + skip3 + skip2
            val = val3
            n2 += n3
    nodes = n0 + n1 + n2
    return QuadratureResult(val, err, nodes, err <= max(tol_abs, 1e-10 * abs(val)))
