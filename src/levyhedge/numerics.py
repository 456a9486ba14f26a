"""Complex special functions and adaptive quadrature on vertical contours.

Everything downstream (model transforms, payoff inversion, hedging
integrals) is built on the primitives in this module:

* ``bessel_k1``/``bessel_k1e``, ``log_gamma``, ``beta`` -- special
  functions of complex arguments as numpy array code (``K1`` by series,
  fixed Gauss-Laguerre rules or Hankel's expansion, by ``|w|``),
* ``contour_integrate`` / ``double_contour_integrate`` -- adaptive
  Gauss-Kronrod quadrature along vertical segments ``{R + iv : |v| <= c}``,
  always symmetrically truncated, so principal values come out right.

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
    "contour_integrate",
    "double_contour_integrate",
    "bromwich_integrate",
]

EULER_GAMMA = 0.57721566490153286060651209008240243


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


@dataclass(frozen=True)
class ContourSpec:
    """Vertical integration segment ``{abscissa + iv : |v| <= truncation}``.

    ``node_budget`` caps the number of integrand evaluations.  The
    quadrature grid is symmetric about ``v = 0`` by construction
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
    ik = half * (y @ _K15_WEIGHTS)
    ig = half * (y[:, _G7_IDX] @ _G7_WEIGHTS)
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
    spent = 15 * np.bincount(owner, minlength=ids.size)
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
            split = split[:max(0, max_evals - int(spent.sum())) // 30]
        if not split.size:
            break
        m = 0.5 * (a[split] + b[split])
        ca, cb = np.concatenate((a[split], m)), np.concatenate((m, b[split]))
        co = np.tile(owner[split], 2)
        cv, ce = panels(ca, cb, co)
        spent += 30 * np.bincount(owner[split], minlength=ids.size)
        owner, a, b, val, err = (
            np.concatenate((np.delete(x, split), y)) for x, y in
            ((owner, co), (a, ca), (b, cb), (val, cv), (err, ce)))
    order = np.lexsort((a, owner))
    owner, a, b, val, err = (x[order] for x in (owner, a, b, val, err))
    starts = np.searchsorted(owner, ids)
    edges = [np.append(ai, bi[-1]) for ai, bi in
             zip(np.split(a, starts[1:]), np.split(b, starts[1:]))]
    return (np.add.reduceat(val, starts), np.add.reduceat(err, starts).tolist(),
            int(spent.sum()), edges)


def _wrap_integrand(integrand, abscissa: float, conjugate_symmetric: bool):
    """Fold the vertical-line integrand onto v >= 0.

    For any integrand, ``int_{-c}^{c} f(R+iv) dv = int_0^c (f(R+iv) +
    f(R-iv)) dv``; with declared conjugate symmetry the pair sum is
    ``2 Re f(R+iv)``, which guarantees bit-real results and halves cost.
    For a principal value the pairing *is* the symmetric truncation.
    """
    R = abscissa
    if conjugate_symmetric:
        def fv(v):
            z = R + 1j * np.asarray(v)
            return 2.0 * np.real(integrand(z)) + 0j
    else:
        def fv(v):
            v = np.asarray(v)
            z = np.concatenate((R + 1j * v, R - 1j * v))
            y = np.asarray(integrand(z), dtype=complex)
            n = v.size
            return y[:n] + y[n:]
    return fv


def contour_integrate(integrand, contour: ContourSpec, *,
                      tol_abs: float = 1e-10, tol_rel: float = 1e-10,
                      conjugate_symmetric: bool = False) -> QuadratureResult:
    """Integrate ``integrand(R + iv)`` in v over ``[-c, c]``.

    ``integrand`` must be vectorized (ndarray of complex -> ndarray).
    Opposite-sign nodes are evaluated jointly, so the result is the
    symmetrically truncated integral.  If the tolerance
    cannot be met within ``contour.node_budget`` evaluations the result is
    returned with ``converged=False``.
    """
    fv = _wrap_integrand(integrand, contour.abscissa, conjugate_symmetric)
    (value,), (err,), nevals, _ = _adapt(
        fv, [np.linspace(0.0, contour.truncation, 9)], tol_abs,
        contour.node_budget)
    converged = err <= max(tol_abs, tol_rel * abs(value))
    return QuadratureResult(value, err, nevals, converged)


def bromwich_integrate(integrand, abscissa: float, *,
                       tol_abs: float = 1e-10,
                       node_budget: int = 400_000,
                       truncation_cap: float = 1e9,
                       c_start: float = 64.0,
                       dead_tol_factor: float = 0.5,
                       external_tail: bool = False):
    """Self-truncating vertical-line integral of a conjugate-symmetric
    integrand, folded onto v >= 0 as ``2 Re integrand(R + iv)``.

    Integrates outward in geometrically growing segments ``[c, 2c]``, the
    first being ``[0, min(64, c_start)]``, until two consecutive segment
    contributions fall below ``dead_tol_factor * tol_abs`` at a height of
    at least ``c_start``, or the truncation cap / node budget is hit.  A
    short first segment keeps its panels fine enough for the bulk near
    ``v = 0`` however tall ``c_start`` is, and its first panel is graded
    towards ``v = 0``, where payoff poles sit closest to the contour.  The
    segments up to ``c_start`` are always needed, so they are adapted
    together; beyond it, one segment at a time.  The observed segment
    contribution is itself the tail estimate: valid for damped and
    oscillatory-algebraic integrands alike.  With ``external_tail`` the
    caller completes the tail analytically (see the payoff engine), so no
    segment-based tail heuristic is added.  Returns ``(result, height)``,
    the height being where the run stopped.
    """
    fv = _wrap_integrand(integrand, abscissa, True)
    hi = min(64.0, c_start, truncation_cap)
    segments = [np.append(hi / 8.0 * np.array([0.0, 1 / 16, 1 / 8, 1 / 4, 0.5]),
                          np.linspace(hi / 8.0, hi, 8))]
    while hi < c_start and hi < 0.999999 * truncation_cap:
        lo, hi = hi, min(2.0 * hi, truncation_cap)
        segments.append(np.linspace(lo, hi, 9))
    value = 0.0 + 0j
    err = 0.0
    nevals = 0
    small_streak = 0
    converged = True
    while True:
        vals, errs, ne, _ = _adapt(fv, segments, 0.1 * tol_abs,
                                   node_budget - nevals)
        nevals += ne
        err += sum(errs)
        for v in vals:
            value += v
            small = abs(v) < dead_tol_factor * tol_abs
            small_streak = small_streak + 1 if small else 0
        at_cap = hi >= 0.999999 * truncation_cap
        if (small_streak >= 2 and hi >= c_start) or at_cap:
            if not external_tail:
                err += abs(v)
                if at_cap and small_streak < 2:
                    converged = abs(v) < tol_abs
            break
        if nevals >= node_budget:
            converged = False
            break
        lo, hi = hi, min(2.0 * hi, truncation_cap)
        segments = [np.linspace(lo, hi, 9)]
    result = QuadratureResult(value, err, nevals,
                              converged and err <= 5.0 * tol_abs + 1e-300)
    return result, hi


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


_TILE_ROWS = 16   # rows of the folded axis per broadcast tile


def _pair_protocol(kernel):
    """``(axis_y, axis_z, along_sum, pair)`` of a kernel.

    Structured kernels (see ``payoffs.PairKernel``) bring their own; a
    plain callable ``kernel(y, z)`` gets a unit linear factor and the
    nodes as its axis data, no sum data (``along_sum`` is None), and is
    called on the broadcast tile.
    """
    if hasattr(kernel, "pair") and hasattr(kernel, "axis_y"):
        return kernel.axis_y, kernel.axis_z, kernel.along_sum, kernel.pair

    def axis(nodes):
        return np.ones(nodes.shape), nodes

    def pair(ydat, zdat, sdat):
        return kernel(*np.broadcast_arrays(ydat[1], zdat[1]))

    return axis, axis, None, pair


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
    than one tile.  Returns ``gather(lo, hi, cols)``, the tuple of sum data
    on the tile of rows ``lo:hi`` and columns ``cols``.
    """
    mid_y, half_y = _mids_halves(edges_y)
    mid_z, half_z = _mids_halves(edges_z)
    mid_z = np.concatenate((-mid_z[::-1], mid_z))
    half_z = np.concatenate((half_z[::-1], half_z))
    touched = np.zeros((mid_y.size, mid_z.size), dtype=bool)
    for lo, hi, cols in tiles:
        c0, c1, _ = cols.indices(z_nodes.size)
        touched[lo // n:(hi - 1) // n + 1, c0 // n:(c1 - 1) // n + 1] = True
    p, q = np.nonzero(touched)
    # a grid far below any panel width, far above the layout's rounding
    quantum = 2.0 ** -40 * max(edges_y[-1], edges_z[-1])
    cls, first = _pair_classes(mid_y, half_y, mid_z, half_z, p, q, quantum)
    cls_base = np.zeros(touched.shape, dtype=np.intp)   # read where touched
    cls_base[p, q] = cls * (n * n)
    first_rows = (n * p[first])[:, None] + np.arange(n)
    first_cols = (n * q[first])[:, None] + np.arange(n)
    chunk = max(1, _TILE_ROWS * z_nodes.size // (n * n))
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


def _tensor_value(kernel, Ry, Rz, edges_y, edges_z, rule, symmetric: bool):
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
    (``_sum_line_tables``).  Each tile of ``_TILE_ROWS`` rows passes
    ``(r, 1)`` row views, ``(1, c)`` column views and the ``(r, c)``
    gathered sum data to the pair kernel.  The kernel is linear in the
    leading axis factors ``ydat[0]``, ``zdat[0]``, which ``pair`` leaves
    out: they enter with the weights, as ``Re(u @ values @ v)`` with
    ``u = wy ydat[0]`` and ``v = wz zdat[0]``.
    """
    axis_y, axis_z, along_sum, pair = _pair_protocol(kernel)
    if symmetric:
        edges_z = edges_y
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
    tiles = []
    for lo in range(0, m, _TILE_ROWS):
        hi = min(lo + _TILE_ROWS, m)
        # columns [m-hi, m+hi) hold every |v_z| <= vy[hi-1]
        tiles.append((lo, hi, slice(m - hi, m + hi) if symmetric
                      else slice(None)))
    if along_sum is not None:
        gather = _sum_line_tables(along_sum, rule[0].size, y_nodes, edges_y,
                                  z_nodes, edges_z, tiles)
    if symmetric:
        v4 = 4.0 * v
    total = 0.0
    nev = 0
    for lo, hi, cols in tiles:
        vals = pair(tuple(d[lo:hi, None] for d in ydat),
                    tuple(d[None, cols] for d in zdat),
                    None if along_sum is None else gather(lo, hi, cols))
        if symmetric:
            # columns [m-lo, m+lo) lie inside |v_z| < v_y for every row
            # (weight 4); the k outer columns on either side take 4/2/0
            # from v_y against |v_z|
            k = hi - lo
            Y = vy[lo:hi, None]
            A = vy[None, lo:hi]
            right = np.where(Y > A, 4.0, np.where(Y == A, 2.0, 0.0))
            row = (vals[:, k:-k] @ v4[m - lo:m + lo]
                   + (vals[:, :k] * right[:, ::-1]) @ v[m - hi:m - lo]
                   + (vals[:, -k:] * right) @ v[m + lo:m + hi])
            nev += 2 * k * lo + 2 * int(np.count_nonzero(right))
            total += float((u[lo:hi] @ row).real)
        else:
            nev += vals.size
            total += 2.0 * float((u[lo:hi] @ (vals @ v)).real)
    return total, nev


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
        return _tensor_value(kernel, Ry, Rz, ey, ez, rule, symmetric)

    val1, n1 = run(edges_y, edges_z)

    def split(edges):
        mids = 0.5 * (edges[:-1] + edges[1:])
        return np.sort(np.concatenate((edges, mids)))

    def coarsen(edges):
        e = edges[::2]
        return e if e[-1] == edges[-1] else np.append(e, edges[-1])

    # error probe against a half-resolution pass first (quarter the cost);
    # escalate to genuine refinement only when it fails the tolerance
    val0, n0 = run(coarsen(edges_y), coarsen(edges_z), _K15)
    err = abs(val1 - val0)
    n2 = 0
    val = val1
    budget = contour_y.node_budget * contour_z.node_budget
    if err > tol_abs and (n0 + n1) * 5 <= budget:
        val2, n2 = run(split(edges_y), split(edges_z))
        err = abs(val2 - val1)
        val = val2
        if err > tol_abs and (n0 + n1 + n2) * 4 <= budget:
            val3, n3 = run(split(split(edges_y)), split(split(edges_z)))
            err = abs(val3 - val2)
            val = val3
            n2 += n3
    nodes = n0 + n1 + n2
    return QuadratureResult(val, err, nodes, err <= max(tol_abs, 1e-10 * abs(val)))
