"""Payoff transform measures and their numerical evaluation.

A European payoff ``f(S_T)`` is represented as ``f(s) = int s^z Pi(dz)``
for a finite complex measure ``Pi`` supported on vertical lines plus
isolated point masses.  ``Line.density`` is the density of ``Pi`` with
respect to the *imaginary coordinate* ``v`` along ``z = R + iv`` and
carries the full ``1/(2*pi)`` inversion normalisation, so every
downstream formula is literally ``integral of (stuff) d(Pi)`` with no
stray constants.  In this parameterisation the catalog densities satisfy
``density(conj z) == conj(density(z))``, which is what makes every
reconstructed payoff and hedging quantity exactly real.

The catalog covers calls, puts, the low-moment call variant (call minus
stock plus a unit point mass at 1), integer and fractional power calls,
self-quanto calls, digitals (principal value), and the log contract (two
lines).  Linear combinations compose with ``+`` and scalar ``*``.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import numerics
from .numerics import ContourSpec, QuadratureResult
from .models import MomentStrip

__all__ = [
    "Line",
    "PointMass",
    "TransformMeasure",
    "PairKernel",
    "QuadratureWarning",
    "call",
    "put",
    "call_low_moment",
    "power_call",
    "power_call_fractional",
    "self_quanto_call",
    "digital",
    "log_contract",
    "evaluate_payoff",
    "abscissa_admissible",
    "integrate_measure",
    "double_integrate_measure",
    "tabulate_transform",
    "tail_completion",
]


class QuadratureWarning(UserWarning):
    """A quadrature finished without meeting its tolerance."""


@dataclass(frozen=True)
class PairKernel:
    """Structured kernel for tensor quadrature over two contours.

    Error-variance kernels depend on (y, z) only through per-axis
    quantities and through the joint argument ``s = y + z``, so the tensor
    evaluator computes axis data once per node and sum data once per
    distinct sum, and runs a cheap combine on broadcast tiles of node
    pairs.  The four members:

    * ``axis_y`` / ``axis_z`` map a node array to a tuple of arrays of its
      shape.  The first is a factor the kernel is linear in, so a measure
      density is folded into it on the axis.
    * ``along_sum`` maps an array of sums ``s`` to a tuple of arrays of its
      shape: the factors that depend on the pair through ``s`` alone
      (``kappa(s)`` and its exponentials).
    * ``pair(ydat, zdat, sdat, scale=None)`` combines axis data that
      broadcast against each other -- ``(r, 1)`` row and ``(1, c)`` column
      views in the tensor evaluator, equal-shape 1-D arrays elsewhere --
      with the sum data ``sdat`` of the broadcast shape.  It leaves out the
      linear factor ``ydat[0] * zdat[0]``, which the tensor evaluator
      takes into its contraction; other callers pass it as ``scale``, which
      ``pair`` multiplies in first.
    * ``bound(ymag, zmag, smag)``, optional, is an upper bound of
      ``|pair(ydat, zdat, sdat)|`` given upper bounds of the magnitudes of
      each entry of ``ydat``, ``zdat`` and ``sdat``, in the same tuples.
      The tensor evaluator bounds panel pairs with it and skips those
      that cannot matter (``numerics._band``); without it every pair is
      evaluated.

    Instances are also plain callables on broadcastable arrays, used by
    layout and tail probes.
    """

    axis_y: Callable
    axis_z: Callable
    along_sum: Callable
    pair: Callable
    bound: Optional[Callable] = None

    def __call__(self, y, z):
        y = np.atleast_1d(np.asarray(y, dtype=complex))
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        ydat, zdat = self.axis_y(y), self.axis_z(z)
        return np.asarray(self.pair(ydat, zdat, self.along_sum(y + z),
                                    ydat[0] * zdat[0]))


@dataclass(frozen=True)
class Line:
    """One vertical line of the measure: density w.r.t. dv along R + iv.

    ``decay_power`` p and ``strike_scale`` record the large-|v| behaviour
    |density| ~ C / |v|^p and the oscillation origin (phase ~ v*log(s/K)),
    used only to budget truncations.
    """

    abscissa: float
    density: Callable[[np.ndarray], np.ndarray]
    decay_power: float = 2.0
    strike_scale: float = 1.0

    def density_amplitude(self) -> float:
        # probe |density| * v^p at moderate heights; cheap and robust
        v = np.array([16.0, 32.0, 64.0])
        z = self.abscissa + 1j * v
        mag = np.abs(self.density(z)) * v ** self.decay_power
        return float(np.max(mag)) + 1e-300


@dataclass(frozen=True)
class PointMass:
    location: complex
    weight: complex


@dataclass(frozen=True)
class TransformMeasure:
    components: tuple
    analytic: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        pms = [c for c in self.components if isinstance(c, PointMass)]
        for pm in pms:
            if pm.location.imag == 0.0:
                continue
            # realness of every evaluated quantity needs the mirror mass
            if not any(abs(q.location - np.conj(pm.location)) < 1e-14
                       and abs(q.weight - np.conj(pm.weight)) < 1e-14
                       for q in pms):
                raise ValueError(
                    f"point mass at {pm.location} lacks its conjugate partner")

    def lines(self):
        return [c for c in self.components if isinstance(c, Line)]

    def point_masses(self):
        return [c for c in self.components if isinstance(c, PointMass)]

    def __add__(self, other: "TransformMeasure") -> "TransformMeasure":
        if not isinstance(other, TransformMeasure):
            return NotImplemented
        fa, fb = self.analytic, other.analytic
        analytic = (lambda s: fa(s) + fb(s)) if (fa and fb) else None
        return TransformMeasure(self.components + other.components, analytic)

    def __rmul__(self, a: float) -> "TransformMeasure":
        a = float(a)
        comps = []
        for c in self.components:
            if isinstance(c, Line):
                comps.append(replace(c, density=_scaled(c.density, a)))
            else:
                comps.append(PointMass(c.location, a * c.weight))
        fa = self.analytic
        analytic = (lambda s: a * fa(s)) if fa else None
        return TransformMeasure(tuple(comps), analytic)

    __mul__ = __rmul__

    def __sub__(self, other: "TransformMeasure") -> "TransformMeasure":
        if not isinstance(other, TransformMeasure):
            return NotImplemented
        return self + (-1.0) * other


def _scaled(density, a):
    return lambda z: a * density(z)


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

_TWO_PI = 2.0 * math.pi


def _closed_form(f):
    """A catalog payoff's ``analytic``: ``f`` is elementwise numpy code;
    a float in gives a float out, an array in gives an array out."""
    def analytic(s):
        out = f(np.asarray(s, dtype=float))
        return float(out) if np.ndim(out) == 0 else out
    return analytic


def _strike(strike) -> float:
    if strike <= 0.0:
        raise ValueError(f"strike must be > 0, got {strike}")
    return float(strike)


def _call_line(K: float, abscissa: float) -> Line:
    """The line ``K^(1-z) / (2 pi z (z-1))`` shared by the call (R > 1),
    the put (R < 0) and the low-moment call (0 < R < 1)."""
    def density(z):
        return K ** (1.0 - z) / (_TWO_PI * z * (z - 1.0))

    return Line(abscissa, density, strike_scale=K)


def call(strike: float, abscissa: float = 1.5) -> TransformMeasure:
    """(s - K)^+ from a single line with R > 1."""
    K = _strike(strike)
    if not abscissa > 1.0:
        raise ValueError(f"call abscissa must be > 1, got {abscissa}")
    return TransformMeasure(
        (_call_line(K, abscissa),),
        analytic=_closed_form(lambda s: np.maximum(s - K, 0.0)))


def put(strike: float, abscissa: float = -0.5) -> TransformMeasure:
    """(K - s)^+: the call density with the line left of zero."""
    K = _strike(strike)
    if not abscissa < 0.0:
        raise ValueError(f"put abscissa must be < 0, got {abscissa}")
    return TransformMeasure(
        (_call_line(K, abscissa),),
        analytic=_closed_form(lambda s: np.maximum(K - s, 0.0)))


def call_low_moment(strike: float, abscissa: float = 0.5) -> TransformMeasure:
    """(s - K)^+ using only moments up to order 2.

    The line with 0 < R < 1 represents (s - K)^+ - s; adding the unit
    point mass at 1 (the stock itself) restores the call.
    """
    K = _strike(strike)
    if not 0.0 < abscissa < 1.0:
        raise ValueError(
            f"low-moment call abscissa must lie in (0, 1), got {abscissa}")
    return TransformMeasure(
        (_call_line(K, abscissa), PointMass(1.0 + 0j, 1.0 + 0j)),
        analytic=_closed_form(lambda s: np.maximum(s - K, 0.0)))


def power_call(strike: float, n: int, abscissa: Optional[float] = None) -> TransformMeasure:
    """((s - K)^+)^n for integer n >= 2, line right of n."""
    K = _strike(strike)
    if not (isinstance(n, (int, np.integer)) and n >= 2):
        raise ValueError(f"power_call needs integer n >= 2, got {n}")
    R = float(abscissa) if abscissa is not None else n + 0.5
    if not R > n:
        raise ValueError(f"power_call abscissa must be > {n}, got {R}")
    fact = float(math.factorial(n))

    def density(z):
        den = np.ones_like(z)
        for j in range(n + 1):
            den = den * (z - j)
        return fact * K ** (n - z) / (_TWO_PI * den)

    line = Line(R, density, decay_power=float(n + 1), strike_scale=K)
    return TransformMeasure(
        (line,), analytic=_closed_form(lambda s: np.maximum(s - K, 0.0) ** n))


def power_call_fractional(strike: float, power: float,
                          abscissa: Optional[float] = None) -> TransformMeasure:
    """((s - K)^+)^a for real a > 1, via the Euler beta function."""
    K = _strike(strike)
    a = float(power)
    if not a > 1.0:
        raise ValueError(f"fractional power must be > 1, got {a}")
    R = float(abscissa) if abscissa is not None else a + 0.5
    if not R > a:
        raise ValueError(f"fractional power abscissa must be > {a}, got {R}")
    a1 = a + 1.0
    lg_a1 = numerics.log_gamma(a1)

    def density(z):
        # K^(a-z) B(a + 1, z - a) / 2 pi, with log_gamma(a + 1) taken once
        b = z - a
        lg = lg_a1 + numerics.log_gamma(b) - numerics.log_gamma(a1 + b)
        return K ** (a - z) * np.exp(lg) / _TWO_PI

    line = Line(R, density, decay_power=a + 1.0, strike_scale=K)
    return TransformMeasure(
        (line,), analytic=_closed_form(lambda s: np.maximum(s - K, 0.0) ** a))


def self_quanto_call(strike: float, abscissa: float = 2.5) -> TransformMeasure:
    """(s - K)^+ * s, line right of 2.

    Density K^(2-z)/((z-1)(z-2)): the bilateral transform of
    (e^x - K)^+ e^x computed directly, which the substitution z -> z+1 in
    the plain call representation confirms.
    """
    K = _strike(strike)
    if not abscissa > 2.0:
        raise ValueError(f"self-quanto abscissa must be > 2, got {abscissa}")

    def density(z):
        return K ** (2.0 - z) / (_TWO_PI * (z - 1.0) * (z - 2.0))

    line = Line(abscissa, density, strike_scale=K)
    return TransformMeasure(
        (line,), analytic=_closed_form(lambda s: np.maximum(s - K, 0.0) * s))


def digital(strike: float, abscissa: float = 0.5) -> TransformMeasure:
    """Indicator of s >= K, principal-value line right of zero.

    The transform target equals 1/2 exactly at s = K; it coincides with
    the indicator payoff almost surely only when the terminal law has no
    atoms (any model in this package).
    """
    K = _strike(strike)
    if not abscissa > 0.0:
        raise ValueError(f"digital abscissa must be > 0, got {abscissa}")

    def density(z):
        return K ** (-z) / (_TWO_PI * z)

    line = Line(abscissa, density, decay_power=1.0, strike_scale=K)

    def indicator(s):
        return np.where(s > K, 1.0, np.where(s == K, 0.5, 0.0))

    return TransformMeasure((line,), analytic=_closed_form(indicator))


def log_contract(abscissa_neg: float = -0.5, abscissa_pos: float = 0.5) -> TransformMeasure:
    """log(s), written as positive part minus negative part on two lines."""
    if not abscissa_neg < 0.0 < abscissa_pos:
        raise ValueError(
            f"log contract needs abscissa_neg < 0 < abscissa_pos, got "
            f"{abscissa_neg}, {abscissa_pos}")

    def density_pos(z):
        return 1.0 / (_TWO_PI * z * z)

    def density_neg(z):
        return -1.0 / (_TWO_PI * z * z)

    lines = (Line(abscissa_pos, density_pos, strike_scale=1.0),
             Line(abscissa_neg, density_neg, strike_scale=1.0))
    return TransformMeasure(lines, analytic=_closed_form(np.log))


# ---------------------------------------------------------------------------
# Admissibility
# ---------------------------------------------------------------------------

def abscissa_admissible(measure: TransformMeasure, strip: MomentStrip) -> bool:
    """True iff twice every abscissa and point-mass real part lies strictly
    inside the model's moment strip (second moments of every transform
    component must exist)."""
    for line in measure.lines():
        if not strip.contains(2.0 * line.abscissa):
            return False
    for pm in measure.point_masses():
        if not strip.contains(2.0 * pm.location.real):
            return False
    return True


# ---------------------------------------------------------------------------
# Evaluation engine
# ---------------------------------------------------------------------------

_X_FLOOR = 1e-9          # below this, treat the point as exactly at strike
_CX_MIN = 32.0           # tail corrections need c |x| >= this to be valid
_NO_CAP = 1e13           # truncation cap of an undamped integrand
_LINE_NODES = 400_000    # node budget of one line integral


def _height_plan(line: Line, s_values, tol_abs: float, cap: float = _NO_CAP,
                 amp: Optional[float] = None):
    """Per-point truncation heights and tail-correction flags.

    The integrand along the line behaves like an envelope of size
    ``A_eff / v^p`` times the oscillation ``exp(i v x)``, ``x = log(s/K)``.
    Away from the strike the two-term integration-by-parts tail completion
    (see ``tail_completion``) leaves a residual of order
    ``p(p+1) A_eff / (x^3 c^(p+2))``, so a modest height suffices; it is
    valid once ``c |x| >= _CX_MIN``.  At the strike there is no
    oscillation and the direct envelope bound sets the height (for p <= 1
    the conjugate pairing leaves an ``A_eff max(1,|R|) / v^2`` real part).
    Whichever admissible height is smaller wins; ``correct`` marks the
    points that rely on the completion.  ``amp`` is the line's
    ``density_amplitude()``, evaluated here when not given.
    """
    if amp is None:
        amp = line.density_amplitude()
    p = line.decay_power
    R = line.abscissa
    ss = np.atleast_1d(np.asarray(s_values, dtype=float))
    xs = np.abs(np.log(ss) - math.log(line.strike_scale))
    a_eff = amp * ss ** R
    # factor 8 headroom: the envelope tail beyond the height stays an
    # eighth of tol_abs
    if p > 1.0:
        c_direct = (8.0 * a_eff / ((p - 1.0) * tol_abs)) ** (1.0 / (p - 1.0))
    else:
        c_direct = 8.0 * a_eff * max(1.0, abs(R)) / tol_abs
    with np.errstate(divide="ignore"):
        xs_safe = np.maximum(xs, _X_FLOOR)
        # factor 8 headroom: the residual falls like c^-(p+2), so the
        # correction lands comfortably inside its own error estimate
        c_osc = np.maximum(
            (8.0 * p * (p + 1.0) * a_eff
             / (xs_safe ** 3 * tol_abs)) ** (1.0 / (p + 2.0)),
            _CX_MIN / xs_safe)
    c_osc = np.where(xs >= _X_FLOOR, c_osc, np.inf)
    correct = c_osc < c_direct
    heights = np.clip(np.where(correct, c_osc, c_direct), 64.0, cap)
    return heights, correct & (heights < cap * 0.999)


def tail_completion(line: Line, s_sel, cs, weight3=None):
    """Analytic completion of the truncated oscillatory tails of a line.

    For each point s with truncation height c, writes the integrand
    ``density(z) s^z weight(z)`` along ``z = R + iv`` as
    ``phi(v) exp(i v omega)`` with slowly varying phi, and applies two
    integration-by-parts terms:

        2 Re[ e^{ic omega} ( i phi(c)/omega - phi'(c)/omega^2 ) ],

    phi' by central difference.  With ``phi = f e^{-iv omega}`` this is
    ``2 Re[i f(c)/omega - (f(c+d) e^{-id omega} - f(c-d) e^{id omega})
    / (2 d omega^2)]``, which is how it is evaluated.  The frequency omega
    is *measured* from the probes rather than assumed: damping weights
    (moment functions to powers) shift the phase velocity away from
    log(s/K), and the measured value keeps the expansion valid for them
    too.  Points whose measured ``c |omega|`` is too small for the
    expansion get no correction and a conservative residual instead.
    ``weight3`` is an optional vectorized map applied to the (3, n) probe
    matrix; it may embed per-point factors, and it may return a leading
    row axis ``(rows, 3, n)`` to complete every row at once.  Returns
    ``(correction, residual_estimate)`` per point, with the weight's row
    axis if any.
    """
    s_sel = np.asarray(s_sel, dtype=float)
    cs = np.asarray(cs, dtype=float)
    # probe spacing small enough that the phase step stays unaliased even
    # with the payoff oscillation log(s/K) plus a drift-induced shift
    xs_nom = np.abs(np.log(s_sel / line.strike_scale))
    d = np.minimum(1.0, 1.2 / (1.0 + xs_nom))
    v3 = np.vstack((cs, cs + d, cs - d))
    z3 = line.abscissa + 1j * v3
    f3 = np.asarray(line.density(z3), dtype=complex)
    if weight3 is not None:
        f3 = f3 * weight3(z3)
    f3 = f3 * np.exp(z3 * np.log(s_sel)[None, :])
    f0, fp, fm = (f3[..., i, :] for i in range(3))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        omega = np.angle(fp / fm) / (2.0 * d)
    dead = np.abs(f0) < 1e-300
    valid = (~dead) & (np.abs(omega) * cs >= 0.9 * _CX_MIN) \
        & (np.abs(omega) * d < 1.4)
    omega = np.where(valid, omega, 1.0)
    # phi = f e^{-i v omega}; its carrier e^{-i c omega} cancels in the
    # tail and drops out of |phi''|, so only the probes' offsets +-d from
    # c enter, through one exponential
    shift = np.exp(-1j * d * omega)
    fp, fm = fp * shift, fm * np.conj(shift)
    tail = 2.0 * np.real(1j * f0 / omega
                         - (fp - fm) / (2.0 * d * omega * omega))
    resid = 2.0 * np.abs(fp - 2.0 * f0 + fm) / (d * d * np.abs(omega) ** 3)
    tail = np.where(valid, tail, 0.0)
    # without a usable expansion the direct envelope bound is all we have
    resid = np.where(valid, resid, np.abs(f0) * cs)
    return tail, resid


@dataclass(frozen=True)
class _TermsWeight:
    """A quote weight built from a time kernel's terms:
    ``form(*source(z)[-2:])``, with ``source`` a coefficient set's bound
    ``moment_terms`` or ``cumulant_terms`` (whose last two terms are
    ``g, h`` and ``gamma, eta``) and ``form`` the quote's elementwise map
    of them, such as ``g h^k``.  Line integrals take the terms at the
    weight-cap probes from ``_cap_terms``."""

    source: Callable
    form: Callable

    def __call__(self, z):
        return self.form(*self.source(z)[-2:])


# candidate weight caps: doublings from 64 below 1e9
_CAP_HEIGHTS = 64.0 * 2.0 ** np.arange(24)
# the heights at which ``_weight_cap`` probes an integrand: its peak, then
# each candidate cap and 0.71 of it
_CAP_PROBES = np.concatenate(([0.5, 1.0], 0.71 * _CAP_HEIGHTS, _CAP_HEIGHTS))
# every plan starts with twelve equal panels on [0, 8], below every height
_BASE_EDGES = 8.0 * np.arange(13) / 12
# the fixed block of a one-spot plan on any abscissa: the cap probes, then
# the K15 nodes of the base panels in the order the plan evaluates them
_BLOCK_V = np.concatenate((_CAP_PROBES,
                           numerics._nodes_from_edges(_BASE_EDGES,
                                                      numerics._K15)[0]))
_BLOCK_ENTRIES = 64      # entries of each fixed-block cache


def _read_only(a):
    a = np.asarray(a)
    a.setflags(write=False)
    return a


@functools.lru_cache(maxsize=_BLOCK_ENTRIES)
def _cap_terms(source, R: float):
    """The last two terms of ``source`` at the cap probes of abscissa R.
    Bound methods hash by their object's identity, and the cache holds
    the object, so an entry serves exactly the coefficient set it came
    from."""
    return tuple(map(_read_only, source(R + 1j * _CAP_PROBES)[-2:]))


@functools.lru_cache(maxsize=_BLOCK_ENTRIES)
def _line_block(line: Line):
    """A line's density on the fixed block of its abscissa, and its
    ``density_amplitude()``."""
    return (_read_only(line.density(line.abscissa + 1j * _BLOCK_V)),
            line.density_amplitude())


def _line_integral(line: Line, weight, s: float, tol_abs: float,
                   node_budget: int):
    """integral over the line of density(z) * s^z * weight(z) dv.

    The tables' panel plan for the one spot (``_weight_cap``,
    ``_planned_edges``), which ends at the spot's own height, adapted at
    ``0.1 tol_abs`` on the integrand folded onto v >= 0, with its
    oscillatory tail completed where the plan relies on that.  The
    integrand is conjugate-symmetric, so the fold ``f(R+iv) + f(R-iv)`` is
    ``2 Re f(R+iv)``: the result is real, and for a principal value the
    pairing is the symmetric truncation.

    Every plan on abscissa R starts at the same points, ``_BLOCK_V``: the
    weight-cap probes and the nodes of the base panels.  The line's
    density there comes from a cache per line, and the terms of a
    ``_TermsWeight`` at the cap probes from a cache per terms source and
    abscissa, each of ``_BLOCK_ENTRIES`` entries; so a quote evaluates
    the time kernel only on its plan's nodes, in one call.  Every value
    involved is elementwise, so a quote is bitwise the same warm or cold.
    Other weights, ``s^z`` and the kernel on the nodes are evaluated per
    quote.
    """
    R = line.abscissa
    ln_s = math.log(s)
    dens, amp = _line_block(line)
    n_cap = _CAP_PROBES.size
    n_base = _BLOCK_V.size - n_cap
    if weight is None:
        w_cap = 1.0
    elif isinstance(weight, _TermsWeight):
        w_cap = weight.form(*_cap_terms(weight.source, R))
    else:
        w_cap = weight(R + 1j * _CAP_PROBES)
    first = True

    def fv(v):
        nonlocal first
        z = R + 1j * v
        if first:
            # the first call's leading nodes are the block's base nodes
            first = False
            d = np.concatenate((dens[n_cap:], line.density(z[n_base:])))
        else:
            d = line.density(z)
        w = 1.0 if weight is None else weight(z)
        return 2.0 * np.real(d * np.exp(z * ln_s) * w) + 0j

    cap = _weight_cap(np.abs(dens[:n_cap]) * np.abs(w_cap) * s ** R, tol_abs)
    edges, (c,), (correct,) = _planned_edges(line, np.array([s]), tol_abs, cap,
                                             amp)
    (value,), (err,), nodes, _ = numerics._adapt(fv, [edges], 0.1 * tol_abs,
                                                 node_budget)
    converged = err <= 5.0 * tol_abs
    if correct:
        tail, resid = tail_completion(line, [s], [c], weight)
        value += float(tail[0])
        err += float(resid[0])
        nodes += 6
        converged = converged and resid[0] < 4.0 * tol_abs
    return QuadratureResult(value, err, nodes, converged)


def integrate_measure(measure: TransformMeasure, s: float, weight=None, *,
                      tol_abs: float = 1e-9) -> QuadratureResult:
    """``sum over Pi of s^z * weight(z)``: the workhorse behind payoff
    reconstruction, prices and hedge ratios.

    ``weight`` is a vectorized complex map (or None for the identity); it
    must be conjugate-symmetric, as all cumulant-built weights are.  The
    quote weights of ``hedge`` are ``_TermsWeight``s, whose kernel terms
    at the weight-cap probes of each abscissa are evaluated once per
    coefficient set, as is each line's density on the fixed block of its
    plans, and shared by later quotes (``_line_integral``; at most
    ``_BLOCK_ENTRIES`` entries are kept per cache, and the result is
    bitwise the same).  A missed tolerance is flagged, not warned about:
    the public entry points warn at their caller.
    """
    if s <= 0.0:
        raise ValueError(f"s must be > 0, got {s}")
    total = 0.0 + 0j
    err = 0.0
    nodes = 0
    converged = True
    for line in measure.lines():
        res = _line_integral(line, weight, s, tol_abs, _LINE_NODES)
        total += res.value
        err += res.error_estimate
        nodes += res.nodes_used
        converged &= res.converged
    for pm in measure.point_masses():
        w = weight(np.asarray(pm.location)) if weight is not None else 1.0
        total += pm.weight * s ** pm.location * w
    return QuadratureResult(total, err, nodes, converged)


def evaluate_payoff(measure: TransformMeasure, s: float, *,
                    tol_abs: float = 1e-9) -> float:
    """Reconstruct the payoff at s from its transform measure.

    The imaginary residue must be negligible (the measure is conjugate
    symmetric); it is checked and discarded.
    """
    if not measure.components:
        return 0.0
    res = integrate_measure(measure, s, None, tol_abs=tol_abs)
    if not res.converged:
        warnings.warn("quadrature tolerance not met; result is flagged",
                      QuadratureWarning, stacklevel=2)
    val = res.value
    if abs(val.imag) > 1e-10 * (1.0 + abs(val.real)):
        warnings.warn(
            f"imaginary residue {val.imag:.3e} in payoff reconstruction",
            QuadratureWarning, stacklevel=2)
    return float(val.real)


# ---------------------------------------------------------------------------
# Batched evaluation on s-grids (shared panel plan)
# ---------------------------------------------------------------------------

# spots per block of table cells: a block is (spots x nodes), its rows
# gathered from the lattice factors or formed by direct exp
_SPOT_BLOCK = 512


def _planned_edges(line: Line, s_grid: np.ndarray, tol_abs: float, cap: float,
                   amp: Optional[float] = None):
    """Fixed panel boundaries good for every s in the grid at once.

    Panel widths are limited by the phase velocity of the *still-active*
    grid points: once v exceeds the needed height c(s) of a point, that
    point stops constraining the plan (its nodes beyond c(s) are masked
    out), so widths grow as the fast oscillators retire.  The plan starts
    with ``_BASE_EDGES``; every height is at least 64.  Returns
    ``(edges, c_per_s, correct_mask)``.
    """
    xs = np.abs(np.log(s_grid) - math.log(line.strike_scale))
    heights, correct = _height_plan(line, s_grid, tol_abs, cap, amp)
    c_per_s = np.minimum(heights, cap)
    c_max = float(np.max(c_per_s))
    order = np.argsort(c_per_s)          # retirement order
    cs_sorted = c_per_s[order].tolist()
    # suffix maximum of |x| over points whose c(s) >= current height
    x_suffix = np.maximum.accumulate(xs[order][::-1])[::-1].tolist()
    n = len(cs_sorted)
    edges = _BASE_EDGES.tolist()
    v = edges[-1]
    i = 0                                # points retired below v
    while v < c_max:
        # v only grows, so the retirement index only advances
        while i < n and cs_sorted[i] <= v:
            i += 1
        if i == n:
            width = 0.6 * v
        else:
            x_act = x_suffix[i]
            w_osc = 2.5 / x_act if x_act > 1e-12 else math.inf
            width = min(w_osc, max(0.6 * v, 0.5))
        v = min(v + width, c_max)
        edges.append(v)
    return np.asarray(edges), c_per_s, correct


def _weight_cap(mag, tol_abs: float) -> float:
    """Height beyond which the integrand of every row is negligible for
    good, or ``_NO_CAP`` when none is found below 1e9 (as for an undamped
    row), given a bound ``mag`` of the integrand's modulus over the rows
    at ``_CAP_PROBES``."""
    peak = float(np.max(mag[:2])) + 1e-300
    tails = mag[2:].reshape(2, -1).max(axis=0) * _CAP_HEIGHTS
    small = np.flatnonzero(tails < 1e-3 * tol_abs + 1e-16 * peak)
    return float(_CAP_HEIGHTS[small[0]]) if small.size else _NO_CAP


def _log_lattice(ln_s):
    """The spots of a grid that lie on one uniform lattice in log-spot.

    Returns ``(on, k, x_c, h)``: ``ln_s[on]`` is ``x_c + k[on] h`` up to
    ``64 u (1 + max|ln_s|)`` of rounding, with ``x_c`` a lattice point near
    the middle of the grid.  The other spots (a strike's cluster, or every
    spot of a grid without a lattice) have ``on`` False, and so do all
    spots of a grid with fewer than two distinct ones.
    """
    xs = np.sort(ln_s)
    tol = 64.0 * np.finfo(float).eps * (1.0 + max(abs(xs[0]), abs(xs[-1])))
    d = np.diff(xs)
    steps = d[d > tol]
    if not steps.size:
        return np.zeros(xs.size, bool), np.zeros(xs.size, np.int64), float(xs[0]), 0.0
    h = float(np.partition(steps, steps.size // 2)[steps.size // 2])
    # points with a neighbour one step away anchor the lattice and fit h
    one = np.abs(d - h) <= 2.0 * tol
    anchored = xs[np.concatenate((one, [False])) | np.concatenate(([False], one))]
    x_c = float(anchored[np.argmin(np.abs(anchored - 0.5 * (xs[0] + xs[-1])))])
    span = anchored[-1] - anchored[0]
    h = float(span / np.rint(span / h))
    k = np.rint((ln_s - x_c) / h).astype(np.int64)
    return np.abs((ln_s - x_c) - k * h) <= tol, k, x_c, h


def _anchor_factors(zc, x_c):
    """``e^{zc x_c}`` per node with the phase product's rounding error put
    back (Dekker's exact product, to first order), so that the factor is
    good to a few ulps however large ``Im(zc) x_c`` grows."""
    v = zc.imag
    p = v * x_c
    vc, xc = 134217729.0 * v, 134217729.0 * x_c        # Veltkamp splits
    v_hi, x_hi = vc - (vc - v), xc - (xc - x_c)
    v_lo, x_lo = v - v_hi, x_c - x_hi
    err = ((v_hi * x_hi - p) + v_hi * x_lo + v_lo * x_hi) + v_lo * x_lo
    return np.exp(zc.real * x_c + 1j * p) * (1.0 + 1j * err)


def _kept_cell_sums(coef, z, rate, v, cut, ln_s, times):
    """``2 Re sum_i coef[:, i] exp(z_i ln s_j + rate_i t_j)`` over the
    nodes with ``v_i <= cut_j``, for every spot j (``rate`` may be None).

    Nodes ascend in v, so spot j keeps exactly its first ``k_j`` nodes.
    With the spots sorted by descending ``k_j``, each node segment
    ``[k_prev, k)`` multiplies only the prefix of spots that keep it, so
    no cell beyond a spot's cut is computed.

    Every cell carries the factor ``e^{z x_c}`` of an anchor ``x_c`` near
    the middle of the grid, formed once per node with an exact phase, so
    the phases formed per cell stay as small as ``ln s_j - x_c``.  Spots
    on a uniform log lattice (``_log_lattice``; only without a per-spot
    rate) split further as ``ln s_j = x_c + c[q_j] + f[r_j] + eps_j`` with
    ``c[q] = (k0 + qB) h``, ``f[r] = r h`` and ``eps_j`` of rounding size,
    so by the addition theorem ``s_j^z = e^{z x_c} C[q_j] F[r_j]
    (1 + z eps_j)`` to rounding, with ``C = e^{z c}`` and ``F = e^{z f}``.
    A segment then forms ``Q + B`` exps per node instead of one per kept
    spot, and gathers its lattice rows from C and F.  The other spots, and
    the lattice spots of a segment too few to repay the factors, take
    their exps directly.  Blocks are built conjugated, as (spots x nodes),
    so that ``coef`` viewed as real pairs reduces each by one real GEMM.
    """
    coef = np.ascontiguousarray(coef, dtype=complex)
    keep = np.searchsorted(v, cut, side="right")
    on, k, x_c, h = _log_lattice(ln_s)
    if rate is not None:
        on = np.zeros_like(on)          # a per-spot rate has no lattice factors
    # lattice spots first, then the rest, each by descending keep
    order = np.concatenate([g[np.argsort(-keep[g], kind="stable")]
                            for g in (np.flatnonzero(on), np.flatnonzero(~on))])
    n_on = int(np.count_nonzero(on))
    keep = keep[order]
    # descending keeps of either group, negated to search them
    neg_l, neg_d = -keep[:n_on], -keep[n_on:]
    shift = ln_s[order] - x_c
    if n_on:
        k = k[order[:n_on]]
        k_min, k_max = np.minimum.accumulate(k), np.maximum.accumulate(k)
    zc = np.conj(z)
    anchor = _anchor_factors(zc, x_c)
    if rate is not None:
        rc = np.conj(rate)
        times = times[order]
    acc = np.zeros((coef.shape[0], cut.size))
    lo = 0
    for hi in np.unique(keep[keep > 0]).tolist():
        zs = zc[lo:hi]
        n_l = int(np.searchsorted(neg_l, -hi, side="right"))
        n_d = int(np.searchsorted(neg_d, -hi, side="right"))
        factors = None
        if n_l:
            k0 = int(k_min[n_l - 1])
            B = math.isqrt(int(k_max[n_l - 1]) - k0) + 1
            q, r = np.divmod(k[:n_l] - k0, B)
            Q = int(q.max()) + 1
            if n_l > Q + B:
                c = (k0 + B * np.arange(Q)) * h
                f = np.arange(B) * h
                CF = np.multiply.outer(np.concatenate((c, f)), zs)
                np.exp(CF, out=CF)
                CF[:Q] *= anchor[lo:hi]
                factors = (c, f, CF[:Q], CF[Q:])
        blk = np.empty((min(_SPOT_BLOCK, max(n_l, n_d)), hi - lo), dtype=complex)
        tmp = None if factors is None else np.empty_like(blk)
        for start, stop in ((0, n_l), (n_on, n_on + n_d)):
            for b in range(start, stop, _SPOT_BLOCK):
                e = min(b + _SPOT_BLOCK, stop)
                cells = blk[:e - b]
                if factors is not None and b < n_on:
                    c, f, C, F = factors
                    fix = tmp[:e - b]
                    np.take(C, q[b:e], axis=0, out=cells, mode="clip")
                    np.take(F, r[b:e], axis=0, out=fix, mode="clip")
                    cells *= fix
                    eps = (shift[b:e] - c[q[b:e]]) - f[r[b:e]]
                    np.multiply.outer(eps, zs, out=fix)
                    fix += 1.0
                    cells *= fix
                else:
                    np.multiply.outer(shift[b:e], zs, out=cells)
                    if rate is not None:
                        cells += np.multiply.outer(times[b:e], rc[lo:hi])
                    np.exp(cells, out=cells)
                    cells *= anchor[lo:hi]
                # cells hold conj(s^z): Re(a s^z) = Re a Re cells + Im a Im cells
                acc[:, b:e] += coef[:, lo:hi].view(float) @ cells.view(float).T
        lo = hi
    out = np.empty_like(acc)
    out[:, order] = 2.0 * acc
    return out


def _line_rows(line: Line, s_grid, ln_s, terms, tol_abs, times):
    """One line's contribution to every row on the grid, each spot
    truncated at its own height with its oscillatory tail completed.
    Returns ``(values, err_estimate)``."""
    R = line.abscissa
    z = R + 1j * _CAP_PROBES
    rows, rate = terms(z)
    mag = np.max(np.abs(rows), axis=0)
    if rate is not None:
        t_ends = np.array([np.min(times), np.max(times)])
        mag = mag * np.max(np.exp(np.multiply.outer(np.real(rate), t_ends)),
                           axis=-1)
    mag = np.abs(line.density(z)) * mag * float(np.max(s_grid)) ** R
    edges, c_per_s, correct = _planned_edges(line, s_grid, tol_abs,
                                             _weight_cap(mag, tol_abs))
    # panel-aligned cutoffs: first edge at or above the needed height
    cut = edges[np.minimum(np.searchsorted(edges, c_per_s), edges.size - 1)]

    def values_on(edges_, idx):
        v, w = numerics._nodes_from_edges(edges_, numerics._K15)
        z = line.abscissa + 1j * v
        rows, rate = terms(z)
        return _kept_cell_sums(rows * (w * line.density(z)), z, rate, v,
                               cut[idx], ln_s[idx],
                               None if times is None else times[idx])

    vals = values_on(edges, np.arange(s_grid.size))
    # error probe: split every panel once at a few spots; the tail
    # corrections are identical on both plans, so they stay out of it
    idx = np.unique(np.linspace(0, s_grid.size - 1, 5).astype(int))
    mids = 0.5 * (edges[:-1] + edges[1:])
    split = values_on(np.sort(np.concatenate((edges, mids))), idx)
    err = float(np.max(np.abs(split - vals[:, idx])))
    sel = np.flatnonzero(correct & (cut * np.abs(np.log(s_grid / line.strike_scale))
                                    >= 0.9 * _CX_MIN))
    if sel.size:
        def weight3(z3):
            rows, rate = terms(z3)
            return rows if rate is None else rows * np.exp(rate * times[sel])

        tail, resid = tail_completion(line, s_grid[sel], cut[sel], weight3)
        vals[:, sel] += tail
        err = max(err, float(np.max(resid)))
    return vals, err


def _tabulate(measure: TransformMeasure, s_grid, terms, tol_abs: float,
              times=None):
    """Rows of ``s_j -> integral of s_j^z rows(z) e^(rate(z) times_j) Pi(dz)``
    on a grid, with ``terms(z) = (rows, rate)``: ``rows`` carries a leading
    row axis, and ``rate`` is None when no spot has a factor of its own."""
    s_grid = np.asarray(s_grid, dtype=float)
    if np.any(s_grid <= 0.0):
        raise ValueError("s grid must be positive")
    ln_s = np.log(s_grid)
    out = np.zeros((1, s_grid.size))
    err = 0.0
    for line in measure.lines():
        vals, line_err = _line_rows(line, s_grid, ln_s, terms, tol_abs, times)
        out = out + vals
        err = max(err, line_err)
    for pm in measure.point_masses():
        rows, rate = terms(np.asarray(pm.location))
        expo = pm.location * ln_s
        if rate is not None:
            expo = expo + rate * times
        out = out + np.real(pm.weight * np.exp(expo) * rows[:, None])
    return out, err


def tabulate_transform(measure: TransformMeasure, s_grid, weight=None, *,
                       tol_abs: float = 1e-7):
    """Evaluate ``s -> integral of s^z weight(z) Pi(dz)`` on a whole grid.

    ``weight(z)`` may return a leading row axis, ``(rows, *z.shape)``, to
    evaluate many weights at once.  Each line gets one fixed Kronrod panel
    plan for every s and every row (one matrix of ``s^z`` cells per block
    of spots instead of one adaptive quadrature per point), capped where
    the weights have damped every row's integrand away; each point is
    truncated at its own needed height, and the oscillatory tails of all
    rows are completed analytically in one batch.  Spots on a uniform
    log-spot lattice take their cells from per-node lattice factors by
    the addition theorem of the exponential, so about ``2 sqrt(m)``
    exponentials per node serve m such spots; other spots take one
    ``exp`` per cell.  Returns ``(values,
    err_estimate)``; values have shape ``(rows, len(s_grid))``, or
    ``(len(s_grid),)`` for a weight without a row axis.
    """
    flat = True

    def terms(z):
        nonlocal flat
        w = np.ones(np.shape(z)) if weight is None else np.asarray(weight(z))
        if w.ndim > np.ndim(z):
            flat = False
            return w, None
        return w[None], None

    vals, err = _tabulate(measure, s_grid, terms, tol_abs)
    return (vals[0] if flat else vals), err


# ---------------------------------------------------------------------------
# Double integrals over Pi x Pi
# ---------------------------------------------------------------------------

_RIDGE_WIDTH = 300.0     # generous effective width of the antidiagonal ridge
_PAIR_NODES = 4_000_000  # node budget of one double integral
_PAIR_SOFT_CAP = 3072.0  # beyond this, finish the ridge by iterated quadrature
# candidate truncation heights: doublings from 64 up to the soft cap
_PROBE_HEIGHTS = 64.0 * 2.0 ** np.arange(
    int(math.log2(_PAIR_SOFT_CAP / 64.0)) + 1)


def _pair_truncation(axis_slice, anti_slice, tol_abs: float):
    """Truncation height for one axis of a kernel double integral.

    Two tails must die: the axis tail (companion variable small), probed
    directly, and the antidiagonal ridge, where the joint moment factor
    stops decaying and only the density product falls off.  If the ridge
    cannot be exhausted by a moderate height, the region beyond is handed
    to ``_far_ridge_integral`` instead of growing the tensor grid.  Both
    slices are vectorized; every candidate height is probed in one call.
    Returns ``(height, tail_estimate, needs_far_part)``.
    """
    v = np.concatenate((_PROBE_HEIGHTS, 0.71 * _PROBE_HEIGHTS))
    axis = np.abs(axis_slice(v)).reshape(2, -1).max(axis=0)
    ridge = np.abs(anti_slice(v)).reshape(2, -1).max(axis=0)
    c_axis = None
    for c, ax, rg in zip(_PROBE_HEIGHTS.tolist(), axis.tolist(),
                         ridge.tolist()):
        if c_axis is None and ax * c < 0.15 * tol_abs:
            c_axis = c
        tail = ax * c + rg * c * _RIDGE_WIDTH
        if tail < 0.3 * tol_abs:
            return c, tail, False
    return max(c_axis or _PAIR_SOFT_CAP, 1024.0), 0.0, True


_RIDGE_OFFSETS = np.array([0.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0, 640.0])


def _ridge_transverse_width(pair_kernel, Ry, Rz, c):
    """Half-width of the antidiagonal ridge, capping tensor panel widths.

    Probes the kernel transversally to the ridge at half the truncation
    height; panels wider than the ridge would miss it where it crosses
    cells diagonally.
    """
    v0 = 0.5 * c
    mags = np.abs(pair_kernel(Ry + 1j * (v0 + _RIDGE_OFFSETS), Rz - 1j * v0))
    peak = mags[0]
    if peak < 1e-300:
        return math.inf
    for u, mag in zip(_RIDGE_OFFSETS[1:].tolist(), mags[1:]):
        if mag < 0.5 * peak:
            return max(u, 16.0)
    return math.inf


# ends of the inner integrals' segments [0, 256], [256, 512], ...: each
# inner integral stops after its first small segment, at 2.1e6 at most
_FAR_SEGMENT_ENDS = (256.0 * 2.0 ** np.arange(14)).tolist()
_FAR_INNER_NODES = 40_000   # node budget of one inner segment


def _far_ridge_integral(pair_kernel, Ry, Rz, c: float, tol_abs: float):
    """Exact iterated integral of the kernel over the region |Im y| > c.

    In the coordinates (v, u) with y = R + iv and z = R' + i(u - v) the
    missing region is a half-plane; the inner u-integral crosses the
    antidiagonal ridge and decays through the densities, the outer
    v-integral falls off algebraically and is taken on a log scale.
    Joint conjugation supplies the v < -c half.  The companion region
    (|Im z| > c, |Im y| <= c) carries no ridge and is controlled by the
    axis criterion.  The inner integrals at the 15 nodes of an outer panel
    run together, one multi-interval ``_adapt`` per u-segment, in which
    each keeps its own panels and node budget.  Returns ``(value,
    error_estimate)``.
    """
    inner_tol = 0.05 * tol_abs * c

    def inner(v):
        # y is fixed on each inner integral: its axis data are taken once
        y = Ry + 1j * v
        ydat = pair_kernel.axis_y(y)
        vals = [0.0 + 0j] * v.size
        errs = [0.0] * v.size
        live = np.arange(v.size)
        lo = 0.0

        def fu_pair(uu, k):
            # k: each node's interval in the current run, one per live v
            n = uu.size
            i = np.tile(live[k], 2)
            z = Rz + 1j * (np.concatenate((uu, -uu)) - v[i])
            yd, zdat = tuple(d[i] for d in ydat), pair_kernel.axis_z(z)
            out = pair_kernel.pair(yd, zdat, pair_kernel.along_sum(y[i] + z),
                                   yd[0] * zdat[0])
            return out[:n] + out[n:]

        for U in _FAR_SEGMENT_ENDS:
            segs, es, _, _ = numerics._adapt(
                fu_pair, [np.linspace(lo, U, 9)] * live.size, inner_tol,
                _FAR_INNER_NODES, independent=True)
            for i, seg, e in zip(live.tolist(), segs, es):
                vals[i] += seg
                errs[i] += e
            live = live[~(np.abs(segs) < inner_tol)]
            if not live.size:
                break
            lo = U
        return vals, errs

    # outer integral on v = c e^t
    total = 0.0 + 0j
    err_total = 0.0
    t_edges = np.linspace(0.0, 14.0, 15)
    seg = 0.0 + 0j
    prev_small = 0
    for a, b in zip(t_edges[:-1], t_edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        ts = [mid + half * node for node in numerics._K15_NODES]
        gv, ge = inner(np.array([c * math.exp(t) for t in ts]))
        seg = 0.0 + 0j
        for t, wgt, gvi, gei in zip(ts, numerics._K15_WEIGHTS, gv, ge):
            seg += half * wgt * gvi * c * math.exp(t)
            err_total += half * wgt * gei * c * math.exp(t)
        total += seg
        if abs(seg) < 0.02 * tol_abs:
            prev_small += 1
            if prev_small >= 2:
                break
        else:
            prev_small = 0
    return 2.0 * total.real, err_total + abs(seg)


def _group_kernel(kernel, group_y, group_z):
    """The :class:`PairKernel` of a block between two groups of lines on
    one abscissa each: each axis's linear factor carries its group's
    summed density.  A block within one group shares one axis function,
    which lets the tensor evaluator take the folded axis from the full
    one."""
    def with_density(axis, group):
        def axis_group(zn):
            scale, *rest = axis(zn)
            density = group[0].density(zn)
            for line in group[1:]:
                density = density + line.density(zn)
            return (scale * density, *rest)
        return axis_group

    axis_y = with_density(kernel.axis_y, group_y)
    axis_z = (axis_y if group_z is group_y
              else with_density(kernel.axis_z, group_z))
    return PairKernel(axis_y, axis_z, kernel.along_sum, kernel.pair,
                      kernel.bound)


def _plan_pair(kernel, li: Line, lj: Line, tol_abs: float, diagonal: bool):
    """Truncation plan of the block between lines ``li`` (y) and ``lj``
    (z) alone, or of one line with itself if ``diagonal``:
    ``(cy, cz, tails, needs_far_part, ridge_width)``."""
    group_y = [li]
    pair_kernel = _group_kernel(kernel, group_y,
                                group_y if diagonal else [lj])
    Ri, Rj = li.abscissa, lj.abscissa

    def along(dy, dz):
        # the kernel at y = Ri + i dy v, z = Rj + i dz v
        return lambda v: pair_kernel(Ri + 1j * (dy * v), Rj + 1j * (dz * v))

    ci, tail_i, far_i = _pair_truncation(along(1.0, 0.0), along(1.0, -1.0),
                                         tol_abs)
    cj, tail_j, far_j = _pair_truncation(along(0.0, 1.0), along(-1.0, 1.0),
                                         tol_abs)
    far = far_i or far_j
    if far:
        ci = cj = max(ci, cj)
    width = _ridge_transverse_width(pair_kernel, Ri, Rj, max(ci, cj))
    return ci, cj, (tail_i, tail_j), far, width


def _plan_block(kernel, group_y, group_z, tol_abs: float):
    """Truncation plan of the block between two groups of lines, taken
    from the plans of its line pairs as each would be planned alone.

    Heights are the largest of the pairs', tails are summed, the far
    ridge runs if any pair needs it, and the panel-width cap is the
    smallest.  Probing the summed kernel instead is unsafe: two nearby
    strikes' densities beat, so their sum can cancel at a probe height
    where its parts do not.  Within one group the mirror of a distinct
    pair is planned by swapping its axes.  Returns ``(cy, cz, tails,
    needs_far_part, max_panel_width)``.
    """
    same = group_z is group_y
    cy = cz = 0.0
    tails, far, width = [], False, math.inf
    for i, li in enumerate(group_y):
        for j in range(i if same else 0, len(group_z)):
            diagonal = same and j == i
            ci, cj, pair_tails, pair_far, pair_width = _plan_pair(
                kernel, li, group_z[j], tol_abs, diagonal)
            mirrored = same and not diagonal
            cy = max(cy, ci, cj if mirrored else ci)
            cz = max(cz, cj, ci if mirrored else cj)
            tails += pair_tails * (2 if mirrored else 1)
            far = far or pair_far
            width = min(width, pair_width)
    if far:
        cy = cz = max(cy, cz)
    # the uniform-refinement error check guards the ridge already; the
    # cap only needs to bring it within reach
    return cy, cz, tails, far, width * (1.5 if far else 3.0)


def double_integrate_measure(measure: TransformMeasure, kernel, *,
                             tol_abs: float = 1e-8) -> QuadratureResult:
    """``integral of kernel(y, z) Pi(dy) Pi(dz)`` for a symmetric kernel.

    ``kernel`` is a :class:`PairKernel`, symmetric in (y, z) and
    conjugate-symmetric under joint conjugation.  The integral is bilinear
    in ``Pi``, so lines on one abscissa are integrated together: each
    pair of abscissas is one tensor block, with the summed density of
    each abscissa's lines multiplied into its leading axis factor (see
    ``_plan_block`` for its truncation).  A block within one abscissa
    folds the swap of y and z; a block between two is evaluated once
    with weight two.  Line-point blocks reduce to single contour
    integrals; point-point blocks are evaluated directly.  A missed
    tolerance is flagged, not warned about.
    """
    lines = measure.lines()
    pms = measure.point_masses()
    total = 0.0 + 0j
    err = 0.0
    nodes = 0
    converged = True

    groups = {}
    for line in lines:
        groups.setdefault(line.abscissa, []).append(line)
    groups = list(groups.values())
    budget_axis = int(math.sqrt(_PAIR_NODES))
    for i, gi in enumerate(groups):
        for gj in groups[i:]:
            same = gj is gi
            factor = 1.0 if same else 2.0
            ci, cj, tails, far, width = _plan_block(kernel, gi, gj, tol_abs)
            pair_kernel = _group_kernel(kernel, gi, gj)
            Ri, Rj = gi[0].abscissa, gj[0].abscissa
            res = numerics.double_contour_integrate(
                pair_kernel, ContourSpec(Ri, ci, budget_axis),
                ContourSpec(Rj, cj, budget_axis), tol_abs=tol_abs / factor,
                symmetric=same, max_panel_width=width)
            block = res.value
            block_err = sum(tails, res.error_estimate)
            if far:
                far_val, far_err = _far_ridge_integral(pair_kernel, Ri, Rj,
                                                       ci, tol_abs)
                block += far_val
                block_err += far_err
            total += factor * block
            err += factor * block_err
            nodes += res.nodes_used
            converged &= res.converged and block_err <= 8.0 * tol_abs

    for pm in pms:
        for line in lines:
            def cross(z, pm=pm):
                return kernel(np.full_like(z, pm.location), z) * pm.weight

            res = _line_integral(line, cross, 1.0, tol_abs, _PAIR_NODES)
            total += 2.0 * res.value
            err += 2.0 * res.error_estimate
            nodes += res.nodes_used
            converged &= res.converged
    for a in pms:
        for b in pms:
            ya = np.asarray([a.location])
            zb = np.asarray([b.location])
            total += a.weight * b.weight * complex(kernel(ya, zb)[0])
    return QuadratureResult(total, err, nodes, converged)
