"""Span tracing at the library's layer boundaries, for the traced run only.

Each boundary is one registry entry: a layer name and the (module,
attribute) binding its callers look up at call time.  ``install`` swaps
each binding for a wrapper and ``uninstall`` puts the originals back; an
entry whose module or attribute no longer exists is reported as absent
instead of failing, so the tracer survives refactors of the library.
The untraced run never calls ``install``.

A wrapper opens a span (layer, start, end, parent span, op id).  A layer's
self time is its span's time minus the time its child spans cover.  Calls
are synchronous, so child spans nest inside their parent without
overlapping, and the sum of their durations is the part they cover.  Each
op runs inside a root span named ``op``, whose self time is the op time
no layer accounts for.  A call that re-enters the layer already open on
top of the stack (``phi_step`` calling ``xi``, say) opens no span.
Aggregates are kept per layer as spans close; raw spans are kept in
memory up to ``max_spans`` and written out at the end.
"""

from __future__ import annotations

import importlib
import time

import numpy as np


def _size(x) -> int:
    return int(np.size(x))


def _quadrature(args, kwargs, out):
    res = out[0] if isinstance(out, tuple) else out     # (result, panels)
    return {"nodes": int(res.nodes_used), "converged": int(bool(res.converged))}


def _elements(args, kwargs, out):
    return {"elements": _size(args[0])}


def _row_spots(args, kwargs, out):
    arrays = out if isinstance(out, tuple) else (out,)
    return {"row_spots": sum(a.size for a in arrays if isinstance(a, np.ndarray))}


def _points(args, kwargs, out):
    return {"points": _size(args[1])}


def _increments(args, kwargs, out):
    return {"increments": _size(out)}


FAMILIES = {"Gaussian": "gaussian", "MertonJD": "merton", "NIG": "nig",
            "VG": "vg", "Hyperbolic": "hyperbolic"}


def _cumulant_layer(args, kwargs):
    return "models.cumulant." + FAMILIES.get(type(args[0]).__name__, "other")


def _nodes_of_z(args, kwargs, out):
    return {"nodes": _size(args[1])}


_QUOTES = ("initial_capital", "xi", "price_process", "phi_step",
           "initial_capital_ct", "xi_ct", "price_process_ct", "phi_ct")

# (layer, module, attribute, counter).  The layer may be a function of the
# call's arguments.  A function reached through two bindings (the package
# namespace and a sibling module's ``mdl.``/``po.``/``hd.`` lookups) gets
# one entry per binding.
REGISTRY = [
    ("numerics.bessel_k1e", "levyhedge.models", "bessel_k1e", _elements),
    ("numerics.continuous_log", "levyhedge.models", "continuous_log", _elements),
    ("numerics.log_gamma", "levyhedge.numerics", "log_gamma", _elements),
    ("numerics.bromwich", "levyhedge.payoffs", "bromwich_integrate", _quadrature),
    ("numerics.double", "levyhedge.numerics", "double_contour_integrate",
     _quadrature),
    ("payoffs.integrate_measure", "levyhedge.payoffs", "integrate_measure",
     _quadrature),
    ("payoffs.double_integrate_measure", "levyhedge.payoffs",
     "double_integrate_measure", _quadrature),
    ("payoffs.tables", "levyhedge.payoffs", "tabulate_transform", _row_spots),
    ("payoffs.tables", "levyhedge.simulate", "_tables_discrete", _row_spots),
    ("payoffs.tables", "levyhedge.simulate", "_tables_continuous", _row_spots),
    ("payoffs.tail_completion", "levyhedge.payoffs", "tail_completion", _points),
    (_cumulant_layer, "levyhedge.models", "cumulant", _nodes_of_z),
    ("models.sample_increments", "levyhedge.models", "sample_increments",
     _increments),
    ("hedge.coefficients", "levyhedge", "coefficients", None),
    ("hedge.coefficients", "levyhedge", "coefficients_ct", None),
    ("hedge.coefficients", "levyhedge.hedge_discrete", "coefficients", None),
    ("hedge.coefficients", "levyhedge.hedge_continuous", "coefficients_ct", None),
    ("hedge.error_variance", "levyhedge", "error_variance", None),
    ("hedge.error_variance", "levyhedge", "error_variance_ct", None),
    ("hedge.error_variance", "levyhedge.hedge_discrete", "error_variance", None),
    ("hedge.error_variance", "levyhedge.hedge_continuous", "error_variance_ct",
     None),
    *[("hedge.quote", "levyhedge", name, None) for name in _QUOTES],
    *[("hedge.quote", "levyhedge.hedge_discrete", name, None)
      for name in ("initial_capital", "xi", "price_process", "phi_step")],
    *[("hedge.quote", "levyhedge.hedge_continuous", name, None)
      for name in ("initial_capital_ct", "xi_ct", "price_process_ct", "phi_ct")],
    ("simulate.backtest", "levyhedge", "backtest_discrete", None),
    ("simulate.backtest", "levyhedge", "backtest_continuous_approx", None),
]

OP = "op"


class LayerStats:
    __slots__ = ("calls", "busy_s", "self_s", "counts")

    def __init__(self):
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.counts: dict = {}


class Tracer:
    """Span recorder.  ``clock`` is injectable so tests can drive it."""

    def __init__(self, clock=time.perf_counter, max_spans: int = 200_000):
        self.clock = clock
        self.max_spans = max_spans
        self.spans: list = []          # (layer, start, end, parent, op_id)
        self.dropped = 0
        self.stats: dict = {}
        self._stack: list = []         # [layer, start, child_s, span_index]
        self.op_id = None
        self.installed: list = []      # (module, attribute, original)
        self.absent: list = []         # "module.attribute" not found

    def enter(self, layer: str):
        index = len(self.spans)
        if index < self.max_spans:
            parent = self._stack[-1][3] if self._stack else None
            self.spans.append([layer, 0.0, 0.0, parent, self.op_id])
        else:
            index = None
        frame = [layer, self.clock(), 0.0, index]
        self._stack.append(frame)
        return frame

    def exit(self, frame, counts=None) -> None:
        end = self.clock()
        self._stack.pop()
        layer, start, child_s, index = frame
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        stats = self.stats.get(layer)
        if stats is None:
            stats = self.stats[layer] = LayerStats()
        stats.calls += 1
        stats.busy_s += duration
        stats.self_s += duration - child_s
        if counts:
            for key, value in counts.items():
                stats.counts[key] = stats.counts.get(key, 0) + value
        if index is None:
            self.dropped += 1
        else:
            self.spans[index][1] = start
            self.spans[index][2] = end

    def run_op(self, op_id, call):
        """Run ``call()`` as op ``op_id`` under a root span."""
        self.op_id = op_id
        frame = self.enter(OP)
        try:
            return call()
        finally:
            self.exit(frame)
            self.op_id = None

    def top(self):
        return self._stack[-1][0] if self._stack else None

    def wrap(self, layer, func, counter):
        tracer = self

        def traced(*args, **kwargs):
            name = layer(args, kwargs) if callable(layer) else layer
            if tracer.top() == name:
                return func(*args, **kwargs)
            frame = tracer.enter(name)
            out = None
            try:
                out = func(*args, **kwargs)
                return out
            finally:
                counts = counter(args, kwargs, out) if (
                    counter is not None and out is not None) else None
                tracer.exit(frame, counts)

        traced.__wrapped__ = func
        return traced

    def install(self, registry=REGISTRY) -> None:
        for layer, module_name, attribute, counter in registry:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attribute)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attribute}")
                continue
            setattr(module, attribute, self.wrap(layer, original, counter))
            self.installed.append((module, attribute, original))

    def uninstall(self) -> None:
        while self.installed:
            module, attribute, original = self.installed.pop()
            setattr(module, attribute, original)

