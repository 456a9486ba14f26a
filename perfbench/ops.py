"""Turn generated op specs into library calls and check their outputs.

Only the public ``levyhedge`` API is called, and every function is looked
up on the package at call time, so the traced run sees its wrappers.

An op fails on an exception (``NegativeVarianceError`` included), on a
``QuadratureWarning`` or ``converged=False``, or on a failed output check.
Output checks are deterministic (reference values, parity and
call = put identities, J0 non-increasing in N) or statistical (backtest
z-scores, which a correct program misses at a small known rate).  Every
failure that is not statistical makes the run incorrect, and so does a
statistical one that an independent re-run confirms (see ``worker.py``).
"""

from __future__ import annotations

import math
import warnings

import levyhedge as lh

from workloads import (LAST_SHARE, MODELS, NEAR_STRIKE, NEAR_STRIKE_VG, T,
                       payoff_key, strikes)


QUOTES = ("V0", "xi", "H", "phi_ct")


def known_defect(op) -> str | None:
    """Name the known library defect an op's inputs fall under, if any.

    No stream op falls under one; the workloads' probes show each of
    them, outside the timed phase and its counts.
    """
    payoff, args = op["payoff"], op["args"]
    if op["fn"] == "J0" and payoff["kind"] == "log_contract":
        return "log-contract J0 does not converge"
    if (op["fn"] == "J0" and payoff["kind"] == "self_quanto_call"
            and op["model"] == "vg"):
        return "VG self-quanto J0 does not converge"
    if op["fn"] in QUOTES:
        near = min((abs(math.log(args["S"] / k)) for k in strikes(payoff)),
                   default=math.inf)
        if 0.0 < near < NEAR_STRIKE:
            # the first segment of the tail-completed line integral spans
            # [0, 32/|log(S/K)|], and its coarse first panels can miss the
            # integrand's bulk: the quote comes back as about 0, converged
            return "quote within 1e-3 of a strike in log-spot returns ~0"
        # seen sporadically on this library version: QuadratureWarning on
        # VG quotes a few 1e-3 from a strike in log-spot, and on quotes of
        # every model with a few 1e-3 of time left, far from the strike
        if op["model"] == "vg" and near < NEAR_STRIKE_VG:
            return "VG quote within 1e-2 of a strike in log-spot " \
                   "does not converge"
        if T - args.get("t", 0.0) < LAST_SHARE * T:
            return "quote within 0.02 T of expiry does not converge"
    return None


class Runner:
    def __init__(self):
        self._models: dict = {}
        self._payoffs: dict = {}
        self._coeffs: dict = {}
        self.values: dict = {}        # op id -> value of a successful op
        self.errors: dict = {}        # op id -> quadrature error estimate
        self._series: dict = {}       # series -> (value, error) of last J0
        self.path_steps = 0

    # -- inputs -----------------------------------------------------------

    def model(self, key: str, spec=None):
        if key not in self._models:
            if key.startswith("twin:"):
                self._models[key] = lh.gaussian_benchmark(self.model(key[5:]))
            else:
                cls, params = spec or MODELS[key]
                self._models[key] = getattr(lh, cls)(**params)
        return self._models[key]

    def payoff(self, spec: dict):
        key = payoff_key(spec)
        if key not in self._payoffs:
            kind = spec["kind"]
            if kind == "spread":
                p = lh.call(spec["lo"]) - lh.call(spec["hi"])
            elif kind == "log_contract":
                p = lh.log_contract()
            elif kind == "power_call_fractional":
                p = lh.power_call_fractional(spec["strike"], spec["power"])
            else:
                p = getattr(lh, kind)(spec["strike"])
            self._payoffs[key] = p
        return self._payoffs[key]

    def coeffs(self, op):
        mode, n = op["mode"], op["args"].get("N")
        key = (op["model"], mode, n if mode == "discrete" else None)
        if key not in self._coeffs:
            model = self.model(op["model"], op.get("model_spec"))
            self._coeffs[key] = (lh.coefficients(model, T, n) if mode == "discrete"
                                 else lh.coefficients_ct(model, T))
        return self._coeffs[key]

    def prepare(self, ops) -> None:
        """Build the models, payoffs and coefficient sets the ops use;
        ops not prepared build theirs on first use."""
        for op in ops:
            self.model(op["model"], op.get("model_spec"))
            self.payoff(op["payoff"])
            if not op["fn"].startswith("backtest"):
                self.coeffs(op)

    # -- calls ------------------------------------------------------------

    def _call(self, op):
        """Returns (value, error estimate or None, converged, z or None)."""
        fn, a, mode = op["fn"], op["args"], op["mode"]
        payoff = self.payoff(op["payoff"])
        if fn.startswith("backtest"):
            run = getattr(lh, fn)
            rep = run(self.model(op["model"], op.get("model_spec")), payoff,
                      a["S"], T, a["N"],
                      a["n_paths"], a["mc_seed"])
            self.path_steps += a["n_paths"] * a["N"]
            return rep.empirical_error_variance, None, True, rep.z_score
        co = self.coeffs(op)
        S = a["S"]
        if fn == "J0":
            run = lh.error_variance if mode == "discrete" else lh.error_variance_ct
            value, res = run(co, payoff, S, return_result=True)
            return value, float(res.error_estimate), bool(res.converged), None
        if mode == "discrete":
            if fn == "V0":
                return lh.initial_capital(co, payoff, S), None, True, None
            if fn == "xi":
                return lh.xi(co, payoff, S, a["n"]), None, True, None
        else:
            if fn == "V0":
                return lh.initial_capital_ct(co, payoff, S), None, True, None
            if fn == "xi":
                return lh.xi_ct(co, payoff, S, a["t"]), None, True, None
            if fn == "H":
                return lh.price_process_ct(co, payoff, S, a["t"]), None, True, None
            if fn == "phi_ct":
                return (lh.phi_ct(co, payoff, S, a["t"], a["gap"]),
                        None, True, None)
        raise ValueError(f"unknown op {fn}/{mode}")

    def run(self, op) -> tuple:
        """Run one op.  Returns (failure reason or None, statistical): a
        statistical failure is a backtest z-score miss."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                value, err, converged, z = self._call(op)
            except Exception as exc:   # every failure is counted, none fatal
                return f"{type(exc).__name__}: {exc}", False
        if any(issubclass(w.category, lh.QuadratureWarning) for w in caught):
            return "QuadratureWarning", False
        if not converged:
            return "converged=False", False
        reason = self._check(op, value, err, z)
        if reason is not None:
            return reason, reason.startswith("z=")
        self.values[op["id"]] = value
        if err is not None:
            self.errors[op["id"]] = err
        return None, False

    def _check(self, op, value, err, z):
        check = op.get("check") or {}
        if not math.isfinite(value):
            return f"check: non-finite value {value}"
        if "ref" in check and abs(value - check["ref"]) > check["atol"]:
            return f"check: {value:.6g} != reference {check['ref']}"
        other = check.get("match_op")
        if other is not None and other in self.values:
            want = self.values[other] - check["offset"]
            tol = check["atol"] + (err or 0.0) + self.errors.get(other, 0.0)
            if abs(value - want) > tol:
                return f"check: {value:.8g} != {want:.8g} (op {other})"
        series = check.get("not_above_series")
        if series is not None:
            prev = self._series.get(series)
            if prev is not None and value > prev[0] + prev[1] + (err or 0.0):
                return f"check: J0 rose with N, {prev[0]:.6g} -> {value:.6g}"
            self._series[series] = (value, err or 0.0)
        if z is not None:
            if "z_abs_max" in check and abs(z) > check["z_abs_max"]:
                return f"z={z:+.2f} outside +-{check['z_abs_max']}"
            if "z_min" in check and z < check["z_min"]:
                return f"z={z:+.2f} below {check['z_min']}"
        return None


def confirmation(op) -> dict:
    """The backtest ``op`` again, on Monte Carlo seeds that no generated
    op uses."""
    args = op["args"]
    return dict(op, args=dict(args, mc_seed=args["mc_seed"] + 2 ** 31))


def op_name(op) -> str:
    a = op["args"]
    when = "".join(f" {k}={a[k]}" for k in ("N", "n", "t") if k in a)
    return (f"#{op['id']} {op['fn']} {op['model']}/{payoff_key(op['payoff'])}"
            f"/{op['mode']} S={a['S']}{when}")
