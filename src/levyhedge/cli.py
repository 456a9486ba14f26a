"""Command-line front end.

Commands: ``price``, ``hedge``, ``error``, ``backtest``, ``sweep``,
``payoff-check``.  Configuration is a flat key-value file with dotted
section prefixes (``model.tag``, ``payoff.kind``, ...); every key can be
overridden on the command line by a flag of the same dotted name, e.g.
``--model.alpha 75.49``.  Output is CSV (full-precision scientific
notation, header always present) or JSON records mirroring the columns.

Exit codes: 0 success, 1 configuration/validation error (the offending
key is named), 2 numerical failure: a quantity of ``price``, ``hedge``,
``error``, ``backtest`` or ``sweep`` whose quadrature is flagged
unconverged, or a materially negative variance.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from . import hedge as hg
from . import models as mdl
from . import payoffs as po
from . import simulate as sim

__all__ = ["main", "RunConfig", "ConfigError"]


class ConfigError(ValueError):
    def __init__(self, key: str, message: str):
        super().__init__(f"config key '{key}': {message}")
        self.key = key


_MODELS = {"gaussian": mdl.Gaussian, "merton": mdl.MertonJD, "nig": mdl.NIG,
           "vg": mdl.VG, "hyperbolic": mdl.Hyperbolic}

_PAYOFFS = {"call": po.call, "put": po.put,
            "call_low_moment": po.call_low_moment, "power_call": po.power_call,
            "power_call_fractional": po.power_call_fractional,
            "self_quanto_call": po.self_quanto_call, "digital": po.digital,
            "log_contract": po.log_contract}

_DEFAULTS = {
    "hedge.mode": "discrete",
    "hedge.spot": "100.0",
    "hedge.maturity": "0.25",
    "hedge.steps": "12",
    "mc.paths": "100000",
    "mc.steps": "64",
    "mc.seed": "12345",
    "mc.antithetic": "false",
    "quadrature.tol": "1e-6",
    "output.format": "csv",
}


@dataclass
class RunConfig:
    """Validated run configuration assembled from file + CLI overrides."""

    model: mdl.LevyModelSpec
    payoff: po.TransformMeasure
    strike: Optional[float]
    mode: str
    spot: float
    maturity: float
    steps: int
    capital: Optional[float]
    mc_paths: int
    mc_steps: int
    seed: int
    antithetic: bool
    tol: float
    out_format: str
    out_path: Optional[str]


def _parse_kv_file(path: str) -> dict:
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}",
                                      f"expected 'key = value', got {raw!r}")
                key, val = line.split("=", 1)
                out[key.strip()] = val.strip()
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}")
    return out


def _get_number(kv, key, required=True, kind=float):
    """``kv[key]`` as a ``kind`` (float or int); None if absent and not
    ``required``."""
    if key not in kv:
        if required:
            raise ConfigError(key, "missing required key")
        return None
    try:
        return kind(kv[key])
    except ValueError:
        what = "a number" if kind is float else "an integer"
        raise ConfigError(key, f"not {what}: {kv[key]!r}")


def _get_bool(kv, key):
    val = kv[key].lower()
    if val in ("true", "1", "yes", "on"):
        return True
    if val in ("false", "0", "no", "off"):
        return False
    raise ConfigError(key, f"not a boolean: {kv[key]!r}")


def build_model(kv: dict) -> mdl.LevyModelSpec:
    tag = kv.get("model.tag")
    if tag is None:
        raise ConfigError("model.tag", "missing required key")
    tag = tag.lower()
    if tag not in _MODELS:
        raise ConfigError("model.tag",
                          f"unknown tag {tag!r}; expected one of "
                          f"{sorted(_MODELS)}")
    cls = _MODELS[tag]
    params = {f.name: _get_number(kv, f"model.{f.name}") for f in fields(cls)}
    try:
        return cls(**params)
    except ValueError as exc:
        raise ConfigError("model.*", str(exc))


def build_payoff(kv: dict):
    kind = kv.get("payoff.kind")
    if kind is None:
        raise ConfigError("payoff.kind", "missing required key")
    kind = kind.lower().replace("-", "_")
    if kind not in _PAYOFFS:
        raise ConfigError("payoff.kind",
                          f"unknown kind {kind!r}; expected one of "
                          f"{tuple(_PAYOFFS)}")
    # an abscissa is passed only when set: the catalog holds the defaults
    absc = _get_number(kv, "payoff.abscissa", required=False)
    kwargs = {}
    try:
        if kind == "log_contract":
            strike, args = None, ()
            if absc is not None:
                kwargs["abscissa_pos"] = absc
            if "payoff.abscissa_neg" in kv:
                kwargs["abscissa_neg"] = _get_number(kv, "payoff.abscissa_neg")
        else:
            strike = _get_number(kv, "payoff.strike")
            args = (strike,)
            if kind == "power_call":
                args += (_get_number(kv, "payoff.power", kind=int),)
            elif kind == "power_call_fractional":
                args += (_get_number(kv, "payoff.power"),)
            if absc is not None:
                kwargs["abscissa"] = absc
        return _PAYOFFS[kind](*args, **kwargs), strike
    except ValueError as exc:
        raise ConfigError("payoff.*", str(exc))


# every key a run reads; any other key is a typo or a misplaced option
_KEYS = {*_DEFAULTS, "model.tag", "payoff.kind", "payoff.strike", "payoff.power",
         "payoff.abscissa", "payoff.abscissa_neg", "hedge.capital", "output.path",
         *(f"model.{f.name}" for cls in _MODELS.values() for f in fields(cls))}


def load_config(args) -> RunConfig:
    kv = dict(_DEFAULTS)
    if args.config:
        kv.update(_parse_kv_file(args.config))
    kv.update(args.overrides)
    for key in kv:
        if key not in _KEYS:
            raise ConfigError(key, "unknown key (--config, --output, --format "
                              "and --seed go before the command)")
    if args.seed is not None:
        kv["mc.seed"] = str(args.seed)
    if args.output is not None:
        kv["output.path"] = args.output
    if args.format is not None:
        kv["output.format"] = args.format

    model = build_model(kv)
    payoff, strike = build_payoff(kv)
    mode = kv["hedge.mode"].lower()
    if mode not in ("discrete", "continuous"):
        raise ConfigError("hedge.mode", f"expected discrete|continuous, got {mode!r}")
    fmt = kv["output.format"].lower()
    if fmt not in ("csv", "json"):
        raise ConfigError("output.format", f"expected csv|json, got {fmt!r}")
    spot = _get_number(kv, "hedge.spot")
    maturity = _get_number(kv, "hedge.maturity")
    if spot <= 0:
        raise ConfigError("hedge.spot", "must be > 0")
    if maturity <= 0:
        raise ConfigError("hedge.maturity", "must be > 0")
    steps = _get_number(kv, "hedge.steps", kind=int)
    if steps < 1:
        raise ConfigError("hedge.steps", "must be >= 1")
    return RunConfig(
        model=model, payoff=payoff, strike=strike,
        mode=mode, spot=spot, maturity=maturity, steps=steps,
        capital=_get_number(kv, "hedge.capital", required=False),
        mc_paths=_get_number(kv, "mc.paths", kind=int),
        mc_steps=_get_number(kv, "mc.steps", kind=int),
        seed=_get_number(kv, "mc.seed", kind=int),
        antithetic=_get_bool(kv, "mc.antithetic"),
        tol=_get_number(kv, "quadrature.tol"),
        out_format=fmt, out_path=kv.get("output.path"),
    )


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def _emit(records, columns, cfg: RunConfig):
    """Write records as CSV or JSON; header row always present."""
    if cfg.out_format == "json":
        text = json.dumps([{c: r[c] for c in columns} for r in records],
                          indent=2) + "\n"
    else:
        lines = [",".join(columns)]
        for r in records:
            cells = []
            for c in columns:
                v = r[c]
                cells.append(f"{v:.17e}" if isinstance(v, float) else str(v))
            lines.append(",".join(cells))
        text = "\n".join(lines) + "\n"
    if cfg.out_path:
        with open(cfg.out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _coeffs(cfg: RunConfig):
    if cfg.mode == "discrete":
        return hg.coefficients(cfg.model, cfg.maturity, cfg.steps)
    return hg.coefficients_ct(cfg.model, cfg.maturity)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_price(cfg: RunConfig) -> int:
    with warnings.catch_warnings():
        # the NEGATIVE-CAPITAL line below reports it
        warnings.simplefilter("ignore", hg.NegativeCapitalWarning)
        v0 = hg.initial_capital(_coeffs(cfg), cfg.payoff, cfg.spot,
                                tol=cfg.tol * 1e-3)
    if v0 < 0.0:
        print(f"WARNING: NEGATIVE-CAPITAL: V0 = {v0:.6g} < 0 "
              "(variance-optimal capital is not an arbitrage-free price)",
              file=sys.stderr)
    # an inadmissible pair has raised by now
    _emit([{"mode": cfg.mode, "V0": v0, "admissible": True}],
          ["mode", "V0", "admissible"], cfg)
    return 0


def cmd_hedge(cfg: RunConfig, spot: float, when: float, wealth_gap: float) -> int:
    co = _coeffs(cfg)
    if cfg.mode == "discrete":
        n = when if when is not None else 1
        if not float(n).is_integer():
            raise ConfigError("--step", f"a trading date is an integer, got {n}")
        xi_v = hg.xi(co, cfg.payoff, spot, int(n), tol=cfg.tol * 1e-3)
    else:
        t = float(when) if when is not None else 0.0
        xi_v = hg.xi_ct(co, cfg.payoff, spot, t, tol=cfg.tol * 1e-3)
    phi = xi_v + co.lambda_feedback / spot * wealth_gap
    _emit([{"spot": spot, "xi": xi_v, "phi": phi, "wealth_gap": wealth_gap}],
          ["spot", "xi", "phi", "wealth_gap"], cfg)
    return 0


def cmd_error(cfg: RunConfig) -> int:
    j0, res = hg.error_variance(_coeffs(cfg), cfg.payoff, cfg.spot,
                                tol=cfg.tol, return_result=True)
    _emit([{"mode": cfg.mode, "J0": j0, "error_estimate": res.error_estimate}],
          ["mode", "J0", "error_estimate"], cfg)
    return 0


def cmd_backtest(cfg: RunConfig) -> int:
    if cfg.mode == "discrete":
        rep = sim.backtest_discrete(cfg.model, cfg.payoff, cfg.spot,
                                    cfg.maturity, cfg.steps, cfg.mc_paths,
                                    cfg.seed, capital=cfg.capital,
                                    antithetic=cfg.antithetic)
    else:
        rep = sim.backtest_continuous_approx(
            cfg.model, cfg.payoff, cfg.spot, cfg.maturity, cfg.mc_steps,
            cfg.mc_paths, cfg.seed, antithetic=cfg.antithetic)
    rec = {
        "n_paths": rep.n_paths,
        "capital_used": rep.capital_used,
        "empirical_mean_error": rep.empirical_mean_error,
        "empirical_error_variance": rep.empirical_error_variance,
        "std_error": rep.std_error,
        "predicted_J0": rep.predicted_J0,
        "z_score": rep.z_score,
        "seed": rep.seed,
        "table_error": rep.table_error,
        "clamped_paths": rep.clamped_paths,
    }
    _emit([rec], list(rec.keys()), cfg)
    return 0


def _parse_grid(spec: str, integer=False):
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError("grid", f"expected lo:hi:n, got {spec!r}")
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        vals = np.linspace(lo, hi, n)
    elif spec.strip() == "":
        vals = np.array([])
    else:
        vals = np.array([float(x) for x in spec.split(",")])
    if integer:
        return [int(round(v)) for v in vals]
    return list(map(float, vals))


def cmd_sweep(cfg: RunConfig, axis: str, grid_spec: str) -> int:
    columns = ["axis_value", "V0", "xi0", "J0_discrete", "J0_continuous",
               "J0_gaussian_benchmark"]
    grid = _parse_grid(grid_spec, integer=(axis == "trading_dates"))
    bench = mdl.gaussian_benchmark(cfg.model)
    co_ct = hg.coefficients_ct(cfg.model, cfg.maturity)
    j0_ct = {}               # the continuous J0 depends on the spot alone
    records = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", hg.NegativeCapitalWarning)
        for value in grid:
            s0, n = (value, cfg.steps) if axis == "spot" else (cfg.spot, value)
            co_d = hg.coefficients(cfg.model, cfg.maturity, n)
            co_b = hg.coefficients(bench, cfg.maturity, n)
            if s0 not in j0_ct:
                j0_ct[s0] = hg.error_variance_ct(co_ct, cfg.payoff, s0,
                                                 tol=cfg.tol)
            records.append({
                "axis_value": value,
                "V0": hg.initial_capital(co_d, cfg.payoff, s0),
                "xi0": hg.xi(co_d, cfg.payoff, s0, 1),
                "J0_discrete": hg.error_variance(co_d, cfg.payoff, s0,
                                                 tol=cfg.tol),
                "J0_continuous": j0_ct[s0],
                "J0_gaussian_benchmark": hg.error_variance(
                    co_b, cfg.payoff, s0, tol=cfg.tol),
            })
    _emit(records, columns, cfg)
    return 0


def cmd_payoff_check(cfg: RunConfig, grid_spec: str) -> int:
    grid = _parse_grid(grid_spec)
    if not grid:
        k = cfg.strike if cfg.strike else cfg.spot
        grid = list(np.exp(np.linspace(math.log(k / 2), math.log(2 * k), 25)))
        grid[12] = k
    if cfg.payoff.analytic is None:
        print("validation error: no analytic form for this payoff",
              file=sys.stderr)
        return 1
    records = []
    worst = 0.0
    for s in grid:
        want = cfg.payoff.analytic(float(s))
        got = po.evaluate_payoff(cfg.payoff, float(s),
                                 tol_abs=cfg.tol * 0.1 * (1.0 + abs(want)))
        err = abs(got - want)
        worst = max(worst, err)
        records.append({"s": float(s), "reconstructed": got,
                        "analytic": want, "abs_error": err})
    _emit(records, ["s", "reconstructed", "analytic", "abs_error"], cfg)
    print(f"max abs error: {worst:.3e}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _split_overrides(unknown):
    """Collect ``--dotted.key value`` / ``--dotted.key=value`` overrides."""
    out = {}
    i = 0
    while i < len(unknown):
        tok = unknown[i]
        if not tok.startswith("--"):
            raise ConfigError(tok, "unrecognized argument")
        body = tok[2:]
        if "=" in body:
            key, val = body.split("=", 1)
            out[key] = val
            i += 1
        else:
            if i + 1 >= len(unknown):
                raise ConfigError(body, "flag needs a value")
            out[body] = unknown[i + 1]
            i += 2
    return out


_CONFIG_HELP = """\
configuration keys (file `key = value` lines and/or --dotted.key overrides):
  model.tag             gaussian | merton | nig | vg | hyperbolic
  model.*               per-tag parameters: gaussian(mu, sigma);
                        merton(mu, sigma, jump_intensity, jump_mean, jump_sd);
                        nig/vg/hyperbolic(alpha, beta, delta, mu)
  payoff.kind           call | put | call_low_moment | power_call |
                        power_call_fractional | self_quanto_call | digital |
                        log_contract
  payoff.strike         strike (all kinds except log_contract)
  payoff.power          exponent for the power kinds
  payoff.abscissa       contour abscissa override (kind-specific default)
  payoff.abscissa_neg   left contour for log_contract   [-0.5]
  hedge.mode            discrete | continuous           [discrete]
  hedge.spot            initial spot                    [100.0]
  hedge.maturity        maturity in years               [0.25]
  hedge.steps           trading dates (discrete)        [12]
  hedge.capital         fixed endowment (defaults to the optimal V0)
  mc.paths              backtest paths                  [100000]
  mc.steps              grid steps, continuous backtest [64]
  mc.seed               64-bit seed                     [12345]
  mc.antithetic         true | false                    [false]
  quadrature.tol        error-variance tolerance scale  [1e-6]
  output.format         csv | json                      [csv]
  output.path           write results here instead of stdout
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="levyhedge",
        description="Variance-optimal hedging for exponential-Lévy models.",
        epilog=_CONFIG_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--output", help="write results to this path")
    parser.add_argument("--format", choices=["csv", "json"])
    parser.add_argument("--seed", type=int, help="Monte Carlo seed (64-bit)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("price", help="variance-optimal initial capital")
    p_hedge = sub.add_parser("hedge", help="hedge ratios xi and phi")
    p_hedge.add_argument("--spot", type=float, required=True)
    p_hedge.add_argument("--step", type=float, default=None,
                         help="trading date (discrete) or time (continuous)")
    p_hedge.add_argument("--wealth-gap", type=float, default=0.0)
    sub.add_parser("error", help="closed-form hedging-error variance")
    sub.add_parser("backtest", help="Monte Carlo backtest vs prediction")
    p_sweep = sub.add_parser("sweep", help="tabulate quantities along an axis")
    p_sweep.add_argument("--axis", choices=["spot", "trading_dates"],
                         required=True)
    p_sweep.add_argument("--grid", required=True,
                         help="lo:hi:n or comma-separated values")
    p_check = sub.add_parser("payoff-check",
                             help="transform reconstruction vs analytic payoff")
    p_check.add_argument("--s-grid", default="",
                         help="lo:hi:n or comma list; default log grid around K")

    args, unknown = parser.parse_known_args(argv)
    try:
        args.overrides = _split_overrides(unknown)
        cfg = load_config(args)
        if args.command == "payoff-check":
            # reports its reconstruction errors itself
            return cmd_payoff_check(cfg, args.s_grid)
        with warnings.catch_warnings():
            # a flagged quantity is a numerical failure, never an output
            warnings.simplefilter("error", po.QuadratureWarning)
            if args.command == "price":
                return cmd_price(cfg)
            if args.command == "hedge":
                return cmd_hedge(cfg, args.spot, args.step, args.wealth_gap)
            if args.command == "error":
                return cmd_error(cfg)
            if args.command == "backtest":
                return cmd_backtest(cfg)
            return cmd_sweep(cfg, args.axis, args.grid)
    except ConfigError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except (hg.NegativeVarianceError, po.QuadratureWarning) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
