#!/usr/bin/env python3
"""Evaluate single quotes on a fixed grid of cells and compare two source
trees.

The grid is the line integrals behind ``H`` and ``xi``:

  models   Gaussian(0.08, 0.2), NIG(75.49, -4.089, 3.024, -0.04),
           VG(20, -1, 1.5, 0.05), Merton(0.05, 0.15, 0.8, -0.06, 0.12),
           Hyperbolic(8, 2, 1.5, -0.3)
  payoffs  call 99, put 101, digital 100.5, spread 95/105, low-moment
           call 99, fractional power call (K = 100, power 1.5), log
           contract
  spots    K e^dx for dx in {-0.2, -0.04, -0.005, 0.001, 0.02, 0.1}, K
           the payoff's reference strike (100 for the spread and the power
           call, 1 for the log contract, whose lines oscillate as s^iv)
  quotes   H at N = 12 dates n in {0, 6, 11} and xi at n in {6, 11}; H and
           xi in continuous time at t in {0, 0.125, 0.24}; T = 0.25

5 x 7 x 6 x 11 = 2,310 cells.  Each cell is one ``integrate_measure``
call with the quote's weight at the quotes' default tolerance,
``tol_abs = TOL (1 + spot)``, and records the integral (``H``, or ``spot
xi``), its error estimate, the nodes, the converged flag and two CPU
times: the first call's, with the line integrals' fixed-block caches
cleared (``cold_s``), and the best of three repeats (``s``), which find
the caches warm and so overstate what the caches save on quotes that do
not repeat.

Usage:
  python scripts/quote_cells.py run SRC_ROOT OUT.json [--tol TOL]
                                                      [--only KEY ...]
      evaluate every cell (or the named ones) with the levyhedge package
      under SRC_ROOT/src, in this process
  python scripts/quote_cells.py compare OUT.json --parent P1.json [P2.json ...]
                                                 --change C1.json [C2.json ...]
                                                 [--reference R1.json ...]
      merge runs of two trees (the first run of each side gives the
      values; every run gives both times) into one record with its checks
      and its totals per model and payoff.  The checks count the cells
      equal bit for bit in value, estimate, nodes and flag.  Cells
      converged on both sides whose values differ by more than the
      summed estimates are listed; runs given as ``--reference`` (a run
      of those cells at a tighter ``--tol``) tell which side is off.
"""

import argparse
import json
import math
import pathlib
import sys
import time
import warnings

T, N, TOL = 0.25, 12, 1e-8
DATES = (0, 6, 11)
TIMES = (0.0, 0.125, 0.24)
OFFSETS = (-0.2, -0.04, -0.005, 0.001, 0.02, 0.1)
MODELS = {
    "gaussian": ("Gaussian", dict(mu=0.08, sigma=0.2)),
    "nig": ("NIG", dict(alpha=75.49, beta=-4.089, delta=3.024, mu=-0.04)),
    "vg": ("VG", dict(alpha=20.0, beta=-1.0, delta=1.5, mu=0.05)),
    "merton": ("MertonJD", dict(mu=0.05, sigma=0.15, jump_intensity=0.8,
                                jump_mean=-0.06, jump_sd=0.12)),
    "hyperbolic": ("Hyperbolic", dict(alpha=8.0, beta=2.0, delta=1.5,
                                      mu=-0.3)),
}
# name: (measure, reference strike)
PAYOFFS = {
    "call(99)": (lambda lh: lh.call(99.0), 99.0),
    "put(101)": (lambda lh: lh.put(101.0), 101.0),
    "digital(100.5)": (lambda lh: lh.digital(100.5), 100.5),
    "call(95)-call(105)": (lambda lh: lh.call(95.0) - lh.call(105.0), 100.0),
    "call_low_moment(99)": (lambda lh: lh.call_low_moment(99.0), 99.0),
    "power_call_fractional(100,1.5)": (
        lambda lh: lh.power_call_fractional(100.0, 1.5), 100.0),
    "log_contract": (lambda lh: lh.log_contract(), 1.0),
}
# (quantity, time kernel, date or time)
QUOTES = ([("H", "N=12", n) for n in DATES]
          + [("xi", "N=12", n) for n in DATES if n >= 1]
          + [(q, "continuous", t) for q in ("H", "xi") for t in TIMES])


def cells():
    return [(m, p, dx, q, kernel, when) for m in MODELS for p in PAYOFFS
            for dx in OFFSETS for q, kernel, when in QUOTES]


def key(model, payoff, dx, quantity, kernel, when):
    at = f"n={when}" if kernel == "N=12" else f"t={when}"
    return f"{model} {payoff} {quantity} {kernel} {at} dx={dx}"


def run(src_root, out_path, tol, only):
    sys.path.insert(0, str(pathlib.Path(src_root).resolve() / "src"))
    import levyhedge as lh
    from levyhedge import payoffs as po

    warnings.simplefilter("ignore")
    records = []
    for model, payoff, dx, quantity, kernel, when in cells():
        name = key(model, payoff, dx, quantity, kernel, when)
        if only and name not in only:
            continue
        cls, params = MODELS[model]
        spec = getattr(lh, cls)(**params)
        build, strike = PAYOFFS[payoff]
        measure = build(lh)
        co = (lh.coefficients(spec, T, N) if kernel == "N=12"
              else lh.coefficients_ct(spec, T))
        weight = co._quote_weight(when, quantity == "xi")
        spot = strike * math.exp(dx)

        def quote():
            return po.integrate_measure(measure, spot, weight,
                                        tol_abs=tol * (1.0 + spot))

        # trees from before the fixed-block caches have none to clear
        for cache in ("_cap_terms", "_line_block"):
            if hasattr(po, cache):
                getattr(po, cache).cache_clear()
        t0 = time.process_time()
        res = quote()
        cold = time.process_time() - t0
        seconds = []
        for _ in range(3):
            t0 = time.process_time()
            quote()
            seconds.append(time.process_time() - t0)
        records.append(dict(key=name, spot=spot, value=float(res.value.real),
                            estimate=float(res.error_estimate),
                            nodes=int(res.nodes_used),
                            converged=bool(res.converged),
                            cold_s=round(cold, 6), s=round(min(seconds), 6)))
    pathlib.Path(out_path).write_text(json.dumps(
        {"tol": tol, "cells": records}, indent=1) + "\n")


def compare(out_path, parent_paths, change_paths, reference_paths):
    def load(paths):
        runs = [json.loads(pathlib.Path(p).read_text())["cells"] for p in paths]
        first = {c["key"]: c for c in runs[0]}
        for r in runs:
            for c in r:
                first[c["key"]].setdefault("runs_s", []).append(c["s"])
                first[c["key"]].setdefault("runs_cold_s", []).append(
                    c.get("cold_s", math.nan))
        return first

    old, new = load(parent_paths), load(change_paths)
    refs = [dict(json.loads(pathlib.Path(p).read_text()),
                 source=pathlib.Path(p).name) for p in reference_paths]
    flagged = {side: sorted(k for k, c in cells_.items() if not c["converged"])
               for side, cells_ in (("parent", old), ("change", new))}
    groups, disagree = {}, []
    worst = (0.0, None)
    same = 0
    for k, a in old.items():
        b = new[k]
        g = groups.setdefault(" ".join(k.split()[:2]), dict(
            cells=0, max_delta_over_summed_estimates=0.0,
            **{side: dict(flagged=0, nodes=0, s=0.0, cold_s=0.0)
               for side in ("parent", "change")}))
        g["cells"] += 1
        same += all(a[f] == b[f] for f in ("value", "estimate", "nodes",
                                           "converged"))
        for side, c in (("parent", a), ("change", b)):
            g[side]["flagged"] += not c["converged"]
            g[side]["nodes"] += c["nodes"]
            g[side]["s"] += min(c["runs_s"])
            g[side]["cold_s"] += min(c["runs_cold_s"])
        if not (a["converged"] and b["converged"]):
            continue
        delta = abs(b["value"] - a["value"])
        summed = a["estimate"] + b["estimate"]
        ratio = (delta / summed if summed > 0.0
                 else math.inf if delta > 0.0 else 0.0)
        g["max_delta_over_summed_estimates"] = max(
            g["max_delta_over_summed_estimates"], ratio)
        if ratio > worst[0]:
            worst = (ratio, k)
        if delta <= summed:
            continue
        disagree.append(dict(
            key=k, parent=a["value"], parent_estimate=a["estimate"],
            change=b["value"], change_estimate=b["estimate"], delta=delta,
            references=[dict(source=r["source"], tol=r["tol"],
                             value=c["value"], estimate=c["estimate"],
                             parent_off=abs(a["value"] - c["value"]),
                             change_off=abs(b["value"] - c["value"]))
                        for r in refs for c in r["cells"] if c["key"] == k]))
    for g in groups.values():
        for side in ("parent", "change"):
            g[side]["s"] = round(g[side]["s"], 4)
            g[side]["cold_s"] = round(g[side]["cold_s"], 4)
    checks = {
        "bitwise_equal_cells": same,
        "flagged_sets_equal": flagged["parent"] == flagged["change"],
        "converged_on_both_sides_within_summed_estimates": not disagree,
        "largest_delta_over_summed_estimates": {"cell": worst[1],
                                                "ratio": worst[0]},
    }
    totals = {"cells": len(old)}
    for side, cells_ in (("parent", old), ("change", new)):
        totals[side] = dict(
            flagged=len(flagged[side]),
            nodes=sum(c["nodes"] for c in cells_.values()),
            s=round(sum(min(c["runs_s"]) for c in cells_.values()), 3),
            cold_s=round(sum(min(c["runs_cold_s"]) for c in cells_.values()),
                         3))
    record = {"checks": checks, "totals": totals, "flagged": flagged,
              "disagreements": disagree, "groups": groups}
    pathlib.Path(out_path).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"checks": checks, "totals": totals,
                      "disagreements": disagree}, indent=1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    r = sub.add_parser("run")
    r.add_argument("src_root")
    r.add_argument("out")
    r.add_argument("--tol", type=float, default=TOL)
    r.add_argument("--only", nargs="+", default=())
    c = sub.add_parser("compare")
    c.add_argument("out")
    c.add_argument("--parent", nargs="+", required=True)
    c.add_argument("--change", nargs="+", required=True)
    c.add_argument("--reference", nargs="+", default=())
    args = ap.parse_args()
    if args.mode == "run":
        run(args.src_root, args.out, args.tol, set(args.only))
    else:
        compare(args.out, args.parent, args.change, args.reference)


if __name__ == "__main__":
    main()
