#!/usr/bin/env python3
"""Evaluate J0 on a fixed grid of cells and compare two source trees.

The grid is the 67 cells of the ``j0_cells`` record in BENCH_20.json and
the N=1 log contract on four models at two spots:

  grid     NIG(75.49, -4.089, 3.024, -0.04), VG(60, -3, 5, 0.01) and
           Merton(0.05, 0.15, 0.8, -0.06, 0.12) x call 99, put 101,
           digital 100.5, spread 95/105, low-moment call 99, butterfly
           95/100/105, digital spread 99/101 x N in {1, 12, continuous};
           Hyperbolic(8, 2, 1.5, -0.3) x call 99, digital 100.5 x N in
           {12, continuous}; S0 = 100
  log      log contract, N = 1, Gaussian(0.08, 0.2), the NIG, VG and
           Merton fits above, S0 in {1, 100}; its exact J0 is
           kappa''(0)T - [e^{kappa(1)T} T (kappa'(1) - kappa'(0))]^2
                        / (e^{kappa(2)T} - e^{2 kappa(1)T}),
           taken in mpmath

T = 0.25 and the default tol throughout.  Each cell records J0, the
error estimate, nodes_used, the converged flag, the tensor passes beyond
each block's base and probe pass ("refinement_passes"), the share of the
fundamental-domain cells of its tensor passes that were not evaluated
("skipped_cell_share") and the CPU seconds of the call.

Usage:
  python scripts/j0_cells.py run SRC_ROOT OUT.json
      evaluate every cell with the levyhedge package under SRC_ROOT/src,
      in this process
  python scripts/j0_cells.py compare OUT.json --parent P1.json [P2.json ...]
                                             --change C1.json [C2.json ...]
      merge runs of two trees (the first run of each side gives the
      values; every run gives a time) into one record with its checks
"""

import argparse
import json
import math
import pathlib
import sys
import time
import warnings

T = 0.25
MODELS = {
    "gaussian": ("Gaussian", dict(mu=0.08, sigma=0.2)),
    "nig": ("NIG", dict(alpha=75.49, beta=-4.089, delta=3.024, mu=-0.04)),
    "vg": ("VG", dict(alpha=60.0, beta=-3.0, delta=5.0, mu=0.01)),
    "merton": ("MertonJD", dict(mu=0.05, sigma=0.15, jump_intensity=0.8,
                                jump_mean=-0.06, jump_sd=0.12)),
    "hyperbolic": ("Hyperbolic", dict(alpha=8.0, beta=2.0, delta=1.5,
                                      mu=-0.3)),
}
PAYOFFS = {
    "call(99)": lambda lh: lh.call(99.0),
    "put(101)": lambda lh: lh.put(101.0),
    "digital(100.5)": lambda lh: lh.digital(100.5),
    "call(95)-call(105)": lambda lh: lh.call(95.0) - lh.call(105.0),
    "call_low_moment(99)": lambda lh: lh.call_low_moment(99.0),
    "call(95)-2call(100)+call(105)": lambda lh: (
        lh.call(95.0) - 2.0 * lh.call(100.0) + lh.call(105.0)),
    "digital(99)-digital(101)": lambda lh: (lh.digital(99.0)
                                            - lh.digital(101.0)),
    "log_contract": lambda lh: lh.log_contract(),
}


def cells():
    """(set, model, payoff, N or "continuous", S0) of every cell."""
    out = []
    for model in ("nig", "vg", "merton"):
        for payoff in list(PAYOFFS)[:-1]:
            for N in (1, 12, "continuous"):
                out.append(("grid", model, payoff, N, 100.0))
    for payoff in ("call(99)", "digital(100.5)"):
        for N in (12, "continuous"):
            out.append(("grid", "hyperbolic", payoff, N, 100.0))
    for model in ("gaussian", "nig", "vg", "merton"):
        for S0 in (1.0, 100.0):
            out.append(("log", model, "log_contract", 1, S0))
    return out


def run(src_root, out_path):
    sys.path.insert(0, str(pathlib.Path(src_root).resolve() / "src"))
    import levyhedge as lh
    from levyhedge import numerics

    passes = []
    inner = numerics._tensor_value

    def spy(kernel, Ry, Rz, edges_y, edges_z, rule, symmetric, *rest):
        out = inner(kernel, Ry, Rz, edges_y, edges_z, rule, symmetric, *rest)
        n = rule[0].size
        m = n * (edges_y.size - 1)
        full = m * (m + 1) if symmetric else 2 * m * n * (edges_z.size - 1)
        passes.append((n, out[1], full))
        return out

    numerics._tensor_value = spy
    warnings.simplefilter("ignore")
    records = []
    for cell_set, model, payoff, N, S0 in cells():
        cls, params = MODELS[model]
        spec = getattr(lh, cls)(**params)
        co = (lh.coefficients_ct(spec, T) if N == "continuous"
              else lh.coefficients(spec, T, N))
        measure = PAYOFFS[payoff](lh)
        passes.clear()
        t0 = time.process_time()
        j0, res = lh.error_variance(co, measure, S0, return_result=True)
        seconds = time.process_time() - t0
        probes = sum(1 for n, _, _ in passes if n == 15)
        evaluated = sum(e for _, e, _ in passes)
        full = sum(f for _, _, f in passes)
        records.append(dict(
            set=cell_set, model=model, payoff=payoff, N=N, S0=S0, J0=j0,
            error_estimate=float(res.error_estimate),
            nodes_used=int(res.nodes_used), converged=bool(res.converged),
            refinement_passes=len(passes) - 2 * probes,
            skipped_cell_share=round(1.0 - evaluated / full, 4) if full else 0.0,
            s=round(seconds, 4)))
    pathlib.Path(out_path).write_text(json.dumps(records, indent=1) + "\n")


def log_contract_truth(model):
    """Exact N=1 log-contract J0 of a model, from the oracle of
    tests/test_log_contract.py (same models), with this tree's package."""
    root = pathlib.Path(__file__).resolve().parents[1]
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    from test_log_contract import _truth

    return _truth(model)


def compare(out_path, parent_paths, change_paths):
    def load(paths):
        runs = [json.loads(pathlib.Path(p).read_text()) for p in paths]
        for cell_runs in zip(*runs):
            first = dict(cell_runs[0])
            first["s"] = [r["s"] for r in cell_runs]
            yield first

    truths = {}
    merged = []
    for old, new in zip(load(parent_paths), load(change_paths)):
        key = {k: old.pop(k) for k in ("set", "model", "payoff", "N", "S0")}
        for k in key:
            new.pop(k)
        delta = new["J0"] - old["J0"]
        summed = old["error_estimate"] + new["error_estimate"]
        cell = dict(key, parent=old, change=new, delta_J0=delta,
                    delta_over_summed_estimates=abs(delta) / summed
                    if summed else math.inf,
                    nodes_ratio=new["nodes_used"] / old["nodes_used"])
        if key["set"] == "log":
            if key["model"] not in truths:
                truths[key["model"]] = log_contract_truth(key["model"])
            truth = truths[key["model"]]
            cell["truth"] = truth
            cell["parent_miss"] = old["J0"] - truth
            cell["change_miss"] = new["J0"] - truth
        merged.append(cell)

    grid = [c for c in merged if c["set"] == "grid"]
    logs = [c for c in merged if c["set"] == "log"]

    def same_flags(c):
        return all(c["parent"][k] == c["change"][k]
                   for k in ("converged", "refinement_passes"))

    def totals(rows):
        return {
            "cells": len(rows),
            "parent_nodes": sum(c["parent"]["nodes_used"] for c in rows),
            "change_nodes": sum(c["change"]["nodes_used"] for c in rows),
            "parent_s": round(sum(min(c["parent"]["s"]) for c in rows), 3),
            "change_s": round(sum(min(c["change"]["s"]) for c in rows), 3),
        }

    worst = max(grid, key=lambda c: c["delta_over_summed_estimates"])
    checks = {
        "grid_flags_and_refinements_unchanged": all(map(same_flags, grid)),
        "grid_every_delta_within_summed_estimates": all(
            c["delta_over_summed_estimates"] <= 1.0 for c in grid),
        "grid_largest_delta_over_summed_estimates": {
            "cell": f'{worst["model"]} {worst["payoff"]} N={worst["N"]}',
            "ratio": round(worst["delta_over_summed_estimates"], 4),
            "delta": worst["delta_J0"]},
        "grid_nodes_ratio_by_model": {
            model: round(totals([c for c in grid if c["model"] == model])
                         ["change_nodes"]
                         / totals([c for c in grid if c["model"] == model])
                         ["parent_nodes"], 4)
            for model in ("nig", "vg", "merton", "hyperbolic")},
        "log_no_cell_further_from_truth": all(
            abs(c["change_miss"]) <= abs(c["parent_miss"]) for c in logs),
        "log_cells_further_from_truth": [
            {"cell": f'{c["model"]} S0={c["S0"]:g}',
             "by": abs(c["change_miss"]) - abs(c["parent_miss"]),
             "parent_miss": c["parent_miss"],
             "change_estimate": c["change"]["error_estimate"]}
            for c in logs if abs(c["change_miss"]) > abs(c["parent_miss"])],
        "log_flags_unchanged": all(map(same_flags, logs)),
    }
    record = {"checks": checks,
              "totals": {"grid": totals(grid), "log": totals(logs)},
              "cells": merged}
    pathlib.Path(out_path).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"checks": checks, "totals": record["totals"]}, indent=1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    r = sub.add_parser("run")
    r.add_argument("src_root")
    r.add_argument("out")
    c = sub.add_parser("compare")
    c.add_argument("out")
    c.add_argument("--parent", nargs="+", required=True)
    c.add_argument("--change", nargs="+", required=True)
    args = ap.parse_args()
    if args.mode == "run":
        run(args.src_root, args.out)
    else:
        compare(args.out, args.parent, args.change)


if __name__ == "__main__":
    main()
