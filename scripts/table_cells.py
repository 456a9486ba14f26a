#!/usr/bin/env python3
"""Evaluate the backtest transform tables on a fixed grid and compare two
source trees.

The grid is the tables a backtest builds before its Monte Carlo loop:

  grid     NIG(75.49, -4.089, 3.024, -0.04), VG(60, -3, 5, 0.01) and
           Merton(0.05, 0.15, 0.8, -0.06, 0.12) x call 99, put 101,
           spread 95/105, digital 100.5 x N in {1, 12, 63} (the N-date xi
           and H rows) and continuous time (xi and H at 12 grid steps);
           S0 = 100, T = 0.25, the backtests' tolerance 1e-6 (1 + S0),
           on the spot grid of ``simulate._spot_grid``
  z        backtest z-scores of 8 of these cells at fixed Monte Carlo
           seeds, 20,000 paths each

Each table records the CPU seconds of ``tabulate_transform`` (best of
three calls), the nodes, kept (node, spot) cells and complex exponentials
of its ``_kept_cell_sums`` calls (the main pass and the error probe), and
its ``table_error``.  The rows themselves go to a ``.npz`` file beside the
JSON record, so that ``compare`` can give the largest change of each
table over its row scale, ``max_r max_j |new - old| / max_j |old|``.

Usage:
  python scripts/table_cells.py run SRC_ROOT OUT.json
      evaluate every table with the levyhedge package under SRC_ROOT/src,
      in this process (writes OUT.json and OUT.npz)
  python scripts/table_cells.py compare OUT.json --parent P1.json [P2.json ...]
                                                --change C1.json [C2.json ...]
      merge runs of two trees (the first run of each side gives the
      values and counts; every run gives a time) into one record with its
      checks
"""

import argparse
import json
import pathlib
import sys
import time
import warnings

import numpy as np

T, S0, TOL = 0.25, 100.0, 1e-6
STEPS = 12                      # grid steps of the continuous-time tables
N_PATHS, MC_SEED = 20_000, 2207
MODELS = {
    "nig": ("NIG", dict(alpha=75.49, beta=-4.089, delta=3.024, mu=-0.04)),
    "vg": ("VG", dict(alpha=60.0, beta=-3.0, delta=5.0, mu=0.01)),
    "merton": ("MertonJD", dict(mu=0.05, sigma=0.15, jump_intensity=0.8,
                                jump_mean=-0.06, jump_sd=0.12)),
}
PAYOFFS = {
    "call(99)": lambda lh: lh.call(99.0),
    "put(101)": lambda lh: lh.put(101.0),
    "call(95)-call(105)": lambda lh: lh.call(95.0) - lh.call(105.0),
    "digital(100.5)": lambda lh: lh.digital(100.5),
}
TIMES = (1, 12, 63, "continuous")
Z_CELLS = [("nig", "call(99)", 12), ("nig", "digital(100.5)", 63),
           ("nig", "put(101)", "continuous"), ("vg", "call(95)-call(105)", 63),
           ("vg", "call(99)", 1), ("vg", "put(101)", "continuous"),
           ("merton", "digital(100.5)", 12),
           ("merton", "call(95)-call(105)", "continuous")]


def cells():
    return [(m, p, n) for m in MODELS for p in PAYOFFS for n in TIMES]


def key(model, payoff, N):
    return f"{model} {payoff} N={N}"


def run(src_root, out_path):
    sys.path.insert(0, str(pathlib.Path(src_root).resolve() / "src"))
    import levyhedge as lh
    from levyhedge import payoffs as po
    from levyhedge import simulate as sim

    counts = {"nodes": 0, "cells": 0, "exps": 0}
    inner = po._kept_cell_sums
    exp = np.exp

    def counting_exp(x, *args, **kwargs):
        counts["exps"] += np.size(x)
        return exp(x, *args, **kwargs)

    def spy(coef, z, rate, v, cut, ln_s, times):
        counts["nodes"] += v.size
        counts["cells"] += int(np.searchsorted(v, cut, side="right").sum())
        np.exp = counting_exp
        try:
            return inner(coef, z, rate, v, cut, ln_s, times)
        finally:
            np.exp = exp

    warnings.simplefilter("ignore")
    records, rows = [], {}
    for model, payoff, N in cells():
        cls, params = MODELS[model]
        spec = getattr(lh, cls)(**params)
        measure = PAYOFFS[payoff](lh)
        if N == "continuous":
            co = lh.coefficients_ct(spec, T)
            weight = sim._continuous_weight(
                co, T - np.linspace(0.0, T, STEPS + 1)[:-1])
        else:
            co = lh.coefficients(spec, T, N)
            weight = sim._discrete_weight(co)
        grid = sim._spot_grid(spec, measure, S0, T)

        def table():
            return po.tabulate_transform(measure, grid, weight,
                                         tol_abs=TOL * (1.0 + S0))

        for name in counts:
            counts[name] = 0
        po._kept_cell_sums = spy
        try:
            vals, err = table()
        finally:
            po._kept_cell_sums = inner
        seconds = []
        for _ in range(3):
            t0 = time.process_time()
            table()
            seconds.append(time.process_time() - t0)
        rows[key(model, payoff, N)] = vals
        records.append(dict(model=model, payoff=payoff, N=N,
                            spots=int(grid.size), rows=int(vals.shape[0]),
                            table_error=float(err), s=round(min(seconds), 4),
                            **counts))
    z_scores = []
    for model, payoff, N in Z_CELLS:
        cls, params = MODELS[model]
        spec = getattr(lh, cls)(**params)
        measure = PAYOFFS[payoff](lh)
        if N == "continuous":
            rep = lh.backtest_continuous_approx(spec, measure, S0, T, STEPS,
                                                N_PATHS, MC_SEED)
        else:
            rep = lh.backtest_discrete(spec, measure, S0, T, N, N_PATHS,
                                       MC_SEED)
        z_scores.append(dict(model=model, payoff=payoff, N=N,
                             z=rep.z_score, table_error=rep.table_error,
                             clamped_paths=rep.clamped_paths))
    out = pathlib.Path(out_path)
    out.write_text(json.dumps({"tables": records, "z": z_scores}, indent=1)
                   + "\n")
    np.savez_compressed(out.with_suffix(".npz"), **rows)


def compare(out_path, parent_paths, change_paths):
    def load(paths):
        runs = [json.loads(pathlib.Path(p).read_text()) for p in paths]
        first = runs[0]
        for i, table in enumerate(first["tables"]):
            table["s"] = [r["tables"][i]["s"] for r in runs]
        return first, np.load(pathlib.Path(paths[0]).with_suffix(".npz"))

    (old, old_rows), (new, new_rows) = load(parent_paths), load(change_paths)
    merged = []
    for a, b in zip(old["tables"], new["tables"]):
        name = key(a["model"], a["payoff"], a["N"])
        was, now = old_rows[name], new_rows[name]
        scale = np.max(np.abs(was), axis=1)
        delta = float(np.max(np.max(np.abs(now - was), axis=1) / scale))
        merged.append(dict(
            model=a["model"], payoff=a["payoff"], N=a["N"], spots=a["spots"],
            rows=a["rows"],
            parent={k: a[k] for k in ("s", "nodes", "cells", "exps",
                                      "table_error")},
            change={k: b[k] for k in ("s", "nodes", "cells", "exps",
                                      "table_error")},
            max_delta_over_row_scale=delta,
            max_delta=float(np.max(np.abs(now - was))),
            speedup=min(a["s"]) / min(b["s"])))
    z = [dict(model=a["model"], payoff=a["payoff"], N=a["N"],
              parent=a["z"], change=b["z"]) for a, b in zip(old["z"], new["z"])]

    def total(side, field):
        return sum(min(c[side][field]) if field == "s" else c[side][field]
                   for c in merged)

    worst = max(merged, key=lambda c: c["max_delta_over_row_scale"])
    checks = {
        "every_table_within_1e-12_of_its_row_scale": all(
            c["max_delta_over_row_scale"] <= 1e-12 for c in merged),
        "every_table_within_its_table_error": all(
            c["max_delta"] <= c["change"]["table_error"] for c in merged),
        "largest_delta_over_row_scale": {
            "table": key(worst["model"], worst["payoff"], worst["N"]),
            "ratio": worst["max_delta_over_row_scale"]},
        "largest_table_error_change_relative": max(
            abs(c["change"]["table_error"] - c["parent"]["table_error"])
            / c["parent"]["table_error"] for c in merged),
        "nodes_and_cells_unchanged": all(
            c["parent"][k] == c["change"][k]
            for c in merged for k in ("nodes", "cells")),
        "z_scores_agree_to_3_digits": all(
            round(c["parent"], 3) == round(c["change"], 3) for c in z),
        "largest_z_difference": max(abs(c["parent"] - c["change"]) for c in z),
    }
    totals = {
        "tables": len(merged),
        "parent_s": round(total("parent", "s"), 3),
        "change_s": round(total("change", "s"), 3),
        "parent_exps": total("parent", "exps"),
        "change_exps": total("change", "exps"),
        "cells": total("change", "cells"),
        "speedup_range": [round(min(c["speedup"] for c in merged), 2),
                          round(max(c["speedup"] for c in merged), 2)],
    }
    record = {"checks": checks, "totals": totals, "tables": merged,
              "z_scores": z}
    pathlib.Path(out_path).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"checks": checks, "totals": totals}, indent=1))


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
