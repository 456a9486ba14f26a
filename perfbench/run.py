"""levyhedge benchmark: one workload, one fresh process, one JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src``.  Workloads (see ``workloads.py`` for why each exists):
risk_sweep, backtest, hyperbolic_quotes.

``--trace 0`` runs the workload in a fresh process, untraced, for S
seconds with one client in a closed loop, and SETUPS - 1 more fresh
processes that only set up, half of them before it and half after, so
that the set-ups span the run; ``setup_s`` is the median of them all.  It
prints the seven end-to-end metrics and, as the last line, a JSON object
with the bounded ones (the names in BENCHMARK.json).

``--trace 1`` runs the untraced process and then a traced one, and reports
the per-layer metrics of the traced process together with the tracing
overhead, the gap in ops_per_s between the two.

The BLAS pool is pinned to BLAS_THREADS threads for every process.  The
full record, with provenance, the failed ops and the known-defect probes
by name, is written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import GENERATORS, WHY  # noqa: E402

# One client and one thread each: numpy's OpenBLAS would otherwise start a
# thread per core and make runs on a shared host unsteady.
BLAS_THREADS = 1
SETUPS = 5                 # set-ups per --trace 0 run; setup_s is their median
RUN_LIMIT_S = 170.0        # every process of one run ends within this

END_TO_END_UNITS = {"ops_per_s": "op/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}

# (layer, fields).  A field is ``calls``, ``busy_s``, ``self_s``,
# ``converged_ratio``, a count the wrapper records, or ``ns_per_<unit>``:
# busy nanoseconds per counted ``<unit>s``.
LAYER_FIELDS = [
    ("numerics.bessel_k1e", ["elements", "busy_s", "ns_per_element"]),
    ("numerics.continuous_log", ["elements", "busy_s"]),
    ("numerics.log_gamma", ["elements", "busy_s", "ns_per_element"]),
    ("numerics.bromwich", ["calls", "nodes", "busy_s", "ns_per_node"]),
    ("payoffs.integrate_measure",
     ["calls", "nodes", "busy_s", "self_s", "converged_ratio"]),
    ("numerics.double",
     ["calls", "nodes", "busy_s", "ns_per_node", "converged_ratio"]),
    ("payoffs.double_integrate_measure",
     ["calls", "nodes", "busy_s", "self_s", "converged_ratio"]),
    *[(f"models.cumulant.{family}", ["nodes", "busy_s", "ns_per_node"])
      for family in ("gaussian", "merton", "nig", "vg", "hyperbolic")],
    ("models.sample_increments", ["increments", "busy_s", "ns_per_increment"]),
    ("payoffs.tables", ["calls", "row_spots", "busy_s", "ns_per_row_spot"]),
    ("payoffs.tail_completion", ["calls", "points", "busy_s"]),
    ("hedge.error_variance", ["calls", "busy_s", "self_s"]),
    ("hedge.quote", ["calls", "busy_s", "self_s"]),
    ("hedge.coefficients", ["calls", "busy_s"]),
    ("simulate.backtest", ["calls", "busy_s", "self_s"]),
]


def _unit(field: str) -> str:
    if field.endswith("_s"):
        return "s"
    if field.startswith("ns_per_"):
        return "ns"
    return "ratio" if field.endswith("ratio") else "count"


def per_layer(worker: dict, untraced_ops_per_s: float, traced_ops_per_s: float):
    layers = worker["layers"]
    metrics = {}
    for layer, fields in LAYER_FIELDS:
        st = layers.get(layer, {})
        if layer == "hedge.coefficients":
            # set-up builds the coefficient sets of the first cycle's ops,
            # and setup_s includes that time; the timed phase builds the
            # rest on first use, so this layer counts both phases
            st = collections.Counter(st)
            st.update(worker["setup_layers"].get(layer, {}))
        calls = st.get("calls", 0)
        for field in fields:
            if field in ("calls", "busy_s", "self_s"):
                value = st.get(field, 0)
            elif field == "converged_ratio":
                value = st.get("converged", 0) / calls if calls else 0.0
            elif field.startswith("ns_per_"):
                count = st.get(field[len("ns_per_"):] + "s", 0)
                value = st.get("busy_s", 0.0) * 1e9 / count if count else 0.0
            else:
                value = st.get(field, 0)
            metrics[f"{layer}.{field}"] = {"value": value, "unit": _unit(field)}
    # the Monte Carlo loop is what a backtest does outside its child layers
    steps = worker["path_steps"]
    mc_s = layers.get("simulate.backtest", {}).get("self_s", 0.0)
    metrics["simulate.mc.path_steps"] = {"value": steps, "unit": "count"}
    metrics["simulate.mc.ns_per_path_step"] = {
        "value": mc_s * 1e9 / steps if steps else 0.0, "unit": "ns"}
    # the share of measured op time that no layer's self time accounts for
    op_s = sum(worker["latencies_s"])
    root_s = layers.get("op", {}).get("self_s", 0.0)
    metrics["trace.unattributed_ratio"] = {"value": root_s / op_s,
                                           "unit": "ratio"}
    metrics["trace.overhead_ratio"] = {
        "value": 1.0 - traced_ops_per_s / untraced_ops_per_s, "unit": "ratio"}
    return metrics


TAIL_BEYOND = 10     # ops beyond the tail percentile


def end_to_end(worker: dict, setups: list) -> dict:
    lat = sorted(worker["latencies_s"])
    n = len(lat)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} ops completed: a tail needs more than "
                         f"{TAIL_BEYOND}")
    # the highest percentile with at least ten ops beyond it
    k = n - TAIL_BEYOND - 1
    failed = len(worker["failures"])
    return {
        "ops_per_s": n / worker["wall_s"],
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": lat[k] * 1e3,
        "op_tail_pct": 100.0 * (k + 1) / n,
        "op_count": n,
        "fail_frac": failed / n,
        "failed": failed,
        "setup_s": statistics.median(setups),
        "setup_samples_s": setups,
        "peak_rss_mb": worker["peak_rss_mb"],
        "mc_path_steps_per_s": (worker["path_steps"] / worker["wall_s"]
                                if worker["path_steps"] else None),
    }


def spawn(role: str, args, env, deadline: float, spans_path: str = "") -> dict:
    """Run one worker process; a non-empty ``spans_path`` turns tracing on."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), role, args.workload,
           str(args.seed), str(args.seconds), "1" if spans_path else "0",
           repr(time.time())]
    if spans_path:
        cmd.append(spans_path)
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"{role} worker exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def provenance(root: str, args) -> dict:
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "levyhedge")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    try:
        # a checkout that is not a repository reports no revision, rather
        # than that of a repository above it
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=
                                      os.path.dirname(root)))
        revision = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        revision = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "why": WHY[args.workload],
        "client": "closed loop, one client",
        "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
        "python": platform.python_version(), "git_revision": revision,
        "src_sha256": digest.hexdigest(), "time_utc": time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "levyhedge", "__init__.py")):
        print("run from the root of a levyhedge checkout: src/levyhedge is "
              "missing", file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    deadline = time.monotonic() + RUN_LIMIT_S

    try:
        extra = 0 if args.trace else SETUPS - 1
        setups = [spawn("setup", args, env, deadline)["setup_s"]
                  for _ in range(extra // 2)]
        main_run = spawn("main", args, env, deadline)
        setups.append(main_run["setup_s"])
        setups += [spawn("setup", args, env, deadline)["setup_s"]
                   for _ in range(extra - extra // 2)]
        if args.trace:
            traced = spawn("main", args, env, deadline, stem + ".spans.jsonl")
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    try:
        e2e = end_to_end(main_run, setups)
        if args.trace:
            traced_e2e = end_to_end(traced, setups)
    except ValueError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    record = {"provenance": dict(provenance(root, args),
                                 numpy=main_run["numpy"]),
              "end_to_end": e2e,
              "failures": main_run["failures"],
              "incorrect": main_run["incorrect"],
              "z_misses_retried": main_run["z_misses_retried"],
              "known_defect_probes": main_run["probes"],
              "slowest": main_run["slowest"],
              "warmup_failures": main_run["warmup_failures"]}
    worker = main_run
    if args.trace:
        metrics = per_layer(traced, e2e["ops_per_s"], traced_e2e["ops_per_s"])
        record.update(per_layer=metrics, traced_end_to_end=traced_e2e,
                      setup_layers=traced["setup_layers"],
                      absent_bindings=traced["absent"],
                      spans=traced["spans"], spans_dropped=traced["spans_dropped"])
        worker = traced
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} blas_threads={BLAS_THREADS} nproc={os.cpu_count()}")
    mc = e2e["mc_path_steps_per_s"]
    for name, value, unit in (
            ("ops_per_s", e2e["ops_per_s"], "op/s"),
            ("op_p50_ms", e2e["op_p50_ms"], "ms"),
            ("op_tail_ms", e2e["op_tail_ms"], f"ms (p{e2e['op_tail_pct']:.1f} "
                                              f"of {e2e['op_count']} ops)"),
            ("fail_frac", e2e["fail_frac"], f"ratio ({e2e['failed']} failed)"),
            ("setup_s", e2e["setup_s"], f"s (median of {len(setups)})"),
            ("peak_rss_mb", e2e["peak_rss_mb"], "MB"),
            ("mc_path_steps_per_s", mc, "1/s" if mc else "(backtest only)")):
        print(f"{name:22s} {value if value is not None else '-':>14} {unit}")
    if args.trace:
        for name, m in metrics.items():
            print(f"{name:46s} {m['value']:>16.6g} {m['unit']}")
        if traced["absent"]:
            print("absent bindings: " + ", ".join(traced["absent"]))
    for f in main_run["incorrect"]:
        print(f"failed: {f['op']}: {f['reason']}")
    for r in main_run["z_misses_retried"]:
        print(f"z miss re-run: {r['op']}: {r['reason']}; "
              f"re-run {r['confirmed_by'] or 'within bound'}")
    for p in main_run["probes"]:
        state = f"fails: {p['fails']}" if p["fails"] else "passes"
        print(f"known defect probe: {p['op']}: {p['known_defect']}: {state}")
    print(f"record: {os.path.relpath(stem + '.json', root)}")
    print(json.dumps({"correct": not (main_run["incorrect"] or worker["incorrect"]),
                      "attempted": len(worker["latencies_s"]),
                      "failed": len(worker["failures"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
