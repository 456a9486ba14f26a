"""One benchmark process: set up, run the closed loop, print one JSON line.

    python3 perfbench/worker.py ROLE WORKLOAD SEED SECONDS TRACE SPAWN_WALL [SPANS]

``run.py`` starts it with the BLAS pool pinned and ``src`` on the path.
ROLE ``main`` sets up and then runs ops for SECONDS, one client in a
closed loop: the next op starts when the previous one has returned.  ROLE
``setup`` stops once set-up is done.  Set-up runs from SPAWN_WALL, the
wall clock just before the parent started this process, to the first
timed op: interpreter start, imports, input generation, models, payoffs,
coefficients and the workload's untimed warm-up ops.  With TRACE=1 the
layer wrappers go in before set-up; the layer totals of set-up and of the
timed phase are kept apart, and the spans are written to SPANS.

Every failure of an op makes the run incorrect, except a backtest
z-score miss: a correct program misses a 3 SE bound at a small rate, and
the benchmark's repeated runs hold hundreds of backtests.  Such an op is
run once more after the timed phase, on other Monte Carlo seeds,
and fails only if the re-run misses too.  Then the untraced process runs
the workload's probes, the ops that show known library defects, and
reports each as failing or fixed; probes are not timed or counted.
"""

from __future__ import annotations

import heapq
import json
import os
import resource
import sys
import time

SLOWEST = 12     # the record names this many slowest ops


def main(argv) -> int:
    role, workload, seed, seconds, trace_on, spawn_wall = argv[:6]
    seed, seconds, trace_on = int(seed), float(seconds), trace_on == "1"

    import numpy
    import levyhedge

    from ops import Runner, confirmation, known_defect, op_name
    from tracing import Tracer
    from workloads import GENERATORS

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(levyhedge.__file__).startswith(src + os.sep):
        print(f"levyhedge imported from {levyhedge.__file__}, not {src}",
              file=sys.stderr)
        return 2

    tracer = None
    if trace_on:
        tracer = Tracer()
        tracer.install()
    wl = GENERATORS[workload](seed)
    runner = Runner()
    runner.prepare(wl["warmups"] + wl["first_cycle"])
    failures, warmup_failures, retried = [], [], []

    for op in wl["warmups"]:
        reason, _ = runner.run(op)
        if reason is not None:
            warmup_failures.append({"op": op_name(op), "reason": reason})
    runner.path_steps = 0          # count the timed phase only
    setup_s = time.time() - float(spawn_wall)
    if role == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    setup_layers = {}
    if tracer is not None:
        setup_layers, tracer.stats = tracer.stats, {}
    latencies, done, missed = [], [], []
    clock = time.perf_counter
    t0 = clock()
    deadline = t0 + seconds
    for op in wl["ops"]:
        start = clock()
        if start >= deadline:
            break
        if tracer is None:
            reason, statistical = runner.run(op)
        else:
            reason, statistical = tracer.run_op(op["id"],
                                                lambda op=op: runner.run(op))
        latencies.append(clock() - start)
        done.append(op)
        if statistical:
            missed.append((op, reason))
        elif reason is not None:
            failures.append({"op": op_name(op), "reason": reason})
    wall_s = clock() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    path_steps = runner.path_steps
    if tracer is not None:
        tracer.uninstall()

    for op, reason in missed:
        again, _ = runner.run(confirmation(op))
        retried.append({"op": op_name(op), "reason": reason,
                        "confirmed_by": again})
        if again is not None:
            failures.append({"op": op_name(op),
                             "reason": f"{reason}; re-run {again}"})
    probes = []
    if tracer is None:
        for op in wl["probes"]:
            reason, _ = runner.run(op)
            probes.append({"op": op_name(op), "known_defect": known_defect(op),
                           "fails": reason})

    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "latencies_s": latencies,
        "failures": failures,
        "incorrect": failures + warmup_failures,
        "z_misses_retried": retried,
        "probes": probes,
        "slowest": [f"{latencies[i] * 1e3:.1f} ms {op_name(done[i])}"
                    for i in heapq.nlargest(SLOWEST, range(len(latencies)),
                                            key=latencies.__getitem__)],
        "warmup_failures": warmup_failures,
        "path_steps": path_steps,
        "peak_rss_mb": peak_rss_mb,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        for key, stats in (("layers", tracer.stats),
                           ("setup_layers", setup_layers)):
            out[key] = {name: {"calls": s.calls, "busy_s": s.busy_s,
                               "self_s": s.self_s, **s.counts}
                        for name, s in stats.items()}
        out["absent"] = tracer.absent
        out["spans"] = len(tracer.spans)
        out["spans_dropped"] = tracer.dropped
        with open(argv[6], "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
