"""Workload generators: each is a pure function of its seed.

A generator returns plain data only (numbers, strings, lists, dicts), so
the library receives nothing but the generated inputs.  A workload is

    {"name": str, "why": str, "warmups": [op, ...],
     "first_cycle": [op, ...], "ops": iterator of op, "probes": [op, ...]}

and an op is a dict with the keys

    id      position in the stream (warm-ups use negative ids)
    fn      V0, xi, H, phi_ct, J0, backtest_discrete,
            backtest_continuous_approx
    model   a key of MODELS, "twin:<key>" for the moment-matched
            Gaussian benchmark of it, or a key with its own "model_spec"
    payoff  a payoff spec, see ``payoff_key``
    mode    "discrete" or "continuous"
    args    the op's numeric inputs
    check   optional output checks, see ``ops.Runner``
    book    "<model>/<payoff>/<mode>", the unit that gets one warm-up

A run takes ops in order until its time is up; the stream has no end, so
no run outlasts it however fast the program gets.  Every stream repeats a
cycle of books whose composition does not depend on the seed: the seed
moves strikes, spots, times, hedge dates and Monte Carlo seeds, not the
mix of work.  That keeps runs on different seeds comparable.

No stream op falls under a known library defect (``ops.known_defect``),
so every stream op is meant to succeed and a failure among them is a
finding.  Each workload lists the ops that show its known defects apart,
as ``probes``.
"""

from __future__ import annotations

import math
import random
import statistics

MODELS = {
    "gaussian": ("Gaussian", {"mu": 0.08, "sigma": 0.2}),
    "merton": ("MertonJD", {"mu": 0.05, "sigma": 0.15, "jump_intensity": 0.8,
                            "jump_mean": -0.06, "jump_sd": 0.12}),
    "nig": ("NIG", {"alpha": 75.49, "beta": -4.089, "delta": 3.024,
                    "mu": -0.04}),
    "vg": ("VG", {"alpha": 60.0, "beta": -3.0, "delta": 5.0, "mu": 0.01}),
    "hyperbolic": ("Hyperbolic", {"alpha": 8.0, "beta": 2.0, "delta": 1.5,
                                  "mu": -0.3}),
}
T = 0.25
S0 = 100.0

# README / acceptance criterion 3: NIG fit, call K=99, S0=100, T=0.25.
REFERENCE = {"V0_ct": 4.4740, "xi0_ct": 0.5562, "J0_ct": 0.2572,
             "J0_N12": 1.0442}
REF_ATOL = 1e-4   # the reference values are printed to four decimals

# Where quotes hit known defects (see ``ops.known_defect``): spots within
# NEAR_STRIKE of a strike in log-spot (NEAR_STRIKE_VG for VG), and times
# within LAST_SHARE * T of expiry.  Stream quotes sit at least 0.04 from a
# strike in log-spot, and their times stop at T_LAST, a tenth of the
# region's width before it.
NEAR_STRIKE = 1e-3
NEAR_STRIKE_VG = 1e-2
LAST_SHARE = 0.02
T_LAST = round((1.0 - 1.1 * LAST_SHARE) * T, 6)   # latest quote time

WHY = {
    "risk_sweep": "J0 sweeps over ascending N with continuous and Gaussian "
                  "twins; double-contour layer, shared model and payoff",
    "backtest": "Monte Carlo backtests, every config distinct; transform "
                "tables, samplers and the per-path-step loop",
    "hyperbolic_quotes": "V0 and xi quotes of Hyperbolic fits with cold "
                         "ladders; 1-D quadrature, the Bessel loop, ladder "
                         "builds and log_gamma",
}


def strikes(spec: dict) -> list:
    return [spec[k] for k in ("strike", "lo", "hi") if k in spec]


def payoff_key(spec: dict) -> str:
    kind = spec["kind"]
    if kind == "log_contract":
        return kind
    if kind == "spread":
        return f"spread({spec['lo']!r},{spec['hi']!r})"
    if kind == "power_call_fractional":
        return f"{kind}({spec['strike']!r},{spec['power']!r})"
    return f"{kind}({spec['strike']!r})"


def _book(model: str, payoff: dict, mode: str) -> str:
    return f"{model}/{payoff['kind']}/{mode}"


def _op(ops: list, fn: str, model: str, payoff: dict, mode: str,
        args: dict, check: dict | None = None, spec=None) -> dict:
    op = {"id": len(ops), "fn": fn, "model": model, "payoff": payoff,
          "mode": mode, "args": args, "book": _book(model, payoff, mode)}
    if check:
        op["check"] = check
    if spec:
        op["model_spec"] = spec
    ops.append(op)
    return op


def _workload(name: str, cycle, warmups, probes=()) -> dict:
    """A workload around ``cycle(ops)``, which appends one cycle of ops.
    The first cycle is built now, for ``warmups(first_cycle)`` and for
    set-up; the stream appends a cycle whenever a run has used up the ops
    built so far.  ``probes`` are ops that show known defects; they get
    ids from -1001 down."""
    ops: list = []
    cycle(ops)
    first = list(ops)

    def stream():
        i = 0
        while True:
            if i == len(ops):
                cycle(ops)
            yield ops[i]
            i += 1

    probes = [dict(op, id=-1001 - i) for i, op in enumerate(probes)]
    return {"name": name, "why": WHY[name], "warmups": warmups(first),
            "first_cycle": first, "ops": stream(), "probes": probes}


def _catalog(rng: random.Random) -> dict:
    """The backtest payoffs, with seeded strikes near the spot."""
    def k():
        return round(S0 * math.exp(rng.uniform(-0.05, 0.05)), 2)

    kc = k()
    return {
        "call": {"kind": "call", "strike": kc},
        "put": {"kind": "put", "strike": k()},
        "spread": {"kind": "spread", "lo": kc - 5.0, "hi": kc + 5.0},
        "digital": {"kind": "digital", "strike": k()},
    }


def _spot(strike: float, offset: float) -> float:
    return round(strike * math.exp(offset), 4)


def _offsets(rng: random.Random, n: int, sd: float = 0.1) -> list:
    """n log-spot offsets, normal with deviation sd, stratified: one draw
    from each n-quantile of |offset|, in random order and with random
    signs.  How far spots sit from the strike sets the cost of a quote, so
    stratifying keeps that cost mix the same on every seed."""
    half_normal = statistics.NormalDist(0.0, sd)
    out = [rng.choice((-1.0, 1.0))
           * half_normal.inv_cdf(0.5 + 0.5 * (i + rng.random()) / n)
           for i in range(n)]
    rng.shuffle(out)
    return out


def _probe(fn, model, payoff, mode, args, check=None) -> dict:
    op = {"id": None, "fn": fn, "model": model, "payoff": payoff,
          "mode": mode, "args": args, "book": _book(model, payoff, mode)}
    if check:
        op["check"] = check
    return op


# One op per known quote defect, each failing on this library version.
# The first two are a parity pair: the put's H comes back as about 0 and
# misses H(call) - H(put) = S - K.
QUOTE_PROBES = [
    _probe("H", "nig", {"kind": "call", "strike": 99.2}, "continuous",
           {"S": 99.195, "t": 0.011564}),
    _probe("H", "nig", {"kind": "put", "strike": 99.2}, "continuous",
           {"S": 99.195, "t": 0.011564},
           {"match_op": -1001, "offset": round(99.195 - 99.2, 6),
            "atol": 1e-6 * (1.0 + 99.195)}),
    _probe("phi_ct", "vg", {"kind": "call", "strike": 98.94}, "continuous",
           {"S": 98.7193, "t": 0.184525, "gap": -0.259678}),
    _probe("xi", "nig", {"kind": "call", "strike": 100.0}, "continuous",
           {"S": 95.1229, "t": 0.2495}),
]


def _sweep_group(ops, model, payoff, grid, s0, *, ref=False,
                 twin=True, pair_of=None):
    """J0 over an ascending N grid, plus the continuous J0 and, at each
    point, the moment-matched Gaussian twin; each series must decrease."""
    series = f"{model}/{payoff_key(payoff)}/S0={s0}#{len(ops)}"
    ct_check = {"ref": REFERENCE["J0_ct"], "atol": REF_ATOL} if ref else {}
    if pair_of is not None:
        ct_check = {"match_op": pair_of["ct"], "offset": 0.0, "atol": 1e-4}
    ct = _op(ops, "J0", model, payoff, "continuous", {"S": s0}, ct_check)
    made = {"ct": ct["id"], "grid": {}}
    for n in grid:
        check = {"not_above_series": series}
        if ref and n == 12:
            check.update(ref=REFERENCE["J0_N12"], atol=REF_ATOL)
        if pair_of is not None:
            check.update(match_op=pair_of["grid"][n], offset=0.0, atol=1e-4)
        op = _op(ops, "J0", model, payoff, "discrete", {"S": s0, "N": n},
                 check)
        made["grid"][n] = op["id"]
        if twin:
            _op(ops, "J0", "twin:" + model, payoff, "discrete",
                {"S": s0, "N": n},
                {"not_above_series": "twin:" + series})
    return made


def risk_sweep(seed: int) -> dict:
    """The N grids are fixed, since J0's cost depends on N; the seed moves
    strikes and the spot axis.  Heavy groups (VG, Merton) alternate with
    light ones, so that a run cut anywhere in a cycle holds about the
    same mix of op costs.  The log contract and the VG self-quanto call,
    whose J0 does not converge, are probes rather than stream ops."""
    rng = random.Random(seed)

    def cycle(ops):
        ks = round(S0 * math.exp(rng.uniform(-0.04, 0.04)), 2)
        spots = [_spot(ks, o) for o in sorted(_offsets(rng, 2, 0.05))]
        # criterion 3: the NIG call at K=99, its V0 and xi quotes and its
        # J0 with N=12 on the grid; later the put at the same strike,
        # which must give the same J0
        nig_call = {"kind": "call", "strike": 99.0}
        _op(ops, "V0", "nig", nig_call, "continuous", {"S": S0},
            {"ref": REFERENCE["V0_ct"], "atol": REF_ATOL})
        _op(ops, "xi", "nig", nig_call, "continuous", {"S": S0, "t": 0.0},
            {"ref": REFERENCE["xi0_ct"], "atol": REF_ATOL})
        call = _sweep_group(ops, "nig", {"kind": "call", "strike": 99.0},
                            [2, 12, 40], S0, ref=True)
        _sweep_group(ops, "vg", {"kind": "call", "strike": ks}, [6, 30], S0)
        _sweep_group(ops, "nig", {"kind": "put", "strike": 99.0}, [2, 12, 40],
                     S0, twin=False, pair_of=call)
        # one spot-axis group, as `levyhedge sweep --axis spot` issues it,
        # split in two around the Merton group
        _sweep_group(ops, "nig", {"kind": "call", "strike": ks}, [12], spots[0])
        _sweep_group(ops, "merton", {"kind": "call", "strike": ks}, [6, 24], S0)
        _sweep_group(ops, "nig", {"kind": "call", "strike": ks}, [12], spots[1])
    # J0 has no lazy cache to fill: one J0 and one quote pay the
    # first-call costs
    warmups = [{"id": -1 - i, "fn": fn, "model": "nig",
                "payoff": {"kind": "call", "strike": 101.0},
                "mode": "continuous", "args": {"S": S0},
                "book": "nig/call/continuous"} for i, fn in enumerate(("J0", "V0"))]
    return _workload("risk_sweep", cycle, lambda first: warmups, SWEEP_PROBES)


_LOG = {"kind": "log_contract"}
_VG_SQ = {"kind": "self_quanto_call", "strike": 100.0}
SWEEP_PROBES = [
    _probe("J0", "nig", _LOG, "discrete", {"S": S0, "N": 12}),
    _probe("J0", "merton", _LOG, "discrete", {"S": S0, "N": 6}),
    _probe("J0", "vg", _LOG, "discrete", {"S": S0, "N": 6}),
    _probe("J0", "vg", _VG_SQ, "continuous", {"S": S0}),
]


BACKTEST_PAYOFFS = ("spread", "call", "put", "digital")
# trading dates (or grid steps) by position in the cycle.  They set an
# op's cost, so they are fixed; the seed moves strikes and Monte Carlo
# seeds.  The cycle opens with its largest op, VG spread at N=63, so every
# run reaches the same peak memory.
BACKTEST_DATES = (63, 1, 12, 4, 26, 2, 8)


def backtest(seed: int) -> dict:
    rng = random.Random(seed)
    # a Latin square: every four consecutive ops cover all four models and
    # all four payoffs, and the mode flips every four ops and again
    # halfway, so a run cut anywhere in the cycle holds the same mix
    books = []
    for i in range(32):
        a, b, c = i // 16, (i // 4) % 4, i % 4
        books.append((("vg", "nig", "merton", "gaussian")[c],
                      BACKTEST_PAYOFFS[(b + c) % 4],
                      ("discrete", "continuous")[(a + b) % 2]))

    def cycle(ops):
        catalog = _catalog(rng)
        for i, (model, pname, mode) in enumerate(books):
            n = BACKTEST_DATES[i % len(BACKTEST_DATES)]
            # about 200k path-steps per op, at least 4096 paths
            n_paths = max(4096, min(50_000, 200_000 // n))
            if mode == "discrete":
                fn, check = "backtest_discrete", {"z_abs_max": 3.0}
            else:
                # the grid strategy approaches its prediction from above
                fn, check = "backtest_continuous_approx", {"z_min": -3.0}
            _op(ops, fn, model, catalog[pname], mode,
                {"S": S0, "N": n, "n_paths": n_paths,
                 "mc_seed": rng.randrange(2 ** 31)}, check)
    warmups = [
        {"id": -1, "fn": "backtest_discrete", "model": "nig",
         "payoff": {"kind": "call", "strike": 99.0}, "mode": "discrete",
         "args": {"S": S0, "N": 1, "n_paths": 4096, "mc_seed": 1},
         "book": "nig/call/discrete"},
        {"id": -2, "fn": "backtest_continuous_approx", "model": "nig",
         "payoff": {"kind": "call", "strike": 99.0}, "mode": "continuous",
         "args": {"S": S0, "N": 1, "n_paths": 4096, "mc_seed": 1},
         "book": "nig/call/continuous"},
    ]
    return _workload("backtest", cycle, lambda first: warmups)


def hyperbolic_quotes(seed: int) -> dict:
    """Cold Hyperbolic quotes.

    The Hyperbolic cumulant keeps a winding ladder per model and contour
    line, built on first use and rebuilt from scratch whenever a quote
    needs more height.  Each cycle quotes a freshly jittered Hyperbolic
    fit, so every cycle starts on cold ladders and pays the same kind of
    builds: the run is a string of like cycles, and its op count follows
    the machine's speed instead of swinging with a few slow ops.  Spots
    alternate between near the strike (tall ladders) and far from it; the
    seed moves the fit, the far spots and their hedge dates.  The
    fractional-power call reaches ``log_gamma``.  At the near spot the put
    is quoted where the call was, and must meet call-put parity: V0 and xi
    differ by S - K and by 1.  The known quote defects of the other models
    are this workload's probes.
    """
    rng = random.Random(seed)
    catalog = {"call": {"kind": "call", "strike": 99.0},
               "put": {"kind": "put", "strike": 99.0},
               "digital": {"kind": "digital", "strike": 100.0},
               "power_call_fractional": {"kind": "power_call_fractional",
                                         "strike": 99.0, "power": 1.5}}
    books = [(p, mode) for p in catalog for mode in ("discrete", "continuous")]
    base = MODELS["hyperbolic"][1]

    def cycle(ops):
        model = f"hyperbolic@{len(ops)}"
        spec = ["Hyperbolic", {k: round(v * rng.uniform(0.95, 1.05), 6)
                               for k, v in base.items()}]
        calls = {}      # (mode, spot) -> the call's V0 and xi ops
        for j, (pname, mode) in enumerate(books):
            payoff = catalog[pname]
            k = payoff["strike"]
            # the near spot and its hedge date set the ladder height, so
            # both are fixed and every cycle builds the same ladders (one
            # quote close to expiry can rebuild a ladder for most of a
            # second); the call and the put of one mode share them
            near = (-1) ** j * 0.04
            for x in (near, rng.choice((-1, 1)) * rng.uniform(0.06, 0.25)):
                s = round(k * math.exp(x), 6)
                if mode == "discrete":
                    where = {"S": s, "N": 12}
                    when = {"n": 6 if x == near else rng.randint(1, 12)}
                else:
                    where = {"S": s}
                    when = {"t": T / 2 if x == near
                            else round(rng.uniform(0.0, T_LAST), 6)}
                v0_check = xi_check = None
                call = calls.get((mode, s))
                if pname == "put" and call is not None:
                    tol = 1e-6 * (1.0 + s)
                    v0_check = {"match_op": call[0]["id"],
                                "offset": round(s - k, 6), "atol": tol}
                    xi_check = {"match_op": call[1]["id"], "offset": 1.0,
                                "atol": tol / s}
                v0 = _op(ops, "V0", model, payoff, mode, where, v0_check,
                         spec=spec)
                xi = _op(ops, "xi", model, payoff, mode, where | when,
                         xi_check, spec=spec)
                if pname == "call":
                    calls[mode, s] = (v0, xi)
    # warm-ups use the unjittered fit: they pay first-call costs, and leave
    # every cycle's ladders cold
    warmups = []
    for pname, mode in books:
        payoff = catalog[pname]
        warmups.append({"id": -len(warmups) - 1, "fn": "V0",
                        "model": "hyperbolic", "payoff": payoff, "mode": mode,
                        "args": {"S": round(payoff["strike"] * math.exp(0.1), 4),
                                 "N": 12},
                        "book": _book("hyperbolic", payoff, mode)})
    return _workload("hyperbolic_quotes", cycle, lambda first: warmups,
                     QUOTE_PROBES)


GENERATORS = {
    "risk_sweep": risk_sweep,
    "backtest": backtest,
    "hyperbolic_quotes": hyperbolic_quotes,
}
