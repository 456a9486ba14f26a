"""Self-test of the benchmark harness (not of the library).

    python3 -m pytest -q perfbench/test_harness.py
"""

import itertools
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import importlib  # noqa: E402

from ops import Runner, known_defect  # noqa: E402
from tracing import OP, REGISTRY, Tracer  # noqa: E402
from workloads import GENERATORS  # noqa: E402


def _bindings():
    """The registry's bindings that exist, by (module, attribute); one that
    the library no longer has is left out, as the tracer leaves it."""
    out = {}
    for _, module, attribute, _ in REGISTRY:
        try:
            out[module, attribute] = getattr(importlib.import_module(module),
                                             attribute)
        except (ImportError, AttributeError):
            pass
    return out


def _same(before, after):
    return before.keys() == after.keys() and all(
        after[key] is f for key, f in before.items())


def test_untraced_ops_leave_every_binding_unwrapped():
    before = _bindings()
    runner = Runner()
    op = GENERATORS["risk_sweep"](0)["first_cycle"][0]
    runner.prepare([op])
    assert runner.run(op) == (None, False)
    after = _bindings()
    assert _same(before, after)
    assert not any(hasattr(f, "__wrapped__") for f in after.values())


def test_install_then_uninstall_restores_every_binding():
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    assert len(tracer.absent) == len(REGISTRY) - len(before)
    assert all(hasattr(f, "__wrapped__") for f in _bindings().values())
    tracer.uninstall()
    assert _same(before, _bindings())


def test_missing_binding_is_reported_absent():
    tracer = Tracer()
    tracer.install([("x", "levyhedge", "no_such_function", None),
                    ("x", "levyhedge.no_such_module", "f", None)])
    assert tracer.absent == ["levyhedge.no_such_function",
                             "levyhedge.no_such_module.f"]
    assert tracer.installed == []


class _Clock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_times_on_a_synthetic_span_tree():
    # op [0,10] holds A [1,6] and D [7,9]; A holds B [2,3] and C [4,5.5];
    # D holds another A [7.5,8]
    clock = _Clock([0, 1, 2, 3, 4, 5.5, 6, 7, 7.5, 8, 9, 10])
    tr = Tracer(clock=clock)
    op = tr.enter(OP)
    a = tr.enter("A")
    b = tr.enter("B")
    tr.exit(b)
    c = tr.enter("C")
    tr.exit(c)
    tr.exit(a)
    d = tr.enter("D")
    a2 = tr.enter("A")
    tr.exit(a2)
    tr.exit(d)
    tr.exit(op)
    self_s = {name: st.self_s for name, st in tr.stats.items()}
    assert self_s == {OP: 3.0, "A": 3.0, "B": 1.0, "C": 1.5, "D": 1.5}
    assert sum(self_s.values()) == 10.0
    assert tr.stats["A"].busy_s == 5.5 and tr.stats["A"].calls == 2
    assert [s[3] for s in tr.spans] == [None, 0, 1, 1, 0, 4]


def test_reentering_the_open_layer_opens_no_span():
    tr = Tracer(clock=_Clock([0, 1, 2, 3]))

    def inner():
        return 1

    inner_w = tr.wrap("L", inner, None)
    outer_w = tr.wrap("L", lambda: inner_w() + 1, None)
    assert tr.run_op(7, outer_w) == 2
    assert tr.stats["L"].calls == 1
    assert [(s[0], s[4]) for s in tr.spans] == [(OP, 7), ("L", 7)]


def _inputs(workload):
    """Warm-ups and the first two cycles of the endless op stream."""
    n = 2 * len(workload["first_cycle"])
    return workload["warmups"], list(itertools.islice(workload["ops"], n))


def test_generators_are_pure_functions_of_the_seed():
    for name, generate in GENERATORS.items():
        first = generate(5)
        assert first["warmups"] and first["first_cycle"], name
        inputs = _inputs(first)
        assert inputs[1][:len(first["first_cycle"])] == first["first_cycle"]
        assert inputs == _inputs(generate(5)), name
        assert inputs != _inputs(generate(6)), name
        # plain data only: the library receives nothing but these inputs
        assert json.loads(json.dumps(inputs)) == list(inputs), name



def test_streams_avoid_known_defects_and_probes_show_them():
    for seed in range(3):
        for name, generate in GENERATORS.items():
            warmups, ops = _inputs(generate(seed))
            hit = [op for op in warmups + ops if known_defect(op)]
            assert hit == [], (name, seed, hit[:3])
    for name, generate in GENERATORS.items():
        probes = generate(0)["probes"]
        # the op a probe's parity check compares against may be sound
        partners = {op["check"]["match_op"] for op in probes
                    if "match_op" in op.get("check", {})}
        assert all(known_defect(op) or op["id"] in partners
                   for op in probes), name


if __name__ == "__main__":
    import pytest

    sys.exit(pytest.main(["-q", __file__]))
