"""Tests of the benchmark itself.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import pathlib
import sys
import types

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import run as runner  # noqa: E402
from layers import ENTRIES  # noqa: E402
from tracer import (  # noqa: E402
    BENCH, Entry, Installation, Tracer, _resolve, installed_wrappers,
)
from workloads import WORKLOADS, digest  # noqa: E402


class ProbeWorkload:
    """Two cheap queries through wrapped entry points."""

    name = "probe"
    queries = ("drain", "profile")

    def __init__(self):
        self.wrappers_seen = []

    def run(self, ctx, query, done):
        self.wrappers_seen.append(installed_wrappers())
        if query == "drain":
            from repro.device.mosfet import Mosfet
            from repro.device.technology import soi_low_vt

            nmos = Mosfet(soi_low_vt().transistors.nmos, width_um=1.0)
            return nmos.drain_current(0.5, 0.5)
        from repro.core.flow import LowVoltageDesignFlow
        from repro.isa.workloads import build

        return LowVoltageDesignFlow().profile(build("li", 8))

    def check(self, ctx, query, result, done):
        pass


def _snapshot():
    return [_resolve(entry.target) for entry in ENTRIES]


def test_every_entry_resolves():
    for owner, attribute, raw in _snapshot():
        assert callable(getattr(raw, "__func__", raw)), attribute


def test_no_wrapper_is_installed_during_untraced_runs():
    workload = ProbeWorkload()
    outcome = child.execute(workload, {}, workload.queries, workload.run)
    assert outcome["failures"] == {}
    assert workload.wrappers_seen == [[], []]


def test_wrappers_are_visible_during_traced_runs():
    workload = ProbeWorkload()
    outcome = child.execute(workload, {}, workload.queries, workload.run,
                            Tracer())
    assert all(seen for seen in workload.wrappers_seen)
    assert outcome["layers"]["device.drain_current.calls"] >= 1
    assert outcome["layers"]["isa.instructions"] > 0


def test_traced_run_restores_every_patched_attribute():
    import repro.core.flow
    import repro.isa.profiler

    before = _snapshot()
    workload = ProbeWorkload()
    traced = child.execute(workload, {}, workload.queries, workload.run,
                           Tracer())
    after = _snapshot()
    assert all(old[2] is new[2] for old, new in zip(before, after))
    assert installed_wrappers() == []
    # ``from ... import`` copies are restored too.
    assert repro.core.flow.profile_program is repro.isa.profiler.profile_program
    # Tracing must not change any result.
    untraced = child.execute(workload, {}, workload.queries, workload.run)
    assert traced["digests"] == untraced["digests"]


def test_restore_happens_when_a_query_raises():
    class Failing(ProbeWorkload):
        def run(self, ctx, query, done):
            super().run(ctx, query, done)
            raise RuntimeError("boom")

    before = _snapshot()
    workload = Failing()
    outcome = child.execute(workload, {}, workload.queries, workload.run,
                            Tracer())
    assert set(outcome["failures"]) == set(workload.queries)
    assert all(old[2] is new[2] for old, new in zip(before, _snapshot()))
    assert installed_wrappers() == []


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_span_minus_child_spans():
    # root [0, 10] -> a [1, 6] -> (b [2, 3], c [4, 5]); d [7, 9]
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    script = [
        (0, "begin", "root", BENCH), (1, "begin", "a", "power"),
        (2, "begin", "b", "device"), (3, "end"),
        (4, "begin", "c", "device"), (5, "end"), (6, "end"),
        (7, "begin", "d", "tech.plan"), (9, "end"), (10, "end"),
    ]
    tokens = []
    for step in script:
        clock.now = float(step[0])
        if step[1] == "begin":
            tokens.append(tracer.begin(step[2], step[3]))
        else:
            tracer.end(tokens.pop())
    assert tracer.self_s[BENCH] == 10 - 5 - 2
    assert tracer.self_s["power"] == 5 - 1 - 1
    assert tracer.self_s["device"] == 2
    assert tracer.self_s["tech.plan"] == 2
    assert tracer.inclusive_s(layer="device") == 2
    parents = {span[1]: span[5] for span in tracer.spans}
    assert parents == {"root": None, "a": 0, "b": 1, "c": 1, "d": 0}


def test_wrappers_charge_self_time_per_layer(monkeypatch):
    clock = FakeClock()

    def inner(cost):
        clock.now += cost

    def leaf(cost):
        fake.inner(cost)  # device calling device: passed straight through
        return cost

    def outer():
        clock.now += 1.0
        fake.leaf(2.0)
        fake.leaf(3.0)
        clock.now += 1.0
        return "done"

    fake = types.ModuleType("fakepkg")
    fake.inner, fake.leaf, fake.outer = inner, leaf, outer
    monkeypatch.setitem(sys.modules, "fakepkg", fake)
    tracer = Tracer(clock=clock)
    installation = Installation(tracer, [
        Entry("fakepkg:outer", "power", span=True),
        Entry("fakepkg:leaf", "device", every="leaf.calls"),
        Entry("fakepkg:inner", "device", every="inner.calls"),
    ], package="fakepkg")
    # A module imported while the wrappers are live copies a wrapper.
    late = types.ModuleType("fakepkg.late")
    monkeypatch.setitem(sys.modules, "fakepkg.late", late)
    try:
        late.leaf = fake.leaf
        with tracer.span("query"):
            assert fake.outer() == "done"
            clock.now += 0.5
    finally:
        installation.restore()
    assert (fake.outer, fake.leaf, fake.inner) == (outer, leaf, inner)
    assert late.leaf is leaf
    assert tracer.self_s["power"] == 2.0
    assert tracer.self_s["device"] == 5.0
    assert tracer.self_s[BENCH] == 0.5
    assert tracer.counts["leaf.calls"] == tracer.counts["inner.calls"] == 2
    events = tracer.chrome_trace()["traceEvents"]
    assert [event["name"] for event in events] == ["query", "outer"]
    assert events[1]["args"]["parent"] == events[0]["args"]["span_id"]
    assert events[1]["dur"] == pytest.approx(7.0e6)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_inputs_but_not_queries(name):
    workload = WORKLOADS[name]
    queries = workload.queries
    first, again, other = (
        workload.inputs(0), workload.inputs(0), workload.inputs(1)
    )
    assert digest(first) == digest(again)
    assert digest(first) != digest(other)
    assert workload.queries == queries


def test_judge_counts_oracle_mismatches_and_digest_drift():
    fanout = WORKLOADS["fanout"]
    oracle = {"digests": {base: "good" for base in fanout.BASE}}
    clean = {"mode": "timed", "failures": {},
             "digests": {query: "good" for query in fanout.queries}}
    drifted = dict(clean, digests=dict(
        clean["digests"], **{"pool:leakage.NAND2": "bad"}
    ))
    attempted, failures, mismatches = runner.judge(
        "fanout", [clean, drifted], oracle
    )
    assert attempted == 2 * len(fanout.queries)
    assert [(run, query) for run, query, _ in failures] == [
        (1, "pool:leakage.NAND2")
    ]
    assert mismatches == [0, 1]

    serial = WORKLOADS["module_optimum"]
    runs = [
        {"mode": "timed", "failures": {},
         "digests": {query: "x" for query in serial.queries}},
        {"mode": "timed", "failures": {"vdd_floor@0.3": "shape: no"},
         "digests": {query: "y" for query in serial.queries}},
    ]
    attempted, failures, _ = runner.judge("module_optimum", runs, None)
    assert attempted == 2 * len(serial.queries)
    assert len(failures) == len(serial.queries)
