"""Memoized results are pure functions of their keys (hypothesis).

A memo that keys on rounded inputs but evaluates the unrounded ones
returns whichever near-colliding query came first, so serial, pool,
scheduler and resumed runs could disagree.  These properties ask the
stack-leakage memo the same queries in two orders and require
identical answers, equal to an unmemoized solve.

The same holds for the static-timing plan memo: a plan is keyed on the
netlist's revision, so growing a netlist after it was analysed must
give what a fresh analyzer gives on a freshly built copy, and no
interleaving of timing queries may change any answer.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.builders import pipelined_adder, ripple_carry_adder
from repro.circuits.timing import StaticTimingAnalyzer
from repro.device.leakage import StackLeakageModel, stack_leakage_current
from repro.device.technology import soi_low_vt
from repro.tech.cells import standard_cells

_TECHNOLOGY = soi_low_vt()
_TRANSISTORS = _TECHNOLOGY.transistors
_CELLS = standard_cells()

# Shifts a few 1e-7 V apart: distinct floats that a 6-digit rounded key
# would fold into one memo entry.
near_shifts = st.builds(
    lambda base, offset: base + offset * 1e-7,
    st.sampled_from([0.0, 0.01, -0.02]),
    st.integers(-6, 6),
)
queries = st.lists(
    st.tuples(
        st.sampled_from([(1.0,), (1.0, 1.0), (2.0, 2.0, 2.0)]),
        st.sampled_from([0.3, 0.6, 1.0]),
        near_shifts,
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(
    polarity=st.sampled_from(["nmos", "pmos"]),
    queries=queries,
    data=st.data(),
)
def test_any_query_order_returns_identical_values(polarity, queries, data):
    parameters = getattr(_TRANSISTORS, polarity)
    order = data.draw(st.permutations(range(len(queries))))
    forward = StackLeakageModel(parameters)
    values = [forward.current(list(w), vdd, s) for w, vdd, s in queries]
    permuted = StackLeakageModel(parameters)
    answers = {}
    for index in order:
        widths, vdd, shift = queries[index]
        answers[index] = permuted.current(list(widths), vdd, shift)
    assert [answers[index] for index in range(len(queries))] == values
    assert values == [
        stack_leakage_current(parameters, list(w), vdd, s)
        for w, vdd, s in queries
    ]


def test_near_colliding_pair_on_nmos_two_stack():
    """Shifts 0.0100001 V and 0.0099996 V round to the same 6 digits."""
    nmos = _TRANSISTORS.nmos
    pair = (0.0100001, 0.0099996)
    forward = StackLeakageModel(nmos)
    first = [forward.current([1.0, 1.0], 0.6, shift) for shift in pair]
    backward = StackLeakageModel(nmos)
    second = [
        backward.current([1.0, 1.0], 0.6, shift) for shift in pair[::-1]
    ][::-1]
    assert first == second
    assert first[0] != first[1]


# ----------------------------------------------------------------------
# Netlist structure memo: the timing plan
# ----------------------------------------------------------------------
def _grow(netlist, taps, with_register):
    """Add an inverter off each tapped sum bit (each a new output), and
    optionally a register on ``cout`` feeding one more inverter."""
    for k, bit in enumerate(taps):
        netlist.add_gate(_CELLS["INV"], [f"sum[{bit}]"], f"tap{k}")
        netlist.add_output(f"tap{k}")
    if with_register:
        netlist.add_register("cout", "q_cout")
        netlist.add_gate(_CELLS["INV"], ["q_cout"], "q_inv")
        netlist.add_output("q_inv")


@settings(max_examples=30, deadline=None)
@given(
    width=st.integers(2, 5),
    taps=st.lists(st.integers(0, 1), min_size=1, max_size=3),
    with_register=st.booleans(),
    vdd=st.floats(0.4, 1.5),
)
def test_growing_an_analysed_netlist_matches_a_fresh_copy(
    width, taps, with_register, vdd
):
    analyzer = StaticTimingAnalyzer(_TECHNOLOGY)
    netlist = ripple_carry_adder(width)
    analyzer.analyze(netlist, vdd)
    analyzer.slacks(netlist, vdd)
    revision = netlist.revision
    _grow(netlist, taps, with_register)
    assert netlist.revision > revision

    fresh = ripple_carry_adder(width)
    _grow(fresh, taps, with_register)
    fresh_analyzer = StaticTimingAnalyzer(_TECHNOLOGY)
    assert analyzer.analyze(netlist, vdd) == fresh_analyzer.analyze(
        fresh, vdd
    )
    assert analyzer.slacks(netlist, vdd) == fresh_analyzer.slacks(fresh, vdd)


_PIPELINE = pipelined_adder(4, 2)
_FIRST_GATE = sorted(_PIPELINE.instances)[0]
_LAST_GATE = sorted(_PIPELINE.instances)[-1]


def _timing_query(analyzer, kind, vdd, shift):
    if kind == "analyze":
        return analyzer.analyze(_PIPELINE, vdd, shift)
    if kind == "slacks":
        return analyzer.slacks(_PIPELINE, vdd, shift)
    if kind == "shifts":
        return analyzer.analyze(
            _PIPELINE, vdd, shift, per_instance_vt_shifts={_FIRST_GATE: 0.2}
        )
    return analyzer.analyze(
        _PIPELINE, vdd, shift, per_instance_size_factors={_LAST_GATE: 0.5}
    )


timing_queries = st.lists(
    st.tuples(
        st.sampled_from(["analyze", "slacks", "shifts", "sizes"]),
        st.sampled_from([0.5, 0.8, 1.2]),
        st.sampled_from([0.0, 0.05, -0.03]),
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=30, deadline=None)
@given(queries=timing_queries, data=st.data())
def test_timing_query_order_never_changes_a_result(queries, data):
    order = data.draw(st.permutations(range(len(queries))))
    forward = StaticTimingAnalyzer(_TECHNOLOGY)
    values = [_timing_query(forward, *query) for query in queries]
    permuted = StaticTimingAnalyzer(_TECHNOLOGY)
    answers = {}
    for index in order:
        answers[index] = _timing_query(permuted, *queries[index])
    assert [answers[index] for index in range(len(queries))] == values
    assert values == [
        _timing_query(StaticTimingAnalyzer(_TECHNOLOGY), *query)
        for query in queries
    ]
