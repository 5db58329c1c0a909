"""Memoized results are pure functions of their keys (hypothesis).

A memo that keys on rounded inputs but evaluates the unrounded ones
returns whichever near-colliding query came first, so serial, pool,
scheduler and resumed runs could disagree.  These properties ask the
stack-leakage memo the same queries in two orders and require
identical answers, equal to an unmemoized solve.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device.leakage import StackLeakageModel, stack_leakage_current
from repro.device.technology import soi_low_vt

_TRANSISTORS = soi_low_vt().transistors

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
