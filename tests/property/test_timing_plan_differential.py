"""The compiled timing plan against the uncompiled STA (hypothesis).

:class:`StaticTimingAnalyzer` evaluates a :class:`TimingPlan` compiled
once per netlist revision.  The oracle below is the analysis written
directly against the netlist graph: it levelizes on every call and
rebuilds every net's load from ``Netlist.fanout`` and the cells' own
``input_capacitance``.  Both must agree with ``==`` on the critical
delay, the critical path, every arrival time (in the same key order)
and every slack, at random corners, V_T shifts and size factors, on a
ripple-carry adder, a carry-select adder, a pipelined adder and an
adder with registers sampling its carries (whose register D pins
exercise the register-load term, alone and beside gate loads).
"""

from typing import Dict, List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.builders import (
    carry_select_adder,
    pipelined_adder,
    ripple_carry_adder,
)
from repro.circuits.netlist import _REGISTER_D_NMOS_UM, _REGISTER_D_PMOS_UM
from repro.circuits.timing import CriticalPath, StaticTimingAnalyzer
from repro.device.technology import soi_low_vt
from repro.tech.characterize import CellCharacterizer

_TECH = soi_low_vt()
_WIRE_UM = 5.0


def _sampled_adder():
    """A ripple-carry adder whose carry nets also feed registers, so a
    net carries gate loads and register loads together."""
    netlist = ripple_carry_adder(4)
    carries = [
        instance.output
        for instance in list(netlist.instances.values())
        if netlist.fanout(instance.output)
    ]
    for k, net in enumerate(carries[::2]):
        netlist.add_register(net, f"sample{k}")
    return netlist


_NETLISTS = {
    "ripple": ripple_carry_adder(6),
    "select": carry_select_adder(8, 4),
    "pipelined": pipelined_adder(6, 3),
    "sampled": _sampled_adder(),
}
# One analyzer for every example, so plans are reused across corners.
_ANALYZER = StaticTimingAnalyzer(_TECH, _WIRE_UM)
_ORACLE_CHARACTERIZER = CellCharacterizer(_TECH)


# ----------------------------------------------------------------------
# Oracle: the analysis evaluated straight off the netlist graph
# ----------------------------------------------------------------------
def _oracle_external_load(netlist, net, vdd, sizes):
    loads = netlist.fanout(net)
    capacitance = sum(
        instance.cell.input_capacitance(_TECH, vdd)
        * sizes.get(instance.name, 1.0)
        for instance, _ in loads
    )
    register_loads = netlist.register_fanout(net)
    if register_loads:
        length = _TECH.drawn_length_um
        d_pin = _TECH.gate_cap.gate_capacitance(
            _REGISTER_D_NMOS_UM, length, vdd
        ) + _TECH.gate_cap.gate_capacitance(_REGISTER_D_PMOS_UM, length, vdd)
        capacitance += len(register_loads) * d_pin
    total_fanout = len(loads) + len(register_loads)
    wire = _TECH.wire_cap.wire_capacitance(_WIRE_UM * max(total_fanout, 1))
    return capacitance + wire


def _oracle_delay(netlist, instance, vdd, vt_shift, shifts, sizes):
    return _ORACLE_CHARACTERIZER.propagation_delay(
        instance.cell,
        vdd,
        _oracle_external_load(netlist, instance.output, vdd, sizes)
        / sizes.get(instance.name, 1.0),
        shifts.get(instance.name, vt_shift),
    )


def oracle_analyze(netlist, vdd, vt_shift, shifts, sizes) -> CriticalPath:
    order = netlist.levelize()
    arrival: Dict[str, float] = {net: 0.0 for net in netlist.primary_inputs}
    arrival.update({net: 0.0 for net in netlist.constants})
    arrival.update({net: 0.0 for net in netlist.register_outputs()})
    worst_input: Dict[str, str] = {}
    for instance in order:
        latest_time, latest_net = max(
            [(arrival[net], net) for net in instance.inputs]
        )
        delay = _oracle_delay(netlist, instance, vdd, vt_shift, shifts, sizes)
        arrival[instance.output] = latest_time + delay
        worst_input[instance.output] = latest_net
    endpoints = list(netlist.primary_outputs) + [
        register.data_input for register in netlist.registers.values()
    ]
    if not endpoints:
        endpoints = [instance.output for instance in order]
    end_net = max(endpoints, key=lambda net: arrival[net])
    path: List[str] = [end_net]
    while path[-1] in worst_input:
        path.append(worst_input[path[-1]])
    path.reverse()
    return CriticalPath(
        delay_s=arrival[end_net],
        path_nets=tuple(path),
        arrival_times=arrival,
    )


def oracle_slacks(netlist, vdd, vt_shift, shifts, sizes, required_time_s):
    critical = oracle_analyze(netlist, vdd, vt_shift, shifts, sizes)
    if required_time_s is None:
        required_time_s = critical.delay_s
    order = netlist.levelize()
    delays = {
        instance.name: _oracle_delay(
            netlist, instance, vdd, vt_shift, shifts, sizes
        )
        for instance in order
    }
    endpoints = set(netlist.primary_outputs) | {
        register.data_input for register in netlist.registers.values()
    }
    required: Dict[str, float] = {net: required_time_s for net in endpoints}
    for instance in reversed(order):
        at_output = required.get(instance.output, float("inf"))
        needed_at_inputs = at_output - delays[instance.name]
        for net in instance.inputs:
            required[net] = min(
                required.get(net, float("inf")), needed_at_inputs
            )
    return {
        instance.name: (
            required.get(instance.output, float("inf"))
            - critical.arrival_times[instance.output]
        )
        for instance in order
    }


# ----------------------------------------------------------------------
@st.composite
def corners(draw):
    name = draw(st.sampled_from(sorted(_NETLISTS)))
    netlist = _NETLISTS[name]
    instances = sorted(netlist.instances)
    vdd = draw(st.floats(0.3, 1.5, allow_nan=False))
    vt_shift = draw(st.floats(-0.1, 0.15, allow_nan=False))
    shifts = draw(
        st.dictionaries(
            st.sampled_from(instances),
            st.floats(-0.1, 0.3, allow_nan=False),
            max_size=6,
        )
    )
    sizes = draw(
        st.dictionaries(
            st.sampled_from(instances),
            st.floats(0.25, 4.0, allow_nan=False),
            max_size=6,
        )
    )
    return netlist, vdd, vt_shift, shifts, sizes


@settings(max_examples=60, deadline=None)
@given(corner=corners())
def test_analyze_matches_oracle(corner):
    netlist, vdd, vt_shift, shifts, sizes = corner
    planned = _ANALYZER.analyze(
        netlist,
        vdd,
        vt_shift,
        per_instance_vt_shifts=shifts,
        per_instance_size_factors=sizes,
    )
    expected = oracle_analyze(netlist, vdd, vt_shift, shifts, sizes)
    assert planned.delay_s == expected.delay_s
    assert planned.path_nets == expected.path_nets
    assert list(planned.arrival_times.items()) == list(
        expected.arrival_times.items()
    )


@settings(max_examples=60, deadline=None)
@given(
    corner=corners(),
    required_factor=st.one_of(st.none(), st.floats(0.5, 2.0)),
)
def test_slacks_match_oracle(corner, required_factor):
    netlist, vdd, vt_shift, shifts, sizes = corner
    required_time_s = None
    if required_factor is not None:
        required_time_s = required_factor * oracle_analyze(
            netlist, vdd, vt_shift, {}, {}
        ).delay_s
    planned = _ANALYZER.slacks(
        netlist,
        vdd,
        vt_shift,
        per_instance_vt_shifts=shifts,
        required_time_s=required_time_s,
        per_instance_size_factors=sizes,
    )
    expected = oracle_slacks(
        netlist, vdd, vt_shift, shifts, sizes, required_time_s
    )
    assert list(planned.items()) == list(expected.items())


def test_register_loads_are_exercised():
    """The register-load term is exercised, not vacuously skipped."""
    pipelined = _ANALYZER._plan(_NETLISTS["pipelined"])
    assert any(pipelined.register_loads)
    assert (
        len(pipelined.order)
        == len(pipelined.fanout)
        == len(pipelined.wire_f)
        == len(pipelined.register_loads)
    )
    sampled = _ANALYZER._plan(_NETLISTS["sampled"])
    assert any(
        n_registers and loads
        for n_registers, loads in zip(sampled.register_loads, sampled.fanout)
    )
