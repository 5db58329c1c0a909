"""The indexed switch-level engine against the reference event loop.

``SwitchLevelSimulator.run_vectors_fast`` is the production engine the
design flow, the CLI and the paper benchmarks run on;
``run_vectors`` is the readable, name-keyed oracle.  These tests draw
the three datapath unit families at small widths, random stimulus and
both simulation corners the toolkit uses, and require the two engines
to agree on the activity report, the final net state and the final
simulation time.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.builders import (
    array_multiplier,
    barrel_shifter,
    ripple_carry_adder,
)
from repro.core.flow import LowVoltageDesignFlow
from repro.core.scenarios import standard_datapath
from repro.device.technology import soi_low_vt, soias_technology
from repro.switchsim.simulator import SwitchLevelSimulator
from repro.switchsim.stimulus import random_bus_vectors

_VDD = 1.0


def _flow_back_gate_shift(technology):
    """The V_T shift ``LowVoltageDesignFlow.unit_activity`` simulates at."""
    back_gate = technology.back_gate
    return back_gate.vt_shift_at(
        min(technology.back_gate_swing, back_gate.max_back_gate_bias)
    )


_SOIAS = soias_technology()
_CORNERS = {
    "soi_low_vt": (soi_low_vt(), 0.0),
    "soias_back_gate": (_SOIAS, _flow_back_gate_shift(_SOIAS)),
}


def _adder(width):
    return ripple_carry_adder(width), {"a": width, "b": width}


def _shifter(width):
    width = 1 << (width - 1).bit_length()
    return barrel_shifter(width), {"a": width, "s": width.bit_length() - 1}


def _multiplier(width):
    return array_multiplier(width), {"a": width, "b": width}


_UNITS = {"adder": _adder, "shifter": _shifter, "multiplier": _multiplier}


class TestEnginesAgree:
    @settings(deadline=None, max_examples=100)
    @given(
        unit=st.sampled_from(sorted(_UNITS)),
        width=st.integers(2, 6),
        corner=st.sampled_from(sorted(_CORNERS)),
        seed=st.integers(0, 2**16),
        count=st.integers(2, 40),
        one_probability=st.sampled_from([0.1, 0.5, 0.9]),
    )
    def test_reports_state_and_time_match(
        self, unit, width, corner, seed, count, one_probability
    ):
        netlist, buses = _UNITS[unit](width)
        technology, vt_shift = _CORNERS[corner]
        vectors = random_bus_vectors(
            buses, count, seed=seed, one_probability=one_probability
        )
        reference, fast = (
            SwitchLevelSimulator(netlist, technology, _VDD, vt_shift=vt_shift)
            for _ in range(2)
        )
        assert fast.run_vectors_fast(vectors) == reference.run_vectors(
            vectors
        )
        assert fast.state == reference.state
        assert fast.now_fs == reference.now_fs


class TestFlowRunsTheFastEngine:
    @pytest.mark.parametrize("unit", sorted(_UNITS))
    def test_unit_activity_matches_reference(self, unit):
        flow = LowVoltageDesignFlow(vdd=_VDD, clock_hz=1e6)
        datapath_unit = standard_datapath(width=4, stimulus_vectors=40)[unit]
        reference = SwitchLevelSimulator(
            datapath_unit.netlist,
            flow.technology,
            flow.vdd,
            vt_shift=_flow_back_gate_shift(flow.technology),
        ).run_vectors(datapath_unit.vectors)
        assert (
            flow.unit_activity(datapath_unit.netlist, datapath_unit.vectors)
            == reference
        )
