"""Static timing analysis over characterized cells.

Computes per-net arrival times and the critical path of an acyclic
netlist at a given (V_DD, V_T-shift) corner.  This is how module cycle
times are derived for the energy models: the paper's iso-performance
comparisons hold the *critical-path delay* fixed while varying
technology parameters.

Everything about a netlist that does not depend on the corner (level
order, each net's fanout cells, register loads and wire capacitance)
is compiled once into a :class:`TimingPlan`; :meth:`analyze` and
:meth:`slacks` evaluate it, pricing each distinct load cell's input
capacitance once per corner and each gate from its load alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.circuits.netlist import (
    Instance,
    Netlist,
    register_pin_capacitance,
)
from repro.device.technology import Technology
from repro.errors import NetlistError
from repro.tech.cells import Cell
from repro.tech.characterize import CellCharacterizer

__all__ = ["CriticalPath", "StaticTimingAnalyzer", "TimingPlan"]


@dataclass(frozen=True)
class CriticalPath:
    """Result of a timing run: worst arrival and the path that sets it."""

    delay_s: float
    path_nets: Tuple[str, ...]
    arrival_times: Dict[str, float]

    @property
    def depth(self) -> int:
        """Number of gates along the critical path."""
        return max(len(self.path_nets) - 1, 0)


@dataclass(frozen=True)
class TimingPlan:
    """The corner-independent part of one netlist's timing.

    Entry ``i`` of ``fanout``, ``register_loads`` and ``wire_f``
    describes the net driven by ``order[i]``: the ``(index into
    cells, instance name)`` of every gate it loads (in
    :meth:`Netlist.fanout` order), how many register D pins it loads,
    and its wire capacitance [F], which does not depend on V_DD.
    ``cells`` lists each distinct load cell once, so a corner prices
    its input capacitance once.  ``sources`` launch at t = 0 (primary
    inputs, constants, register outputs); ``endpoints`` are the
    primary outputs then the register D pins.
    """

    order: Tuple[Instance, ...]
    cells: Tuple[Cell, ...]
    fanout: Tuple[Tuple[Tuple[int, str], ...], ...]
    register_loads: Tuple[int, ...]
    wire_f: Tuple[float, ...]
    sources: Tuple[str, ...]
    endpoints: Tuple[str, ...]

    @classmethod
    def build(
        cls,
        netlist: Netlist,
        technology: Technology,
        wire_length_per_fanout_um: float,
    ) -> "TimingPlan":
        """Compile a netlist (raises :class:`NetlistError` if cyclic)."""
        order = tuple(netlist.levelize())
        cells: Dict[Cell, int] = {}
        fanout = []
        register_loads = []
        wire_f = []
        for instance in order:
            loads = tuple(
                (cells.setdefault(load.cell, len(cells)), load.name)
                for load, _ in netlist.fanout(instance.output)
            )
            n_registers = len(netlist.register_fanout(instance.output))
            fanout.append(loads)
            register_loads.append(n_registers)
            wire_f.append(
                technology.wire_cap.wire_capacitance(
                    wire_length_per_fanout_um
                    * max(len(loads) + n_registers, 1)
                )
            )
        return cls(
            order=order,
            cells=tuple(cells),
            fanout=tuple(fanout),
            register_loads=tuple(register_loads),
            wire_f=tuple(wire_f),
            sources=tuple(
                dict.fromkeys(
                    [
                        *netlist.primary_inputs,
                        *netlist.constants,
                        *netlist.register_outputs(),
                    ]
                )
            ),
            endpoints=tuple(netlist.primary_outputs)
            + tuple(
                register.data_input
                for register in netlist.registers.values()
            ),
        )


class StaticTimingAnalyzer:
    """Topological arrival-time propagation.

    Gate delay is taken from the cell characterizer with the load equal
    to the driven net's extracted capacitance (fanout input caps plus
    wire); the characterizer adds the cell's own output capacitance.
    Each netlist is compiled into a :class:`TimingPlan` on first use
    and recompiled only when its :attr:`Netlist.revision` changes.
    """

    def __init__(
        self,
        technology: Technology,
        wire_length_per_fanout_um: float = 5.0,
    ):
        if not (
            math.isfinite(wire_length_per_fanout_um)
            and wire_length_per_fanout_um >= 0.0
        ):
            raise NetlistError(
                "wire_length_per_fanout_um must be finite and >= 0, got "
                f"{wire_length_per_fanout_um}"
            )
        self.technology = technology
        self._wire_length_per_fanout_um = wire_length_per_fanout_um
        self._characterizer = CellCharacterizer(technology)
        # id(netlist) -> (netlist, revision, plan); holding the netlist
        # keeps its id from being reused by another object.
        self._plans: Dict[int, Tuple[Netlist, int, TimingPlan]] = {}

    @property
    def wire_length_per_fanout_um(self) -> float:
        """Estimated wire length per fanout pin [um] (fixed: plans use it)."""
        return self._wire_length_per_fanout_um

    def analyze(
        self,
        netlist: Netlist,
        vdd: float,
        vt_shift: float = 0.0,
        per_instance_vt_shifts: Optional[Mapping[str, float]] = None,
        per_instance_size_factors: Optional[Mapping[str, float]] = None,
    ) -> CriticalPath:
        """Arrival times and critical path at a corner.

        ``per_instance_vt_shifts`` overrides ``vt_shift`` for named
        instances — how dual-V_T assignments are timed.
        ``per_instance_size_factors`` scales all device widths of a
        named instance (drive, input and output capacitance scale
        together) — how gate-sizing solutions are timed.
        """
        shifts = per_instance_vt_shifts or {}
        sizes = per_instance_size_factors or {}
        plan = self._checked_plan(netlist, shifts, sizes)
        arrival, worst_input, _ = self._propagate(
            plan, vdd, vt_shift, shifts, sizes
        )
        end_net = self._end_net(plan, arrival)
        path: List[str] = [end_net]
        while path[-1] in worst_input:
            path.append(worst_input[path[-1]])
        path.reverse()
        return CriticalPath(
            delay_s=arrival[end_net],
            path_nets=tuple(path),
            arrival_times=arrival,
        )

    def min_cycle_time(
        self,
        netlist: Netlist,
        vdd: float,
        vt_shift: float = 0.0,
        sequencing_overhead: float = 0.1,
    ) -> float:
        """Critical path plus register/clocking overhead [s]."""
        if not (
            math.isfinite(sequencing_overhead) and sequencing_overhead >= 0.0
        ):
            raise NetlistError(
                "sequencing_overhead must be finite and >= 0, got "
                f"{sequencing_overhead}"
            )
        critical = self.analyze(netlist, vdd, vt_shift)
        return critical.delay_s * (1.0 + sequencing_overhead)

    def max_frequency(
        self,
        netlist: Netlist,
        vdd: float,
        vt_shift: float = 0.0,
    ) -> float:
        """Highest clock frequency the module supports [Hz]."""
        return 1.0 / self.min_cycle_time(netlist, vdd, vt_shift)

    def slacks(
        self,
        netlist: Netlist,
        vdd: float,
        vt_shift: float = 0.0,
        per_instance_vt_shifts: Optional[Mapping[str, float]] = None,
        required_time_s: Optional[float] = None,
        per_instance_size_factors: Optional[Mapping[str, float]] = None,
    ) -> Dict[str, float]:
        """Per-instance timing slack [s].

        Classic required-time backward pass: endpoints (primary
        outputs and register D pins) are required at
        ``required_time_s`` (default: the critical-path delay, so the
        worst gate has zero slack); each gate's slack is how much it
        could slow without violating any endpoint — the budget a
        dual-V_T assignment or gate-sizing pass spends.
        """
        if required_time_s is not None and not math.isfinite(
            required_time_s
        ):
            raise NetlistError(
                f"required_time_s must be finite, got {required_time_s}"
            )
        shifts = per_instance_vt_shifts or {}
        sizes = per_instance_size_factors or {}
        plan = self._checked_plan(netlist, shifts, sizes)
        arrival, _, delays = self._propagate(
            plan, vdd, vt_shift, shifts, sizes
        )
        if required_time_s is None:
            required_time_s = arrival[self._end_net(plan, arrival)]
        required: Dict[str, float] = dict.fromkeys(
            plan.endpoints, required_time_s
        )
        for instance, delay in zip(reversed(plan.order), reversed(delays)):
            needed_at_inputs = (
                required.get(instance.output, float("inf")) - delay
            )
            for net in instance.inputs:
                required[net] = min(
                    required.get(net, float("inf")), needed_at_inputs
                )
        return {
            instance.name: (
                required.get(instance.output, float("inf"))
                - arrival[instance.output]
            )
            for instance in plan.order
        }

    # ------------------------------------------------------------------
    def _plan(self, netlist: Netlist) -> TimingPlan:
        """The netlist's compiled plan at its current revision."""
        entry = self._plans.get(id(netlist))
        if entry is not None and entry[1] == netlist.revision:
            return entry[2]
        plan = TimingPlan.build(
            netlist, self.technology, self._wire_length_per_fanout_um
        )
        self._plans[id(netlist)] = (netlist, netlist.revision, plan)
        return plan

    def _checked_plan(
        self,
        netlist: Netlist,
        shifts: Mapping[str, float],
        sizes: Mapping[str, float],
    ) -> TimingPlan:
        """Validate per-instance overrides, then fetch the plan."""
        for label, mapping in (("V_T shifts", shifts), ("sizes", sizes)):
            unknown = set(mapping) - set(netlist.instances)
            if unknown:
                raise NetlistError(
                    f"{label} for unknown instances: {sorted(unknown)[:5]}"
                )
        if not all(0.0 < k < math.inf for k in sizes.values()):
            raise NetlistError("size factors must be positive and finite")
        return self._plan(netlist)

    def _propagate(
        self,
        plan: TimingPlan,
        vdd: float,
        vt_shift: float,
        shifts: Mapping[str, float],
        sizes: Mapping[str, float],
    ) -> Tuple[Dict[str, float], Dict[str, str], List[float]]:
        """Forward pass: arrival times, each output's latest input net
        and each gate's delay (in plan order)."""
        characterizer = self._characterizer
        input_capacitance = [
            cell.input_capacitance(self.technology, vdd)
            for cell in plan.cells
        ]
        arrival: Dict[str, float] = dict.fromkeys(plan.sources, 0.0)
        worst_input: Dict[str, str] = {}
        delays: List[float] = []
        d_pin = None
        for instance, loads, n_registers, wire in zip(
            plan.order, plan.fanout, plan.register_loads, plan.wire_f
        ):
            latest_time, latest_net = max(
                [(arrival[net], net) for net in instance.inputs]
            )
            load = sum(
                input_capacitance[cell] * sizes.get(name, 1.0)
                for cell, name in loads
            )
            if n_registers:
                if d_pin is None:
                    d_pin = register_pin_capacitance(self.technology, vdd)
                load += n_registers * d_pin
            load = load + wire
            # A size factor k scales drive and self-load together, so
            # the sized delay equals the unit-size delay with the
            # external load divided by k.
            delay = characterizer.propagation_delay(
                instance.cell,
                vdd,
                load / sizes.get(instance.name, 1.0),
                shifts.get(instance.name, vt_shift),
            )
            arrival[instance.output] = latest_time + delay
            worst_input[instance.output] = latest_net
            delays.append(delay)
        return arrival, worst_input, delays

    @staticmethod
    def _end_net(plan: TimingPlan, arrival: Mapping[str, float]) -> str:
        """The latest timing endpoint (every gate output if none are
        declared)."""
        endpoints = plan.endpoints or tuple(
            instance.output for instance in plan.order
        )
        return max(endpoints, key=arrival.__getitem__)
