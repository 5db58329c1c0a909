"""Event-driven gate-level simulator with inertial delays.

Each gate's propagation delay is derived from the cell characterizer at
the simulation corner, with the load extracted from the netlist — so
heavily loaded nets are slower, carry chains straggle, and the sum XORs
of a ripple adder glitch exactly as the paper's IRSIM runs showed.

The simulator exposes two levels of use:

* :meth:`SwitchLevelSimulator.apply` — change primary inputs, run until
  quiescence, and return the per-net transition counts of that vector.
* :meth:`SwitchLevelSimulator.run_vectors_fast` — apply a stimulus
  sequence and accumulate an
  :class:`~repro.switchsim.activity.ActivityReport`.  This is the
  production engine: the design flow, the CLI and the paper benchmarks
  run on it.
* :meth:`SwitchLevelSimulator.run_vectors` — the same report from the
  readable, name-keyed reference event loop.  It is kept as the
  independent oracle the tests and ``benchmarks/perf/bench_hotpaths.py``
  compare the fast engine against.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro import obs
from repro.circuits.netlist import Netlist
from repro.device.technology import Technology
from repro.errors import SimulationError
from repro.switchsim.activity import ActivityReport
from repro.switchsim.events import EventQueue
from repro.tech.characterize import CellCharacterizer

__all__ = ["SwitchLevelSimulator"]

_FS_PER_S = 1e15

#: Fast-path sentinel for "no pending event" (0/1 are live values).
_NO_PENDING = object()


class SwitchLevelSimulator:
    """Simulates one netlist at one (V_DD, V_T-shift) corner.

    Parameters
    ----------
    netlist:
        The circuit; may be cyclic (e.g. ring oscillators) as long as
        runs are bounded with ``max_events``.
    technology, vdd, vt_shift:
        The electrical corner; sets every gate's inertial delay.
    wire_length_per_fanout_um:
        Wire-load assumption used for both delay and capacitance.
    """

    def __init__(
        self,
        netlist: Netlist,
        technology: Technology,
        vdd: float,
        vt_shift: float = 0.0,
        wire_length_per_fanout_um: float = 5.0,
    ):
        netlist.validate()
        self.netlist = netlist
        self.technology = technology
        self.vdd = vdd
        self.vt_shift = vt_shift
        self.wire_length_per_fanout_um = wire_length_per_fanout_um

        characterizer = CellCharacterizer(technology)
        self._delay_fs: Dict[str, int] = {}
        for instance in netlist.instances.values():
            external = self._external_load(instance.output)
            delay_s = characterizer.propagation_delay(
                instance.cell, vdd, external, vt_shift
            )
            self._delay_fs[instance.name] = max(int(delay_s * _FS_PER_S), 1)

        self.state: Dict[str, Optional[int]] = {
            net: None for net in netlist.nets()
        }
        self.state.update(netlist.constants)
        self.now_fs = 0
        self._queue = EventQueue()
        self._rising: Dict[str, int] = {net: 0 for net in self.state}
        self._falling: Dict[str, int] = {net: 0 for net in self.state}
        self._vectors_applied = 0
        self._build_fast_tables()

    def _build_fast_tables(self) -> None:
        """Precompute integer net ids and per-net fanout tuples.

        The reference event loop resolves net names through dicts and
        re-walks ``Netlist.fanout`` per event; the batched fast path
        (:meth:`run_vectors_fast`) works entirely on these indexed
        tables.  Net ids follow ``Netlist.nets()`` order and fanout
        tuples preserve ``Netlist.fanout`` insertion order, so event
        scheduling order — and therefore every glitch count — is
        identical between the two paths.
        """
        netlist = self.netlist
        names: List[str] = list(netlist.nets())
        self._net_names = names
        self._net_ids: Dict[str, int] = {n: i for i, n in enumerate(names)}
        instances = list(netlist.instances.values())
        self._inst_list = instances
        self._inst_inputs: List[Tuple[int, ...]] = [
            tuple(self._net_ids[n] for n in inst.inputs) for inst in instances
        ]
        self._inst_output: List[int] = [
            self._net_ids[inst.output] for inst in instances
        ]
        self._inst_delay: List[int] = [
            self._delay_fs[inst.name] for inst in instances
        ]
        self._inst_table: List[Tuple[int, ...]] = [
            inst.cell.truth_table for inst in instances
        ]
        index_of = {inst.name: k for k, inst in enumerate(instances)}
        self._fanout_ids: List[Tuple[int, ...]] = [
            tuple(index_of[inst.name] for inst, _ in netlist.fanout(name))
            for name in names
        ]
        self._pi_names = frozenset(netlist.primary_inputs)

    # ------------------------------------------------------------------
    # Initialization
    # ------------------------------------------------------------------
    def initialize(
        self, input_values: Mapping[str, int], preset: Optional[Mapping[str, int]] = None
    ) -> None:
        """Settle the circuit from an all-unknown state.

        Primary inputs take ``input_values``; ``preset`` optionally
        pins internal nets (needed to start cyclic circuits such as
        ring oscillators).  Settling transitions are *not* counted as
        activity.
        """
        for net in self.state:
            self.state[net] = None
        self.state.update(self.netlist.constants)
        if preset:
            for net, value in preset.items():
                if net not in self.state:
                    raise SimulationError(f"preset for unknown net {net!r}")
                self.state[net] = value
        self._set_inputs(input_values)
        # Three-valued relaxation to a fixpoint: repeatedly evaluate
        # every gate until nothing changes.  Gates whose output was
        # preset keep their preset if evaluation is consistent-unknown.
        for _ in range(len(self.netlist.instances) + 2):
            changed = False
            for instance in self.netlist.instances.values():
                operands = [self.state[n] for n in instance.inputs]
                value = instance.cell.evaluate(operands)
                if value is not None and self.state[instance.output] != value:
                    self.state[instance.output] = value
                    changed = True
            if not changed:
                break
        self.now_fs = 0
        self._queue = EventQueue()

    # ------------------------------------------------------------------
    # Vector application
    # ------------------------------------------------------------------
    def apply(
        self,
        input_values: Mapping[str, int],
        max_events: int = 1_000_000,
    ) -> int:
        """Apply an input vector and simulate to quiescence.

        Returns the number of value-change events processed (a glitchy
        vector processes more events than the functional minimum).
        """
        changed = self._set_inputs(input_values, count=True, propagate=True)
        processed = self._drain(max_events)
        self._vectors_applied += 1
        return processed + changed

    def run_vectors(
        self,
        vectors: Iterable[Mapping[str, int]],
        max_events_per_vector: int = 1_000_000,
    ) -> ActivityReport:
        """Apply a stimulus sequence; first vector initializes silently.

        Returns the accumulated :class:`ActivityReport` over the
        remaining vectors — the paper's per-node transition statistics.
        This is the reference oracle for :meth:`run_vectors_fast`.
        """
        iterator = iter(vectors)
        try:
            first = next(iterator)
        except StopIteration:
            raise SimulationError("stimulus must contain at least one vector")
        self.initialize(first)
        self.reset_activity()
        total_events = 0
        with obs.span("simulator.run_vectors"):
            for vector in iterator:
                total_events += self.apply(
                    vector, max_events=max_events_per_vector
                )
        if obs.ENABLED:
            obs.incr("simulator.runs.reference")
            obs.incr("simulator.vectors", self._vectors_applied)
            obs.incr("simulator.events", total_events)
        return self.activity_report()

    def run_vectors_fast(
        self,
        vectors: Iterable[Mapping[str, int]],
        max_events_per_vector: int = 1_000_000,
    ) -> ActivityReport:
        """Batched :meth:`run_vectors` on the precomputed index tables.

        Semantically identical to :meth:`run_vectors` (same event
        ordering, same inertial cancellation, same counts — the
        equivalence is asserted in the test suite); the difference is
        purely mechanical: net names become integer ids, per-event
        fanout walks become tuple scans, and all per-vector state (the
        value/counter arrays and the heap) is allocated once for the
        whole batch.
        """
        iterator = iter(vectors)
        try:
            first = next(iterator)
        except StopIteration:
            raise SimulationError("stimulus must contain at least one vector")
        self.initialize(first)
        self.reset_activity()

        net_ids = self._net_ids
        names = self._net_names
        n_nets = len(names)
        state: List[int] = [-1] * n_nets
        for i, name in enumerate(names):
            value = self.state[name]
            if value is not None:
                state[i] = value
        rising = [0] * n_nets
        falling = [0] * n_nets
        heap: List[Tuple[int, int, int, int, int]] = []
        generation = [0] * n_nets
        pending: List[object] = [_NO_PENDING] * n_nets
        sequence = 0
        now = 0

        inst_inputs = self._inst_inputs
        inst_output = self._inst_output
        inst_delay = self._inst_delay
        inst_table = self._inst_table
        fanout_ids = self._fanout_ids
        instances = self._inst_list
        heappush = heapq.heappush
        heappop = heapq.heappop

        def evaluate_and_schedule(k: int) -> None:
            nonlocal sequence
            index = 0
            unknown = False
            for bit, i in enumerate(inst_inputs[k]):
                value = state[i]
                if value < 0:
                    unknown = True
                    break
                index |= value << bit
            if unknown:
                new_value = instances[k].cell.evaluate(
                    [
                        None if state[i] < 0 else state[i]
                        for i in inst_inputs[k]
                    ]
                )
            else:
                new_value = inst_table[k][index]
            out = inst_output[k]
            was_pending = pending[out] is not _NO_PENDING
            if was_pending:
                destined = pending[out]
            elif state[out] < 0:
                destined = None
            else:
                destined = state[out]
            if new_value == destined:
                return
            if new_value is None:
                if was_pending:
                    generation[out] += 1
                    pending[out] = _NO_PENDING
                return
            generation[out] += 1
            pending[out] = new_value
            sequence += 1
            heappush(
                heap,
                (now + inst_delay[k], sequence, out, new_value, generation[out]),
            )

        vectors_applied = 0
        total_events = 0
        span = obs.span("simulator.run_vectors_fast")
        span.__enter__()
        try:
            for vector in iterator:
                for net, value in vector.items():
                    if net not in self._pi_names:
                        raise SimulationError(
                            f"{net!r} is not a primary input of "
                            f"{self.netlist.name!r}"
                        )
                    if not isinstance(value, int) or value not in (0, 1):
                        raise SimulationError(
                            f"input {net!r} must be 0/1, got {value}"
                        )
                    i = net_ids[net]
                    old = state[i]
                    if old == value:
                        continue
                    state[i] = value
                    total_events += 1
                    if old >= 0:
                        if value == 1:
                            rising[i] += 1
                        else:
                            falling[i] += 1
                    for k in fanout_ids[i]:
                        evaluate_and_schedule(k)
                processed = 0
                while heap:
                    time_fs, _, i, value, gen = heappop(heap)
                    if generation[i] != gen:
                        continue
                    pending[i] = _NO_PENDING
                    processed += 1
                    if processed > max_events_per_vector:
                        raise SimulationError(
                            f"event budget {max_events_per_vector} "
                            f"exhausted; netlist {self.netlist.name!r} "
                            "may oscillate"
                        )
                    now = time_fs
                    old = state[i]
                    if old == value:
                        continue
                    state[i] = value
                    if old >= 0:
                        if value == 1:
                            rising[i] += 1
                        else:
                            falling[i] += 1
                    for k in fanout_ids[i]:
                        evaluate_and_schedule(k)
                total_events += processed
                vectors_applied += 1
        finally:
            span.__exit__(None, None, None)
            # Mirror the batch back into the reference-path state so
            # apply()/activity_report() keep working afterwards.
            for i, name in enumerate(names):
                self.state[name] = None if state[i] < 0 else state[i]
                self._rising[name] = rising[i]
                self._falling[name] = falling[i]
            self.now_fs = now
            self._queue = EventQueue()
            self._vectors_applied = vectors_applied
        if obs.ENABLED:
            obs.incr("simulator.runs.fast")
            obs.incr("simulator.vectors", vectors_applied)
            obs.incr("simulator.events", total_events)
        return self.activity_report()

    def clock_cycle(
        self,
        input_values: Mapping[str, int],
        max_events: int = 1_000_000,
    ) -> int:
        """One clock edge of a sequential netlist.

        Samples every register's D from the settled state, then applies
        the new primary-input values and the captured Q values
        simultaneously (the post-edge wavefront) and simulates to
        quiescence.
        """
        if not self.netlist.registers:
            raise SimulationError(
                f"netlist {self.netlist.name!r} has no registers; "
                "use apply()"
            )
        captured = {
            register.output: self.state[register.data_input]
            for register in self.netlist.registers.values()
        }
        for net, value in captured.items():
            if value is None:
                raise SimulationError(
                    f"register D value for {net!r} is unknown; "
                    "initialize() the circuit first"
                )
        changed = self._set_inputs(input_values, count=True, propagate=True)
        changed += self._set_register_outputs(captured)
        processed = self._drain(max_events)
        self._vectors_applied += 1
        return processed + changed

    def run_clocked(
        self,
        vectors: Iterable[Mapping[str, int]],
        max_events_per_vector: int = 1_000_000,
    ) -> ActivityReport:
        """Clock a stimulus sequence through a sequential netlist.

        The first vector initializes (registers take their declared
        reset values); each further vector is one clock cycle.
        """
        iterator = iter(vectors)
        try:
            first = next(iterator)
        except StopIteration:
            raise SimulationError("stimulus must contain at least one vector")
        self.initialize(
            first, preset=self.netlist.initial_register_state()
        )
        self.reset_activity()
        for vector in iterator:
            self.clock_cycle(vector, max_events=max_events_per_vector)
        return self.activity_report()

    def _set_register_outputs(self, captured: Mapping[str, int]) -> int:
        changed = 0
        for net, value in captured.items():
            old = self.state[net]
            if old == value:
                continue
            self.state[net] = value
            changed += 1
            if old is not None:
                if value == 1:
                    self._rising[net] += 1
                else:
                    self._falling[net] += 1
            for instance, _ in self.netlist.fanout(net):
                self._evaluate_and_schedule(instance)
        return changed

    def run_free(
        self,
        preset: Mapping[str, int],
        duration_fs: int,
        max_events: int = 1_000_000,
    ) -> ActivityReport:
        """Free-run a cyclic circuit (ring oscillator) for a duration.

        The preset seeds the loop; simulation stops at ``duration_fs``.
        The report's ``cycles`` field is 1 — use raw transition counts.
        """
        self.initialize({net: 0 for net in self.netlist.primary_inputs},
                        preset=preset)
        self.reset_activity()
        # Kick every gate once so inconsistent preset values propagate.
        for instance in self.netlist.instances.values():
            self._evaluate_and_schedule(instance)
        processed = 0
        while processed < max_events:
            next_time = self._queue.peek_time()
            if next_time is None or next_time > duration_fs:
                break
            event = self._queue.pop()
            assert event is not None
            self._commit(event, count=True)
            processed += 1
        else:
            raise SimulationError(
                f"event budget {max_events} exhausted in free-run"
            )
        self._vectors_applied = 1
        return self.activity_report()

    # ------------------------------------------------------------------
    # Activity
    # ------------------------------------------------------------------
    def reset_activity(self) -> None:
        """Zero the transition counters."""
        for net in self._rising:
            self._rising[net] = 0
            self._falling[net] = 0
        self._vectors_applied = 0

    def activity_report(self) -> ActivityReport:
        """Snapshot of accumulated transition counts."""
        return ActivityReport(
            netlist_name=self.netlist.name,
            cycles=max(self._vectors_applied, 1),
            rising=dict(self._rising),
            falling=dict(self._falling),
            primary_inputs=tuple(self.netlist.primary_inputs),
            constants=tuple(self.netlist.constants),
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _set_inputs(
        self,
        input_values: Mapping[str, int],
        count: bool = False,
        propagate: bool = False,
    ) -> int:
        changed = 0
        for net, value in input_values.items():
            if net not in self.netlist.primary_inputs:
                raise SimulationError(
                    f"{net!r} is not a primary input of "
                    f"{self.netlist.name!r}"
                )
            if not isinstance(value, int) or value not in (0, 1):
                raise SimulationError(
                    f"input {net!r} must be 0/1, got {value}"
                )
            old = self.state[net]
            if old == value:
                continue
            self.state[net] = value
            changed += 1
            if count and old is not None:
                if value == 1:
                    self._rising[net] += 1
                else:
                    self._falling[net] += 1
            if propagate:
                for instance, _ in self.netlist.fanout(net):
                    self._evaluate_and_schedule(instance)
        return changed

    def _evaluate_and_schedule(self, instance) -> None:
        operands = [self.state[n] for n in instance.inputs]
        new_value = instance.cell.evaluate(operands)
        output = instance.output
        destined = (
            self._queue.pending_value(output)
            if self._queue.has_pending(output)
            else self.state[output]
        )
        if new_value == destined:
            return
        if new_value is None:
            # Do not schedule transitions to unknown after init.
            self._queue.cancel(output)
            return
        self._queue.schedule(
            self.now_fs + self._delay_fs[instance.name], output, new_value
        )

    def _commit(self, event, count: bool) -> None:
        self.now_fs = event.time_fs
        old = self.state[event.net]
        if old == event.value:
            return
        self.state[event.net] = event.value
        if count and old is not None and event.value is not None:
            if event.value == 1:
                self._rising[event.net] += 1
            else:
                self._falling[event.net] += 1
        for instance, _ in self.netlist.fanout(event.net):
            self._evaluate_and_schedule(instance)

    def _drain(self, max_events: int) -> int:
        processed = 0
        while True:
            event = self._queue.pop()
            if event is None:
                return processed
            processed += 1
            if processed > max_events:
                raise SimulationError(
                    f"event budget {max_events} exhausted; netlist "
                    f"{self.netlist.name!r} may oscillate"
                )
            self._commit(event, count=True)

    def _external_load(self, net: str) -> float:
        loads = self.netlist.fanout(net)
        capacitance = sum(
            instance.cell.input_capacitance(self.technology, self.vdd)
            for instance, _ in loads
        )
        wire = self.technology.wire_cap.wire_capacitance(
            self.wire_length_per_fanout_um * max(len(loads), 1)
        )
        return capacitance + wire
