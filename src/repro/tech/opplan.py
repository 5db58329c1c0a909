"""Decoded batch evaluation of V_DD operating sweeps.

The Fig. 3/4 experiments ask the mirror image of the variation
question answered by :mod:`repro.tech.batch`: *the same cell, under
the same load, at many supply voltages*.  Every optimizer probe —
bisection steps in ``solve_vdd_for_delay``, energy evaluations along
the optimum locus, whole (V_DD, V_T) surface grids — would otherwise
walk the scalar ``fanout_delay`` / ``propagation_delay`` /
``leakage_current`` chain, re-resolving memo keys, geometry and
Mosfet constructions although none of them depend on V_DD.

:class:`OperatingPlan` decodes the (cell, load) pair once:
:meth:`CellCharacterizer.plan_operating
<repro.tech.characterize.CellCharacterizer.plan_operating>` resolves
the gate/junction geometry products and the two drive devices.
:meth:`OperatingPlan.delays` / :meth:`OperatingPlan.leakages` /
:meth:`OperatingPlan.energies` then evaluate a whole vector of
supplies: per point they take the non-linear C(V) views from the
capacitance models and call the device kernel —
:meth:`Mosfet.on_current <repro.device.mosfet.Mosfet.on_current>` for
drive, the characterizer's
:class:`~repro.device.leakage.StackLeakageModel` for leakage.

The results are **bit-identical** to the per-point chain: the hoisted
geometry products keep the reference float-op association order
(``a*b*c`` folds left, so hoisting ``a*b`` is exact), and every other
number comes from the same model calls and stack memos.  The
differential tests in ``tests/property/test_opplan_differential.py``
assert equality corner for corner.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro import obs as _obs
from repro.device.mosfet import Mosfet
from repro.errors import CharacterizationError, DeviceModelError
from repro.tech.characterize import (
    _DELAY_CONSTANT,
    _check_vdd,
    _require_finite,
)

__all__ = ["OperatingPlan"]


class OperatingPlan:
    """A (cell, load) pair decoded for vectorized V_DD sweeps.

    Produced by :meth:`CellCharacterizer.plan_operating
    <repro.tech.characterize.CellCharacterizer.plan_operating>`; holds
    the hoisted geometry products, the two capacitance models, the two
    drive devices and the characterizer's stack-leakage models.

    The load is specified either as a fixed external ``load_f`` [F]
    (mirroring :meth:`~repro.tech.characterize.CellCharacterizer.
    propagation_delay`) or as a ``fanout`` multiple of the cell's own
    V_DD-dependent input capacitance (mirroring
    :meth:`~repro.tech.characterize.CellCharacterizer.fanout_delay` —
    the ring-oscillator configuration).
    """

    __slots__ = (
        "cell_name",
        "load_f",
        "fanout",
        "output_high_probability",
        "_gate_cap",
        "_junction_cap",
        "_gate_area_n",
        "_gate_area_p",
        "_drain_area_n",
        "_drain_area_p",
        "_pull_down",
        "_pull_up",
        "_nmos_stacks",
        "_pmos_stacks",
        "_nmos_widths",
        "_pmos_widths",
    )

    def __init__(
        self,
        characterizer,
        cell,
        load_f: float,
        fanout: Optional[int],
        output_high_probability: float,
    ):
        technology = characterizer.technology
        length = technology.drawn_length_um
        extent = technology.drain_extent_um
        # Same dimension guard (and error) the capacitance models apply
        # on every per-point call, hoisted to decode time.
        widths = (
            cell.input_nmos_width_um,
            cell.input_pmos_width_um,
            cell.input_nmos_width_um * cell.nmos_drains_on_output,
            cell.input_pmos_width_um * cell.pmos_drains_on_output,
        )
        if length <= 0.0 or extent <= 0.0 or any(w <= 0.0 for w in widths):
            raise DeviceModelError("device dimensions must be positive")
        transistors = technology.transistors
        self.cell_name = cell.name
        self.load_f = load_f
        self.fanout = fanout
        self.output_high_probability = output_high_probability
        self._gate_cap = technology.gate_cap
        self._junction_cap = technology.junction_cap
        # gate_capacitance folds (w * l) * C_sw(V_DD); hoist (w * l).
        self._gate_area_n = cell.input_nmos_width_um * length
        self._gate_area_p = cell.input_pmos_width_um * length
        # drain_capacitance folds ((w * drains) * extent) * C_sw.
        self._drain_area_n = widths[2] * extent
        self._drain_area_p = widths[3] * extent
        self._pull_down = Mosfet(
            transistors.nmos,
            width_um=cell.series_equivalent_width(cell.nmos_path_widths_um),
        )
        self._pull_up = Mosfet(
            transistors.pmos,
            width_um=cell.series_equivalent_width(cell.pmos_path_widths_um),
        )
        self._nmos_stacks = characterizer._nmos_stacks
        self._pmos_stacks = characterizer._pmos_stacks
        self._nmos_widths = cell.nmos_path_widths_um
        self._pmos_widths = cell.pmos_path_widths_um

    @classmethod
    def build(
        cls,
        characterizer,
        cell,
        load_f: float = 0.0,
        fanout: Optional[int] = None,
        output_high_probability: float = 0.5,
    ) -> "OperatingPlan":
        """Decode one (cell, load) pair of ``characterizer``'s technology.

        Called through :meth:`CellCharacterizer.plan_operating`, which
        validates the arguments and memoizes the plan.
        """
        return cls(
            characterizer, cell, load_f, fanout, output_high_probability
        )

    # ------------------------------------------------------------------
    # Per-point evaluation
    # ------------------------------------------------------------------
    def _total_load(self, vdd: float) -> float:
        """External load plus output capacitance at one supply [F].

        Fanout mode touches the gate C(V) view *first*, so a
        non-positive supply raises the same ``DeviceModelError`` as the
        per-point ``fanout_delay`` chain; fixed-load mode raises the
        characterizer's ``CharacterizationError`` instead, exactly as
        ``propagation_delay`` would.
        """
        fanout = self.fanout
        if fanout is not None:
            _require_finite("vdd", vdd)
            gate_sw = self._gate_cap.switched_capacitance(vdd)
            cin = self._gate_area_n * gate_sw + self._gate_area_p * gate_sw
            load = fanout * cin
        else:
            _check_vdd(vdd)
            load = self.load_f
        junction_sw = self._junction_cap.switched_capacitance(vdd)
        cout = (
            self._drain_area_n * junction_sw
            + self._drain_area_p * junction_sw
        )
        return load + cout

    def _delay(self, vdd: float, vt_shift: float, total_load: float) -> float:
        """``propagation_delay`` of ``total_load`` at one supply [s]."""
        weakest = min(
            self._pull_down.on_current(vdd, vt_shift),
            self._pull_up.on_current(vdd, vt_shift),
        )
        if weakest <= 0.0:
            raise CharacterizationError(
                f"cell {self.cell_name} has no drive at V_DD = {vdd} V"
            )
        return _DELAY_CONSTANT * total_load * vdd / weakest

    def _leakage(self, vdd: float, vt_shift: float) -> float:
        """``leakage_current`` at one supply [A]."""
        p_high = self.output_high_probability
        nmos_leak = self._nmos_stacks.current(self._nmos_widths, vdd, vt_shift)
        pmos_leak = self._pmos_stacks.current(self._pmos_widths, vdd, vt_shift)
        return p_high * nmos_leak + (1.0 - p_high) * pmos_leak

    # ------------------------------------------------------------------
    # Batched evaluation
    # ------------------------------------------------------------------
    def delays(
        self, vdds: Sequence[float], vt_shift: float = 0.0
    ) -> List[float]:
        """The per-point delay chain at every supply, bit-identically.

        Fanout mode mirrors ``fanout_delay``; fixed-load mode mirrors
        ``propagation_delay``.
        """
        _require_finite("vt_shift", vt_shift)
        out = [
            self._delay(vdd, vt_shift, self._total_load(vdd)) for vdd in vdds
        ]
        if _obs.ENABLED and out:
            _obs.incr("opplan.points_batched", len(out))
        return out

    def leakages(
        self, vdds: Sequence[float], vt_shift: float = 0.0
    ) -> List[float]:
        """``leakage_current`` at every supply, bit-identically.

        Consults (and fills) the characterizer's stack memos in the
        same order as the per-point path.
        """
        _require_finite("vt_shift", vt_shift)
        out: List[float] = []
        for vdd in vdds:
            _check_vdd(vdd)
            out.append(self._leakage(vdd, vt_shift))
        if _obs.ENABLED and out:
            _obs.incr("opplan.points_batched", len(out))
        return out

    def energies(
        self, vdds: Sequence[float], vt_shift: float = 0.0
    ) -> List[Tuple[float, float]]:
        """Raw ``(E_transition, I_leak)`` pairs at every supply.

        ``E_transition`` is ``energy_per_transition`` at this plan's
        load [J] and ``I_leak`` is ``leakage_current`` [A] — the two
        numbers the ring oscillator's ``energy_per_cycle`` chain
        combines with its stage count, activity and cycle time
        (``E = stages * activity * E_tr + (stages * I_leak) * V * T``).
        Returning the raw pair keeps every downstream association order
        in the caller, bit-identical to the per-point chain.
        """
        _require_finite("vt_shift", vt_shift)
        out: List[Tuple[float, float]] = []
        for vdd in vdds:
            total = self._total_load(vdd)
            out.append((total * vdd * vdd, self._leakage(vdd, vt_shift)))
        if _obs.ENABLED and out:
            _obs.incr("opplan.points_batched", len(out))
        return out

    def operating_points(
        self,
        vdds: Sequence[float],
        vt_shift: float = 0.0,
        max_delay_s: Optional[float] = None,
    ) -> List[Tuple[float, Optional[float], Optional[float]]]:
        """Fused ``(delay, E_transition, I_leak)`` triples per supply.

        Evaluates :meth:`delays` and :meth:`energies` in one pass,
        computing the V_DD-dependent load exactly once per point — the
        capacitance views are pure functions of V_DD, so sharing the
        ``load + cout`` floats between the delay numerator and the
        ``C * V^2`` transition energy reproduces both per-point chains
        bit-identically.

        When ``max_delay_s`` is given, points whose delay exceeds it
        return ``(delay, None, None)`` and skip the leakage-stack
        lookups entirely — the surface engine's infeasible cells never
        consume their energies, so eliding the work changes nothing.
        """
        _require_finite("vt_shift", vt_shift)
        out: List[Tuple[float, Optional[float], Optional[float]]] = []
        for vdd in vdds:
            total = self._total_load(vdd)
            delay = self._delay(vdd, vt_shift, total)
            if max_delay_s is not None and delay > max_delay_s:
                out.append((delay, None, None))
                continue
            out.append(
                (delay, total * vdd * vdd, self._leakage(vdd, vt_shift))
            )
        if _obs.ENABLED and out:
            _obs.incr("opplan.points_batched", len(out))
        return out

    # Single-point conveniences (tests and spot checks).
    def delay(self, vdd: float, vt_shift: float = 0.0) -> float:
        """One delay sample through the plan."""
        return self.delays((vdd,), vt_shift)[0]

    def leakage(self, vdd: float, vt_shift: float = 0.0) -> float:
        """One ``leakage_current`` sample through the plan."""
        return self.leakages((vdd,), vt_shift)[0]
