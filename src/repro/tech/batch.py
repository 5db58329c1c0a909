"""Decoded batch evaluation of V_T-variation sweeps.

Monte-Carlo variation analysis asks one question thousands of times:
*the same cell, at the same (V_DD, load) corner, under a different
``vt_shift``*.  The per-sample path re-resolves the cell on every
call — memo keys, capacitance views, Mosfet construction — even
though only the shift changes.

:class:`VariationPlan` decodes the corner once:
:meth:`CellCharacterizer.plan_variation
<repro.tech.characterize.CellCharacterizer.plan_variation>` resolves
the output capacitance, the ``0.7 * C * V`` delay numerator and the
two drive devices.  :meth:`VariationPlan.delays` /
:meth:`VariationPlan.leakages` then evaluate a whole vector of shifts
by calling the device kernel: :meth:`Mosfet.on_current
<repro.device.mosfet.Mosfet.on_current>` for drive, and the
characterizer's :class:`~repro.device.leakage.StackLeakageModel` for
leakage.

The results are **bit-identical** to the per-sample
``propagation_delay`` / ``leakage_current`` chain, because both go
through the same device calls and the same stack memos.  The
differential tests in ``tests/property/test_variation_differential.py``
assert equality sample for sample.
"""

from __future__ import annotations

from typing import List, Sequence

from repro import obs as _obs
from repro.device.mosfet import Mosfet
from repro.errors import CharacterizationError
from repro.tech.characterize import _DELAY_CONSTANT, _require_finite

__all__ = ["VariationPlan"]


class VariationPlan:
    """A (cell, V_DD, load) corner decoded for vectorized V_T sweeps.

    Produced by :meth:`CellCharacterizer.plan_variation
    <repro.tech.characterize.CellCharacterizer.plan_variation>`; holds
    the delay numerator, the two drive devices and the characterizer's
    stack-leakage models.
    """

    __slots__ = (
        "cell_name",
        "vdd",
        "load_f",
        "output_high_probability",
        "_numerator",
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
        vdd: float,
        load_f: float,
        output_high_probability: float,
    ):
        transistors = characterizer.technology.transistors
        total_load = load_f + characterizer._output_capacitance(cell, vdd)
        self.cell_name = cell.name
        self.vdd = vdd
        self.load_f = load_f
        self.output_high_probability = output_high_probability
        self._numerator = _DELAY_CONSTANT * total_load * vdd
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
        vdd: float,
        load_f: float,
        output_high_probability: float = 0.5,
    ) -> "VariationPlan":
        """Decode one corner of ``characterizer``'s technology.

        Called through :meth:`CellCharacterizer.plan_variation`, which
        validates the arguments and memoizes the plan.
        """
        return cls(characterizer, cell, vdd, load_f, output_high_probability)

    # ------------------------------------------------------------------
    # Batched evaluation
    # ------------------------------------------------------------------
    def delays(self, vt_shifts: Sequence[float]) -> List[float]:
        """``propagation_delay`` at every shift, bit-identically."""
        vdd = self.vdd
        numerator = self._numerator
        pull_down = self._pull_down.on_current
        pull_up = self._pull_up.on_current
        out: List[float] = []
        for shift in vt_shifts:
            _require_finite("vt_shift", shift)
            weakest = min(pull_down(vdd, shift), pull_up(vdd, shift))
            if weakest <= 0.0:
                raise CharacterizationError(
                    f"cell {self.cell_name} has no drive at "
                    f"V_DD = {vdd} V"
                )
            out.append(numerator / weakest)
        if _obs.ENABLED and out:
            _obs.incr("variation.samples_batched", len(out))
        return out

    def leakages(self, vt_shifts: Sequence[float]) -> List[float]:
        """``leakage_current`` at every shift, bit-identically.

        Consults (and fills) the characterizer's stack memos in the
        same order as the per-sample path.
        """
        vdd = self.vdd
        p_high = self.output_high_probability
        p_low = 1.0 - p_high
        nmos = self._nmos_stacks.current
        pmos = self._pmos_stacks.current
        n_widths = self._nmos_widths
        p_widths = self._pmos_widths
        out: List[float] = []
        for shift in vt_shifts:
            _require_finite("vt_shift", shift)
            out.append(
                p_high * nmos(n_widths, vdd, shift)
                + p_low * pmos(p_widths, vdd, shift)
            )
        if _obs.ENABLED and out:
            _obs.incr("variation.samples_batched", len(out))
        return out

    # Single-sample conveniences (tests and spot checks).
    def delay(self, vt_shift: float = 0.0) -> float:
        """One ``propagation_delay`` sample through the plan."""
        return self.delays((vt_shift,))[0]

    def leakage(self, vt_shift: float = 0.0) -> float:
        """One ``leakage_current`` sample through the plan."""
        return self.leakages((vt_shift,))[0]
