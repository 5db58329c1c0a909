#!/usr/bin/env python
"""Design-space exploration: Pareto fronts, EDP, and real stimulus.

Three exploration tools built on top of the paper's machinery:

1. **Energy-delay Pareto front** over the (V_DD, V_T) grid — the full
   plane the paper's Figs. 3-4 slice along fixed-delay loci — plus the
   minimum-EDP point.
2. **Variation awareness** — how much supply guard-band a 30 mV V_T
   sigma demands at the 99th percentile.
3. **Workload-true stimulus** — replay the multiplier operands the
   IDEA cipher actually produced and compare against the random
   vectors most flows use.

Run:  python examples/design_space_exploration.py
"""

from repro import (
    array_multiplier,
    format_table,
    random_bus_vectors,
    soi_low_vt,
    standard_cells,
    Machine,
    SwitchLevelSimulator,
)
from repro.analysis.pareto import EnergyDelayExplorer
from repro.analysis.variation import MonteCarloAnalyzer
from repro.isa.operands import OperandTraceRecorder
from repro.isa.workloads import idea
from repro.tech.characterize import CellCharacterizer


def pareto_study(technology):
    explorer = EnergyDelayExplorer(technology, stages=31)
    vdds = [0.2 + 0.1 * i for i in range(11)]
    vts = [0.05 + 0.05 * i for i in range(7)]
    front = explorer.front(vdds, vts)
    print(
        format_table(
            ["V_DD [V]", "V_T [V]", "delay [s]", "E/op [J]", "EDP [J*s]"],
            [
                [p.vdd, p.vt, p.delay_s, p.energy_j,
                 p.energy_delay_product]
                for p in front
            ],
            title=(
                f"Energy-delay Pareto front "
                f"({len(vdds) * len(vts)} grid points -> {len(front)} "
                "non-dominated)"
            ),
        )
    )
    best = explorer.minimum_edp_point(vdds, vts)
    print(
        f"\nMinimum EDP: V_DD = {best.vdd:.2f} V, V_T = {best.vt:.2f} V "
        f"(EDP = {best.energy_delay_product:.3e} J*s)"
    )


def variation_study(technology):
    inverter = standard_cells()["INV"]
    analyzer = MonteCarloAnalyzer(
        technology, vt_sigma=0.03, n_samples=250, seed=9
    )
    nominal = CellCharacterizer(technology)
    target = nominal.propagation_delay(inverter, 0.6, 10e-15)
    guarded = analyzer.timing_yield_vdd(inverter, target, percentile=99.0)
    print(
        f"\nVariation: meeting the nominal 0.6 V delay at the 99th "
        f"percentile (sigma_VT = 30 mV) needs V_DD = {guarded:.3f} V."
    )


def stimulus_study(technology):
    machine = Machine(idea.build_program(idea.random_blocks(8)))
    recorder = OperandTraceRecorder(machine)
    machine.run()
    netlist = array_multiplier(8)
    traced = SwitchLevelSimulator(netlist, technology, 1.0).run_vectors_fast(
        recorder.stimulus("multiplier", {"a": 8, "b": 8}, limit=120)
    )
    uniform = SwitchLevelSimulator(netlist, technology, 1.0).run_vectors_fast(
        random_bus_vectors({"a": 8, "b": 8}, 120, seed=0)
    )
    ratio = uniform.switching_energy_per_cycle(
        netlist, technology, 1.0
    ) / traced.switching_energy_per_cycle(netlist, technology, 1.0)
    print(
        f"\nSignal statistics: IDEA's real multiplier operands switch "
        f"{ratio:.1f}x less energy than uniform random stimulus — the "
        "estimate most flows would report is that far off."
    )


def main():
    technology = soi_low_vt()
    pareto_study(technology)
    variation_study(technology)
    stimulus_study(technology)


if __name__ == "__main__":
    main()
