"""Ablation — the Fig. 4 optimization on a real module.

The paper measured its optimum (V_DD, V_T) on ring oscillators; this
bench runs the same fixed-throughput optimization on the 8-bit adder
netlist with simulated activity, across utilizations (fraction of the
operation period the module actually computes).  The paper's claim —
"a circuit which has very low switching activity will require a high
threshold voltage" — appears as the optimum V_T climbing while the
utilization falls.
"""

from repro.analysis.tables import format_table
from repro.circuits.builders import ripple_carry_adder
from repro.device.technology import soi_low_vt
from repro.power.optimizer import ModuleThroughputOptimizer
from repro.switchsim.simulator import SwitchLevelSimulator
from repro.switchsim.stimulus import random_bus_vectors

UTILIZATIONS = (1.0, 0.1, 0.02)


def generate_ablation():
    technology = soi_low_vt()
    adder = ripple_carry_adder(8)
    report = SwitchLevelSimulator(adder, technology, 1.0).run_vectors_fast(
        random_bus_vectors({"a": 8, "b": 8}, 80, seed=1996)
    )
    optimizer = ModuleThroughputOptimizer(adder, technology, report)
    base_vt = technology.transistors.nmos.vt0
    target = 3.0 * optimizer.delay(1.0, base_vt)
    rows = []
    optima = {}
    for utilization in UTILIZATIONS:
        best = optimizer.optimum(target, utilization=utilization)
        optima[utilization] = best
        rows.append(
            [
                utilization,
                best.vt,
                best.vdd,
                best.energy_per_cycle_j,
                best.leakage_fraction,
            ]
        )
    return target, rows, optima


def test_ablation_module_optimum(benchmark, record):
    target, rows, optima = benchmark(generate_ablation)

    # Optimum V_T climbs as the module idles more.
    vts = [optima[u].vt for u in UTILIZATIONS]
    assert vts == sorted(vts)
    assert optima[0.02].vt > optima[1.0].vt + 0.02

    # Optimum supply stays below 1 V everywhere.
    for utilization in UTILIZATIONS:
        assert optima[utilization].vdd < 1.0

    # The optimum stays feasible: delay target honoured.
    for utilization in UTILIZATIONS:
        assert optima[utilization].stage_delay_s <= target * 1.01

    record(
        "ablation_module_optimum",
        format_table(
            ["utilization", "V_T* [V]", "V_DD* [V]", "E*/op [J]",
             "leak fraction"],
            rows,
            title=(
                "Ablation: fixed-throughput optimum on the 8-bit adder "
                f"netlist (target {target:.3e} s/op)"
            ),
        ),
    )
