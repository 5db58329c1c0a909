"""Ablation — pipelining-driven voltage scaling (the paper's ref [1]).

The signature architecture-driven strategy: cut a 16-bit adder's carry
chain into pipeline stages, creating timing slack, then spend the
slack on supply voltage at *iso-throughput*.  Registers cost area,
clock load and switched capacitance — and still lose to the quadratic
C V^2 win.
"""

from repro.analysis.tables import format_table
from repro.circuits.builders import pipelined_adder
from repro.circuits.timing import StaticTimingAnalyzer
from repro.device.technology import soi_low_vt
from repro.errors import OptimizationError
from repro.switchsim.simulator import SwitchLevelSimulator
from repro.switchsim.stimulus import random_bus_vectors

WIDTH = 16
STAGES = (1, 2, 4)
VECTORS = 80


def _solve_vdd(analyzer, netlist, target_s, bounds=(0.15, 1.5)):
    low, high = bounds
    if analyzer.analyze(netlist, high).delay_s > target_s:
        raise OptimizationError("target unreachable at max V_DD")
    for _ in range(48):
        mid = 0.5 * (low + high)
        if analyzer.analyze(netlist, mid).delay_s > target_s:
            low = mid
        else:
            high = mid
    return 0.5 * (low + high)


def _clock_energy_per_cycle(netlist, technology, vdd):
    """Clock-pin load of every register, charged once per cycle [J]."""
    length = technology.drawn_length_um
    pin = technology.gate_cap.gate_capacitance(
        2.0, length, vdd
    ) + technology.gate_cap.gate_capacitance(4.0, length, vdd)
    return len(netlist.registers) * pin * vdd * vdd


def generate_ablation():
    technology = soi_low_vt()
    analyzer = StaticTimingAnalyzer(technology)
    designs = {s: pipelined_adder(WIDTH, s) for s in STAGES}

    # Throughput target: the combinational adder's speed at 1 V.
    target = analyzer.analyze(designs[1], 1.0).delay_s

    rows = {}
    for stages, netlist in designs.items():
        vdd = 1.0 if stages == 1 else _solve_vdd(analyzer, netlist, target)
        stimulus = random_bus_vectors(
            {"a": WIDTH, "b": WIDTH}, VECTORS, seed=1996
        )
        simulator = SwitchLevelSimulator(netlist, technology, vdd)
        if netlist.is_sequential:
            report = simulator.run_clocked(stimulus)
        else:
            report = simulator.run_vectors_fast(stimulus)
        logic_energy = report.switching_energy_per_cycle(
            netlist, technology, vdd
        )
        clock_energy = _clock_energy_per_cycle(netlist, technology, vdd)
        rows[stages] = {
            "gates": len(netlist.instances),
            "registers": len(netlist.registers),
            "vdd": vdd,
            "cycle": analyzer.analyze(netlist, vdd).delay_s,
            "logic_energy": logic_energy,
            "clock_energy": clock_energy,
            "total_energy": logic_energy + clock_energy,
            "latency_cycles": stages - 1,
        }
    return target, rows


def test_ablation_pipelining(benchmark, record):
    target, rows = benchmark(generate_ablation)

    # Every design meets the throughput target.
    for stages, r in rows.items():
        assert r["cycle"] <= target * 1.01, stages

    # Deeper pipelines run at monotonically lower supplies...
    vdds = [rows[s]["vdd"] for s in STAGES]
    assert vdds == sorted(vdds, reverse=True)
    assert rows[4]["vdd"] < 0.6 * rows[1]["vdd"]

    # ...and despite real register/clock overhead, total energy per
    # operation drops.
    assert rows[4]["total_energy"] < rows[1]["total_energy"]
    assert rows[4]["clock_energy"] > 0.0

    record(
        "ablation_pipelining",
        format_table(
            ["stages", "gates", "registers", "V_DD [V]", "cycle [s]",
             "E_logic [J]", "E_clock [J]", "E_total/op [J]",
             "latency [cycles]"],
            [
                [
                    s,
                    rows[s]["gates"],
                    rows[s]["registers"],
                    rows[s]["vdd"],
                    rows[s]["cycle"],
                    rows[s]["logic_energy"],
                    rows[s]["clock_energy"],
                    rows[s]["total_energy"],
                    rows[s]["latency_cycles"],
                ]
                for s in STAGES
            ],
            title=(
                f"Ablation: pipelining a {WIDTH}-bit adder at "
                f"iso-throughput ({target:.3e} s/op)"
            ),
        ),
    )
