"""Ablation — workload operand streams vs random stimulus.

The paper's recurring warning: "the node transition activity is a very
strong function of signal statistics" (Figs. 8-9 demonstrate it with a
synthetic counter).  Here the real thing: capture the operand pairs
each functional unit consumed while *executing the IDEA and CRC
workloads*, replay them into the unit netlists, and compare the
resulting switching activity/energy against the uniform-random
stimulus most flows default to.
"""

from repro.analysis.tables import format_table
from repro.circuits.builders import (
    array_multiplier,
    barrel_shifter,
    ripple_carry_adder,
)
from repro.device.technology import soi_low_vt
from repro.isa.machine import Machine
from repro.isa.operands import OperandTraceRecorder
from repro.isa.workloads import crc, idea
from repro.switchsim.simulator import SwitchLevelSimulator
from repro.switchsim.stimulus import random_bus_vectors

VECTORS = 120
VDD = 1.0


def _activity(netlist, technology, vectors):
    report = SwitchLevelSimulator(netlist, technology, VDD).run_vectors_fast(
        vectors
    )
    return (
        report.mean_activity(),
        report.switching_energy_per_cycle(netlist, technology, VDD),
    )


def generate_ablation():
    technology = soi_low_vt()

    idea_machine = Machine(idea.build_program(idea.random_blocks(8)))
    idea_trace = OperandTraceRecorder(idea_machine)
    idea_machine.run()

    crc_machine = Machine(crc.build_program(16))
    crc_trace = OperandTraceRecorder(crc_machine)
    crc_machine.run()

    cases = [
        (
            "multiplier (IDEA)",
            array_multiplier(8),
            idea_trace.stimulus("multiplier", {"a": 8, "b": 8}, VECTORS),
            {"a": 8, "b": 8},
        ),
        (
            "adder (IDEA)",
            ripple_carry_adder(8),
            idea_trace.stimulus("adder", {"a": 8, "b": 8}, VECTORS),
            {"a": 8, "b": 8},
        ),
        (
            "shifter (CRC)",
            barrel_shifter(8),
            crc_trace.stimulus("shifter", {"a": 8, "s": 3}, VECTORS),
            {"a": 8, "s": 3},
        ),
    ]
    rows = []
    for label, netlist, traced_vectors, buses in cases:
        traced_alpha, traced_energy = _activity(
            netlist, technology, traced_vectors
        )
        random_alpha, random_energy = _activity(
            netlist,
            technology,
            random_bus_vectors(buses, len(traced_vectors), seed=1996),
        )
        rows.append(
            {
                "label": label,
                "traced_alpha": traced_alpha,
                "random_alpha": random_alpha,
                "traced_energy": traced_energy,
                "random_energy": random_energy,
                "overestimate": random_energy / traced_energy,
            }
        )
    return rows


def test_ablation_signal_statistics(benchmark, record):
    rows = benchmark(generate_ablation)

    # Real operand streams never exceed random activity here, and the
    # multiplier (repeated subkeys, structured data) is dramatic.
    for row in rows:
        assert row["traced_alpha"] <= row["random_alpha"] * 1.05, row["label"]
    multiplier = rows[0]
    assert multiplier["overestimate"] > 2.0

    record(
        "ablation_signal_statistics",
        format_table(
            ["unit (workload)", "alpha traced", "alpha random",
             "E traced [J]", "E random [J]", "random/traced"],
            [
                [
                    r["label"],
                    r["traced_alpha"],
                    r["random_alpha"],
                    r["traced_energy"],
                    r["random_energy"],
                    r["overestimate"],
                ]
                for r in rows
            ],
            title=(
                "Ablation: workload operand streams vs uniform random "
                "stimulus (random-stimulus power estimates overshoot)"
            ),
        ),
    )
