"""Ablation — the short-circuit component across the supply axis.

Section 2 of the paper makes two claims about crowbar current: with
matched input/output edge rates it stays below ~10 % of total power,
and it vanishes entirely once ``V_DD < V_Tn + |V_Tp|`` (both devices
can never conduct at once).  This bench sweeps the supply on the 8-bit
adder and reports the measured component split.
"""

from repro.analysis.tables import format_table
from repro.circuits.builders import ripple_carry_adder
from repro.device.technology import soi_low_vt
from repro.power.estimator import PowerEstimator
from repro.switchsim.simulator import SwitchLevelSimulator
from repro.switchsim.stimulus import random_bus_vectors

SUPPLIES = (0.3, 0.45, 0.7, 1.0, 1.5, 2.0)
FREQUENCY = 1e8  # clocked near capability: switching-dominated regime
VECTORS = 120


def generate_ablation():
    technology = soi_low_vt()  # V_Tn = V_Tp = 0.184 V
    adder = ripple_carry_adder(8)
    estimator = PowerEstimator(adder, technology)
    overlap_floor = (
        technology.transistors.nmos.vt0 + technology.transistors.pmos.vt0
    )
    rows = []
    for vdd in SUPPLIES:
        stimulus = random_bus_vectors({"a": 8, "b": 8}, VECTORS, seed=1996)
        report = SwitchLevelSimulator(
            adder, technology, vdd
        ).run_vectors_fast(stimulus)
        breakdown = estimator.breakdown(report, vdd, FREQUENCY)
        rows.append(
            [
                vdd,
                breakdown.switching_w,
                breakdown.short_circuit_w,
                breakdown.leakage_w,
                breakdown.fraction("short_circuit"),
            ]
        )
    return overlap_floor, rows


def test_ablation_short_circuit(benchmark, record):
    overlap_floor, rows = benchmark(generate_ablation)

    # Claim 1: the paper's <10 % bound holds at every supply with
    # matched edges.
    for row in rows:
        assert row[4] < 0.10, row

    # Claim 2: exactly zero below the overlap floor (V_Tn + V_Tp).
    for row in rows:
        if row[0] < overlap_floor:
            assert row[2] == 0.0, row
    assert rows[0][0] < overlap_floor  # the sweep actually covers it

    # The component grows with overlap: larger at 2 V than at 0.7 V.
    above = [row for row in rows if row[0] >= overlap_floor * 1.5]
    assert above[-1][2] > above[0][2]

    record(
        "ablation_short_circuit",
        format_table(
            ["V_DD [V]", "P_sw [W]", "P_sc [W]", "P_leak [W]",
             "sc fraction"],
            rows,
            title=(
                "Ablation: short-circuit component, 8-bit adder at "
                f"{FREQUENCY:g} Hz (overlap floor = "
                f"{overlap_floor:.3f} V)"
            ),
        ),
    )
