#!/usr/bin/env python
"""Switch-level activity estimation (the IRSIM-style tool, Figs. 8-9).

Shows how signal statistics drive node transition activity — and hence
switching power — on the same 8-bit ripple adder:

* uniform random operands (Fig. 8),
* one operand fixed, the other counting (Fig. 9),
* gray-coded inputs (minimum-change stimulus),
* biased random bits (sparse data).

Also prints the glitch tail: static-CMOS carry ripples make some sum
nodes transition more than once per input vector.

Run:  python examples/activity_estimation.py
"""

from repro import (
    SwitchLevelSimulator,
    counting_bus_vectors,
    format_table,
    gray_code_bus_vectors,
    random_bus_vectors,
    ripple_carry_adder,
    soi_low_vt,
)

VECTORS = 400
VDD = 1.0


def main():
    adder = ripple_carry_adder(8)
    technology = soi_low_vt()

    stimuli = {
        "random (Fig. 8)": random_bus_vectors(
            {"a": 8, "b": 8}, VECTORS, seed=0
        ),
        "counting, a fixed (Fig. 9)": counting_bus_vectors(
            "b", 8, VECTORS, fixed_buses={"a": 85}, fixed_widths={"a": 8}
        ),
        "gray-coded b, a fixed": gray_code_bus_vectors(
            "b", 8, VECTORS, fixed_buses={"a": 85}, fixed_widths={"a": 8}
        ),
        "sparse random (p1 = 0.1)": random_bus_vectors(
            {"a": 8, "b": 8}, VECTORS, seed=0, one_probability=0.1
        ),
    }

    rows = []
    reports = {}
    for label, vectors in stimuli.items():
        simulator = SwitchLevelSimulator(adder, technology, VDD)
        report = simulator.run_vectors_fast(vectors)
        reports[label] = report
        energy = report.switching_energy_per_cycle(adder, technology, VDD)
        glitchy = sum(
            1
            for net in report.internal_nets()
            if report.transition_probability(net) > 1.0
        )
        rows.append(
            [label, report.mean_activity(), energy, glitchy]
        )
    print(
        format_table(
            ["stimulus", "mean activity", "E_sw/cycle [J]", "glitchy nodes"],
            rows,
            title="Signal statistics vs switching energy (8-bit adder)",
        )
    )

    print("\nHistogram, random stimulus (paper Fig. 8):")
    edges, counts = reports["random (Fig. 8)"].histogram(bins=10)
    width = max(counts) or 1
    for i, count in enumerate(counts):
        bar = "#" * round(40 * count / width)
        print(f"  {edges[i]:6.3f}-{edges[i + 1]:6.3f}  {count:4d}  {bar}")

    print("\nHistogram, correlated stimulus (paper Fig. 9, same axis):")
    _, counts9 = reports["counting, a fixed (Fig. 9)"].histogram(
        bins=10, max_probability=edges[-1]
    )
    for i, count in enumerate(counts9):
        bar = "#" * round(40 * count / width)
        print(f"  {edges[i]:6.3f}-{edges[i + 1]:6.3f}  {count:4d}  {bar}")


if __name__ == "__main__":
    main()
