"""Fig. 9 — activity histogram, 8-bit adder, correlated inputs.

Paper stimulus: one operand fixed, the other incrementing 0..255.
Shape: activity collapses toward low transition probabilities — the
histogram mass moves into the leftmost bins and the mean drops well
below the random-stimulus case, because low-order counter bits toggle
often but high-order bits (and the logic they feed) barely move.
"""

from repro.analysis.tables import format_table
from repro.circuits.builders import ripple_carry_adder
from repro.device.technology import soi_low_vt
from repro.switchsim.simulator import SwitchLevelSimulator
from repro.switchsim.stimulus import counting_bus_vectors, random_bus_vectors

VECTORS = 500
BINS = 12
FIXED_OPERAND = 85  # 0b01010101, mid-weight constant


def generate_fig9():
    adder = ripple_carry_adder(8)
    technology = soi_low_vt()
    correlated = counting_bus_vectors(
        "b", 8, VECTORS,
        fixed_buses={"a": FIXED_OPERAND}, fixed_widths={"a": 8},
    )
    correlated_report = SwitchLevelSimulator(
        adder, technology, vdd=1.0
    ).run_vectors_fast(correlated)
    random_report = SwitchLevelSimulator(
        adder, technology, vdd=1.0
    ).run_vectors_fast(
        random_bus_vectors({"a": 8, "b": 8}, VECTORS, seed=1996)
    )
    return correlated_report, random_report


def test_fig9_activity_correlated(benchmark, record):
    correlated, random_report = benchmark(generate_fig9)

    # Shape 1: correlated stimulus cuts mean activity by > 2x.
    assert correlated.mean_activity() < 0.5 * random_report.mean_activity()

    # Shape 2: histogram mass concentrates in the low bins (compare on
    # a common probability axis).
    edges, random_counts = random_report.histogram(bins=BINS)
    _, correlated_counts = correlated.histogram(
        bins=BINS, max_probability=edges[-1]
    )
    low_random = sum(random_counts[:3]) / sum(random_counts)
    low_correlated = sum(correlated_counts[:3]) / sum(correlated_counts)
    assert low_correlated > 2.0 * low_random

    rows = [
        [
            f"{edges[i]:.3f}-{edges[i + 1]:.3f}",
            correlated_counts[i],
            random_counts[i],
        ]
        for i in range(BINS)
    ]
    record(
        "fig9_activity_correlated",
        format_table(
            ["transition probability", "nodes (correlated)", "nodes (random)"],
            rows,
            title=(
                "Fig. 9: activity histogram, 8-bit ripple adder, "
                f"a = {FIXED_OPERAND} fixed, b = 0..255 counting "
                f"(mean {correlated.mean_activity():.3f} vs random "
                f"{random_report.mean_activity():.3f})"
            ),
        ),
    )
