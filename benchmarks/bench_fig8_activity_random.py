"""Fig. 8 — transition-activity histogram, 8-bit adder, random inputs.

Paper shape: with uniform random operands the node transition
probabilities spread broadly around ~0.5, with a glitch tail above 1.0
on the high-order sum nodes of the ripple chain.
"""

from repro.analysis.tables import format_table
from repro.circuits.builders import ripple_carry_adder
from repro.device.technology import soi_low_vt
from repro.switchsim.simulator import SwitchLevelSimulator
from repro.switchsim.stimulus import random_bus_vectors

VECTORS = 500
BINS = 12


def generate_fig8():
    adder = ripple_carry_adder(8)
    simulator = SwitchLevelSimulator(adder, soi_low_vt(), vdd=1.0)
    stimulus = random_bus_vectors({"a": 8, "b": 8}, VECTORS, seed=1996)
    report = simulator.run_vectors_fast(stimulus)
    edges, counts = report.histogram(bins=BINS)
    return report, edges, counts


def test_fig8_activity_random(benchmark, record):
    report, edges, counts = benchmark(generate_fig8)

    # Shape 1: substantial mean activity under random stimulus.
    mean = report.mean_activity()
    assert mean > 0.4, mean

    # Shape 2: a glitch tail exists (nodes with probability > 1.0,
    # i.e. more than one transition per applied vector on average).
    glitchy = [
        net
        for net in report.internal_nets()
        if report.transition_probability(net) > 1.0
    ]
    assert glitchy, "expected glitching sum nodes"

    # Shape 3: the histogram is spread out, not spiked in one bin.
    assert max(counts) < 0.6 * sum(counts)

    rows = [
        [f"{edges[i]:.3f}-{edges[i + 1]:.3f}", counts[i]]
        for i in range(BINS)
    ]
    record(
        "fig8_activity_random",
        format_table(
            ["transition probability", "number of nodes"],
            rows,
            title=(
                "Fig. 8: activity histogram, 8-bit ripple adder, "
                f"{VECTORS} random vectors (mean activity {mean:.3f}, "
                f"{len(glitchy)} glitchy nodes)"
            ),
        ),
    )
