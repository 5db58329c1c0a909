"""Ablation — parallelism-driven voltage scaling and its leakage limit.

The dual of pipelining: replicate a unit N ways, run each replica N
times slower, and lower the supply until each replica just meets its
relaxed deadline.  Switching energy per operation falls ~quadratically
with the supply — but all N replicas leak all the time, so with the
calibrated low-V_T leakage there is an *optimum degree of parallelism*
beyond which more hardware loses.  This is the architecture-level
mirror of the paper's Fig. 4 optimum.
"""

from repro.analysis.tables import format_table
from repro.circuits.builders import ripple_carry_adder
from repro.circuits.timing import StaticTimingAnalyzer
from repro.device.technology import soi_low_vt
from repro.errors import OptimizationError
from repro.power.estimator import PowerEstimator
from repro.switchsim.simulator import SwitchLevelSimulator
from repro.switchsim.stimulus import random_bus_vectors

WIDTH = 16
PARALLELISM = (1, 2, 4, 8, 16, 32, 64)
#: Extra switched capacitance per replica for the distribution /
#: recombination network (muxes, latches) — the paper's own analysis
#: charges a comparable architectural overhead.
DISTRIBUTION_OVERHEAD = 0.15


def _solve_vdd(analyzer, netlist, target_s, bounds=(0.05, 1.5)):
    low, high = bounds
    if analyzer.analyze(netlist, high).delay_s > target_s:
        raise OptimizationError("target unreachable")
    for _ in range(48):
        mid = 0.5 * (low + high)
        if analyzer.analyze(netlist, mid).delay_s > target_s:
            low = mid
        else:
            high = mid
    return 0.5 * (low + high)


def generate_ablation():
    technology = soi_low_vt()
    adder = ripple_carry_adder(WIDTH)
    analyzer = StaticTimingAnalyzer(technology)
    estimator = PowerEstimator(adder, technology)
    base_period = analyzer.analyze(adder, 1.0).delay_s
    stimulus = random_bus_vectors({"a": WIDTH, "b": WIDTH}, 60, seed=12)

    rows = []
    for n in PARALLELISM:
        vdd = 1.0 if n == 1 else _solve_vdd(
            analyzer, adder, n * base_period
        )
        report = SwitchLevelSimulator(adder, technology, vdd).run_vectors_fast(
            stimulus
        )
        switching = report.switching_energy_per_cycle(
            adder, technology, vdd
        ) * (1.0 + DISTRIBUTION_OVERHEAD * (n > 1))
        # All n replicas leak for the whole operation period.
        leakage = (
            n * estimator.leakage_current(vdd) * vdd * base_period
        )
        rows.append(
            {
                "n": n,
                "vdd": vdd,
                "switching": switching,
                "leakage": leakage,
                "total": switching + leakage,
            }
        )
    return base_period, rows


def test_ablation_parallelism(benchmark, record):
    base_period, rows = benchmark(generate_ablation)

    # Supplies fall monotonically with parallelism.
    vdds = [r["vdd"] for r in rows]
    assert vdds == sorted(vdds, reverse=True)

    # Switching energy per op falls with parallelism...
    switching = [r["switching"] for r in rows]
    assert switching[-1] < switching[0]

    # ...while the leakage term eventually turns the total back up:
    # an interior optimum N exists.
    totals = [r["total"] for r in rows]
    best = min(range(len(totals)), key=totals.__getitem__)
    assert 0 < best, "parallelism should beat the N=1 design"
    assert totals[best] < 0.8 * totals[0]
    assert totals[-1] > totals[best], (
        "leakage should punish extreme parallelism"
    )

    record(
        "ablation_parallelism",
        format_table(
            ["N", "V_DD [V]", "E_sw/op [J]", "E_leak/op [J]",
             "E_total/op [J]"],
            [
                [r["n"], r["vdd"], r["switching"], r["leakage"], r["total"]]
                for r in rows
            ],
            title=(
                f"Ablation: N-way parallel {WIDTH}-bit adders at "
                f"iso-throughput ({base_period:.3e} s/op); optimum "
                f"N = {rows[best]['n']}"
            ),
        ),
    )
