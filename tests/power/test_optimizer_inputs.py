"""Both fixed-throughput optimizers reject bad inputs at the boundary.

A NaN target or threshold fails every comparison of the supply solve,
so unchecked it comes back as the minimum V_DD; a NaN cycle or
operation time prices a NaN energy; a non-positive or NaN optimum
tolerance never ends (or silently skips) the golden-section
refinement.  Each must raise :class:`OptimizationError` instead.
"""

import math

import pytest

from repro import obs
from repro.circuits.builders import ripple_carry_adder
from repro.device.technology import soi_low_vt
from repro.errors import OptimizationError
from repro.power.optimizer import (
    FixedThroughputOptimizer,
    ModuleThroughputOptimizer,
    RingOscillatorModel,
    VariationSpec,
    _bracketed_golden_minimum,
)
from repro.switchsim.simulator import SwitchLevelSimulator
from repro.switchsim.stimulus import random_bus_vectors

NAN = math.nan
_SPEC = VariationSpec(n_samples=10)


@pytest.fixture(scope="module")
def ring():
    return RingOscillatorModel(soi_low_vt(), stages=11)


@pytest.fixture(scope="module")
def module():
    technology = soi_low_vt()
    adder = ripple_carry_adder(2)
    report = SwitchLevelSimulator(adder, technology, 1.0).run_vectors(
        random_bus_vectors({"a": 2, "b": 2}, 10, seed=0)
    )
    return ModuleThroughputOptimizer(adder, technology, report)


@pytest.fixture(scope="module")
def optimizers(ring, module):
    """Each optimizer with a delay target it can meet."""
    base_vt = module.technology.transistors.nmos.vt0
    return {
        "ring": (
            FixedThroughputOptimizer(ring),
            2.0 * ring.stage_delay(1.0, 0.2),
        ),
        "module": (module, 2.0 * module.delay(1.0, base_vt)),
    }


@pytest.mark.parametrize("kind", ["ring", "module"])
@pytest.mark.parametrize("tolerance", [0.0, -1.0, NAN, math.inf])
def test_optimum_rejects_bad_tolerance_before_probing(
    optimizers, kind, tolerance
):
    optimizer, target = optimizers[kind]
    with obs.enabled_scope():
        with pytest.raises(OptimizationError, match="tolerance"):
            optimizer.optimum(target, tolerance=tolerance)
        assert obs.counter_value("optimizer.golden_probes") == 0


@pytest.mark.parametrize("tolerance", [0.0, -1.0, NAN])
def test_golden_search_rejects_bad_tolerance(tolerance):
    with pytest.raises(OptimizationError, match="tolerance"):
        _bracketed_golden_minimum(
            lambda vt: (vt - 0.3) ** 2, 0.0, 1.0, tolerance
        )


@pytest.mark.parametrize("kind", ["ring", "module"])
def test_optimum_rejects_non_finite_vt_bounds(optimizers, kind):
    optimizer, target = optimizers[kind]
    with pytest.raises(OptimizationError, match="vt bounds"):
        optimizer.optimum(target, vt_bounds=(NAN, 0.5))
    with pytest.raises(OptimizationError, match="vt bounds"):
        optimizer.optimum(target, vt_bounds=(0.05, math.inf))


_NON_FINITE_CALLS = {
    "ring solve_vdd_for_delay(nan, 0.2)":
        lambda ring, module: ring.solve_vdd_for_delay(NAN, 0.2),
    "ring solve_vdd_for_yield(nan, 0.2)":
        lambda ring, module: ring.solve_vdd_for_yield(NAN, 0.2, n_samples=10),
    "ring solve_vdd_for_delay(1e-9, nan)":
        lambda ring, module: ring.solve_vdd_for_delay(1e-9, NAN),
    "ring solve_vdd_for_yield(1e-9, nan)":
        lambda ring, module: ring.solve_vdd_for_yield(1e-9, NAN, n_samples=10),
    "ring solve_vdd_for_delay(inf, 0.2)":
        lambda ring, module: ring.solve_vdd_for_delay(math.inf, 0.2),
    "ring solve_vdd_for_delay bounds to inf":
        lambda ring, module: ring.solve_vdd_for_delay(
            1e-9, 0.2, vdd_bounds=(0.1, math.inf)
        ),
    "module solve_vdd_for_delay(nan, 0.2)":
        lambda ring, module: module.solve_vdd_for_delay(NAN, 0.2),
    "module solve_vdd_for_yield(1e-9, nan)":
        lambda ring, module: module.solve_vdd_for_yield(
            1e-9, NAN, n_samples=10
        ),
    "ring solve_vdd_for_yield sigma nan":
        lambda ring, module: ring.solve_vdd_for_yield(
            1e-9, 0.2, vt_sigma=NAN, n_samples=10
        ),
    "ring optimum(nan)":
        lambda ring, module: FixedThroughputOptimizer(ring).optimum(NAN),
    "module locus_point(0.2, nan)":
        lambda ring, module: module.locus_point(0.2, NAN),
    "ring energy_per_cycle(1.0, 0.2, nan)":
        lambda ring, module: ring.energy_per_cycle(1.0, 0.2, NAN),
    "ring statistical_energy_per_cycle(1.0, 0.2, inf)":
        lambda ring, module: ring.statistical_energy_per_cycle(
            1.0, 0.2, math.inf, _SPEC
        ),
    "module energy_per_operation(1.0, 0.2, nan)":
        lambda ring, module: module.energy_per_operation(1.0, 0.2, NAN),
    "module statistical_energy_per_operation(1.0, 0.2, nan)":
        lambda ring, module: module.statistical_energy_per_operation(
            1.0, 0.2, NAN, _SPEC
        ),
}


@pytest.mark.parametrize("case", sorted(_NON_FINITE_CALLS))
def test_non_finite_inputs_rejected(ring, module, case):
    with pytest.raises(OptimizationError):
        _NON_FINITE_CALLS[case](ring, module)


def test_nan_threshold_leaves_the_corner_cache_alone():
    ring = RingOscillatorModel(soi_low_vt(), stages=11)
    with pytest.raises(OptimizationError, match="V_T"):
        ring.solve_vdd_for_delay(1e-9, NAN)
    assert ring.cache_info().currsize == 0
