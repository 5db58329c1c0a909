"""The optimizers' V_DD solves against a full-step readable bisection.

Every supply solve ends in ``optimizer._bisect_supply``, which returns
as soon as the bracket midpoint equals one of its ends.  These tests
pin it, bit for bit, to the plain loop that always runs all 70 steps:
the same bracket checks, the same predicate, no early exit.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.circuits.builders import ripple_carry_adder
from repro.device.technology import soi_low_vt
from repro.errors import OptimizationError
from repro.power.optimizer import (
    ModuleThroughputOptimizer,
    RingOscillatorModel,
    VariationSpec,
)
from repro.switchsim.simulator import SwitchLevelSimulator
from repro.switchsim.stimulus import random_bus_vectors

_BISECTION_STEPS = 70
_TECH = soi_low_vt()
_RING = RingOscillatorModel(_TECH, stages=11)
_BOUNDS = (_TECH.min_vdd, _TECH.max_vdd)

delay_factors = st.floats(0.2, 40.0)
thresholds = st.floats(0.05, 0.45)


def _reference_solve(delay_at, target):
    """Supply meeting ``target``; None where it is unreachable."""
    low, high = _BOUNDS
    if delay_at(high) > target:
        return None
    if delay_at(low) < target:
        return low
    for _ in range(_BISECTION_STEPS):
        mid = 0.5 * (low + high)
        if delay_at(mid) > target:
            low = mid
        else:
            high = mid
    return 0.5 * (low + high)


def _assert_solve_matches(solve, delay_at, target):
    expected = _reference_solve(delay_at, target)
    if expected is None:
        with pytest.raises(OptimizationError, match="unreachable"):
            solve()
    else:
        assert solve() == expected


class TestRingSolves:
    @settings(deadline=None, max_examples=40)
    @given(factor=delay_factors, vt=thresholds)
    def test_delay_solve_equals_full_bisection(self, factor, vt):
        target = factor * _RING.stage_delay(1.0, vt)
        plan = _RING._corner(vt).plan_operating(_RING._inverter, fanout=1)
        _assert_solve_matches(
            lambda: _RING.solve_vdd_for_delay(target, vt),
            plan.delay,
            target,
        )

    @settings(deadline=None, max_examples=15)
    @given(factor=delay_factors, vt=thresholds)
    def test_yield_solve_equals_full_bisection(self, factor, vt):
        target = factor * _RING.stage_delay(1.0, vt)
        spec = VariationSpec(n_samples=20, seed=5)
        shifts = spec.draw_shifts()
        _assert_solve_matches(
            lambda: _RING.solve_vdd_for_yield(
                target, vt, n_samples=20, seed=5
            ),
            lambda vdd: _RING._stage_delay_percentile(
                vdd, vt, shifts, spec.percentile
            ),
            target,
        )

    def test_exit_fires_before_the_step_cap(self):
        # Two bracket checks plus at most 70 bisection probes; the
        # converged bracket stops the loop well before the cap.
        vt = 0.2
        target = 4.0 * _RING.stage_delay(1.0, vt)
        with obs.enabled_scope():
            _RING.solve_vdd_for_yield(target, vt, n_samples=20)
            probes = obs.snapshot()["counters"]["optimizer.mc_probes"]
        assert probes < 2 + _BISECTION_STEPS


class TestModuleSolve:
    @pytest.fixture(scope="class")
    def optimizer(self):
        adder = ripple_carry_adder(2)
        report = SwitchLevelSimulator(adder, _TECH, 1.0).run_vectors(
            random_bus_vectors({"a": 2, "b": 2}, 20, seed=0)
        )
        return ModuleThroughputOptimizer(adder, _TECH, report)

    @pytest.mark.parametrize(
        "factor, vt", [(3.0, 0.2), (1.5, 0.1), (8.0, 0.35), (0.05, 0.3)]
    )
    def test_delay_solve_equals_full_bisection(self, optimizer, factor, vt):
        target = factor * optimizer.delay(1.0, vt)
        _assert_solve_matches(
            lambda: optimizer.solve_vdd_for_delay(target, vt),
            lambda vdd: optimizer.delay(vdd, vt),
            target,
        )
