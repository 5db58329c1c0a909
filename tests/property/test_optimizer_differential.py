"""Both fixed-throughput optimizers against a written-out oracle.

``power/optimizer.py`` writes the Figs. 3-4 method once, as shared
steps (supply solve, locus dispatch, sweep, bracketed optimum,
mean-leakage pricing) that the ring and module optimizers call.  The
oracle below writes the method out per model instead, straight against
the model primitives the shared steps do not touch: the ring's decoded
plans and corner characterizers, the module's static timing and power
estimator.  Its bisections run every step, without the converged exit.
Every returned :class:`OperatingPoint` must agree with ``==``, at
random delay targets, thresholds and with or without a
:class:`VariationSpec`, on an 11-stage ring and a 2-bit ripple-carry
adder.

The ``optimizer.*`` obs counter totals of one nominal and one yield
``optimum`` per optimizer are pinned too, so a change that keeps the
answers but moves the probe sequence (a dropped clamp, an extra probe)
shows here.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.analysis.variation import lognormal_leakage_amplification
from repro.circuits.builders import ripple_carry_adder
from repro.device.technology import soi_low_vt
from repro.errors import OptimizationError
from repro.power.optimizer import (
    FixedThroughputOptimizer,
    ModuleThroughputOptimizer,
    OperatingPoint,
    RingOscillatorModel,
    StatisticalOperatingPoint,
    VariationSpec,
    _bracketed_golden_minimum,
)
from repro.switchsim.simulator import SwitchLevelSimulator
from repro.switchsim.stimulus import random_bus_vectors

_TECH = soi_low_vt()
_SPEC = VariationSpec(percentile=95.0, vt_sigma=0.03, n_samples=20, seed=1)
_RING = RingOscillatorModel(_TECH, stages=11)
_ADDER = ripple_carry_adder(2)
_REPORT = SwitchLevelSimulator(_ADDER, _TECH, 1.0).run_vectors(
    random_bus_vectors({"a": 2, "b": 2}, 20, seed=0)
)
_RING_DELAY = _RING.stage_delay(1.0, 0.2)
_MODULE_DELAY = ModuleThroughputOptimizer(_ADDER, _TECH, _REPORT).delay(
    1.0, _TECH.transistors.nmos.vt0
)


# ----------------------------------------------------------------------
# Oracle: the method written out per model
# ----------------------------------------------------------------------
def _bisect(too_slow, low, high):
    for _ in range(70):
        mid = 0.5 * (low + high)
        if too_slow(mid):
            low = mid
        else:
            high = mid
    return 0.5 * (low + high)


def _percentile(values, p):
    ordered = sorted(values)
    position = p / 100.0 * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def _shifts(spec):
    rng = random.Random(spec.seed)
    return [rng.gauss(0.0, spec.vt_sigma) for _ in range(spec.n_samples)]


def _solve(delay_at, target, low, high):
    """Bracket checks, low-bound clamp and bisection of one solve."""
    if target <= 0.0:
        raise OptimizationError("target delay must be positive")
    if delay_at(high) > target:
        raise OptimizationError("unreachable")
    if delay_at(low) < target:
        return low
    return _bisect(lambda vdd: delay_at(vdd) > target, low, high)


def _golden_minimum(energy, low, high, tolerance):
    golden = 0.6180339887498949
    grid = [low + (high - low) * i / 24 for i in range(25)]
    coarse = [energy(vt) for vt in grid]
    if all(value == float("inf") for value in coarse):
        raise OptimizationError("infeasible")
    best = min(range(25), key=coarse.__getitem__)
    a, b = grid[max(best - 1, 0)], grid[min(best + 1, 24)]
    c, d = b - golden * (b - a), a + golden * (b - a)
    fc, fd = energy(c), energy(d)
    while b - a > tolerance:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - golden * (b - a)
            fc = energy(c)
        else:
            a, c, fc = c, d, fd
            d = a + golden * (b - a)
            fd = energy(d)
    candidates = [(coarse[best], grid[best]), (fc, c), (fd, d)]
    return min(candidates, key=lambda pair: (pair[0], pair[1]))[1]


def _sweep(locus_point, vts):
    points = []
    for vt in vts:
        try:
            points.append(locus_point(vt))
        except OptimizationError:
            pass
    if not points:
        raise OptimizationError("no feasible V_T")
    return points


def _optimum(locus_point, low, high, tolerance):
    def energy(vt):
        try:
            return locus_point(vt).energy_per_cycle_j
        except OptimizationError:
            return float("inf")

    return locus_point(_golden_minimum(energy, low, high, tolerance))


def _statistical(technology, vt, vdd, spec, switching, leakages, nominal,
                 units, period, delay, delay_percentile):
    mean = sum(leakages) / len(leakages)
    leakage = units * mean * vdd * period
    return StatisticalOperatingPoint(
        vt=vt,
        vdd=vdd,
        stage_delay_s=delay,
        energy_per_cycle_j=switching + leakage,
        switching_energy_j=switching,
        leakage_energy_j=leakage,
        percentile=spec.percentile,
        delay_percentile_s=delay_percentile,
        leakage_amplification=mean / nominal if nominal > 0.0 else 1.0,
        lognormal_amplification=lognormal_leakage_amplification(
            spec.vt_sigma, technology.transistors.nmos.subthreshold_swing
        ),
    )


class RingOracle:
    """The ring optimizer written out against the ring's corners."""

    def __init__(self, ring, cycle_stages=20, variation=None):
        self.ring = ring
        self.cycle_stages = cycle_stages
        self.variation = variation

    def _delay_percentile(self, vdd, vt, shifts, p):
        corner = self.ring._corner(vt)
        inverter = self.ring._inverter
        load = corner._input_capacitance(inverter, vdd)
        plan = corner.plan_variation(inverter, vdd, load)
        return _percentile(plan.delays(shifts), p)

    def locus_point(self, vt, target):
        ring, spec = self.ring, self.variation
        technology = ring.technology
        low, high = technology.min_vdd, technology.max_vdd
        cycle = self.cycle_stages * target
        if spec is None:
            plan = ring._corner(vt).plan_operating(ring._inverter, fanout=1)
            vdd = _solve(plan.delay, target, low, high)
            return ring.energy_per_cycle(vdd, vt, cycle)
        shifts = _shifts(spec)
        vdd = _solve(
            lambda v: self._delay_percentile(v, vt, shifts, spec.percentile),
            target, low, high,
        )
        corner = ring._corner(vt)
        inverter = ring._inverter
        load = inverter.input_capacitance(corner.technology, vdd)
        return _statistical(
            technology, vt, vdd, spec,
            switching=ring.stages * ring.activity
            * corner.energy_per_transition(inverter, vdd, load),
            leakages=corner.plan_variation(inverter, vdd, 0.0).leakages(
                shifts
            ),
            nominal=corner.leakage_current(inverter, vdd),
            units=ring.stages,
            period=cycle,
            delay=ring.stage_delay(vdd, vt),
            delay_percentile=self._delay_percentile(
                vdd, vt, shifts, spec.percentile
            ),
        )

    def sweep(self, vts, target):
        return _sweep(lambda vt: self.locus_point(vt, target), vts)

    def optimum(self, target, low=0.01, high=0.6, tolerance=1e-3):
        return _optimum(
            lambda vt: self.locus_point(vt, target), low, high, tolerance
        )


class ModuleOracle:
    """The module optimizer written out against STA and the estimator."""

    def __init__(self, optimizer):
        self.opt = optimizer

    def _delay_percentile(self, vdd, vt, shifts, p):
        # STA delay is monotone in the global shift, so the percentile
        # needs STA only at the bracketing shift order statistics.
        opt = self.opt
        ordered = sorted(shifts)
        position = p / 100.0 * (len(ordered) - 1)
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        fraction = position - low
        base = opt._shift(vt)
        delay_low = opt._delay_at_shift(vdd, base + ordered[low])
        if high == low or fraction == 0.0:
            return delay_low
        delay_high = opt._delay_at_shift(vdd, base + ordered[high])
        return delay_low * (1.0 - fraction) + delay_high * fraction

    def locus_point(self, vt, target, utilization=1.0):
        opt, spec = self.opt, self.opt.variation
        low, high = opt.technology.min_vdd, opt.technology.max_vdd
        period = target / utilization
        if spec is None:
            vdd = _solve(lambda v: opt.delay(v, vt), target, low, high)
            return opt.energy_per_operation(vdd, vt, period)
        shifts = _shifts(spec)
        vdd = _solve(
            lambda v: self._delay_percentile(v, vt, shifts, spec.percentile),
            target, low, high,
        )
        base = opt._shift(vt)
        estimator = opt._estimator
        return _statistical(
            opt.technology, vt, vdd, spec,
            switching=opt.report.switching_energy_per_cycle(
                opt.netlist, opt.technology, vdd, opt._wire
            ),
            leakages=[
                estimator.leakage_current(vdd, base + s) for s in shifts
            ],
            nominal=estimator.leakage_current(vdd, base),
            units=1,
            period=period,
            delay=opt.delay(vdd, vt),
            delay_percentile=self._delay_percentile(
                vdd, vt, shifts, spec.percentile
            ),
        )

    def sweep(self, vts, target, utilization=1.0):
        return _sweep(
            lambda vt: self.locus_point(vt, target, utilization), vts
        )

    def optimum(self, target, low=0.02, high=0.5, utilization=1.0,
                tolerance=2e-3):
        return _optimum(
            lambda vt: self.locus_point(vt, target, utilization),
            low, high, tolerance,
        )


def _outcome(call):
    """The returned value, or the error type, so failures compare too."""
    try:
        return call()
    except OptimizationError:
        return OptimizationError


def _ring_pair(variation):
    optimizer = FixedThroughputOptimizer(_RING, variation=variation)
    return optimizer, RingOracle(_RING, variation=variation)


def _module_pair(variation):
    optimizer = ModuleThroughputOptimizer(
        _ADDER, _TECH, _REPORT, variation=variation
    )
    return optimizer, ModuleOracle(optimizer)


variations = st.sampled_from([None, _SPEC])


# ----------------------------------------------------------------------
# Differential properties
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    factor=st.floats(0.6, 4.0),
    vt=st.floats(0.01, 0.5),
    variation=variations,
)
def test_ring_locus_and_sweep_match_oracle(factor, vt, variation):
    optimizer, oracle = _ring_pair(variation)
    target = factor * _RING_DELAY
    point = _outcome(lambda: optimizer.locus_point(vt, target))
    assert point == _outcome(lambda: oracle.locus_point(vt, target))
    if point is not OptimizationError:
        assert type(point) is (
            OperatingPoint if variation is None
            else StatisticalOperatingPoint
        )
    vts = [vt, vt + 0.05, vt + 0.1]
    assert _outcome(lambda: optimizer.sweep(vts, target)) == _outcome(
        lambda: oracle.sweep(vts, target)
    )


@settings(max_examples=12, deadline=None)
@given(
    factor=st.floats(0.8, 4.0),
    vt=st.floats(0.02, 0.45),
    utilization=st.sampled_from([1.0, 0.25]),
    variation=variations,
)
def test_module_locus_and_sweep_match_oracle(
    factor, vt, utilization, variation
):
    optimizer, oracle = _module_pair(variation)
    target = factor * _MODULE_DELAY
    assert _outcome(
        lambda: optimizer.locus_point(vt, target, utilization)
    ) == _outcome(lambda: oracle.locus_point(vt, target, utilization))
    vts = [vt, vt + 0.05]
    assert _outcome(
        lambda: optimizer.sweep(vts, target, utilization)
    ) == _outcome(lambda: oracle.sweep(vts, target, utilization))


@settings(max_examples=200, deadline=None)
@given(
    scale=st.sampled_from([0.0, 1.0, 10.0, 1000.0]),
    center=st.floats(-0.5, 1.5),
    low=st.floats(0.0, 0.5),
    width=st.floats(1e-4, 0.5),
    tolerance=st.sampled_from([1e-3, 2e-3, 0.05]),
)
def test_golden_search_matches_oracle_on_plateaus(
    scale, center, low, width, tolerance
):
    # Integer-valued energies make plateaus, so ties between the coarse
    # scan and the golden candidates (and between fc and fd) happen.
    def energy(vt):
        return float(math.floor(scale * (vt - center) ** 2))

    high = low + width
    assert _bracketed_golden_minimum(
        energy, low, high, tolerance
    ) == _golden_minimum(energy, low, high, tolerance)


# ----------------------------------------------------------------------
# Optima: equal to the oracle, with the probe sequence pinned
# ----------------------------------------------------------------------
_COUNTERS = (
    "vdd_solves", "yield_solves", "low_bound_clamps",
    "delay_probes", "mc_probes", "golden_probes",
)

#: ``optimizer.*`` totals of each ``optimum`` below, recorded from the
#: per-model implementation the oracle copies.
_PINNED = {
    ("ring", None): (37, 0, 11, 37, 0, 36),
    ("ring", _SPEC): (0, 35, 0, 35, 2046, 34),
    ("module", None): (35, 0, 9, 1514, 0, 34),
    ("module", _SPEC): (0, 33, 0, 3805, 1886, 32),
}


@pytest.mark.parametrize(
    "kind, variation",
    [("ring", None), ("ring", _SPEC), ("module", None), ("module", _SPEC)],
)
def test_optimum_matches_oracle_with_pinned_counters(kind, variation):
    if kind == "ring":
        optimizer, oracle = _ring_pair(variation)
        target = 1.5 * _RING_DELAY
    else:
        optimizer, oracle = _module_pair(variation)
        target = 1.5 * _MODULE_DELAY
    with obs.enabled_scope():
        best = optimizer.optimum(target)
        counts = tuple(
            obs.counter_value("optimizer." + name) for name in _COUNTERS
        )
    assert counts == _PINNED[(kind, variation)]
    assert best == oracle.optimum(target)
    assert math.isfinite(best.energy_per_cycle_j)
