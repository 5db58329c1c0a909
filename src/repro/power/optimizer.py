"""Fixed-throughput (V_DD, V_T) optimization (paper Figs. 3-4).

For a bounded-computation-rate application the delay is pinned and the
knobs are the supply and the threshold:

* :class:`RingOscillatorModel` — the experimental structure the paper
  measured: stage delay, supply-for-delay solving, and energy per
  cycle including leakage.
* :class:`FixedThroughputOptimizer` — sweeps V_T solving V_DD for the
  delay target at every point (Fig. 3) and finds the energy-optimal
  pair (Fig. 4).  Because lowering V_T lets V_DD drop (quadratic
  switching win) while raising leakage (exponential loss), the energy
  is U-shaped in V_T with an optimum typically well below 1 V.
* :class:`ModuleThroughputOptimizer` — the same method on a real
  netlist: critical-path delay from static timing, switching energy
  from a simulated activity report, leakage over the operation period.

Both optimizers also support a **statistical mode** driven by a
:class:`VariationSpec`: instead of the nominal corner, the V_DD solve
targets the p-th percentile of a Monte-Carlo delay distribution
(yield-constrained timing) and the energy model prices leakage at the
sampled mean — the lognormal mean-shift that makes real silicon leak
more than its nominal corner says.  With ``variation=None`` the
optimizers are bit-identical to the purely nominal behavior.

Each step of the method is written once and both optimizers call it:
:func:`_solve_supply` (nominal or yield supply solve),
:func:`_locus_point` (nominal vs. statistical dispatch), :func:`_sweep`,
:func:`_optimum` and :func:`_statistical_point` (mean-leakage
pricing).  Each model supplies only its delay probe, its period and
its energy pricing.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro import obs
from repro.analysis.variation import (
    _gaussian_shifts,
    _sorted_percentile,
    lognormal_leakage_amplification,
)
from repro.device.technology import Technology
from repro.errors import OptimizationError
from repro.tech.cells import standard_cells
from repro.tech.characterize import CellCharacterizer

__all__ = [
    "OperatingPoint",
    "StatisticalOperatingPoint",
    "VariationSpec",
    "RingOscillatorModel",
    "FixedThroughputOptimizer",
    "ModuleThroughputOptimizer",
]

_BISECTION_STEPS = 70
#: Coarse-scan resolution used to bracket the global energy basin
#: before golden-section refinement.  Clamping at the low V_DD bound
#: splits the landscape into two regimes — a clamped boundary branch
#: (energy falling with V_T at fixed minimum supply) and the interior
#: fixed-delay locus (the Fig. 4 U) — so the energy is not globally
#: unimodal and an unbracketed golden-section can converge to the
#: wrong basin.
_SCAN_POINTS = 25
_GOLDEN = 0.6180339887498949


def _bracketed_golden_minimum(energy, low, high, tolerance):
    """V_T of the global energy minimum in [low, high].

    Scans ``_SCAN_POINTS`` evenly spaced probes to find the best
    basin, then golden-section refines inside the bracketing pair of
    neighbours.  ``energy`` returns +inf for infeasible V_T.  Bounds
    and ``tolerance`` are checked before the first probe: a
    non-positive or NaN tolerance would never end the refinement.
    """
    if not -math.inf < low < high < math.inf:
        raise OptimizationError(f"bad vt bounds [{low}, {high}]")
    if not 0.0 < tolerance < math.inf:
        raise OptimizationError(
            f"tolerance must be positive and finite, got {tolerance}"
        )
    grid = [
        low + (high - low) * i / (_SCAN_POINTS - 1)
        for i in range(_SCAN_POINTS)
    ]
    coarse = [energy(vt) for vt in grid]
    if all(value == float("inf") for value in coarse):
        raise OptimizationError(
            "delay target infeasible across the whole V_T range"
        )
    best = min(range(len(coarse)), key=coarse.__getitem__)
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, len(grid) - 1)]
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = energy(c), energy(d)
    while b - a > tolerance:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = energy(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = energy(d)
    candidates = [(coarse[best], grid[best]), (fc, c), (fd, d)]
    # Ties (degenerate brackets, plateaus) break to the lowest V_T —
    # explicitly, rather than leaning on tuple comparison reaching the
    # V_T element.
    return min(candidates, key=lambda pair: (pair[0], pair[1]))[1]


def _bisect_supply(too_slow, low, high):
    """Supply where a delay predicate flips, by bisection on [low, high].

    ``too_slow(vdd)`` is True where the delay misses its target; delay
    falls with V_DD, so the answer lies between the last too-slow and
    the first fast-enough probe.  Once the midpoint equals an end of
    the bracket every further step keeps it, so the loop returns there:
    bit-identical to running all ``_BISECTION_STEPS`` steps.
    """
    for _ in range(_BISECTION_STEPS):
        mid = 0.5 * (low + high)
        if mid == low or mid == high:
            return mid
        if too_slow(mid):
            low = mid
        else:
            high = mid
    return 0.5 * (low + high)


def _solve_supply(technology, target_s, vt, vdd_bounds, spec, make_probe):
    """Supply at which a probed delay meets ``target_s`` (Fig. 3).

    The one supply solve of both models.  ``make_probe()`` runs once,
    after the inputs pass their checks and the solve is counted, and
    returns ``delay_at(vdd)``: the nominal delay when ``spec`` is None
    (``optimizer.vdd_solves``), else the ``spec.percentile``-th
    percentile delay over one shift vector drawn for the whole solve
    (``optimizer.yield_solves``) — every order statistic then falls
    monotonically with V_DD, so bisection applies to both.

    If the target is already met at the *low* V_DD bound the solve
    clamps and returns ``low``: the structure simply runs faster than
    required at the minimum supply (energy accounting still integrates
    leakage over the target period).

    Raises
    ------
    OptimizationError
        On a non-finite or non-positive target, a non-finite V_T, bad
        bounds, or a target still missed at the *high* bound.
    """
    if not 0.0 < target_s < math.inf:
        raise OptimizationError("target delay must be positive and finite")
    if not -math.inf < vt < math.inf:
        raise OptimizationError(f"V_T must be finite, got {vt}")
    if vdd_bounds is None:
        vdd_bounds = (technology.min_vdd, technology.max_vdd)
    low, high = float(vdd_bounds[0]), float(vdd_bounds[1])
    if not 0.0 < low < high < math.inf:
        raise OptimizationError(f"bad vdd bounds [{low}, {high}]")
    if obs.ENABLED:
        obs.incr(
            "optimizer.vdd_solves" if spec is None
            else "optimizer.yield_solves"
        )
    delay_at = make_probe()
    if delay_at(high) > target_s:
        quantile, corner = "", f"V_T = {vt} V"
        if spec is not None:
            quantile = f"p{spec.percentile:g} "
            corner += f", sigma = {spec.vt_sigma} V"
        raise OptimizationError(
            f"{quantile}target {target_s:.3e} s unreachable: still "
            f"slower at V_DD = {high} V ({corner})"
        )
    if delay_at(low) < target_s:
        if obs.ENABLED:
            obs.incr("optimizer.low_bound_clamps")
        return low
    return _bisect_supply(lambda vdd: delay_at(vdd) > target_s, low, high)


def _locus_point(model, price, price_statistical, vt, target_s, period_s,
                 spec):
    """The fixed-delay point at one V_T, priced over ``period_s``.

    Nominal (``spec`` None): ``model.solve_vdd_for_delay`` then
    ``price(vdd, vt, period_s)``.  Statistical: the yield solve at the
    spec's percentile then ``price_statistical(vdd, vt, period_s,
    spec)``.
    """
    if spec is None:
        return price(model.solve_vdd_for_delay(target_s, vt), vt, period_s)
    vdd = model.solve_vdd_for_yield(
        target_s, vt, percentile=spec.percentile, vt_sigma=spec.vt_sigma,
        n_samples=spec.n_samples, seed=spec.seed,
    )
    return price_statistical(vdd, vt, period_s, spec)


def _sweep(locus_point, vts, skip_infeasible, span):
    """``locus_point(vt)`` over ``vts`` under the obs span ``span``.

    Infeasible V_T are dropped when ``skip_infeasible``, else their
    error surfaces; a locus with no feasible point is an error.
    """
    if not vts:
        raise OptimizationError("empty V_T sweep")
    points: List[OperatingPoint] = []
    with obs.span(span):
        for vt in vts:
            try:
                points.append(locus_point(vt))
            except OptimizationError:
                if not skip_infeasible:
                    raise
    if not points:
        raise OptimizationError(
            "no feasible V_T in the sweep for this delay target"
        )
    return points


def _optimum(locus_point, vt_bounds, tolerance, span):
    """The minimum-energy ``locus_point`` in ``vt_bounds`` (Fig. 4).

    Coarse scan plus golden section (:func:`_bracketed_golden_minimum`)
    under the obs span ``span``; an infeasible V_T prices at +inf.
    """
    low, high = float(vt_bounds[0]), float(vt_bounds[1])

    def energy(vt: float) -> float:
        if obs.ENABLED:
            obs.incr("optimizer.golden_probes")
        try:
            return locus_point(vt).energy_per_cycle_j
        except OptimizationError:
            return float("inf")

    with obs.span(span):
        return locus_point(
            _bracketed_golden_minimum(energy, low, high, tolerance)
        )


def _check_period(seconds: float, what: str) -> None:
    """Reject a leakage window that is not positive and finite."""
    if not 0.0 < seconds < math.inf:
        raise OptimizationError(f"{what} must be positive and finite")


def _statistical_point(
    technology, variation, vt, vdd, period_s, *, units, switching,
    leakages, nominal_leakage, stage_delay_s, delay_percentile_s,
):
    """A yield-mode point with leakage priced at the sampled mean.

    ``leakages`` are one unit's leakage currents over the variation's
    shift vector and ``nominal_leakage`` its current at shift 0;
    ``units`` identical units (ring stages, or 1 for a module) leak for
    ``period_s``.  The measured amplification (sampled mean over
    nominal) is reported next to the closed-form
    :func:`repro.analysis.variation.lognormal_leakage_amplification`
    prediction as a cross-check (they agree up to stack-effect and
    sampling corrections), on the point and as obs gauges.
    """
    mean_leakage = sum(leakages) / len(leakages)
    amplification = (
        mean_leakage / nominal_leakage if nominal_leakage > 0.0 else 1.0
    )
    predicted = lognormal_leakage_amplification(
        variation.vt_sigma,
        technology.transistors.nmos.subthreshold_swing,
    )
    if obs.ENABLED:
        obs.gauge("optimizer.leakage_amplification", amplification)
        obs.gauge("optimizer.leakage_amplification_lognormal", predicted)
    leakage = units * mean_leakage * vdd * period_s
    return StatisticalOperatingPoint(
        vt=vt,
        vdd=vdd,
        stage_delay_s=stage_delay_s,
        energy_per_cycle_j=switching + leakage,
        switching_energy_j=switching,
        leakage_energy_j=leakage,
        percentile=variation.percentile,
        delay_percentile_s=delay_percentile_s,
        leakage_amplification=amplification,
        lognormal_amplification=predicted,
    )


def _percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile, p in [0, 100].

    The same order statistics and interpolation as
    :meth:`repro.analysis.variation.Distribution.percentile` (both are
    :func:`~repro.analysis.variation._sorted_percentile`), so yield
    solves agree bit-for-bit with the Monte-Carlo analyzer's view of
    the same samples.
    """
    return _sorted_percentile(sorted(values), p)


@dataclass(frozen=True)
class VariationSpec:
    """Statistical corner description for yield-constrained optimization.

    Parameters
    ----------
    percentile:
        Timing yield target: the V_DD solve constrains the p-th
        percentile of the Monte-Carlo delay distribution (99 = 99 % of
        sampled corners meet timing).
    vt_sigma:
        Gaussian V_T spread [V], applied as a common shift to both
        device polarities per sample (die-to-die variation).
    n_samples:
        Monte-Carlo samples per solve.  The shift vector is drawn once
        per solve and reused across every probed V_DD, which keeps the
        percentile delay monotone in V_DD (bisection stays valid).
    seed:
        Deterministic sampling seed; the draw matches
        :meth:`repro.analysis.variation.MonteCarloAnalyzer.
        sample_vt_shifts` for the same (sigma, samples, seed).
    """

    percentile: float = 99.0
    vt_sigma: float = 0.03
    n_samples: int = 300
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.percentile <= 100.0:
            raise OptimizationError("percentile must be in [0, 100]")
        if not 0.0 <= self.vt_sigma < math.inf:
            raise OptimizationError("vt_sigma must be >= 0 and finite")
        if self.n_samples < 2:
            raise OptimizationError("need at least two samples")

    def draw_shifts(self) -> List[float]:
        """The deterministic Gaussian V_T shift vector for this spec."""
        return _gaussian_shifts(self.vt_sigma, self.n_samples, self.seed)


@dataclass(frozen=True)
class OperatingPoint:
    """One point on a fixed-delay locus."""

    vt: float
    vdd: float
    stage_delay_s: float
    energy_per_cycle_j: float
    switching_energy_j: float
    leakage_energy_j: float

    @property
    def leakage_fraction(self) -> float:
        """Leakage share of the cycle energy."""
        if self.energy_per_cycle_j <= 0.0:
            return 0.0
        return self.leakage_energy_j / self.energy_per_cycle_j


@dataclass(frozen=True)
class StatisticalOperatingPoint(OperatingPoint):
    """A yield-constrained operating point (statistical mode).

    Extends the nominal :class:`OperatingPoint` with the Monte-Carlo
    quantities the solve was driven by: ``stage_delay_s`` remains the
    *nominal* delay at the solved supply, ``delay_percentile_s`` is
    the p-th percentile delay the yield constraint pinned to the
    target, and ``leakage_energy_j`` already prices the *mean* sampled
    leakage.  ``leakage_amplification`` (sampled mean over nominal) is
    cross-checkable against ``lognormal_amplification``, the
    closed-form :func:`repro.analysis.variation.
    lognormal_leakage_amplification` prediction for the same sigma.
    """

    percentile: float = 99.0
    delay_percentile_s: float = 0.0
    leakage_amplification: float = 1.0
    lognormal_amplification: float = 1.0


class RingOscillatorModel:
    """Analytical ring-oscillator: the paper's measurement structure.

    Parameters
    ----------
    technology:
        Base process; V_T is varied via ``with_vt``.
    stages:
        Inverters in the ring (odd; the paper used ~101-stage rings).
    activity:
        Average node transition activity of the *module* the ring
        stands in for (1.0 for the ring itself, lower for logic).
    max_corners:
        Bound on the per-corner characterizer LRU.  Golden-section
        probes visit a fresh V_T per step, and each corner carries its
        own (cell, vdd, load) memo — without a bound a long-lived
        model leaks memory across repeated ``optimum`` calls.  The
        default comfortably covers one sweep plus one golden-section
        search with no evictions.
    store:
        Optional :class:`repro.store.ResultStore`.  Each corner's
        characterizer loads previously flushed entries for its exact
        (technology, V_T) pair and :meth:`flush_store` persists them —
        a warm store turns repeat optimizations into pure lookups.
    """

    def __init__(
        self,
        technology: Technology,
        stages: int = 101,
        activity: float = 1.0,
        max_corners: int = 64,
        store=None,
    ):
        if stages < 3 or stages % 2 == 0:
            raise OptimizationError("stages must be odd and >= 3")
        if not 0.0 < activity <= 2.0:
            raise OptimizationError("activity must be in (0, 2]")
        if max_corners < 1:
            raise OptimizationError("max_corners must be >= 1")
        self.technology = technology
        self.stages = stages
        self.activity = activity
        self.max_corners = max_corners
        self.store = store
        self._inverter = standard_cells()["INV"]
        self._corners: "OrderedDict[float, CellCharacterizer]" = OrderedDict()
        self._corner_hits = 0
        self._corner_misses = 0
        # Most-recent corner, kept out of the OrderedDict lookup:
        # bisection probes the same V_T dozens of times consecutively,
        # so the common hit is a float compare, not an LRU reorder.
        self._last_vt: Optional[float] = None
        self._last_corner: Optional[CellCharacterizer] = None

    def _corner(self, vt: float) -> CellCharacterizer:
        """Memoized characterizer for the V_T corner (bounded LRU).

        Bisection revisits the same V_T dozens of times per
        ``solve_vdd_for_delay`` call; sharing one characterizer per
        corner lets its internal (cell, vdd, load) memo accumulate
        across the whole sweep instead of being rebuilt per query.
        The least-recently-used corner is evicted beyond
        ``max_corners``, bounding memory on long-lived models.
        """
        if vt == self._last_vt:
            self._corner_hits += 1
            if obs.ENABLED:
                obs.incr("ring.corner_hits")
            return self._last_corner
        corner = self._corners.get(vt)
        if corner is None:
            self._corner_misses += 1
            if obs.ENABLED:
                obs.incr("ring.corner_misses")
            corner = CellCharacterizer(
                self.technology.with_vt(vt), store=self.store
            )
            self._corners[vt] = corner
            if len(self._corners) > self.max_corners:
                evicted_vt, _ = self._corners.popitem(last=False)
                if evicted_vt == self._last_vt:
                    self._last_vt = None
                    self._last_corner = None
                if obs.ENABLED:
                    obs.incr("ring.corner_evictions")
        else:
            self._corner_hits += 1
            if obs.ENABLED:
                obs.incr("ring.corner_hits")
            self._corners.move_to_end(vt)
        self._last_vt = vt
        self._last_corner = corner
        return corner

    def cache_info(self) -> obs.CacheInfo:
        """``lru_cache``-style statistics for the corner LRU."""
        return obs.CacheInfo(
            hits=self._corner_hits,
            misses=self._corner_misses,
            currsize=len(self._corners),
            maxsize=self.max_corners,
        )

    def clear_corners(self) -> None:
        """Drop every cached corner and zero the LRU statistics."""
        self._corners.clear()
        self._last_vt = None
        self._last_corner = None
        self._corner_hits = 0
        self._corner_misses = 0

    def flush_store(self) -> int:
        """Persist every live corner's characterization memo.

        Returns the total number of entries written (0 without a
        store).  Corners already evicted from the LRU are not
        re-flushed — call this at natural boundaries (end of a sweep
        or ``optimum``) rather than once per probe.
        """
        if self.store is None:
            return 0
        return sum(
            corner.flush_store() for corner in self._corners.values()
        )

    def stage_delay(self, vdd: float, vt: float) -> float:
        """Fanout-1 inverter delay at a corner [s].

        Every call is exactly one characterizer fanout-delay query
        (served through the corner's decoded
        :class:`~repro.tech.opplan.OperatingPlan` — same memo family,
        same floats), and ``optimizer.delay_probes`` counts it here —
        at the query site — so the counter matches the actual
        characterizer traffic even for probes issued outside a solve
        (``energy_per_cycle``'s re-probe, ``locus_point``, direct
        calls).
        """
        if vdd <= 0.0:
            raise OptimizationError("vdd must be positive")
        if obs.ENABLED:
            obs.incr("optimizer.delay_probes")
        return self._corner(vt).planned_fanout_delay(
            self._inverter, vdd, fanout=1
        )

    def oscillation_period(self, vdd: float, vt: float) -> float:
        """Ring period: two traversals of the chain [s]."""
        return 2.0 * self.stages * self.stage_delay(vdd, vt)

    def solve_vdd_for_delay(
        self,
        target_stage_delay_s: float,
        vt: float,
        vdd_bounds: Optional[Sequence[float]] = None,
    ) -> float:
        """Supply voltage giving the target stage delay (Fig. 3).

        Clamp and unreachable semantics are :func:`_solve_supply`'s,
        shared with :meth:`ModuleThroughputOptimizer.
        solve_vdd_for_delay`.  One decoded plan serves the bracket
        checks and every bisection step: the V_DD-invariant drive
        devices and capacitance geometry are resolved once per solve,
        and each probe is bit-identical to a :meth:`stage_delay` call
        at the same corner.  Plan-kernel probes bypass the
        characterizer memo, so ``optimizer.delay_probes`` keeps
        matching the characterizer's fanout-family traffic: both drop
        the solve's internal probes together.
        """
        return _solve_supply(
            self.technology, target_stage_delay_s, vt, vdd_bounds, None,
            lambda: self._corner(vt).plan_operating(
                self._inverter, fanout=1
            ).delay,
        )

    def energy_per_cycle(
        self, vdd: float, vt: float, cycle_time_s: float
    ) -> OperatingPoint:
        """Switching + leakage energy of the ring per clock cycle [J].

        Switching: every stage's load charges ``activity`` times per
        cycle.  Leakage: every stage leaks for the whole cycle — this
        is the term that turns the energy-vs-V_T curve back up at low
        V_T (Fig. 4).
        """
        _check_period(cycle_time_s, "cycle time")
        # The plan's energies kernel returns the raw (E_transition,
        # I_leak) pair — the same floats the scalar input_capacitance /
        # energy_per_transition / leakage_current chain produced — so
        # the stages/activity/cycle association below is unchanged.
        plan = self._corner(vt).plan_operating(self._inverter, fanout=1)
        switching_per_stage, leak_per_stage = plan.energies((vdd,))[0]
        switching = self.stages * self.activity * switching_per_stage
        leakage_current = self.stages * leak_per_stage
        leakage = leakage_current * vdd * cycle_time_s
        return OperatingPoint(
            vt=vt,
            vdd=vdd,
            stage_delay_s=self.stage_delay(vdd, vt),
            energy_per_cycle_j=switching + leakage,
            switching_energy_j=switching,
            leakage_energy_j=leakage,
        )

    # ------------------------------------------------------------------
    # Statistical (yield-constrained) mode
    # ------------------------------------------------------------------
    def _stage_delay_percentile(
        self, vdd: float, vt: float, shifts: Sequence[float],
        percentile: float,
    ) -> float:
        """p-th percentile of the batched stage-delay distribution [s].

        One :class:`~repro.tech.batch.VariationPlan` per probed
        (V_T, V_DD) corner; the whole shift vector is evaluated through
        its tight loop per probe.  A plan delay at shift 0 is
        bit-identical to :meth:`stage_delay` at the same corner.
        """
        corner = self._corner(vt)
        load = corner._input_capacitance(self._inverter, vdd)
        plan = corner.plan_variation(self._inverter, vdd, load)
        if obs.ENABLED:
            obs.incr("optimizer.mc_probes")
        return _percentile(plan.delays(shifts), percentile)

    def solve_vdd_for_yield(
        self,
        target_stage_delay_s: float,
        vt: float,
        percentile: float = 99.0,
        vt_sigma: float = 0.03,
        n_samples: int = 300,
        seed: int = 0,
        vdd_bounds: Optional[Sequence[float]] = None,
    ) -> float:
        """Supply at which the p-th percentile delay meets the target.

        The yield-constrained twin of :meth:`solve_vdd_for_delay`, with
        the same clamp and unreachable semantics: the shift vector is
        drawn **once per solve** and reused across every probed V_DD,
        so each sample's delay — and therefore every order statistic
        of the distribution — decreases monotonically with V_DD.
        """
        spec = VariationSpec(
            percentile=percentile, vt_sigma=vt_sigma,
            n_samples=n_samples, seed=seed,
        )

        def percentile_delay():
            shifts = spec.draw_shifts()
            return lambda vdd: self._stage_delay_percentile(
                vdd, vt, shifts, percentile
            )

        return _solve_supply(
            self.technology, target_stage_delay_s, vt, vdd_bounds, spec,
            percentile_delay,
        )

    def statistical_energy_per_cycle(
        self,
        vdd: float,
        vt: float,
        cycle_time_s: float,
        variation: VariationSpec,
    ) -> StatisticalOperatingPoint:
        """Cycle energy with leakage priced at the Monte-Carlo mean [J].

        Switching energy is shift-independent (C and V_DD do not vary
        here), but leakage is exponential in V_T, so the sampled mean
        exceeds the nominal corner's leakage — the lognormal mean
        amplification (see :func:`_statistical_point`).
        """
        _check_period(cycle_time_s, "cycle time")
        shifts = variation.draw_shifts()
        corner = self._corner(vt)
        load = self._inverter.input_capacitance(corner.technology, vdd)
        switching_per_stage = corner.energy_per_transition(
            self._inverter, vdd, load
        )
        leakage_plan = corner.plan_variation(self._inverter, vdd, 0.0)
        if obs.ENABLED:
            obs.incr("optimizer.mc_probes")
        return _statistical_point(
            self.technology, variation, vt, vdd, cycle_time_s,
            units=self.stages,
            switching=self.stages * self.activity * switching_per_stage,
            leakages=leakage_plan.leakages(shifts),
            nominal_leakage=corner.leakage_current(self._inverter, vdd),
            stage_delay_s=self.stage_delay(vdd, vt),
            delay_percentile_s=self._stage_delay_percentile(
                vdd, vt, shifts, variation.percentile
            ),
        )


class FixedThroughputOptimizer:
    """Finds energy-optimal (V_DD, V_T) at a fixed performance.

    The performance constraint is a stage-delay target (equivalently a
    ring-oscillator frequency, the paper's two "MHz" curve families in
    Fig. 4); the cycle time against which leakage integrates is the
    operation period ``cycle_stages * stage_delay``.

    With a :class:`VariationSpec` the whole locus turns statistical:
    each V_DD is solved so the p-th percentile Monte-Carlo delay meets
    the target (:meth:`RingOscillatorModel.solve_vdd_for_yield`) and
    the energy prices leakage at the sampled mean.  ``variation=None``
    (the default) reproduces the nominal optimizer bit-for-bit.
    """

    def __init__(
        self,
        ring: RingOscillatorModel,
        cycle_stages: int = 20,
        variation: Optional[VariationSpec] = None,
    ):
        if cycle_stages < 1:
            raise OptimizationError("cycle_stages must be >= 1")
        if variation is not None and not isinstance(variation, VariationSpec):
            raise OptimizationError(
                "variation must be a VariationSpec or None"
            )
        self.ring = ring
        self.cycle_stages = cycle_stages
        self.variation = variation

    def locus_point(
        self, vt: float, target_stage_delay_s: float
    ) -> OperatingPoint:
        """The fixed-delay operating point at one V_T.

        Statistical mode (``variation`` set on the optimizer) returns a
        :class:`StatisticalOperatingPoint` at the yield-constrained
        supply instead of the nominal one.
        """
        ring = self.ring
        return _locus_point(
            ring, ring.energy_per_cycle, ring.statistical_energy_per_cycle,
            vt, target_stage_delay_s,
            self.cycle_stages * target_stage_delay_s, self.variation,
        )

    def sweep(
        self,
        vts: Sequence[float],
        target_stage_delay_s: float,
        skip_infeasible: bool = True,
    ) -> List[OperatingPoint]:
        """Fig. 3/4 data: the fixed-delay locus over a V_T list.

        Each V_T's solve and energy evaluation run through that
        corner's decoded :class:`~repro.tech.opplan.OperatingPlan`
        (built once per corner, reused by the bracket checks, all
        bisection steps and the energy query), so the whole axis is
        evaluated through batched kernels while staying bit-identical
        to the scalar per-probe chain.
        """
        return _sweep(
            lambda vt: self.locus_point(vt, target_stage_delay_s),
            vts, skip_infeasible, "optimizer.sweep",
        )

    def optimum(
        self,
        target_stage_delay_s: float,
        vt_bounds: Sequence[float] = (0.01, 0.6),
        tolerance: float = 1e-3,
    ) -> OperatingPoint:
        """Minimum-energy V_T (Fig. 4): coarse scan + golden section.

        The coarse scan brackets the global basin first because the
        low-V_DD clamp (see :meth:`RingOscillatorModel.
        solve_vdd_for_delay`) makes the energy landscape bimodal for
        targets the ring already meets at the minimum supply.
        """
        return _optimum(
            lambda vt: self.locus_point(vt, target_stage_delay_s),
            vt_bounds, tolerance, "optimizer.optimum",
        )


class ModuleThroughputOptimizer:
    """Fixed-throughput (V_DD, V_T) optimization for a real netlist.

    The ring-oscillator version above mirrors the paper's measurement
    structure; this one runs the same optimization on an arbitrary
    module: delay from register-aware static timing, switching energy
    from a simulated activity report (re-priced at each supply through
    the non-linear C(V)), leakage from the cell models at each
    (V_DD, V_T) corner.

    Parameters
    ----------
    netlist:
        The module under optimization.
    technology:
        Base process; ``vt`` below is an *absolute* logic threshold,
        applied as a shift from the base V_T0.
    activity_report:
        Simulated activity at a representative stimulus (the alpha
        values are treated as voltage-independent; the capacitances
        are not).
    variation:
        Optional :class:`VariationSpec` switching the optimizer into
        statistical mode (yield-constrained V_DD solves, mean-leakage
        energy pricing); ``None`` keeps the nominal behavior exactly.
    """

    def __init__(
        self,
        netlist,
        technology: Technology,
        activity_report,
        wire_length_per_fanout_um: float = 5.0,
        variation: Optional[VariationSpec] = None,
    ):
        from repro.circuits.timing import StaticTimingAnalyzer
        from repro.power.estimator import PowerEstimator

        if variation is not None and not isinstance(variation, VariationSpec):
            raise OptimizationError(
                "variation must be a VariationSpec or None"
            )
        self.netlist = netlist
        self.technology = technology
        self.report = activity_report
        self.variation = variation
        self._analyzer = StaticTimingAnalyzer(
            technology, wire_length_per_fanout_um
        )
        self._estimator = PowerEstimator(
            netlist, technology, wire_length_per_fanout_um
        )
        self._base_vt = technology.transistors.nmos.vt0
        self._wire = wire_length_per_fanout_um

    def _shift(self, vt: float) -> float:
        return vt - self._base_vt

    def delay(self, vdd: float, vt: float) -> float:
        """Critical-path delay at an absolute-V_T corner [s]."""
        return self._delay_at_shift(vdd, self._shift(vt))

    def _delay_at_shift(self, vdd: float, vt_shift: float) -> float:
        """STA delay at an explicit global shift (probe-counted)."""
        if obs.ENABLED:
            obs.incr("optimizer.delay_probes")
        return self._analyzer.analyze(
            self.netlist, vdd, vt_shift=vt_shift
        ).delay_s

    def solve_vdd_for_delay(
        self,
        target_delay_s: float,
        vt: float,
        vdd_bounds: Optional[Sequence[float]] = None,
    ) -> float:
        """Supply meeting the delay target at one V_T (Fig. 3).

        Clamps to the low V_DD bound when the module is already faster
        than the target there, and raises only when the target is
        unreachable at the *high* bound (:func:`_solve_supply`, shared
        with :meth:`RingOscillatorModel.solve_vdd_for_delay`).
        """
        return _solve_supply(
            self.technology, target_delay_s, vt, vdd_bounds, None,
            lambda: lambda vdd: self.delay(vdd, vt),
        )

    def _delay_percentile(
        self,
        vdd: float,
        vt: float,
        ordered_shifts: Sequence[float],
        percentile: float,
    ) -> float:
        """p-th percentile of the sampled critical-path delay [s].

        The STA delay is a max over per-path delays, each monotone
        nondecreasing in the global V_T shift, so the sorted delay
        vector equals the delay evaluated at the *sorted shift vector*.
        The percentile therefore needs only the two bracketing shift
        order statistics — two STA runs per probe instead of
        ``n_samples``, one when it lands on an order statistic — and
        is exactly equal to the full-vector percentile it shortcuts.
        """
        if obs.ENABLED:
            obs.incr("optimizer.mc_probes")
        base = self._shift(vt)
        return _sorted_percentile(
            ordered_shifts, percentile,
            lambda shift: self._delay_at_shift(vdd, base + shift),
        )

    def solve_vdd_for_yield(
        self,
        target_delay_s: float,
        vt: float,
        percentile: float = 99.0,
        vt_sigma: float = 0.03,
        n_samples: int = 300,
        seed: int = 0,
        vdd_bounds: Optional[Sequence[float]] = None,
    ) -> float:
        """Supply at which the p-th percentile delay meets the target.

        The module-level twin of
        :meth:`RingOscillatorModel.solve_vdd_for_yield`: one shift
        vector per solve, reused across probed supplies, so every order
        statistic of the delay distribution is monotone decreasing in
        V_DD and bisection applies.  Low-bound clamp and unreachable
        semantics mirror :meth:`solve_vdd_for_delay`.
        """
        spec = VariationSpec(
            percentile=percentile, vt_sigma=vt_sigma,
            n_samples=n_samples, seed=seed,
        )

        def percentile_delay():
            ordered = sorted(spec.draw_shifts())
            return lambda vdd: self._delay_percentile(
                vdd, vt, ordered, percentile
            )

        return _solve_supply(
            self.technology, target_delay_s, vt, vdd_bounds, spec,
            percentile_delay,
        )

    def energy_per_operation(
        self, vdd: float, vt: float, operation_time_s: float
    ) -> OperatingPoint:
        """Switching + leakage energy for one operation period [J]."""
        _check_period(operation_time_s, "operation time")
        switching = self.report.switching_energy_per_cycle(
            self.netlist, self.technology, vdd, self._wire
        )
        leakage = (
            self._estimator.leakage_current(vdd, self._shift(vt))
            * vdd
            * operation_time_s
        )
        return OperatingPoint(
            vt=vt,
            vdd=vdd,
            stage_delay_s=self.delay(vdd, vt),
            energy_per_cycle_j=switching + leakage,
            switching_energy_j=switching,
            leakage_energy_j=leakage,
        )

    def statistical_energy_per_operation(
        self,
        vdd: float,
        vt: float,
        operation_time_s: float,
        variation: VariationSpec,
    ) -> StatisticalOperatingPoint:
        """Operation energy with leakage priced at the sampled mean [J].

        The module's leakage current is averaged over the full shift
        vector (the lognormal amplification the paper's subthreshold
        model implies; see :func:`_statistical_point`).
        """
        _check_period(operation_time_s, "operation time")
        shifts = variation.draw_shifts()
        base = self._shift(vt)
        return _statistical_point(
            self.technology, variation, vt, vdd, operation_time_s,
            units=1,
            switching=self.report.switching_energy_per_cycle(
                self.netlist, self.technology, vdd, self._wire
            ),
            leakages=[
                self._estimator.leakage_current(vdd, base + s)
                for s in shifts
            ],
            nominal_leakage=self._estimator.leakage_current(vdd, base),
            stage_delay_s=self.delay(vdd, vt),
            delay_percentile_s=self._delay_percentile(
                vdd, vt, sorted(shifts), variation.percentile
            ),
        )

    def locus_point(
        self, vt: float, target_delay_s: float, utilization: float = 1.0
    ) -> OperatingPoint:
        """Fixed-throughput point: V_DD solved, leakage over the period.

        ``utilization`` < 1 means the module is clocked slower than its
        critical path allows (operation period = delay / utilization),
        lengthening the leakage integration window.  With a
        ``variation`` spec the supply is solved for the p-th percentile
        corner and the energy uses the statistical leakage mean.
        """
        if not 0.0 < utilization <= 1.0:
            raise OptimizationError("utilization must be in (0, 1]")
        return _locus_point(
            self, self.energy_per_operation,
            self.statistical_energy_per_operation, vt, target_delay_s,
            target_delay_s / utilization, self.variation,
        )

    def sweep(
        self,
        vts: Sequence[float],
        target_delay_s: float,
        utilization: float = 1.0,
        skip_infeasible: bool = True,
    ) -> List[OperatingPoint]:
        """Fixed-throughput locus over a V_T list (Figs. 3-4 shape).

        ``skip_infeasible`` mirrors
        :meth:`FixedThroughputOptimizer.sweep`: by default infeasible
        V_T corners are dropped from the locus, but passing ``False``
        lets configuration errors (bad utilization, unreachable
        targets) surface instead of being silently swallowed.
        """
        return _sweep(
            lambda vt: self.locus_point(vt, target_delay_s, utilization),
            vts, skip_infeasible, "optimizer.module_sweep",
        )

    def optimum(
        self,
        target_delay_s: float,
        vt_bounds: Sequence[float] = (0.02, 0.5),
        utilization: float = 1.0,
        tolerance: float = 2e-3,
    ) -> OperatingPoint:
        """Minimum-energy V_T at fixed throughput (scan + golden section).

        Uses the same bracketed search as
        :meth:`FixedThroughputOptimizer.optimum` — the shared low-bound
        clamp makes the landscape bimodal for relaxed targets here too.
        """
        return _optimum(
            lambda vt: self.locus_point(vt, target_delay_s, utilization),
            vt_bounds, tolerance, "optimizer.module_optimum",
        )
