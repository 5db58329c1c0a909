"""The Fig. 3/4 energy surface over the (V_DD, V_T) plane.

Figs. 3 and 4 of the paper study a fixed-throughput ring oscillator:
for each (V_DD, V_T) pair the ring either meets the cycle-time budget
or it does not, and where it does, the cycle energy is the Fig. 4
switching-plus-leakage sum.  This module samples that plane on a
(V_T, V_DD) grid — each V_T row shares one characterizer corner and
one decoded :class:`~repro.tech.opplan.OperatingPlan`, which is what
makes whole-axis evaluation cheap — and marks infeasible cells (stage
delay above the per-stage budget) as ``None``.

The interesting structure is one-dimensional: per V_T row, energy
falls with V_DD until leakage-vs-delay trade-off turns it around, so
the optimum-energy locus is a curve on the plane.  ``refine_levels``
reuses the adaptive machinery behind the Fig. 10 contour
(:mod:`repro.analysis.contour`) to subdivide only the cells that touch
the feasibility boundary or sit within ``refine_band`` of their row's
minimum — the locus is resolved at ``2**levels`` times the base grid
without re-sampling the flat high-energy regions.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.analysis.contour import (
    _MAX_REFINE_LEVELS,
    RefinedSurface,
    _refine_lattice,
)
from repro.analysis.sweep import Sweep2D, sweep_2d
from repro.device.technology import Technology
from repro.errors import AnalysisError

__all__ = ["EnergySurface", "energy_surface"]

#: Per-worker decoded operating plans, keyed by (technology, vt).
#: Mirrors the CLI locus fan-out's model cache: a pool worker handed
#: many (V_T, V_DD) cells decodes each V_T corner once and pushes every
#: V_DD through the plan's kernels.  The serial path shares the same
#: cache, so a V_T-major grid decodes one plan per row.  Bounded like
#: the ring model's corner LRU so long-lived processes cannot leak.
_WORKER_PLANS: "OrderedDict" = OrderedDict()
_MAX_WORKER_PLANS = 256

#: The ring probe cell, resolved once per process — ``standard_cells``
#: rebuilds the whole library on every call, which at one call per V_T
#: corner was a measurable slice of the decode cost.
_INVERTER = None


def _inverter():
    global _INVERTER
    if _INVERTER is None:
        from repro.tech.cells import standard_cells

        _INVERTER = standard_cells()["INV"]
    return _INVERTER


def _corner_plan(technology: Technology, vt: float):
    """The fanout-1 inverter :class:`OperatingPlan` for one V_T corner."""
    key = (technology, vt)
    plan = _WORKER_PLANS.get(key)
    if plan is None:
        from repro.tech.characterize import CellCharacterizer

        characterizer = CellCharacterizer(technology.with_vt(vt))
        plan = characterizer.plan_operating(_inverter(), fanout=1)
        while len(_WORKER_PLANS) >= _MAX_WORKER_PLANS:
            _WORKER_PLANS.popitem(last=False)
        _WORKER_PLANS[key] = plan
    else:
        _WORKER_PLANS.move_to_end(key)
    return plan


class _EnergyCell:
    """One (V_T, V_DD) surface cell; a class so the fan-out can pickle it.

    Returns the ring's cycle energy [J] when the stage delay meets the
    per-stage budget, ``None`` where the corner is infeasible.  The
    plan kernels and the association below are float-for-float the
    :meth:`~repro.power.optimizer.RingOscillatorModel.stage_delay` /
    :meth:`~repro.power.optimizer.RingOscillatorModel.energy_per_cycle`
    chain (pinned by ``tests/analysis/test_surface.py``), minus the
    per-point memo traffic — a pure function of its coordinates, so
    parallel, scheduled, store-restored and serial evaluations are
    bit-identical.
    """

    __slots__ = (
        "technology",
        "stages",
        "activity",
        "t_cycle_s",
        "target_stage_delay_s",
    )

    def __init__(
        self,
        technology: Technology,
        stages: int,
        activity: float,
        t_cycle_s: float,
        target_stage_delay_s: float,
    ):
        self.technology = technology
        self.stages = stages
        self.activity = activity
        self.t_cycle_s = t_cycle_s
        self.target_stage_delay_s = target_stage_delay_s

    def __call__(self, vt: float, vdd: float) -> Optional[float]:
        plan = _corner_plan(self.technology, vt)
        if plan.delay(vdd) > self.target_stage_delay_s:
            return None
        switching_per_stage, leak_per_stage = plan.energies((vdd,))[0]
        switching = self.stages * self.activity * switching_per_stage
        leakage_current = self.stages * leak_per_stage
        return switching + leakage_current * vdd * self.t_cycle_s

    def __getstate__(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state):
        for name, value in zip(self.__slots__, state):
            setattr(self, name, value)


@dataclass(frozen=True)
class EnergySurface:
    """Cycle energy over the (V_T, V_DD) plane at fixed throughput.

    ``grid.zs[i][j]`` is the ring's energy per cycle at
    ``(vt=grid.xs[i], vdd=grid.ys[j])``, or ``None`` where the stage
    delay misses the per-stage budget ``target_stage_delay_s``.
    """

    grid: Sweep2D
    t_cycle_s: float
    target_stage_delay_s: float
    stages: int
    activity: float
    cycle_stages: int
    #: Present when the surface was computed with ``refine_levels > 0``.
    refined: Optional[RefinedSurface] = field(default=None)

    def optimum_locus(self) -> List[Tuple[float, float, float]]:
        """Per-V_T minimum-energy operating points (Fig. 3's locus).

        One ``(vt, vdd, energy_per_cycle_j)`` row per V_T with at
        least one feasible cell; fully infeasible rows are skipped.
        """
        locus = []
        for i, vt in enumerate(self.grid.xs):
            best = None
            for j, value in enumerate(self.grid.zs[i]):
                if value is None:
                    continue
                if best is None or value < best[1]:
                    best = (self.grid.ys[j], value)
            if best is not None:
                locus.append((vt, best[0], best[1]))
        return locus

    def optimum(self) -> Tuple[float, float, float]:
        """Global minimum: ``(vdd, vt, energy_per_cycle_j)``."""
        locus = self.optimum_locus()
        if not locus:
            raise AnalysisError(
                "no feasible (V_DD, V_T) cell meets the delay target"
            )
        vt, vdd, energy = min(locus, key=lambda row: row[2])
        return vdd, vt, energy


def _row_minima(
    known: Dict[Tuple[int, int], Optional[float]],
) -> Dict[int, float]:
    """Per-V_T-row minimum over the defined known lattice values."""
    minima: Dict[int, float] = {}
    for (i, _j), value in known.items():
        if value is None:
            continue
        current = minima.get(i)
        if current is None or value < current:
            minima[i] = value
    return minima


def _near_optimum(
    corners: Sequence[Optional[float]],
    rows: Sequence[int],
    row_min: Dict[int, float],
    band: float,
) -> bool:
    """Refinement criterion for one cell of the energy surface.

    A cell is interesting when it touches the feasibility boundary
    (mixed defined/None corners — the minimum-energy V_DD hugs that
    edge at low V_T) or when any corner is within a relative ``band``
    of its own row's minimum (the optimum-energy locus proper).
    """
    defined = [value for value in corners if value is not None]
    if not defined:
        return False
    if len(defined) < len(corners):
        return True
    return any(
        value <= (1.0 + band) * row_min[row]
        for row, value in zip(rows, corners)
    )


def _optimum_selector(band: float) -> Callable:
    """:func:`~repro.analysis.contour._refine_lattice` selector.

    Row minima are taken once per level over the lattice evaluated so
    far; a cell's corners sit on rows ``i`` and ``i + size``.
    """

    def select(known):
        row_min = _row_minima(known)
        return lambda corners, i, size: _near_optimum(
            corners, (i, i, i + size, i + size), row_min, band
        )

    return select


def energy_surface(
    technology: Technology,
    vt_values: Sequence[float],
    vdd_values: Sequence[float],
    t_cycle_s: float,
    stages: int = 101,
    activity: float = 1.0,
    cycle_stages: Optional[int] = None,
    workers: int = 0,
    progress: Optional[Callable[[int, int], None]] = None,
    store=None,
    checkpoint_every: int = 32,
    refine_levels: int = 0,
    refine_band: float = 0.2,
    scheduler=None,
) -> EnergySurface:
    """Sample the Fig. 3/4 energy plane over a (V_T, V_DD) grid.

    ``cycle_stages`` converts the cycle time into the per-stage delay
    budget ``t_cycle_s / cycle_stages`` (default ``2 * stages``, the
    ring's own period — matching
    :meth:`repro.core.flow.LowVoltageDesignFlow.throughput_optimizer`).
    Cells whose stage delay misses the budget come back as ``None``.

    Rows share a V_T corner: the grid is evaluated V_T-major, so each
    row decodes one operating plan and every cell of the row reuses it.
    The grid and each refinement level go through
    :func:`~repro.analysis.parallel.fan_out`.  ``workers`` fans the
    cells across processes (0 = serial; ring
    cells are expensive enough that the small-grid serial gate is
    disabled here) and the sampled surface is identical for any worker
    count.  ``progress(done_cells, total_cells)`` reports completion.

    With ``store`` (a :class:`repro.store.ResultStore`) the grid is
    checkpointed under a canonical digest of every input, so a killed
    surface resumes from its completed chunks and an identical
    re-request is served entirely from the store.

    ``refine_levels > 0`` turns on **adaptive locus refinement**: the
    same machinery that sharpens the Fig. 10 break-even contour
    recursively subdivides the cells whose corners touch the
    feasibility boundary or fall within ``refine_band`` (relative) of
    their row's energy minimum — the optimum-energy locus is resolved
    at ``2**levels`` times the grid resolution while flat regions are
    never re-sampled.  The sparse points live in ``surface.refined``;
    with a store each level checkpoints under its own digest.

    ``scheduler`` (a :class:`repro.sched.Scheduler`) evaluates the
    grid — and every refinement level — through the durable work
    queue; ``workers`` is then ignored and the surface stays
    bit-identical to the serial path.
    """
    if t_cycle_s <= 0.0:
        raise AnalysisError(
            f"cycle time must be positive, got {t_cycle_s}"
        )
    if any(vdd <= 0.0 for vdd in vdd_values):
        raise AnalysisError("vdd values must be positive")
    if cycle_stages is None:
        cycle_stages = 2 * stages
    if cycle_stages < 1:
        raise AnalysisError(
            f"cycle_stages must be >= 1, got {cycle_stages}"
        )
    if refine_levels < 0:
        raise AnalysisError(
            f"refine_levels must be >= 0, got {refine_levels}"
        )
    if refine_levels > _MAX_REFINE_LEVELS:
        raise AnalysisError(
            f"refine_levels must be <= {_MAX_REFINE_LEVELS}, "
            f"got {refine_levels}"
        )
    if refine_levels > 0:
        if refine_band <= 0.0:
            raise AnalysisError(
                f"refine_band must be positive, got {refine_band}"
            )
        if len(vt_values) < 2 or len(vdd_values) < 2:
            raise AnalysisError(
                "refinement needs at least two points per axis"
            )
    target_stage_delay_s = t_cycle_s / cycle_stages
    cell = _EnergyCell(
        technology, stages, activity, t_cycle_s, target_stage_delay_s
    )
    store_inputs = None
    store_key = None
    if store is not None:
        from repro.store.hashing import request_digest, technology_digest

        store_inputs = [
            technology_digest(technology),
            stages,
            activity,
            t_cycle_s,
            target_stage_delay_s,
            [float(v) for v in vt_values],
            [float(v) for v in vdd_values],
        ]
        store_key = request_digest("energy-surface", *store_inputs)
    with obs.span("analysis.energy_surface"):
        grid = sweep_2d(
            "vt",
            "vdd",
            "energy_per_cycle_j",
            vt_values,
            vdd_values,
            cell,
            workers=workers,
            progress=progress,
            store=store,
            store_key=store_key,
            checkpoint_every=checkpoint_every,
            scheduler=scheduler,
            min_parallel_items=0,
        )
    refined = None
    if refine_levels > 0:
        with obs.span("analysis.surface_refine"):
            refined = _refine_lattice(
                cell,
                grid,
                refine_levels,
                refine_band,
                _optimum_selector(refine_band),
                "surface",
                None
                if store_inputs is None
                else ("energy-surface-refine", *store_inputs),
                workers,
                progress,
                store,
                checkpoint_every,
                scheduler=scheduler,
                min_parallel_items=0,
            )
    return EnergySurface(
        grid=grid,
        t_cycle_s=t_cycle_s,
        target_stage_delay_s=target_stage_delay_s,
        stages=stages,
        activity=activity,
        cycle_stages=cycle_stages,
        refined=refined,
    )
