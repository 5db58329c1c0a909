"""The Fig. 10 energy-ratio surface and break-even contour.

Fig. 10 plots ``log10(E_SOIAS / E_SOI)`` over the (fga, bga) plane.
The zero contour is the break-even locus: applications below it save
energy with SOIAS.  Setting Eq. 3 equal to Eq. 4 gives the break-even
back-gate activity in closed form::

    bga* = (1 - fga) * (I_low - I_high) * V_DD * t_cyc / (C_bg * V_bg^2)

— the leakage rescued while idle, divided by the cost of one back-gate
toggle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.analysis.sweep import Sweep2D, sweep_2d
from repro.errors import AnalysisError
from repro.power.energy import (
    ModuleEnergyParameters,
    e_soi,
    e_soias,
)

__all__ = [
    "ApplicationPoint",
    "RatioSurface",
    "RefinedSurface",
    "energy_ratio_surface",
    "breakeven_bga",
    "zero_crossing_cells",
]

#: Subdivision-depth bound: each level doubles both axes, so 10 levels
#: already turn a 24-point axis into ~23k points.
_MAX_REFINE_LEVELS = 10


def _defined_straddle(corners: Sequence[Optional[float]]) -> bool:
    """True when the defined corner values bracket zero."""
    defined = [value for value in corners if value is not None]
    if not defined:
        return False
    return min(defined) < 0.0 < max(defined)


def _interesting(
    corners: Sequence[Optional[float]], band: float
) -> bool:
    """Refinement criterion: the cell straddles or nears the contour.

    The surface is monotone in bga, so a sign change across the
    defined corners locates the contour exactly; the |value| <= band
    test additionally catches cells whose corners are all undefined
    but one (the contour can hide behind the infeasible bga > fga
    triangle) and cells the contour merely grazes.
    """
    defined = [value for value in corners if value is not None]
    if not defined:
        return False
    if min(defined) < 0.0 < max(defined):
        return True
    return any(abs(value) <= band for value in defined)


def _contour_selector(band: float) -> Callable:
    """:func:`_refine_lattice` selector: the :func:`_interesting` test."""

    def select(known):
        return lambda corners, i, size: _interesting(corners, band)

    return select


def zero_crossing_cells(
    zs: Sequence[Sequence[Optional[float]]],
) -> Tuple[Tuple[int, int], ...]:
    """Grid cells (by lower-corner index) whose corners bracket zero.

    The uniform-grid counterpart of
    :meth:`RefinedSurface.zero_cells`, used to verify that adaptive
    refinement resolves the same contour as a full grid.
    """
    cells = []
    for i in range(len(zs) - 1):
        row, next_row = zs[i], zs[i + 1]
        for j in range(len(row) - 1):
            corners = (row[j], row[j + 1], next_row[j], next_row[j + 1])
            if _defined_straddle(corners):
                cells.append((i, j))
    return tuple(cells)


@dataclass(frozen=True)
class RefinedSurface:
    """Adaptively refined view of a ratio surface near its contour.

    ``xs``/``ys`` are the finest-level axes (every base interval
    subdivided ``levels`` times); ``indices``/``values`` hold the
    sparse set of evaluated points on that lattice — the full base
    grid plus the midpoints spawned inside cells that straddle or
    near the break-even contour.  Points far from the contour are
    never evaluated, which is the entire saving.
    """

    levels: int
    band: float
    xs: Tuple[float, ...]
    ys: Tuple[float, ...]
    indices: Tuple[Tuple[int, int], ...]
    values: Tuple[Optional[float], ...]
    cells_refined: int
    cells_skipped: int

    def known(self) -> Dict[Tuple[int, int], Optional[float]]:
        """Evaluated finest-lattice points as an ``{(i, j): z}`` map."""
        return dict(zip(self.indices, self.values))

    def value_at(self, i: int, j: int) -> Optional[float]:
        """Value at one finest-lattice point (raises if unevaluated)."""
        try:
            return self.known()[(i, j)]
        except KeyError:
            raise AnalysisError(
                f"point ({i}, {j}) was not evaluated (outside the "
                f"refinement band)"
            )

    @property
    def evaluated(self) -> int:
        """Number of points actually evaluated."""
        return len(self.indices)

    @property
    def total_points(self) -> int:
        """Points a uniform grid at finest resolution would evaluate."""
        return len(self.xs) * len(self.ys)

    @property
    def coverage(self) -> float:
        """Evaluated fraction of the equivalent uniform grid."""
        return self.evaluated / self.total_points

    def zero_cells(self) -> Tuple[Tuple[int, int], ...]:
        """Finest-level cells whose evaluated corners bracket zero.

        Only cells with all four corners evaluated qualify — exactly
        the cells inside the refinement band, where the contour is.
        """
        known = self.known()
        cells = []
        for i in range(len(self.xs) - 1):
            for j in range(len(self.ys) - 1):
                missing = object()
                corners = (
                    known.get((i, j), missing),
                    known.get((i, j + 1), missing),
                    known.get((i + 1, j), missing),
                    known.get((i + 1, j + 1), missing),
                )
                if missing in corners:
                    continue
                if _defined_straddle(corners):
                    cells.append((i, j))
        return tuple(cells)


@dataclass(frozen=True)
class ApplicationPoint:
    """One profiled application/unit pair placed on the Fig. 10 plane."""

    label: str
    fga: float
    bga: float
    log10_ratio: float

    @property
    def soias_wins(self) -> bool:
        """Below the zero contour: SOIAS dissipates less than SOI."""
        return self.log10_ratio < 0.0

    @property
    def saving_fraction(self) -> float:
        """Energy saved by SOIAS relative to SOI (negative = loss)."""
        return 1.0 - 10.0**self.log10_ratio


@dataclass(frozen=True)
class RatioSurface:
    """log10(E_SOIAS/E_SOI) over the (fga, bga) plane for one module."""

    module: ModuleEnergyParameters
    vdd: float
    t_cycle_s: float
    grid: Sweep2D
    #: Present when the surface was computed with ``refine_levels > 0``.
    refined: Optional[RefinedSurface] = field(default=None)

    def log10_ratio(self, fga: float, bga: float) -> float:
        """Exact surface value at one (fga, bga)."""
        soi = e_soi(self.module, fga, self.vdd, self.t_cycle_s)
        soias = e_soias(self.module, fga, bga, self.vdd, self.t_cycle_s)
        if soi <= 0.0 or soias <= 0.0:
            raise AnalysisError("energies must be positive for a ratio")
        return math.log10(soias / soi)

    def application_point(
        self, label: str, fga: float, bga: float
    ) -> ApplicationPoint:
        """Place a profiled application on the surface."""
        return ApplicationPoint(
            label=label,
            fga=fga,
            bga=bga,
            log10_ratio=self.log10_ratio(fga, bga),
        )

    def breakeven_contour(
        self, fga_values: Sequence[float]
    ) -> List[Optional[float]]:
        """bga* at each fga (None where break-even exceeds fga).

        A None entry means SOIAS wins for *every* admissible bga at
        that fga — or, when bga* is zero or negative, that it can
        never win.
        """
        contour: List[Optional[float]] = []
        for fga in fga_values:
            bga_star = breakeven_bga(
                self.module, fga, self.vdd, self.t_cycle_s
            )
            if bga_star is not None and bga_star > fga:
                bga_star = None
            contour.append(bga_star)
        return contour


def breakeven_bga(
    module: ModuleEnergyParameters,
    fga: float,
    vdd: float,
    t_cycle_s: float,
) -> Optional[float]:
    """Closed-form break-even back-gate activity, or None if undefined.

    Returns None when the module has no back-gate capacitance (the
    overhead term vanishes, so SOIAS wins at any bga when it rescues
    leakage).
    """
    if not 0.0 <= fga <= 1.0:
        raise AnalysisError(f"fga must be in [0, 1], got {fga}")
    if vdd <= 0.0 or t_cycle_s <= 0.0:
        raise AnalysisError("vdd and cycle time must be positive")
    overhead = module.back_gate_capacitance_f * module.back_gate_swing_v**2
    rescued = (
        (1.0 - fga)
        * (module.leakage_low_vt_a - module.leakage_high_vt_a)
        * vdd
        * t_cycle_s
    )
    if overhead <= 0.0:
        return None
    return rescued / overhead


def _ratio_cell(
    module: ModuleEnergyParameters,
    vdd: float,
    t_cycle_s: float,
    fga: float,
    bga: float,
) -> Optional[float]:
    """One surface cell; module-level so the grid fan-out can pickle it."""
    if bga > fga:
        return None
    soi = e_soi(module, fga, vdd, t_cycle_s)
    soias = e_soias(module, fga, bga, vdd, t_cycle_s)
    if soi <= 0.0 or soias <= 0.0:
        return None
    return math.log10(soias / soi)


def _subdivide_axis(
    values: Sequence[float], levels: int
) -> Tuple[float, ...]:
    """Insert midpoints into every interval, ``levels`` times over."""
    axis = [float(value) for value in values]
    for _ in range(levels):
        finer = []
        for left, right in zip(axis[:-1], axis[1:]):
            finer.append(left)
            finer.append(0.5 * (left + right))
        finer.append(axis[-1])
        axis = finer
    return tuple(axis)


def _refine_lattice(
    cell: Callable[[float, float], Optional[float]],
    grid: Sweep2D,
    levels: int,
    band: float,
    selector: Callable,
    counter: str,
    key_parts: Optional[Sequence],
    workers: int,
    progress,
    store,
    checkpoint_every: int,
    scheduler=None,
    min_parallel_items: Optional[int] = None,
) -> RefinedSurface:
    """Recursively subdivide only the cells ``selector`` picks.

    ``selector(known)`` is called once per level with the evaluated
    lattice so far and returns ``interesting(corners, i, size)``, the
    test for the cell whose lower corner is ``(i, j)``; ``counter``
    prefixes the ``<counter>.cells_refined``/``cells_skipped`` obs
    counters.  Each level's new points go through one
    :func:`~repro.analysis.parallel.fan_out`; with a store that level
    checkpoints under ``request_digest(*key_parts, levels, band,
    level)``.  The points a level needs are deterministic for a given
    base grid, so a resumed run addresses the same checkpoint cells.
    """
    from repro.analysis.parallel import _PairFn, fan_out

    stride = 1 << levels
    xs = _subdivide_axis(grid.xs, levels)
    ys = _subdivide_axis(grid.ys, levels)
    known: Dict[Tuple[int, int], Optional[float]] = {}
    for i, row in enumerate(grid.zs):
        for j, value in enumerate(row):
            known[(i * stride, j * stride)] = value
    active = [
        (i * stride, j * stride)
        for i in range(len(grid.xs) - 1)
        for j in range(len(grid.ys) - 1)
    ]
    refined = 0
    skipped = 0
    for level in range(levels):
        size = stride >> level
        half = size >> 1
        interesting = selector(known)
        targets = []
        for i, j in active:
            corners = (
                known[(i, j)],
                known[(i, j + size)],
                known[(i + size, j)],
                known[(i + size, j + size)],
            )
            if interesting(corners, i, size):
                targets.append((i, j))
            else:
                skipped += 1
        refined += len(targets)
        if not targets:
            break
        # The five new points of each refined cell: edge midpoints and
        # the center.  Shared edges between neighbouring targets (and
        # points evaluated at earlier levels) dedup through the set.
        needed = sorted(
            {
                point
                for i, j in targets
                for point in (
                    (i, j + half),
                    (i + half, j),
                    (i + half, j + half),
                    (i + half, j + size),
                    (i + size, j + half),
                )
                if point not in known
            }
        )
        if needed:
            checkpoint = None
            if store is not None:
                from repro.store.checkpoint import SweepCheckpoint
                from repro.store.hashing import request_digest

                checkpoint = SweepCheckpoint(
                    store,
                    request_digest(*key_parts, levels, band, level),
                    len(needed),
                    flush_every=checkpoint_every,
                )
            values = fan_out(
                _PairFn(cell),
                [(xs[i], ys[j]) for i, j in needed],
                workers=workers,
                scheduler=scheduler,
                progress=progress,
                checkpoint=checkpoint,
                min_parallel_items=min_parallel_items,
            )
            known.update(zip(needed, values))
        active = [
            (i + di, j + dj)
            for i, j in targets
            for di in (0, half)
            for dj in (0, half)
        ]
    if obs.ENABLED:
        if refined:
            obs.incr(f"{counter}.cells_refined", refined)
        if skipped:
            obs.incr(f"{counter}.cells_skipped", skipped)
    indices = tuple(sorted(known))
    return RefinedSurface(
        levels=levels,
        band=band,
        xs=xs,
        ys=ys,
        indices=indices,
        values=tuple(known[point] for point in indices),
        cells_refined=refined,
        cells_skipped=skipped,
    )


def energy_ratio_surface(
    module: ModuleEnergyParameters,
    vdd: float,
    t_cycle_s: float,
    fga_values: Sequence[float],
    bga_values: Sequence[float],
    workers: int = 0,
    progress: Optional[Callable[[int, int], None]] = None,
    store=None,
    checkpoint_every: int = 32,
    refine_levels: int = 0,
    refine_band: float = 0.15,
    scheduler=None,
) -> RatioSurface:
    """Sample the Fig. 10 surface over a grid.

    Cells with ``bga > fga`` are physically impossible (a block cannot
    power up more often than it is used) and come back as None.
    ``workers`` parallelizes the grid across processes (0 = serial);
    the sampled surface is identical for any worker count.
    ``progress(done_cells, total_cells)`` reports completion for long
    grids.

    With ``store`` (a :class:`repro.store.ResultStore`) the grid is
    checkpointed under a canonical digest of every input — module
    parameters, operating point, and both axes — so a killed surface
    resumes from its completed chunks and an identical re-request is
    served entirely from the store.

    ``refine_levels > 0`` turns on **adaptive contour refinement**:
    after the coarse grid, cells straddling the zero contour (or with
    a corner within ``refine_band`` of it in log10) are recursively
    subdivided, each level halving the cell size — the contour ends up
    resolved at ``2^levels`` times the grid resolution while the flat
    regions of the surface are never re-sampled.  The sparse refined
    points live in ``surface.refined`` (a :class:`RefinedSurface`),
    they fan out through the same ``workers`` pool, and with a store
    each level checkpoints under its own digest so refinement resumes
    exactly like the base grid.  Every evaluated point is bit-identical
    to the same cell of a uniform finest-level grid.

    ``scheduler`` (a :class:`repro.sched.Scheduler`) evaluates the
    grid — and every refinement level — through the durable work
    queue instead of the in-process pool; ``workers`` is then ignored
    and the surface stays bit-identical to the serial path.
    """
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
        if len(fga_values) < 2 or len(bga_values) < 2:
            raise AnalysisError(
                "refinement needs at least two points per axis"
            )
    cell = functools.partial(_ratio_cell, module, vdd, t_cycle_s)
    store_key = None
    if store is not None:
        from repro.store.hashing import request_digest

        store_key = request_digest(
            "ratio-surface",
            module,
            vdd,
            t_cycle_s,
            [float(v) for v in fga_values],
            [float(v) for v in bga_values],
        )
    with obs.span("analysis.ratio_surface"):
        grid = sweep_2d(
            "fga",
            "bga",
            "log10(E_SOIAS/E_SOI)",
            fga_values,
            bga_values,
            cell,
            workers=workers,
            progress=progress,
            store=store,
            store_key=store_key,
            checkpoint_every=checkpoint_every,
            scheduler=scheduler,
        )
    refined = None
    if refine_levels > 0:
        from repro.analysis.parallel import _MIN_PARALLEL_ITEMS

        with obs.span("analysis.contour_refine"):
            refined = _refine_lattice(
                cell,
                grid,
                refine_levels,
                refine_band,
                _contour_selector(refine_band),
                "contour",
                (
                    "ratio-surface-refine",
                    module,
                    vdd,
                    t_cycle_s,
                    list(grid.xs),
                    list(grid.ys),
                ),
                workers,
                progress,
                store,
                checkpoint_every,
                scheduler=scheduler,
                min_parallel_items=_MIN_PARALLEL_ITEMS,
            )
    return RatioSurface(
        module=module,
        vdd=vdd,
        t_cycle_s=t_cycle_s,
        grid=grid,
        refined=refined,
    )
