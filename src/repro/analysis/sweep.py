"""Generic parameter-sweep containers.

Thin, dependency-free structures the benchmarks use to hold the data
series behind each figure: a 1-D sweep is a figure curve, a 2-D sweep
is a contour-plot grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import AnalysisError

__all__ = ["Sweep1D", "Sweep2D", "sweep_1d", "sweep_2d"]


@dataclass(frozen=True)
class Sweep1D:
    """One curve: ``y = f(x)`` sampled over a grid."""

    x_name: str
    y_name: str
    xs: Tuple[float, ...]
    ys: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.xs) != len(self.ys):
            raise AnalysisError("xs and ys must have equal length")
        if not self.xs:
            raise AnalysisError("sweep is empty")

    def argmin(self) -> Tuple[float, float]:
        """(x, y) of the minimum sample."""
        index = min(range(len(self.ys)), key=self.ys.__getitem__)
        return self.xs[index], self.ys[index]

    def argmax(self) -> Tuple[float, float]:
        """(x, y) of the maximum sample."""
        index = max(range(len(self.ys)), key=self.ys.__getitem__)
        return self.xs[index], self.ys[index]

    def is_monotone(self, increasing: bool = True) -> bool:
        """Whether the samples are sorted along y."""
        ordered = sorted(self.ys, reverse=not increasing)
        return list(self.ys) == ordered

    def has_interior_minimum(self) -> bool:
        """True when the minimum is not at either end (a U-shape)."""
        index = min(range(len(self.ys)), key=self.ys.__getitem__)
        return 0 < index < len(self.ys) - 1

    def rows(self) -> List[Tuple[float, float]]:
        """(x, y) pairs for table rendering."""
        return list(zip(self.xs, self.ys))


@dataclass(frozen=True)
class Sweep2D:
    """A grid: ``z = f(x, y)``; ``None`` marks undefined cells."""

    x_name: str
    y_name: str
    z_name: str
    xs: Tuple[float, ...]
    ys: Tuple[float, ...]
    zs: Tuple[Tuple[Optional[float], ...], ...]  # zs[i][j] = f(xs[i], ys[j])

    def __post_init__(self) -> None:
        if len(self.zs) != len(self.xs):
            raise AnalysisError("z grid rows must match xs")
        if any(len(row) != len(self.ys) for row in self.zs):
            raise AnalysisError("z grid columns must match ys")

    def at(self, i: int, j: int) -> Optional[float]:
        """Grid value at index (i, j)."""
        return self.zs[i][j]

    def defined_cells(self) -> int:
        """Number of non-None cells."""
        return sum(
            1 for row in self.zs for value in row if value is not None
        )


def sweep_1d(
    x_name: str,
    y_name: str,
    xs: Sequence[float],
    fn: Callable[[float], float],
) -> Sweep1D:
    """Sample ``fn`` over ``xs``."""
    if not xs:
        raise AnalysisError("empty sweep grid")
    values = tuple(float(fn(x)) for x in xs)
    return Sweep1D(
        x_name=x_name, y_name=y_name, xs=tuple(float(x) for x in xs),
        ys=values,
    )


def sweep_2d(
    x_name: str,
    y_name: str,
    z_name: str,
    xs: Sequence[float],
    ys: Sequence[float],
    fn: Callable[[float, float], Optional[float]],
    workers: int = 0,
    progress: Optional[Callable[[int, int], None]] = None,
    store=None,
    store_key: Optional[str] = None,
    checkpoint_every: int = 32,
    scheduler=None,
    min_parallel_items: Optional[int] = None,
) -> Sweep2D:
    """Sample ``fn`` over the cartesian grid; fn may return None.

    The grid goes through :func:`repro.analysis.parallel.fan_out`.
    ``workers`` fans it out over processes (0 = serial, None = one per
    CPU).  ``fn`` must be picklable for actual parallelism — a
    closure falls back to the serial path with a one-time
    ``RuntimeWarning`` (counted in ``parallel.pickle_fallbacks``);
    results are identical either way.  Grids below
    ``min_parallel_items`` cells (``None`` = the library default,
    :data:`repro.analysis.parallel._MIN_PARALLEL_ITEMS`; ``0``
    disables the gate) also run serially — pool overhead dominates
    cheap cells on small grids.  ``progress(done_cells, total_cells)``
    is invoked as cells complete (per chunk on the parallel path, per
    cell on the serial one).

    With ``store`` (a :class:`repro.store.ResultStore`) and
    ``store_key`` (a stable digest of the sweep inputs — see
    :func:`repro.store.request_digest`) the sweep is **checkpointed
    and resumable**: completed cells are persisted in chunks of
    ``checkpoint_every`` (immediately per chunk on the parallel path),
    a re-run restores them and computes only the gap, and the result
    is bit-identical to an unstored serial run.

    ``scheduler`` (a :class:`repro.sched.Scheduler`) routes the
    fan-out through the durable work queue instead of the in-process
    pool — any number of worker processes/hosts evaluate the cells,
    ``workers`` is ignored, and the assembled grid stays bit-identical
    to the serial path (combinable with ``store`` for checkpointed
    scheduler sweeps).
    """
    if not xs or not ys:
        raise AnalysisError("empty sweep grid")
    from repro.analysis.parallel import _MIN_PARALLEL_ITEMS, _PairFn, fan_out

    if min_parallel_items is None:
        min_parallel_items = _MIN_PARALLEL_ITEMS
    checkpoint = None
    if store is not None:
        if not store_key:
            raise AnalysisError(
                "a store-backed sweep needs a store_key identifying "
                "its inputs"
            )
        from repro.store.checkpoint import SweepCheckpoint

        checkpoint = SweepCheckpoint(
            store, store_key, len(xs) * len(ys), flush_every=checkpoint_every
        )
    flat = fan_out(
        _PairFn(fn),
        [(x, y) for x in xs for y in ys],
        workers=workers,
        scheduler=scheduler,
        progress=progress,
        checkpoint=checkpoint,
        min_parallel_items=min_parallel_items,
    )
    n_y = len(ys)
    grid = tuple(
        tuple(
            None if value is None else float(value)
            for value in flat[i * n_y : (i + 1) * n_y]
        )
        for i in range(len(xs))
    )
    return Sweep2D(
        x_name=x_name,
        y_name=y_name,
        z_name=z_name,
        xs=tuple(float(x) for x in xs),
        ys=tuple(float(y) for y in ys),
        zs=grid,
    )
