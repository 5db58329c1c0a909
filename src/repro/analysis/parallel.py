"""Process-parallel evaluation of sweep grids and sample batches.

The figure pipelines spend their time in embarrassingly parallel loops:
every cell of a contour grid and every Monte-Carlo sample is an
independent pure-function evaluation.  This module provides the one
primitive they share — map a picklable function over a work list with
:class:`concurrent.futures.ProcessPoolExecutor`, chunked to amortize
IPC, with **deterministic result ordering** (results always come back
in input order, regardless of which worker finished first).

:func:`fan_out` is the single entry point the sweep layers use: it
restores finished items from an optional
:class:`~repro.store.checkpoint.SweepCheckpoint`, evaluates only the
missing ones through a :class:`repro.sched.Scheduler` or
:func:`map_items` (serial for ``workers=0``), persists each finished
chunk, and reports progress over all items, restored ones included.

Fault-tolerance policy
----------------------
Work is dispatched as explicit chunks (one future per chunk), so the
engine always knows exactly which chunks have completed.  When the pool
breaks mid-run (a worker killed by the OOM killer, a segfaulting
extension, ``BrokenProcessPool``), only the chunks still outstanding
are retried on a fresh pool — completed results are never discarded
and never recomputed.  After ``max_retries`` pool rebuilds the
remaining chunks degrade to the in-process serial path, which is
always available and always correct.

Exceptions raised by the user function itself — including ``OSError``
and ``pickle.PicklingError`` — are *not* infrastructure failures: they
propagate to the caller identically on the serial and parallel paths.
Only pool-level failures (a pool that cannot spawn, a worker that
dies) trigger retry/fallback.

``workers=0`` forces the serial path explicitly; an unpicklable
function (e.g. a closure) or a single-item work list degrade to serial
evaluation transparently.  Because every evaluation is a pure function
of its arguments, parallel and serial results are bit-identical —
asserted by the equivalence and fault-injection tests.

Observability (:mod:`repro.obs`, when enabled):

* ``parallel.chunks`` — chunks dispatched to the pool (including
  retries),
* ``parallel.chunk_retries`` — chunks re-dispatched after a pool
  failure,
* ``parallel.worker_failures`` — pool-breakage events observed,
* ``parallel.timeouts`` — chunks abandoned for exceeding ``timeout_s``,
* ``parallel.fallbacks`` — times the engine degraded to the serial
  path (for any reason),
* ``parallel.items`` — work items completed (either path),
* ``parallel.min_items_fallbacks`` — parallel requests served serially
  because the work list was below ``min_parallel_items``,
* ``parallel.pickle_fallbacks`` — parallel requests served serially
  because the function was unpicklable (also warned once per process).
"""

from __future__ import annotations

import os
import pickle
import warnings
import weakref
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from repro import obs
from repro.errors import AnalysisError

__all__ = ["resolve_workers", "map_items", "map_grid", "fan_out"]

_X = TypeVar("_X")
_Y = TypeVar("_Y")
_R = TypeVar("_R")

#: Chunks handed to each worker per dispatch; >1 keeps the pool busy
#: when per-item cost is uneven, while still amortizing IPC.
_CHUNKS_PER_WORKER = 4

#: Pool rebuilds attempted after ``BrokenProcessPool`` before the
#: remaining chunks degrade to the serial path.
_DEFAULT_MAX_RETRIES = 2

#: Below this many work items a process pool loses outright for cheap
#: cell functions: spawning workers and pickling chunks costs more than
#: the evaluation itself (the seed benchmark measured a 64x64 contour
#: grid ~14x *slower* at 2 workers than serial).  Grid fan-outs with
#: closed-form cells (``map_grid``, the contour/ratio-surface
#: pipelines) opt in to this threshold by default; callers whose items
#: are individually expensive (Monte-Carlo chunk tasks, ring-oscillator
#: surface cells) pass ``min_parallel_items=0`` — or an explicit
#: ``chunksize``, which always bypasses the gate — to keep the pool.
_MIN_PARALLEL_ITEMS = 8192

#: One-time flag for the unpicklable-function warning (satellite of the
#: silent-serial-fallback fix): users asking for ``workers=8`` with a
#: closure should learn they got 1, once, not per sweep.
_PICKLE_FALLBACK_WARNED = False


def resolve_workers(workers: Optional[int]) -> int:
    """Worker count to use: ``0``/``1`` = serial.

    Precedence for ``workers=None``: the ``REPRO_WORKERS`` environment
    variable if set, else one worker per CPU.  An explicit ``workers=``
    argument always wins over the environment.  Scheduler worker
    processes (:mod:`repro.sched.worker`) set ``REPRO_WORKERS=0`` so a
    workload that internally calls :func:`map_items` with
    ``workers=None`` does not fork a nested one-pool-per-CPU on an
    already fully subscribed host.
    """
    if workers is None:
        env = os.environ.get("REPRO_WORKERS")
        if env is not None:
            try:
                workers = int(env)
            except ValueError:
                raise AnalysisError(
                    f"REPRO_WORKERS must be an integer, got {env!r}"
                ) from None
            if workers < 0:
                raise AnalysisError(
                    f"REPRO_WORKERS must be >= 0, got {workers}"
                )
            return workers
        return max(os.cpu_count() or 1, 1)
    if workers < 0:
        raise AnalysisError(f"workers must be >= 0, got {workers}")
    return workers


#: Per-callable memo for :func:`_picklable`.  ``map_items`` probes its
#: function on every call; for module-level functions and bound plans
#: with large captured state that probe re-pickles the whole closure
#: each sweep.  Weak keys keep the memo from pinning dead callables.
_PICKLABLE_MEMO: "weakref.WeakKeyDictionary[Callable, bool]" = (
    weakref.WeakKeyDictionary()
)


def _picklable(fn: Callable) -> bool:
    try:
        cached = _PICKLABLE_MEMO.get(fn)
    except TypeError:  # unhashable callable: probe every time
        cached = None
        memoizable = False
    else:
        memoizable = True
    if cached is not None:
        return cached
    try:
        pickle.dumps(fn)
        result = True
    except Exception:
        result = False
    if memoizable:
        try:
            _PICKLABLE_MEMO[fn] = result
        except TypeError:  # not weak-referenceable (e.g. builtins)
            pass
    return result


def _chunksize(n_items: int, n_workers: int) -> int:
    return max(1, -(-n_items // (n_workers * _CHUNKS_PER_WORKER)))


def _run_chunk(fn: Callable[[_X], _R], chunk: Sequence[_X]) -> List[_R]:
    """Worker-side chunk body (module-level so it pickles)."""
    return [fn(item) for item in chunk]


def _serial_tail(
    fn: Callable[[_X], _R],
    chunks: List[List[_X]],
    results: List[Optional[List[_R]]],
    pending: List[int],
    progress: Optional[Callable[[int, int], None]],
    done_items: int,
    total_items: int,
    chunksize: int,
    chunk_done: Optional[Callable[[Sequence[int], Sequence[_R]], None]],
) -> None:
    """Evaluate the outstanding chunks in-process (the fallback path)."""
    if obs.ENABLED:
        obs.incr("parallel.fallbacks")
    for index in pending:
        results[index] = [fn(item) for item in chunks[index]]
        done_items += len(chunks[index])
        if obs.ENABLED:
            obs.incr("parallel.items", len(chunks[index]))
        if chunk_done is not None:
            start = index * chunksize
            chunk_done(
                range(start, start + len(chunks[index])), results[index]
            )
        if progress is not None:
            progress(done_items, total_items)


def _map_chunked(
    fn: Callable[[_X], _R],
    work: List[_X],
    n_workers: int,
    chunksize: int,
    timeout_s: Optional[float],
    progress: Optional[Callable[[int, int], None]],
    max_retries: int,
    chunk_done: Optional[Callable[[Sequence[int], Sequence[_R]], None]],
) -> List[_R]:
    """The fault-tolerant chunk engine behind :func:`map_items`."""
    chunks: List[List[_X]] = [
        work[i : i + chunksize] for i in range(0, len(work), chunksize)
    ]
    results: List[Optional[List[_R]]] = [None] * len(chunks)
    pending: List[int] = list(range(len(chunks)))
    total_items = len(work)
    done_items = 0
    rebuilds = 0

    while pending:
        try:
            executor = ProcessPoolExecutor(max_workers=n_workers)
        except OSError:
            _serial_tail(
                fn, chunks, results, pending, progress, done_items,
                total_items, chunksize, chunk_done,
            )
            pending = []
            break
        broke = False
        try:
            try:
                futures = {
                    executor.submit(_run_chunk, fn, chunks[index]): index
                    for index in pending
                }
            except (OSError, BrokenProcessPool):
                _serial_tail(
                    fn, chunks, results, pending, progress, done_items,
                    total_items, chunksize, chunk_done,
                )
                pending = []
                break
            if obs.ENABLED:
                obs.incr("parallel.chunks", len(futures))
            outstanding = set(futures)
            while outstanding:
                finished, outstanding = wait(
                    outstanding,
                    timeout=timeout_s,
                    return_when=FIRST_COMPLETED,
                )
                if not finished:
                    # Nothing completed within the per-chunk budget:
                    # every outstanding chunk has been running at least
                    # ``timeout_s``.  The stuck workers cannot be
                    # reclaimed portably, so abandon the run.
                    if obs.ENABLED:
                        obs.incr("parallel.timeouts", len(outstanding))
                    # Private, but the only portable way to reclaim a
                    # worker stuck inside user code.
                    for process in (
                        getattr(executor, "_processes", None) or {}
                    ).values():
                        process.terminate()
                    raise FuturesTimeoutError(
                        f"{len(outstanding)} chunk(s) exceeded the "
                        f"{timeout_s} s chunk timeout"
                    )
                for future in finished:
                    index = futures[future]
                    try:
                        chunk_result = future.result()
                    except BrokenProcessPool:
                        # Keep draining: chunks that completed before
                        # the pool broke still hold good results.
                        broke = True
                        continue
                    # Any other exception came from ``fn`` inside the
                    # worker and propagates to the caller unchanged.
                    results[index] = chunk_result
                    pending.remove(index)
                    done_items += len(chunks[index])
                    if obs.ENABLED:
                        obs.incr("parallel.items", len(chunks[index]))
                    if chunk_done is not None:
                        start = index * chunksize
                        chunk_done(
                            range(start, start + len(chunks[index])),
                            chunk_result,
                        )
                    if progress is not None:
                        progress(done_items, total_items)
                if broke:
                    break
        finally:
            executor.shutdown(wait=False, cancel_futures=True)
        if not broke:
            break
        # Pool infrastructure failure: retry only the lost chunks.
        if obs.ENABLED:
            obs.incr("parallel.worker_failures")
        rebuilds += 1
        if rebuilds > max_retries:
            _serial_tail(
                fn, chunks, results, pending, progress, done_items,
                total_items, chunksize, chunk_done,
            )
            pending = []
        elif obs.ENABLED:
            obs.incr("parallel.chunk_retries", len(pending))

    flat: List[_R] = []
    for chunk_result in results:
        assert chunk_result is not None
        flat.extend(chunk_result)
    return flat


def map_items(
    fn: Callable[[_X], _R],
    items: Sequence[_X],
    workers: Optional[int] = None,
    chunksize: Optional[int] = None,
    timeout_s: Optional[float] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    max_retries: int = _DEFAULT_MAX_RETRIES,
    chunk_done: Optional[Callable[[Sequence[int], Sequence[_R]], None]] = None,
    min_parallel_items: Optional[int] = None,
) -> List[_R]:
    """``[fn(item) for item in items]``, possibly across processes.

    Results are returned in input order.  Exceptions raised by ``fn``
    propagate to the caller on both paths; pool-infrastructure failures
    (a worker that cannot spawn or dies mid-run) are retried per chunk
    — only the chunks whose results were lost re-run — and degrade to
    the serial path after ``max_retries`` pool rebuilds.

    Parameters
    ----------
    timeout_s:
        Optional per-chunk wall-clock budget.  If no outstanding chunk
        completes within it, the run aborts with
        :class:`concurrent.futures.TimeoutError` (stuck workers are
        terminated; there is no silent serial re-run of work that may
        never terminate).
    progress:
        Optional ``progress(done_items, total_items)`` callback,
        invoked after every completed chunk (serial path: after every
        item).  Exceptions from the callback propagate.
    max_retries:
        Pool rebuilds tolerated before the remaining chunks fall back
        to serial evaluation.
    chunk_done:
        Optional ``chunk_done(item_indices, chunk_results)`` callback,
        invoked in the *parent* process exactly once per completed
        chunk, with the global (input-order) indices the chunk covers
        (serial path: per item).  This is the checkpointing hook — a
        chunk handed to ``chunk_done`` is complete and will never be
        re-dispatched, so persisting it is safe.
    min_parallel_items:
        Work lists shorter than this are evaluated serially even when
        ``workers`` asks for a pool (counted in
        ``parallel.min_items_fallbacks``) — below the threshold the
        pool's spawn/IPC overhead dominates cheap per-item work.
        ``None`` (the default) disables the gate; an explicit
        ``chunksize`` also bypasses it (the caller has already sized
        the IPC trade-off).  See :data:`_MIN_PARALLEL_ITEMS`.
    """
    work = list(items)
    n_workers = resolve_workers(workers)
    serial = n_workers <= 1 or len(work) <= 1
    if not serial and not _picklable(fn):
        # The caller asked for a pool it cannot have: say so once
        # (and count every occurrence) instead of silently running on
        # one core.
        serial = True
        if obs.ENABLED:
            obs.incr("parallel.pickle_fallbacks")
        global _PICKLE_FALLBACK_WARNED
        if not _PICKLE_FALLBACK_WARNED:
            _PICKLE_FALLBACK_WARNED = True
            warnings.warn(
                f"map_items: {fn!r} is not picklable (a lambda or "
                f"closure?); the requested {n_workers} workers degrade "
                "to serial evaluation. Use a module-level function or "
                "a picklable callable class for actual parallelism.",
                RuntimeWarning,
                stacklevel=2,
            )
    if (
        not serial
        and chunksize is None
        and min_parallel_items is not None
        and len(work) < min_parallel_items
    ):
        serial = True
        if obs.ENABLED:
            obs.incr("parallel.min_items_fallbacks")
    if serial:
        if obs.ENABLED and work:
            obs.incr("parallel.items", len(work))
        results = []
        for done, item in enumerate(work, start=1):
            results.append(fn(item))
            if chunk_done is not None:
                chunk_done([done - 1], results[-1:])
            if progress is not None:
                progress(done, len(work))
        return results
    if chunksize is None:
        chunksize = _chunksize(len(work), n_workers)
    if chunksize < 1:
        raise AnalysisError(f"chunksize must be >= 1, got {chunksize}")
    if timeout_s is not None and timeout_s <= 0.0:
        raise AnalysisError(f"timeout_s must be positive, got {timeout_s}")
    if max_retries < 0:
        raise AnalysisError(f"max_retries must be >= 0, got {max_retries}")
    with obs.span("parallel.map_items"):
        return _map_chunked(
            fn, work, n_workers, chunksize, timeout_s, progress,
            max_retries, chunk_done,
        )


class _PairFn:
    """Picklable ``pair -> fn(*pair)`` wrapper for :func:`map_grid`."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[_X, _Y], _R]):
        self.fn = fn

    def __call__(self, pair: Tuple[_X, _Y]) -> _R:
        return self.fn(pair[0], pair[1])


def map_grid(
    fn: Callable[[_X, _Y], _R],
    xs: Sequence[_X],
    ys: Sequence[_Y],
    workers: Optional[int] = None,
    chunksize: Optional[int] = None,
    timeout_s: Optional[float] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    max_retries: int = _DEFAULT_MAX_RETRIES,
    chunk_done: Optional[Callable[[Sequence[int], Sequence[_R]], None]] = None,
    min_parallel_items: Optional[int] = _MIN_PARALLEL_ITEMS,
) -> List[List[_R]]:
    """Evaluate ``fn`` over the cartesian grid, row-major.

    Returns ``rows[i][j] == fn(xs[i], ys[j])`` — the same layout as
    :class:`repro.analysis.sweep.Sweep2D`.  The grid is flattened into
    one chunked work list so uneven rows cannot starve workers; the
    fault-tolerance, timeout, progress, and ``chunk_done`` semantics
    are those of :func:`map_items` (``chunk_done`` indices address the
    row-major flattening: cell ``(i, j)`` is index ``i * len(ys) + j``).

    Grids below ``min_parallel_items`` cells run serially by default —
    pool overhead dominates cheap grid cells there (results are
    bit-identical either way).  Pass ``min_parallel_items=0`` for grids
    of individually expensive cells, or an explicit ``chunksize``,
    which bypasses the gate.
    """
    x_list = list(xs)
    y_list = list(ys)
    pairs: List[Tuple[_X, _Y]] = [(x, y) for x in x_list for y in y_list]
    flat = map_items(
        _PairFn(fn),
        pairs,
        workers=workers,
        chunksize=chunksize,
        timeout_s=timeout_s,
        progress=progress,
        max_retries=max_retries,
        chunk_done=chunk_done,
        min_parallel_items=min_parallel_items,
    )
    n_y = len(y_list)
    return [flat[i * n_y : (i + 1) * n_y] for i in range(len(x_list))]


def fan_out(
    fn: Callable[[_X], _R],
    items: Sequence[_X],
    workers: Optional[int] = 0,
    scheduler=None,
    progress: Optional[Callable[[int, int], None]] = None,
    checkpoint=None,
    min_parallel_items: Optional[int] = None,
) -> List[_R]:
    """``[fn(item) for item in items]`` through the one fan-out path.

    1. With ``checkpoint`` (a
       :class:`~repro.store.checkpoint.SweepCheckpoint` over
       ``len(items)`` cells), items already on disk are restored.
    2. The missing items are evaluated through ``scheduler.run`` when
       a :class:`repro.sched.Scheduler` is given (``workers`` is then
       ignored), else through :func:`map_items` — serial for
       ``workers=0``, gated by ``min_parallel_items`` otherwise.
    3. Each finished chunk is recorded in the checkpoint as it
       arrives, so a killed run resumes from its completed chunks.
    4. ``progress(done, total)`` counts every item, restored ones
       included.
    5. The checkpoint is finalized and the results come back in input
       order.

    Checkpointed values follow the checkpoint's contract (floats or
    ``None``), so freshly computed and restored items are
    bit-identical; without a checkpoint ``fn``'s results are returned
    unchanged.
    """
    work = list(items)
    total = len(work)
    if not total:
        return []
    done = {} if checkpoint is None else checkpoint.restored()
    missing = [index for index in range(total) if index not in done]
    restored = total - len(missing)
    if progress is not None and restored:
        progress(restored, total)
    if missing:
        chunk_done = None
        if checkpoint is not None:

            def chunk_done(positions, values) -> None:
                chunk = [
                    (
                        missing[position],
                        None if value is None else float(value),
                    )
                    for position, value in zip(positions, values)
                ]
                done.update(chunk)
                checkpoint.record_many(chunk)

        counted = progress
        if progress is not None and restored:

            def counted(count: int, _missing_total: int) -> None:
                progress(restored + count, total)

        todo = work if restored == 0 else [work[index] for index in missing]
        if scheduler is not None:
            results = scheduler.run(
                fn, todo, progress=counted, chunk_done=chunk_done
            )
        else:
            results = map_items(
                fn, todo, workers=workers, progress=counted,
                chunk_done=chunk_done, min_parallel_items=min_parallel_items,
            )
        if checkpoint is None:
            # Nothing was restored, so ``results`` covers every item.
            return results
    checkpoint.finalize()
    return [done[index] for index in range(total)]
