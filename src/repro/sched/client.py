"""User-facing scheduler handle: submit / status / wait / cancel.

A :class:`Scheduler` names a queue directory plus drain/lease policy,
and optionally owns a fleet of **local worker subprocesses** it spawns
on first use (``local_workers=N``).  External workers — started by
hand or on other hosts with ``repro sched worker QUEUE_DIR`` — join
the same queue transparently; the client does not know or care who
evaluates a chunk.

:meth:`Scheduler.run` is the queue-backed counterpart of
:func:`repro.analysis.parallel.map_items`: same deterministic
input-order results, same ``progress``/``chunk_done`` callback
contract.  The sweep layers reach it through
:func:`repro.analysis.parallel.fan_out`, which threads a
``scheduler=`` handle exactly where it threads ``workers=`` —
including through :class:`SweepCheckpoint` resume paths.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.errors import SchedulerError
from repro.sched.queue import JobQueue, JobRecord, JobStatus
from repro.sched.scheduler import (
    DEFAULT_PLAN_WORKERS,
    drain,
    plan_chunksize,
)
from repro.sched.worker import DEFAULT_LEASE_S

__all__ = ["Scheduler"]


def _worker_command(
    root: str, lease_s: float, poll_s: float, max_idle_s: Optional[float]
) -> List[str]:
    command = [
        sys.executable,
        "-m",
        "repro",
        "sched",
        "worker",
        root,
        "--lease-s",
        str(lease_s),
        "--poll-s",
        str(poll_s),
    ]
    if max_idle_s is not None:
        command += ["--max-idle-s", str(max_idle_s)]
    return command


def _worker_environment(extra: Optional[dict]) -> dict:
    """Environment for spawned workers: ensure ``repro`` is importable."""
    env = dict(os.environ)
    if extra:
        env.update(extra)
    import repro

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__
    )))
    parts = env.get("PYTHONPATH", "")
    if src_dir not in parts.split(os.pathsep):
        env["PYTHONPATH"] = (
            src_dir + (os.pathsep + parts if parts else "")
        )
    return env


@dataclass
class Scheduler:
    """Handle on one queue directory plus drain and worker policy.

    Parameters
    ----------
    root:
        Queue directory (shared filesystem for multi-host fleets).
    lease_s / poll_s:
        Lease duration granted per claim and the drain loop's poll
        interval.
    local_workers:
        Worker subprocesses this handle spawns lazily on the first
        ``wait``; ``0`` means chunks are drained by external workers
        and/or the in-process rescue path.
    plan_workers / chunksize:
        Chunk planning inputs.  Deterministic — part of the job id —
        so keep them fixed across resumes of the same sweep.
    rescue_after_s:
        Stall window before ``wait`` evaluates chunks in-process
        (``None`` disables; see :func:`repro.sched.scheduler.drain`).
    timeout_s:
        Overall ``wait`` deadline (``None`` = wait forever).
    clock_skew_s:
        Lease-expiry slack passed to :class:`JobQueue`.
    worker_env:
        Extra environment variables for spawned local workers (the
        ``repro`` package's directory is always prepended to
        ``PYTHONPATH``).
    """

    root: str
    lease_s: float = DEFAULT_LEASE_S
    poll_s: float = 0.1
    local_workers: int = 0
    plan_workers: int = DEFAULT_PLAN_WORKERS
    chunksize: Optional[int] = None
    rescue_after_s: Optional[float] = 1.0
    timeout_s: Optional[float] = None
    clock_skew_s: float = 2.0
    worker_max_idle_s: Optional[float] = 30.0
    worker_env: Optional[dict] = None
    _queue: Optional[JobQueue] = field(
        default=None, repr=False, compare=False
    )
    _procs: List["subprocess.Popen"] = field(
        default_factory=list, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.local_workers < 0:
            raise SchedulerError(
                f"local_workers must be >= 0, got {self.local_workers}"
            )

    @property
    def queue(self) -> JobQueue:
        if self._queue is None:
            self._queue = JobQueue(
                self.root, clock_skew_s=self.clock_skew_s
            )
        return self._queue

    # -- worker fleet --------------------------------------------------

    def ensure_local_workers(self) -> int:
        """Spawn the configured local workers (idempotent, lazy)."""
        self._procs = [p for p in self._procs if p.poll() is None]
        missing = self.local_workers - len(self._procs)
        if missing <= 0:
            return len(self._procs)
        command = _worker_command(
            self.queue.root,
            self.lease_s,
            min(self.poll_s, 0.2),
            self.worker_max_idle_s,
        )
        env = _worker_environment(self.worker_env)
        for _ in range(missing):
            self._procs.append(
                subprocess.Popen(
                    command,
                    env=env,
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL,
                )
            )
        return len(self._procs)

    def close(self, timeout_s: float = 5.0) -> None:
        """Terminate local workers (SIGTERM, then SIGKILL laggards)."""
        for proc in self._procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self._procs:
            try:
                proc.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self._procs = []

    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- job lifecycle -------------------------------------------------

    def submit(
        self, fn: Callable, items: Sequence, note: str = ""
    ) -> JobRecord:
        """Durably enqueue ``fn`` over ``items`` (idempotent/resume)."""
        items = list(items)
        size = plan_chunksize(
            len(items), self.plan_workers, self.chunksize
        )
        return self.queue.submit(fn, items, chunksize=size, note=note)

    def status(self, job_id: Optional[str] = None):
        """One job's :class:`JobStatus`, or all jobs' when id omitted."""
        if job_id is not None:
            return self.queue.status(job_id)
        return [self.queue.status(j) for j in self.queue.list_jobs()]

    def wait(
        self,
        job_id: str,
        progress: Optional[Callable[[int, int], None]] = None,
        chunk_done: Optional[
            Callable[[Sequence[int], Sequence], None]
        ] = None,
    ) -> List:
        """Drain ``job_id`` to completion; returns assembled results."""
        self.ensure_local_workers()
        return drain(
            self.queue,
            job_id,
            poll_s=self.poll_s,
            timeout_s=self.timeout_s,
            progress=progress,
            chunk_done=chunk_done,
            rescue_after_s=self.rescue_after_s,
        )

    def cancel(self, job_id: str) -> None:
        """Mark ``job_id`` cancelled; claims stop, ``wait`` raises."""
        self.queue.cancel(job_id)

    def run(
        self,
        fn: Callable,
        items: Sequence,
        progress: Optional[Callable[[int, int], None]] = None,
        chunk_done: Optional[
            Callable[[Sequence[int], Sequence], None]
        ] = None,
        note: str = "",
    ) -> List:
        """``submit`` + ``wait`` in one call."""
        record = self.submit(fn, items, note=note)
        return self.wait(
            record.job_id, progress=progress, chunk_done=chunk_done
        )

