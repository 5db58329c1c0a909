"""``repro.sched`` — durable distributed sweep scheduler.

Generalizes the in-process :func:`repro.analysis.parallel.map_items`
pool into a **submit / claim / complete** work queue that any number of
worker processes — on one host or on several hosts sharing a
filesystem — drain concurrently, with chunk **leases**, heartbeats,
lease-expiry re-dispatch, and input-order result assembly that is
bit-identical to the serial path.

Layering:

* :mod:`repro.sched.queue` — the durable job/chunk/lease records,
  built on the store's atomic-write envelopes
  (:class:`repro.store.DiskBackend`).
* :mod:`repro.sched.worker` — the claim → evaluate → heartbeat →
  commit loop run by ``repro sched worker``.
* :mod:`repro.sched.scheduler` — chunk planning (reusing the pool's
  ``_chunksize``), client-side drain with expiry re-dispatch and
  deterministic assembly.
* :mod:`repro.sched.client` — the user-facing :class:`Scheduler`
  handle (``submit``/``status``/``wait``/``cancel``/``run``); passed
  as ``scheduler=`` to :func:`repro.analysis.parallel.fan_out`, it
  gives ``sweep_2d``, ``energy_ratio_surface``, ``energy_surface`` and
  ``MonteCarloAnalyzer`` a queue path next to ``workers=``.
* :mod:`repro.sched.workloads` — picklable demo workloads for the
  CLI, benchmarks and CI smoke tests.

See ``docs/scheduler.md`` for the queue layout, lease semantics and
the failure matrix.
"""

from repro.sched.client import Scheduler
from repro.sched.queue import Claim, JobQueue, JobRecord, JobStatus
from repro.sched.scheduler import drain, plan_chunksize
from repro.sched.worker import Worker, worker_main

__all__ = [
    "Claim",
    "JobQueue",
    "JobRecord",
    "JobStatus",
    "Scheduler",
    "Worker",
    "drain",
    "plan_chunksize",
    "worker_main",
]
