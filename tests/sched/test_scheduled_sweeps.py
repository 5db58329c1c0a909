"""Parity and resume tests for the ``scheduler=`` analysis paths.

Every sweep that grew a ``scheduler=`` parameter next to ``workers=``
must produce results bit-identical to its serial path — including
through checkpoints and after a partially evaluated (then resumed)
job.  These tests run the scheduler entirely in-process via the drain
loop's rescue path, which exercises the same queue protocol the
subprocess workers use, deterministically and fast.
"""

import operator

import pytest

from repro.analysis.contour import energy_ratio_surface
from repro.analysis.sweep import sweep_2d
from repro.analysis.variation import MonteCarloAnalyzer
from repro.errors import SchedulerError
from repro.analysis.parallel import fan_out
from repro.sched import Scheduler, Worker
from repro.sched.queue import JobQueue
from repro.sched.scheduler import plan_chunksize
from repro.sched.workloads import demo_module
from repro.store import ResultStore
from repro.store.hashing import digest
from repro.tech.cells import standard_cells
from repro.device.technology import soi_low_vt

from tests.sched._jobfns import log_and_square, square


def _rescue_scheduler(tmp_path, **overrides):
    """A scheduler that drains in-process — no subprocesses, no sleep."""
    options = dict(
        root=str(tmp_path / "queue"),
        local_workers=0,
        rescue_after_s=0.0,
        poll_s=0.0,
        timeout_s=60.0,
    )
    options.update(overrides)
    return Scheduler(**options)


class TestScheduledMapItems:
    def test_matches_serial_map(self, tmp_path):
        scheduler = _rescue_scheduler(tmp_path)
        items = list(range(23))
        assert fan_out(square, items, scheduler=scheduler) == [
            x * x for x in items
        ]

    def test_empty_items_short_circuit(self, tmp_path):
        scheduler = _rescue_scheduler(tmp_path)
        assert fan_out(square, [], scheduler=scheduler) == []

    def test_chunk_done_contract_matches_map_items(self, tmp_path):
        """chunk_done fires once per chunk with global input-order
        indices — the exact contract SweepCheckpoint depends on."""
        scheduler = _rescue_scheduler(tmp_path)
        items = list(range(10))
        calls = []
        progress = []
        scheduler.run(
            square,
            items,
            progress=lambda done, total: progress.append((done, total)),
            chunk_done=lambda indices, values: calls.append(
                (list(indices), list(values))
            ),
        )
        size = plan_chunksize(len(items), scheduler.plan_workers)
        covered = sorted(i for indices, _ in calls for i in indices)
        assert covered == items
        for indices, values in calls:
            assert values == [x * x for x in indices]
            assert len(indices) <= size
        assert progress[-1] == (10, 10)

    def test_resume_skips_committed_chunks(self, tmp_path):
        """A killed job's committed chunks are not recomputed: the log
        shows every item evaluated exactly once across both runs."""
        log = tmp_path / "evals.log"
        items = [(value, str(log)) for value in range(12)]
        scheduler = _rescue_scheduler(tmp_path)
        record = scheduler.submit(log_and_square, items)
        # "First run" commits two chunks, then dies (simulated by just
        # stopping).  In-process worker = same protocol as the real one.
        worker = Worker(scheduler.queue, lease_s=30.0)
        worker.run(job_id=record.job_id, once=True)
        worker.run(job_id=record.job_id, once=True)
        committed = scheduler.queue.result_indices(record.job_id)
        assert len(committed) == 2
        # "Second run": identical submission resumes the same job.
        result = fan_out(log_and_square, items, scheduler=scheduler)
        assert result == [value * value for value, _ in items]
        evaluated = sorted(
            int(line.split()[0])
            for line in log.read_text().splitlines()
        )
        assert evaluated == list(range(12))  # each item exactly once

    def test_cancelled_job_raises(self, tmp_path):
        scheduler = _rescue_scheduler(tmp_path)
        record = scheduler.submit(square, list(range(50)))
        scheduler.cancel(record.job_id)
        with pytest.raises(SchedulerError, match="cancelled"):
            scheduler.wait(record.job_id)

    def test_drain_timeout_raises(self, tmp_path):
        scheduler = _rescue_scheduler(
            tmp_path, rescue_after_s=None, timeout_s=0.1, poll_s=0.01
        )
        record = scheduler.submit(square, list(range(4)))
        with pytest.raises(SchedulerError, match="did not finish"):
            scheduler.wait(record.job_id)


class TestScheduledSweep2D:
    def test_grid_matches_serial(self, tmp_path):
        xs = [0.5 * k for k in range(1, 7)]
        ys = [0.25 * k for k in range(1, 5)]
        serial = sweep_2d("x", "y", "z", xs, ys, operator.mul)
        scheduled = sweep_2d(
            "x", "y", "z", xs, ys, operator.mul,
            scheduler=_rescue_scheduler(tmp_path),
        )
        assert scheduled == serial
        assert digest(
            [list(row) for row in scheduled.zs]
        ) == digest([list(row) for row in serial.zs])

    def test_store_backed_grid_matches_serial(self, tmp_path):
        xs = [0.1 * k for k in range(1, 6)]
        ys = [0.2 * k for k in range(1, 6)]
        serial = sweep_2d("x", "y", "z", xs, ys, operator.mul)
        store = ResultStore.in_memory()
        scheduled = sweep_2d(
            "x", "y", "z", xs, ys, operator.mul,
            store=store, store_key="sweep/test-grid",
            scheduler=_rescue_scheduler(tmp_path),
        )
        assert scheduled == serial
        # Warm re-run restores everything from the checkpoint — no new
        # scheduler job is needed.
        warm = sweep_2d(
            "x", "y", "z", xs, ys, operator.mul,
            store=store, store_key="sweep/test-grid",
            scheduler=None,
        )
        assert warm == serial


class TestScheduledContour:
    def test_refined_surface_matches_serial(self, tmp_path):
        module = demo_module()
        grid = [k / 8 for k in range(1, 9)]
        serial = energy_ratio_surface(
            module, 1.0, 1e-6, grid, grid,
            refine_levels=2, refine_band=0.15,
        )
        scheduled = energy_ratio_surface(
            module, 1.0, 1e-6, grid, grid,
            refine_levels=2, refine_band=0.15,
            scheduler=_rescue_scheduler(tmp_path),
        )
        assert scheduled.grid == serial.grid
        assert scheduled.refined == serial.refined
        assert digest(
            [list(row) for row in scheduled.grid.zs]
        ) == digest([list(row) for row in serial.grid.zs])
        assert digest(list(scheduled.refined.values)) == digest(
            list(serial.refined.values)
        )


class TestScheduledMonteCarlo:
    def test_distributions_match_serial(self, tmp_path):
        technology = soi_low_vt()
        cell = standard_cells()["NAND2"]
        serial = MonteCarloAnalyzer(
            technology, n_samples=40, seed=3
        )
        scheduled = MonteCarloAnalyzer(
            technology, n_samples=40, seed=3,
            scheduler=_rescue_scheduler(tmp_path),
        )
        load_f = 10e-15
        assert (
            scheduled.delay_distribution(cell, 0.8, load_f).samples
            == serial.delay_distribution(cell, 0.8, load_f).samples
        )
        assert (
            scheduled.leakage_distribution(cell, 0.8).samples
            == serial.leakage_distribution(cell, 0.8).samples
        )

    def test_store_backed_samples_match_serial(self, tmp_path):
        technology = soi_low_vt()
        cell = standard_cells()["NAND2"]
        serial = MonteCarloAnalyzer(technology, n_samples=40, seed=3)
        scheduled = MonteCarloAnalyzer(
            technology, n_samples=40, seed=3,
            store=ResultStore.in_memory(),
            scheduler=_rescue_scheduler(tmp_path),
        )
        load_f = 10e-15
        assert (
            scheduled.delay_distribution(cell, 0.8, load_f).samples
            == serial.delay_distribution(cell, 0.8, load_f).samples
        )
