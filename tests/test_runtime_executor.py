"""Tests for the pluggable job executors."""

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.runtime import (
    FakeExecutor,
    ProcessExecutor,
    SerialExecutor,
    SimJob,
    get_executor,
)
from repro.runtime.executor import CANCELLED

SMALL = dict(scale=0.1, hidden=8, num_layers=1)


def _grid():
    return [
        SimJob(accelerator=acc, **SMALL)
        for acc in ("aurora", "hygcn", "gcnax", "awb-gcn")
    ]


def _echo(job):
    return {"dataset": job.dataset}


def _pid_task(_job):
    return os.getpid()


def _hang_on_seed_1(job):
    """A deliberately hanging job (seed 1); everything else is instant."""
    if job.seed == 1:
        time.sleep(60.0)
    return {"dataset": job.dataset, "seed": job.seed}


def _crash_on_seed_1(job):
    """SIGKILL the pool worker running seed 1; everything else echoes.

    The parent-process guard keeps a serial call from killing the
    test runner itself.
    """
    if job.seed == 1 and multiprocessing.parent_process() is not None:
        os.kill(os.getpid(), signal.SIGKILL)
    return {"dataset": job.dataset, "seed": job.seed}


class TestSerial:
    def test_records_in_input_order(self):
        jobs = _grid()
        records = SerialExecutor().run(jobs, fn=_echo)
        assert [r.job for r in records] == jobs
        assert all(r.ok and r.payload == {"dataset": "cora"} for r in records)

    def test_failure_isolation(self):
        bad = SimJob(dataset="cora", accelerator="nonesuch", **SMALL)
        records = SerialExecutor().run([bad, SimJob(**SMALL)])
        assert not records[0].ok
        assert "KeyError" in records[0].error
        assert records[1].ok

    def test_empty_batch(self):
        assert SerialExecutor().run([]) == []


class TestProcessPool:
    def test_matches_serial_results(self):
        jobs = _grid()
        serial = SerialExecutor().run(jobs)
        parallel = ProcessExecutor(2).run(jobs)
        assert [r.payload for r in parallel] == [r.payload for r in serial]

    def test_failure_isolation_across_processes(self):
        bad = SimJob(dataset="cora", accelerator="nonesuch", **SMALL)
        records = ProcessExecutor(2).run([bad, SimJob(**SMALL)])
        assert not records[0].ok and records[1].ok

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ProcessExecutor(0)

    def test_empty_batch(self):
        assert ProcessExecutor(2).run([]) == []


class TestPoolLifetime:
    """Each ``ProcessExecutor.run`` owns its pool: nothing else can shut
    one down, so no worker may outlive the call on any path."""

    def test_pool_is_per_run(self):
        pool = ProcessExecutor(1)
        first = [r.payload for r in pool.run([1], fn=_pid_task)]
        second = [r.payload for r in pool.run([2], fn=_pid_task)]
        assert set(first) != set(second)

    @pytest.mark.parametrize("path", ["normal", "crash", "cancel"])
    def test_no_worker_outlives_run(self, path):
        before = set(multiprocessing.active_children())
        jobs = [SimJob(seed=s, **SMALL) for s in (1, 2)]
        executor = ProcessExecutor(2)
        if path == "normal":
            records = executor.run(jobs, fn=_echo)
            assert all(r.ok for r in records)
        elif path == "crash":
            # A worker killed mid-batch breaks the pool: its job becomes
            # an error record instead of raising out of run().
            records = executor.run(jobs, fn=_crash_on_seed_1)
            assert [r.job for r in records] == jobs
            assert not records[0].ok
            assert "BrokenProcessPool" in records[0].error
        else:
            cancel = threading.Event()
            timer = threading.Timer(0.3, cancel.set)
            timer.start()
            try:
                records = executor.run(jobs, fn=_hang_on_seed_1, cancel=cancel)
            finally:
                timer.cancel()
            assert records[0].error == CANCELLED
        assert set(multiprocessing.active_children()) <= before
        if path == "crash":
            # The broken pool died with its run(); the next run gets a
            # fresh one.
            again = executor.run(jobs, fn=_echo)
            assert [r.job for r in again] == jobs
            assert all(r.ok for r in again)
            assert set(multiprocessing.active_children()) <= before


class TestFake:
    def test_deterministic_and_recording(self):
        fake = FakeExecutor(fn=_echo)
        jobs = _grid()
        records = fake.run(jobs)
        assert fake.calls == jobs
        assert all(r.seconds == 0.0 for r in records)

    def test_scripted_failures(self):
        fake = FakeExecutor(
            fn=_echo, fail_when=lambda j: j.accelerator == "gcnax"
        )
        records = fake.run(_grid())
        failed = [r for r in records if not r.ok]
        assert len(failed) == 1
        assert failed[0].error == "injected failure"
        assert failed[0].job.accelerator == "gcnax"


class TestErrorRecordOrdering:
    """Error records must sit at their job's input position, for every
    executor — `run_jobs` zips records back to jobs positionally."""

    def _mixed_grid(self):
        good = SimJob(**SMALL)
        bad = SimJob(dataset="cora", accelerator="nonesuch", **SMALL)
        return [good, bad, SimJob(seed=9, **SMALL), bad]

    def test_serial_preserves_positions(self):
        jobs = self._mixed_grid()
        records = SerialExecutor().run(jobs)
        assert [r.job for r in records] == jobs
        assert [r.ok for r in records] == [True, False, True, False]

    def test_process_preserves_positions(self):
        jobs = self._mixed_grid()
        records = ProcessExecutor(2).run(jobs)
        assert [r.job for r in records] == jobs
        assert [r.ok for r in records] == [True, False, True, False]

    def test_fake_preserves_positions(self):
        jobs = self._mixed_grid()
        fake = FakeExecutor(fail_when=lambda j: j.accelerator == "nonesuch")
        records = fake.run(jobs)
        assert [r.job for r in records] == jobs
        assert [r.ok for r in records] == [True, False, True, False]


class TestCancellation:
    """The cancel event must stop a sweep mid-flight — the mechanism
    SuccessiveHalving uses to abandon losing rungs — and every
    unfinished job must come back as a CANCELLED record at its input
    position, with its fn never called."""

    def test_serial_stops_after_cancel_set(self):
        jobs = [SimJob(seed=s, **SMALL) for s in range(4)]
        cancel = threading.Event()
        ran = []

        def fn(job):
            ran.append(job.seed)
            if job.seed == 1:
                # Models a budget expiring while the job runs.
                cancel.set()
            return {"seed": job.seed}

        records = SerialExecutor().run(jobs, fn=fn, cancel=cancel)
        assert [r.job for r in records] == jobs
        assert ran == [0, 1]
        assert records[0].ok and records[1].ok
        assert [r.error for r in records[2:]] == [CANCELLED, CANCELLED]
        assert all(r.payload is None for r in records[2:])

    def test_fake_executor_hanging_job_regression(self):
        """A 'hanging' FakeExecutor job (it sets cancel instead of
        returning promptly) must not drag the rest of the batch with
        it: later jobs are cancelled, not executed."""
        jobs = [SimJob(seed=s, **SMALL) for s in range(5)]
        cancel = threading.Event()

        def hang(job):
            if job.seed == 0:
                cancel.set()
            return {"seed": job.seed}

        fake = FakeExecutor(fn=hang)
        records = fake.run(jobs, cancel=cancel)
        # Only the hanging job reached the executor's call log.
        assert [j.seed for j in fake.calls] == [0]
        assert records[0].ok
        assert all(r.error == CANCELLED for r in records[1:])

    def test_pre_cancelled_batch_runs_nothing(self):
        cancel = threading.Event()
        cancel.set()
        fake = FakeExecutor(fn=_echo)
        records = fake.run(_grid(), cancel=cancel)
        assert fake.calls == []
        assert all(r.error == CANCELLED for r in records)
        serial = SerialExecutor().run(_grid(), fn=_echo, cancel=cancel)
        assert all(r.error == CANCELLED for r in serial)

    def test_process_pool_cancel_mid_flight(self):
        """Cancelling while a worker hangs must return promptly with
        CANCELLED records instead of waiting out the hang."""
        jobs = [SimJob(seed=1, **SMALL), SimJob(seed=2, **SMALL)]
        cancel = threading.Event()
        timer = threading.Timer(0.5, cancel.set)
        timer.start()
        try:
            start = time.perf_counter()
            records = ProcessExecutor(1).run(
                jobs, fn=_hang_on_seed_1, cancel=cancel
            )
            elapsed = time.perf_counter() - start
        finally:
            timer.cancel()
        assert [r.job for r in records] == jobs
        assert records[0].error == CANCELLED
        assert records[1].error == CANCELLED
        # Far below the 60s hang: the pool was terminated, not awaited.
        assert elapsed < 30.0

    def test_run_jobs_counts_cancelled(self):
        from repro.runtime import run_jobs
        from repro.runtime.jobs import execute_job

        jobs = [SimJob(seed=s, **SMALL) for s in range(4)]
        cancel = threading.Event()

        def fn(job):
            payload = execute_job(job)
            if job.seed == 1:
                cancel.set()
            return payload

        report = run_jobs(
            jobs,
            executor=FakeExecutor(fn=fn),
            cache=False,
            cancel=cancel,
        )
        assert report.metrics.cancelled == 2
        assert report.metrics.executed == 2
        assert report.metrics.errors == 0
        cancelled = [o for o in report.outcomes if o.error == CANCELLED]
        assert len(cancelled) == 2


class TestSelection:
    def test_one_job_is_serial(self):
        assert isinstance(get_executor(1), SerialExecutor)

    def test_many_jobs_is_process_pool(self):
        ex = get_executor(4)
        assert isinstance(ex, ProcessExecutor)
        assert ex.max_workers == 4

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            get_executor(0)
