"""Pluggable job executors: serial, process-pool, and a scripted fake.

All executors share one contract: ``run(jobs, fn, *, trace_ctx, cancel)``
applies ``fn`` (by default :func:`repro.runtime.jobs.execute_job`) to
every job and returns one :class:`ExecutionRecord` per job, *in input
order*, never raising for a failing job.  A job that raises (an unknown
dataset, a bad config) becomes an error record and the rest of the batch
runs on.  A pool worker that dies (a segfault, a SIGKILL) is different:
it breaks the whole pool, so every job still in flight in that
``ProcessExecutor.run()`` comes back as a ``BrokenProcessPool`` error
record, not only the one that crashed.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..telemetry import TRACER
from .jobs import SimJob, execute_job

__all__ = [
    "CANCELLED",
    "ExecutionRecord",
    "SerialExecutor",
    "ProcessExecutor",
    "FakeExecutor",
    "get_executor",
]

JobFn = Callable[[SimJob], dict]

#: Error string reported for jobs abandoned because the caller's cancel
#: event fired.  Callers (the DSE successive-halving runner, budgeted
#: sweeps) match on it to distinguish "stopped on purpose" from a crash.
CANCELLED = "cancelled"

#: How often a cancel-aware wait re-checks the event while a pool job runs.
_CANCEL_POLL_SECONDS = 0.05


@dataclass
class ExecutionRecord:
    """Outcome of executing one job: a result payload or an error.

    ``spans`` carries the serialized telemetry spans the execution
    produced when a trace context was propagated — the return leg of
    cross-process trace propagation (:mod:`repro.telemetry.trace`).
    """

    job: SimJob
    payload: dict | None
    error: str | None = None
    seconds: float = 0.0
    spans: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None


def _invoke(
    fn: JobFn, job: SimJob, trace_ctx: dict | None = None
) -> ExecutionRecord:
    """Run one job under failure isolation (also the pool worker).

    With a ``trace_ctx`` (the caller's serialized span context), the job
    runs under an ``executor.job`` span parented to it; every span the
    execution produces is collected into the record instead of the local
    buffer, so the caller — possibly in another process — can merge one
    coherent tree.
    """
    if trace_ctx is None:
        start = time.perf_counter()
        try:
            payload = fn(job)
        except Exception as exc:  # noqa: BLE001 — isolation is the point
            return ExecutionRecord(
                job,
                None,
                f"{type(exc).__name__}: {exc}",
                time.perf_counter() - start,
            )
        return ExecutionRecord(job, payload, None, time.perf_counter() - start)

    start = time.perf_counter()
    with TRACER.remote(trace_ctx), TRACER.collect() as collected:
        error = None
        payload = None
        try:
            with TRACER.span("executor.job", {"job": job.label()}):
                payload = fn(job)
        except Exception as exc:  # noqa: BLE001 — isolation is the point
            error = f"{type(exc).__name__}: {exc}"
    spans = [span.to_dict() for span in collected]
    return ExecutionRecord(
        job, payload, error, time.perf_counter() - start, spans=spans
    )


class SerialExecutor:
    """Run jobs one after another in this process (the default)."""

    name = "serial"

    def run(
        self,
        jobs: Sequence[SimJob],
        fn: JobFn = execute_job,
        *,
        trace_ctx: dict | None = None,
        cancel: "threading.Event | None" = None,
    ) -> list[ExecutionRecord]:
        records = []
        for job in jobs:
            if cancel is not None and cancel.is_set():
                records.append(ExecutionRecord(job, None, CANCELLED))
                continue
            records.append(_invoke(fn, job, trace_ctx))
        return records


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Kill and reap a cancelled or broken pool's workers.

    ``ProcessPoolExecutor`` has no per-future kill, so a cancelled job
    would otherwise occupy its worker until the simulation ends on its
    own (possibly never).  Terminating the worker processes frees them
    immediately, and the joins make sure none outlives the ``run()``.
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    manager = getattr(pool, "_executor_manager_thread", None)
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in processes:
        proc.terminate()
    for proc in processes:
        proc.join(timeout=5.0)
    if manager is not None:
        # The pool's manager thread reaps the same workers. A join above
        # that loses that race returns before the exit code is recorded,
        # and the worker still reads as alive, so wait for the manager.
        manager.join(timeout=5.0)


class ProcessExecutor:
    """Fan jobs out over a bounded ``ProcessPoolExecutor``.

    Each ``run()`` owns one pool for one pass over the jobs: the pool is
    shut down, or terminated on cancel or a broken pool, before the call
    returns, so no worker outlives it.
    """

    name = "process"

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers or os.cpu_count() or 1

    def run(
        self,
        jobs: Sequence[SimJob],
        fn: JobFn = execute_job,
        *,
        trace_ctx: dict | None = None,
        cancel: "threading.Event | None" = None,
    ) -> list[ExecutionRecord]:
        jobs = list(jobs)
        if not jobs:
            return []
        if cancel is not None and cancel.is_set():
            return [ExecutionRecord(job, None, CANCELLED) for job in jobs]
        pool = ProcessPoolExecutor(max_workers=min(self.max_workers, len(jobs)))
        futures = [pool.submit(_invoke, fn, job, trace_ctx) for job in jobs]
        records: list[ExecutionRecord] = []
        cancelled = False
        for job, future in zip(jobs, futures):
            if cancelled:
                # The pool is being reaped: keep whatever already
                # finished and abandon the rest.
                if future.done() and not future.cancelled():
                    records.append(self._harvest(job, future))
                else:
                    future.cancel()
                    records.append(ExecutionRecord(job, None, CANCELLED))
                continue
            status, value = self._await_future(future, cancel)
            if status == "ok":
                records.append(value)
            elif status == "cancelled":
                cancelled = True
                records.append(ExecutionRecord(job, None, CANCELLED))
            else:  # broken pool, pickling failure, …
                records.append(ExecutionRecord(job, None, value))
        if cancelled or getattr(pool, "_broken", False):
            _terminate_pool(pool)
        else:
            pool.shutdown()
        return records

    @staticmethod
    def _await_future(
        future, cancel: "threading.Event | None"
    ) -> tuple[str, ExecutionRecord | str | None]:
        """Wait for one future, re-checking ``cancel`` while blocked.

        Returns ``("ok", record)``, ``("cancelled", None)`` or
        ``("error", message)``.  Without a cancel event this is a single
        blocking wait.
        """
        wait = _CANCEL_POLL_SECONDS if cancel is not None else None
        while True:
            if cancel is not None and cancel.is_set():
                return "cancelled", None
            try:
                return "ok", future.result(timeout=wait)
            except FutureTimeoutError:
                continue
            except Exception as exc:
                return "error", f"{type(exc).__name__}: {exc}"

    @staticmethod
    def _harvest(job: SimJob, future) -> ExecutionRecord:
        try:
            return future.result(timeout=0)
        except Exception as exc:
            return ExecutionRecord(job, None, f"{type(exc).__name__}: {exc}")


class FakeExecutor:
    """Deterministic in-process executor for tests.

    Runs everything serially with ``seconds`` pinned to 0.0, records the
    jobs it was asked to run, and fails any job matching ``fail_when`` —
    letting tests script failure isolation without a real crash.
    """

    name = "fake"

    def __init__(
        self,
        fn: JobFn = execute_job,
        *,
        fail_when: Callable[[SimJob], bool] | None = None,
    ) -> None:
        self.fn = fn
        self.fail_when = fail_when
        self.calls: list[SimJob] = []

    def run(
        self,
        jobs: Sequence[SimJob],
        fn: JobFn | None = None,
        *,
        trace_ctx: dict | None = None,
        cancel: "threading.Event | None" = None,
    ) -> list[ExecutionRecord]:
        fn = fn or self.fn
        records = []
        for job in jobs:
            if cancel is not None and cancel.is_set():
                records.append(ExecutionRecord(job, None, CANCELLED))
                continue
            self.calls.append(job)
            if self.fail_when is not None and self.fail_when(job):
                records.append(ExecutionRecord(job, None, "injected failure"))
                continue
            record = _invoke(fn, job, trace_ctx)
            record.seconds = 0.0
            records.append(record)
        return records


def get_executor(jobs: int = 1) -> SerialExecutor | ProcessExecutor:
    """Executor for a ``--jobs N`` style request (1 → serial)."""
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if jobs == 1:
        return SerialExecutor()
    return ProcessExecutor(jobs)
