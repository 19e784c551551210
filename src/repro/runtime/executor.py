"""Pluggable job executors: serial, process-pool, and a scripted fake.

All executors share one contract: ``run(jobs, fn)`` applies ``fn`` (by
default :func:`repro.runtime.jobs.execute_job`) to every job and returns
one :class:`ExecutionRecord` per job, *in input order*, never raising for
a failing job — a crash, an unknown dataset, or a timeout becomes an
error record so one bad point cannot kill a thousand-point sweep.
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
    supports_trace_ctx = True
    supports_cancel = True

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
    """Kill and reap a pool whose worker blew its deadline.

    ``ProcessPoolExecutor`` has no per-future kill, so a timed-out job
    would otherwise occupy its worker slot until the simulation ends on
    its own (possibly never).  Terminating the worker processes frees
    the slots immediately; the survivors of the batch are resubmitted to
    a fresh pool by the caller.
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

    ``timeout`` bounds the wait for each job *from the moment collection
    reaches it* — earlier jobs' waits overlap later jobs' execution, so
    it is a per-job bound on observed latency, not CPU time.  A job that
    exceeds it is reported as an error record and its stuck worker is
    terminated and reaped; jobs that had not finished by then are
    resubmitted to a fresh pool, so one hung simulation never occupies a
    slot for the rest of the sweep.  Each ``run()`` owns its pools: every
    one is shut down or terminated before the call returns, so no worker
    outlives it.
    """

    name = "process"
    supports_trace_ctx = True
    supports_cancel = True

    def __init__(
        self,
        max_workers: int | None = None,
        *,
        timeout: float | None = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers or os.cpu_count() or 1
        self.timeout = timeout

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
        records: dict[int, ExecutionRecord] = {}
        pending = list(enumerate(jobs))
        while pending:
            if cancel is not None and cancel.is_set():
                for index, job in pending:
                    records[index] = ExecutionRecord(job, None, CANCELLED)
                break
            pool = ProcessPoolExecutor(
                max_workers=min(self.max_workers, len(pending))
            )
            futures = [
                (index, job, pool.submit(_invoke, fn, job, trace_ctx))
                for index, job in pending
            ]
            survivors: list[tuple[int, SimJob]] = []
            timed_out = False
            cancelled = False
            for index, job, future in futures:
                if timed_out or cancelled:
                    # A worker is being reaped: harvest whatever already
                    # finished; on timeout resubmit the rest to the next
                    # pool, on cancel abandon them.
                    if future.done() and not future.cancelled():
                        records[index] = self._harvest(job, future)
                    elif cancelled:
                        future.cancel()
                        records[index] = ExecutionRecord(job, None, CANCELLED)
                    else:
                        future.cancel()
                        survivors.append((index, job))
                    continue
                status, value = self._await_future(future, cancel)
                if status == "ok":
                    records[index] = value
                elif status == "cancelled":
                    cancelled = True
                    records[index] = ExecutionRecord(job, None, CANCELLED)
                elif status == "timeout":
                    timed_out = True
                    records[index] = ExecutionRecord(
                        job,
                        None,
                        f"timeout: exceeded {self.timeout:g}s",
                        self.timeout or 0.0,
                    )
                else:  # broken pool, pickling failure, …
                    records[index] = ExecutionRecord(job, None, value)
            if timed_out or cancelled or getattr(pool, "_broken", False):
                _terminate_pool(pool)
            else:
                pool.shutdown()
            pending = survivors
        return [records[index] for index in range(len(jobs))]

    def _await_future(
        self, future, cancel: "threading.Event | None"
    ) -> tuple[str, ExecutionRecord | str | None]:
        """Wait for one future, re-checking ``cancel`` while blocked.

        Returns ``("ok", record)``, ``("timeout", None)``,
        ``("cancelled", None)`` or ``("error", message)``.  Without a
        cancel event this is a single blocking wait, identical to the
        pre-cancellation behaviour.
        """
        deadline = (
            time.monotonic() + self.timeout if self.timeout is not None else None
        )
        while True:
            if cancel is not None and cancel.is_set():
                return "cancelled", None
            if deadline is None:
                wait = _CANCEL_POLL_SECONDS if cancel is not None else None
            else:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return "timeout", None
                wait = (
                    min(_CANCEL_POLL_SECONDS, remaining)
                    if cancel is not None
                    else remaining
                )
            try:
                return "ok", future.result(timeout=wait)
            except FutureTimeoutError:
                if cancel is None:
                    return "timeout", None
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
    supports_trace_ctx = True
    supports_cancel = True

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


def get_executor(
    jobs: int = 1, *, timeout: float | None = None
) -> SerialExecutor | ProcessExecutor:
    """Executor for a ``--jobs N`` style request (1 → serial)."""
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if jobs == 1:
        return SerialExecutor()
    return ProcessExecutor(jobs, timeout=timeout)
