"""Single-flight deduplication, cache probe and micro-batching.

Three steps between the HTTP handlers and the simulators, in order::

    submit(job) ─► in flight? ──yes──► join its future
                       │ no
                       ▼
                  cache hit? ──yes──► answer now (no window, no batch)
                       │ no
                       ▼
                  batch window ─► run_jobs on a worker thread

* **single-flight** — at most one execution per job content hash is in
  flight at any moment.  A request arriving while "its" job is already
  queued or running simply awaits the same future and shares the
  result, so a stampede of identical requests costs one simulation.
* **cache probe** — a job whose result is already in the
  :class:`~repro.runtime.cache.ResultCache` is answered on the event
  loop, through the same hit helper ``run_jobs`` uses, without waiting
  for the window.
* **micro-batching** — the remaining misses accumulate for a short
  window (``batch_window`` seconds, or until ``max_batch`` jobs) and go
  through :func:`repro.runtime.run_jobs` as *one* batch, so the run's
  span, cache probe and store are paid once per batch, not per request.

The batch runs serially on a worker thread (``asyncio.to_thread``),
keeping the event loop responsive for admission and shedding while
simulations execute.  Process parallelism for serving is a fleet of
replicas (``repro cluster --replicas N``), not a pool per batch.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable

from ..observe.events import HUB
from ..perf import PERF
from ..runtime.cache import ResultCache
from ..runtime.jobs import SimJob, job_key
from ..runtime.runner import JobOutcome, SweepReport, cached_outcome, run_jobs
from ..telemetry import TRACER

__all__ = ["JobBatcher"]

#: Runner signature: a list of unique jobs in, a SweepReport out.
AsyncRunner = Callable[[list[SimJob]], Awaitable[SweepReport]]


class JobBatcher:
    """Collect compatible jobs and drain them through ``run_jobs``."""

    def __init__(
        self,
        *,
        cache: ResultCache | None = None,
        batch_window: float = 0.005,
        max_batch: int = 16,
        runner: AsyncRunner | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if batch_window < 0:
            raise ValueError("batch_window must be >= 0")
        self.cache = cache
        self.batch_window = batch_window
        self.max_batch = max_batch
        self._runner = runner or self._default_runner
        self._inflight: dict[str, asyncio.Future] = {}
        self._pending: list[tuple[str, SimJob]] = []
        self._flush_task: asyncio.Task | None = None
        self.batches_run = 0
        self.jobs_run = 0
        self.singleflight_joins = 0

    async def _default_runner(self, jobs: list[SimJob]) -> SweepReport:
        return await asyncio.to_thread(run_jobs, jobs, cache=self.cache)

    # ------------------------------------------------------------------
    async def submit(self, job: SimJob) -> tuple[JobOutcome, bool]:
        """Resolve one job to its outcome; ``True`` flags an in-flight join.

        The order is single-flight join, then cache probe, then queue: a
        job already in flight is joined, a cache hit is answered at once
        on the event loop, and only a miss waits out the batch window.

        Callers that enforce a timeout must shield this coroutine
        (``asyncio.wait_for(asyncio.shield(batcher.submit(job)), t)``)
        so that one caller's deadline cannot cancel an execution other
        requests are waiting on.
        """
        key = job_key(job)
        existing = self._inflight.get(key)
        if existing is None:
            outcome = self._probe(key, job)
            if outcome is not None:
                return outcome, False
        with TRACER.span("batcher", {"key": key[:12]}):
            if existing is not None:
                self.singleflight_joins += 1
                PERF.incr("serve.singleflight_join")
                outcome = await asyncio.shield(existing)
                return outcome, True

            loop = asyncio.get_running_loop()
            future: asyncio.Future = loop.create_future()
            self._inflight[key] = future
            self._pending.append((key, job))
            if len(self._pending) >= self.max_batch:
                batch = self._take_pending()
                await self._execute(batch)
            else:
                if self._flush_task is None or self._flush_task.done():
                    self._flush_task = loop.create_task(self._flush_after_window())
            outcome = await asyncio.shield(future)
            return outcome, False

    def _probe(self, key: str, job: SimJob) -> JobOutcome | None:
        """The cached outcome for ``key``, or ``None`` to queue the job.

        A miss (absent, stale or corrupt blob; the last two are evicted
        by the load) is recomputed in the batch, whose ``run_jobs``
        probe counts the request's one miss, so the load's own miss is
        taken back here.  A memory-tier hit touches no file.
        """
        if self.cache is None:
            return None
        with TRACER.span("cache.probe", {"jobs": 1}) as probe:
            outcome = cached_outcome(self.cache, key, job)
            probe.set(hits=int(outcome is not None))
        if outcome is None:
            self.cache.stats.add("misses", n=-1)
        else:
            PERF.incr("runtime.cache_hit")
        return outcome

    # ------------------------------------------------------------------
    def _take_pending(self) -> list[tuple[str, SimJob]]:
        batch, self._pending = self._pending, []
        return batch

    async def _flush_after_window(self) -> None:
        await asyncio.sleep(self.batch_window)
        # Loop until nothing is pending: jobs submitted *while* a batch
        # is executing see this task as live and schedule no flush of
        # their own (submit() only arms a flush when no task is
        # running), so this task must pick them up or they strand.
        while True:
            batch = self._take_pending()
            if not batch:
                return
            await self._execute(batch)

    async def _execute(self, batch: list[tuple[str, SimJob]]) -> None:
        jobs = [job for _, job in batch]
        self.batches_run += 1
        self.jobs_run += len(jobs)
        PERF.incr("serve.batch")
        PERF.incr("serve.batch_jobs", len(jobs))
        if HUB.enabled:
            HUB.emit(
                "batch.flush",
                {
                    "jobs": len(jobs),
                    "batches_run": self.batches_run,
                    "keys": [key[:12] for key, _ in batch],
                },
            )
        try:
            with TRACER.span("batch", {"jobs": len(jobs)}):
                report = await self._runner(jobs)
            by_key = {outcome.key: outcome for outcome in report.outcomes}
        except Exception as exc:  # noqa: BLE001 — isolate a runner crash
            by_key = {
                key: JobOutcome(
                    job, key, None, error=f"{type(exc).__name__}: {exc}"
                )
                for key, job in batch
            }
        for key, job in batch:
            future = self._inflight.pop(key, None)
            if future is None or future.done():
                continue
            outcome = by_key.get(key) or JobOutcome(
                job, key, None, error="runner returned no outcome for job"
            )
            future.set_result(outcome)

    # ------------------------------------------------------------------
    @property
    def inflight_count(self) -> int:
        return len(self._inflight)

    async def drain(self) -> None:
        """Await every queued and in-flight execution (drain path)."""
        while self._pending or self._inflight:
            if self._flush_task is not None and not self._flush_task.done():
                await asyncio.wait({self._flush_task})
                continue
            futures = list(self._inflight.values())
            if futures:
                await asyncio.wait(futures)
            else:
                await asyncio.sleep(0)

    def snapshot(self) -> dict:
        """Stats view for ``/stats``."""
        return {
            "batch_window_seconds": self.batch_window,
            "max_batch": self.max_batch,
            "pending": len(self._pending),
            "inflight": len(self._inflight),
            "batches_run": self.batches_run,
            "jobs_run": self.jobs_run,
            "singleflight_joins": self.singleflight_joins,
        }
