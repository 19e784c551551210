"""Sweep orchestration: cache lookup → executor fan-out → accounting.

:func:`run_jobs` is the single entry point every sweep in the repo goes
through (accelerator comparisons, the experiment registry, sensitivity
analysis, the ``repro sweep`` CLI).  It deduplicates identical jobs,
serves warm results from the cache, hands the cold remainder to the
executor, writes fresh results back, and reports hit/miss/error/wall-time
metrics for the sweep summary.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

from ..core.results import SimulationResult
from ..perf import PERF
from ..telemetry import TRACER
from .cache import ResultCache, as_cache
from .executor import CANCELLED, SerialExecutor, get_executor
from .jobs import SimJob, job_key

__all__ = [
    "JobOutcome",
    "SweepMetrics",
    "SweepReport",
    "cached_outcome",
    "run_jobs",
]


@dataclass
class JobOutcome:
    """One job's result (or error) plus where it came from."""

    job: SimJob
    key: str
    result: SimulationResult | None
    error: str | None = None
    seconds: float = 0.0  # simulation wall time; 0.0 for cache hits
    cached: bool = False
    exec_meta: dict | None = None  # tile-reuse counters, when tiles cached

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class SweepMetrics:
    """Counters for one ``run_jobs`` invocation."""

    total_jobs: int = 0
    unique_jobs: int = 0
    executed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    errors: int = 0
    cancelled: int = 0
    wall_seconds: float = 0.0
    sim_seconds: float = 0.0  # summed per-job execution time
    job_seconds: dict[str, float] = field(default_factory=dict)  # key → s

    def summary(self) -> str:
        """One-line sweep summary for CLI output."""
        parts = [
            f"{self.total_jobs} jobs"
            + (
                f" ({self.unique_jobs} unique)"
                if self.unique_jobs != self.total_jobs
                else ""
            ),
            f"{self.executed} executed",
            f"cache {self.cache_hits} hit / {self.cache_misses} miss",
        ]
        if self.errors:
            parts.append(f"{self.errors} errors")
        if self.cancelled:
            parts.append(f"{self.cancelled} cancelled")
        parts.append(f"wall {self.wall_seconds:.2f}s")
        if self.executed:
            parts.append(f"sim {self.sim_seconds:.2f}s")
        return "sweep: " + " | ".join(parts)


@dataclass
class SweepReport:
    """Outcomes in request order plus the sweep metrics."""

    outcomes: list[JobOutcome]
    metrics: SweepMetrics

    def results(self) -> list[SimulationResult | None]:
        return [o.result for o in self.outcomes]

    def errors(self) -> list[JobOutcome]:
        return [o for o in self.outcomes if not o.ok]

    def raise_on_error(self) -> None:
        """Fail loudly when a sweep needs its full grid."""
        failed = self.errors()
        if failed:
            lines = ", ".join(
                f"{o.job.label()}: {o.error}" for o in failed[:5]
            )
            more = f" (+{len(failed) - 5} more)" if len(failed) > 5 else ""
            raise RuntimeError(f"{len(failed)} job(s) failed — {lines}{more}")


def cached_outcome(store: ResultCache, key: str, job: SimJob) -> JobOutcome | None:
    """The cache-hit path: the stored result as a ``cached`` outcome.

    ``None`` on a miss.  :func:`run_jobs` probes through this, and so
    does the serve batcher before a job enters its window, so a hit is
    built the same way wherever it is answered.
    """
    payload = store.load(key)
    if payload is None:
        return None
    return JobOutcome(
        job,
        key,
        SimulationResult.from_dict(payload),
        cached=True,
        exec_meta=payload.get("_exec"),
    )


def run_jobs(
    jobs: Iterable[SimJob],
    *,
    executor=None,
    cache: ResultCache | bool | None = None,
    jobs_n: int | None = None,
    progress: Callable[[JobOutcome], None] | None = None,
    cancel=None,
) -> SweepReport:
    """Run a batch of simulation jobs through cache + executor.

    Identical jobs (same content hash) are simulated once and fanned back
    out to every requesting position.  With a cache, warm jobs skip
    execution entirely; fresh results are written back so the next sweep
    starts warm.  ``jobs_n`` is a convenience that builds a default
    executor (serial for 1, a process pool otherwise) when ``executor``
    is not given.

    ``cancel`` is an optional :class:`threading.Event`; once it is set,
    not-yet-executed jobs come back as ``error="cancelled"`` outcomes
    (counted in ``metrics.cancelled``, not ``metrics.errors``) instead of
    being simulated — the mechanism budgeted searches use to stop a
    losing batch mid-flight.
    """
    start = time.perf_counter()
    job_list = list(jobs)
    if executor is None:
        executor = get_executor(jobs_n) if jobs_n else SerialExecutor()
    store = as_cache(cache)

    keys = [job_key(job) for job in job_list]
    unique: dict[str, SimJob] = {}
    for key, job in zip(keys, job_list):
        unique.setdefault(key, job)

    sweep_span = TRACER.span(
        "run_jobs",
        {"jobs": len(job_list), "unique": len(unique), "executor": getattr(executor, "name", type(executor).__name__)},
    )
    with sweep_span as span:
        outcomes: dict[str, JobOutcome] = {}
        pending: list[tuple[str, SimJob]] = []
        with TRACER.span("cache.probe", {"jobs": len(unique)}) as probe:
            for key, job in unique.items():
                outcome = (
                    cached_outcome(store, key, job) if store is not None else None
                )
                if outcome is not None:
                    outcomes[key] = outcome
                    if progress is not None:
                        progress(outcome)
                else:
                    pending.append((key, job))
            probe.set(
                hits=len(unique) - len(pending),
                misses=len(pending) if store is not None else 0,
            )

        # Propagate this span's context into the executor (possibly a
        # process pool) and merge the child spans the records bring back
        # — one request, one tree, across the process boundary.
        records = executor.run(
            [job for _, job in pending],
            trace_ctx=TRACER.current_context(),
            cancel=cancel,
        )
        for record in records:
            TRACER.merge(record.spans)
        span.set(executed=len(records))
    metrics = SweepMetrics(
        total_jobs=len(job_list),
        unique_jobs=len(unique),
        executed=len(records),
        cache_hits=len(unique) - len(pending),
        cache_misses=len(pending) if store is not None else 0,
    )
    PERF.incr("runtime.cache_hit", metrics.cache_hits)
    PERF.incr("runtime.cache_miss", metrics.cache_misses)
    for (key, job), record in zip(pending, records):
        if record.ok:
            if store is not None:
                store.store(key, record.payload, job=job)
            outcome = JobOutcome(
                job,
                key,
                SimulationResult.from_dict(record.payload),
                seconds=record.seconds,
                exec_meta=record.payload.get("_exec"),
            )
        else:
            if record.error == CANCELLED:
                metrics.cancelled += 1
            else:
                metrics.errors += 1
            outcome = JobOutcome(
                job, key, None, error=record.error, seconds=record.seconds
            )
        metrics.job_seconds[key] = record.seconds
        metrics.sim_seconds += record.seconds
        outcomes[key] = outcome
        if progress is not None:
            progress(outcome)

    # Cancelled jobs were abandoned, not run.
    metrics.executed -= metrics.cancelled
    metrics.wall_seconds = time.perf_counter() - start
    return SweepReport([outcomes[key] for key in keys], metrics)

