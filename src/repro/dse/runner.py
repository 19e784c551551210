"""Search driver: optimizer batches → ``run_jobs`` → trajectory.

:class:`DSERunner` owns one search: it asks the optimizer for candidate
batches, encodes them into content-addressed :class:`SimJob` specs,
evaluates them through the same ``run_jobs`` path every sweep in the
repo uses (cache probe → executor fan-out → write-back), feeds fitness
back, and records every evaluation in a trajectory JSONL.

Budgets are dual: ``max_evaluations`` bounds the search length
deterministically, ``max_seconds`` arms a timer that sets the shared
cancel event — in-flight batches stop mid-flight via the executors'
cancellation support instead of draining.  Checkpoints store the
spec plus the full ask/tell history; resume *replays* that history
through a freshly seeded optimizer (no re-simulation — the cache would
absorb it anyway, but replay keeps the optimizer's RNG state exact), so
a resumed search continues the identical trajectory.
"""

from __future__ import annotations

import json
import math
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from ..core.results import SimulationResult
from ..runtime.executor import CANCELLED
from ..runtime.jobs import SimJob, job_key
from ..runtime.runner import JobOutcome, run_jobs
from .artifacts import TrajectoryWriter, summarize_trajectory
from .optimizers import Candidate, Optimizer, build_optimizer
from .space import DesignSpace, build_space

__all__ = [
    "OBJECTIVES",
    "SearchSpec",
    "SearchResult",
    "DSERunner",
    "evaluate_grid",
    "CHECKPOINT_SCHEMA_VERSION",
]

CHECKPOINT_SCHEMA_VERSION = 1

#: Fitness objectives (minimised) over a simulation result.
OBJECTIVES: dict[str, Callable[[SimulationResult], float]] = {
    "latency": lambda r: float(r.total_seconds),
    "energy": lambda r: float(r.energy_joules),
    "edp": lambda r: float(r.total_seconds) * float(r.energy_joules),
    "dram": lambda r: float(r.dram_bytes),
    "comm": lambda r: float(r.onchip_comm_cycles),
}


@dataclass(frozen=True)
class SearchSpec:
    """Everything that determines a search, as pure data.

    ``workload`` holds :class:`SimJob` overrides for the base job the
    space varies around (dataset, model, scale, hidden, num_layers,
    seed); ``options`` is passed to the optimizer constructor.
    A spec plus a seed is the whole search: two runs of the same spec
    produce bit-identical trajectories.
    """

    space: str = "aurora-core"
    optimizer: str = "random"
    objective: str = "latency"
    seed: int = 0
    max_evaluations: int = 200
    max_seconds: float | None = None
    batch: int = 8
    options: dict = field(default_factory=dict)
    workload: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.objective not in OBJECTIVES:
            raise ValueError(
                f"unknown objective {self.objective!r}; "
                f"available: {', '.join(OBJECTIVES)}"
            )
        if self.max_evaluations < 1:
            raise ValueError("max_evaluations must be >= 1")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")

    def base_job(self) -> SimJob:
        return SimJob(**self.workload)

    def as_dict(self) -> dict:
        return {
            "space": self.space,
            "optimizer": self.optimizer,
            "objective": self.objective,
            "seed": self.seed,
            "max_evaluations": self.max_evaluations,
            "max_seconds": self.max_seconds,
            "batch": self.batch,
            "options": dict(self.options),
            "workload": dict(self.workload),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SearchSpec":
        known = {
            "space",
            "optimizer",
            "objective",
            "seed",
            "max_evaluations",
            "max_seconds",
            "batch",
            "options",
            "workload",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown search spec fields: {sorted(unknown)}")
        return cls(**data)


@dataclass
class SearchResult:
    """Final accounting of one search (or grid evaluation)."""

    spec: SearchSpec | None
    evaluations: int = 0
    executed: int = 0
    served: int = 0  # evaluations satisfied by cache or in-batch dedup
    errors: int = 0
    best_fitness: float | None = None
    best_point: dict | None = None
    best_key: str | None = None
    stopped: str = "budget"  # budget | exhausted | wall-clock | cancelled
    wall_seconds: float = 0.0
    trajectory_path: str | None = None
    checkpoint_path: str | None = None

    @property
    def served_fraction(self) -> float:
        return self.served / self.evaluations if self.evaluations else 0.0

    def as_dict(self) -> dict:
        return {
            "spec": self.spec.as_dict() if self.spec else None,
            "evaluations": self.evaluations,
            "executed": self.executed,
            "served": self.served,
            "served_fraction": self.served_fraction,
            "errors": self.errors,
            "best_fitness": self.best_fitness,
            "best_point": self.best_point,
            "best_key": self.best_key,
            "stopped": self.stopped,
            "wall_seconds": self.wall_seconds,
            "trajectory_path": self.trajectory_path,
            "checkpoint_path": self.checkpoint_path,
        }


def _fitness_of(objective: str, outcome: JobOutcome) -> float:
    if outcome.ok:
        return OBJECTIVES[objective](outcome.result)
    return math.inf


class DSERunner:
    """Drive one search spec to completion (or budget exhaustion)."""

    def __init__(
        self,
        spec: SearchSpec,
        *,
        cache=None,
        executor=None,
        trajectory_path: str | Path | None = None,
        checkpoint_path: str | Path | None = None,
        resume: bool = False,
        progress: Callable[[dict], None] | None = None,
        cancel: threading.Event | None = None,
    ) -> None:
        self.spec = spec
        self.space: DesignSpace = build_space(spec.space, spec.base_job())
        self.cache = cache
        self.executor = executor
        self.trajectory_path = Path(trajectory_path) if trajectory_path else None
        self.checkpoint_path = Path(checkpoint_path) if checkpoint_path else None
        self.resume = resume
        self.progress = progress
        self.cancel = cancel if cancel is not None else threading.Event()
        self._lock = threading.Lock()
        self._snapshot: dict = {"state": "pending", "evaluations": 0}

    # -- live status (polled by the serve endpoint) --------------------
    def snapshot(self) -> dict:
        with self._lock:
            return dict(self._snapshot)

    def _publish(self, **fields) -> None:
        with self._lock:
            self._snapshot.update(fields)
        if self.progress is not None:
            self.progress(dict(fields))

    # -- checkpointing -------------------------------------------------
    def _write_checkpoint(self, batches: list[dict], evaluations: int) -> None:
        if self.checkpoint_path is None:
            return
        payload = {
            "schema_version": CHECKPOINT_SCHEMA_VERSION,
            "spec": self.spec.as_dict(),
            "signature": self.space.signature(),
            "evaluations": evaluations,
            "batches": batches,
        }
        tmp = self.checkpoint_path.with_suffix(".tmp")
        tmp.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text(json.dumps(payload, sort_keys=True))
        tmp.replace(self.checkpoint_path)

    def _load_checkpoint(self) -> dict | None:
        if (
            not self.resume
            or self.checkpoint_path is None
            or not self.checkpoint_path.exists()
        ):
            return None
        payload = json.loads(self.checkpoint_path.read_text())
        if payload.get("schema_version") != CHECKPOINT_SCHEMA_VERSION:
            raise ValueError("checkpoint schema version mismatch")
        if payload.get("signature") != self.space.signature():
            raise ValueError(
                "checkpoint was taken against a different design space "
                "or workload; refusing to resume"
            )
        return payload

    def _replay(
        self, optimizer: Optimizer, payload: dict, result: SearchResult
    ) -> list[dict]:
        """Rebuild optimizer + best-so-far state from checkpoint history.

        Replaying ask/tell (instead of pickling the optimizer) keeps the
        checkpoint format inspectable JSON and guarantees the optimizer's
        RNG sits exactly where it did — the resumed search continues the
        same trajectory the uninterrupted one would have produced.
        """
        batches: list[dict] = payload["batches"]
        for batch in batches:
            asked = optimizer.ask(len(batch["candidates"]))
            got = [list(c.indices) for c in asked]
            if got != batch["candidates"] or [
                c.rung for c in asked
            ] != batch["rungs"]:
                raise ValueError(
                    "checkpoint replay diverged; was the optimizer "
                    "implementation or seed changed?"
                )
            evaluated = list(zip(asked, batch["fitnesses"]))
            optimizer.tell(evaluated)
            for candidate, fitness, ok in zip(
                asked, batch["fitnesses"], batch["oks"]
            ):
                result.evaluations += 1
                if not ok:
                    result.errors += 1
                self._track_best(result, optimizer, candidate, fitness, ok)
        return batches

    def _track_best(
        self,
        result: SearchResult,
        optimizer: Optimizer,
        candidate: Candidate,
        fitness: float,
        ok: bool,
    ) -> None:
        """Best-so-far only counts full-fidelity evaluations — a cheap
        rung's fitness is not comparable to the real workload's."""
        if not ok or optimizer.fidelity(candidate) != 1.0:
            return
        if result.best_fitness is None or fitness < result.best_fitness:
            result.best_fitness = fitness
            result.best_point = self.space.decode(candidate.indices)
            result.best_key = job_key(
                self.space.job_for(candidate.indices, fidelity=1.0)
            )

    # -- main loop -----------------------------------------------------
    def run(self) -> SearchResult:
        spec = self.spec
        start = time.perf_counter()
        result = SearchResult(
            spec,
            trajectory_path=str(self.trajectory_path)
            if self.trajectory_path
            else None,
            checkpoint_path=str(self.checkpoint_path)
            if self.checkpoint_path
            else None,
        )
        optimizer = build_optimizer(
            spec.optimizer, self.space, seed=spec.seed, **spec.options
        )
        checkpoint = self._load_checkpoint()
        batches: list[dict] = []
        if checkpoint is not None:
            batches = self._replay(optimizer, checkpoint, result)

        writer: TrajectoryWriter | None = None
        if self.trajectory_path is not None:
            resumed = checkpoint is not None and result.evaluations > 0
            writer = TrajectoryWriter(self.trajectory_path, append=resumed)
            if not resumed:
                writer.header(
                    space=spec.space,
                    signature=self.space.signature(),
                    optimizer=spec.optimizer,
                    objective=spec.objective,
                    seed=spec.seed,
                )

        timer: threading.Timer | None = None
        deadline: float | None = None
        if spec.max_seconds is not None:
            deadline = time.monotonic() + spec.max_seconds
            timer = threading.Timer(spec.max_seconds, self.cancel.set)
            timer.daemon = True
            timer.start()

        self._publish(state="running", evaluations=result.evaluations)
        try:
            while result.evaluations < spec.max_evaluations:
                if self.cancel.is_set():
                    result.stopped = self._stop_reason(deadline)
                    break
                if optimizer.done():
                    result.stopped = "exhausted"
                    break
                want = min(spec.batch, spec.max_evaluations - result.evaluations)
                candidates = optimizer.ask(want)
                if not candidates:
                    result.stopped = "exhausted"
                    break
                jobs = [
                    self.space.job_for(
                        c.indices, fidelity=optimizer.fidelity(c)
                    )
                    for c in candidates
                ]
                report = run_jobs(
                    jobs,
                    executor=self.executor,
                    cache=self.cache,
                    cancel=self.cancel,
                )
                evaluated: list[tuple[Candidate, float]] = []
                oks: list[bool] = []
                for candidate, outcome in zip(candidates, report.outcomes):
                    if outcome.error == CANCELLED:
                        # Abandoned mid-flight: not an evaluation.  Kept
                        # out of tell/trajectory so cancellation timing
                        # can never change a deterministic trajectory.
                        continue
                    fitness = _fitness_of(spec.objective, outcome)
                    evaluated.append((candidate, fitness))
                    oks.append(outcome.ok)
                    if not outcome.ok:
                        result.errors += 1
                metrics = report.metrics
                result.executed += metrics.executed
                # Evaluations not simulated were served by the cache or
                # by in-batch dedup — the cache amplification.
                result.served += len(evaluated) - metrics.executed
                optimizer.tell(evaluated)
                for (candidate, fitness), ok in zip(evaluated, oks):
                    index = result.evaluations
                    result.evaluations += 1
                    self._track_best(result, optimizer, candidate, fitness, ok)
                    if writer is not None:
                        writer.evaluation(
                            index=index,
                            key=job_key(
                                self.space.job_for(
                                    candidate.indices,
                                    fidelity=optimizer.fidelity(candidate),
                                )
                            ),
                            point=self.space.decode(candidate.indices),
                            rung=candidate.rung,
                            fidelity=optimizer.fidelity(candidate),
                            fitness=None if math.isinf(fitness) else fitness,
                            best_fitness=result.best_fitness,
                            ok=ok,
                        )
                if writer is not None:
                    writer.flush()
                if evaluated:
                    batches.append(
                        {
                            "candidates": [
                                list(c.indices) for c, _ in evaluated
                            ],
                            "rungs": [c.rung for c, _ in evaluated],
                            "fitnesses": [
                                None if math.isinf(f) else f
                                for _, f in evaluated
                            ],
                            "oks": oks,
                        }
                    )
                    self._write_checkpoint(batches, result.evaluations)
                self._publish(
                    state="running",
                    evaluations=result.evaluations,
                    executed=result.executed,
                    served=result.served,
                    best_fitness=result.best_fitness,
                    best_point=result.best_point,
                )
                if len(evaluated) < len(candidates):
                    # Some candidates were cancelled mid-batch.
                    result.stopped = self._stop_reason(deadline)
                    break
        finally:
            if timer is not None:
                timer.cancel()
            if writer is not None:
                writer.close()
        result.wall_seconds = time.perf_counter() - start
        self._publish(
            state="done",
            evaluations=result.evaluations,
            executed=result.executed,
            served=result.served,
            best_fitness=result.best_fitness,
            best_point=result.best_point,
            stopped=result.stopped,
        )
        return result

    def _stop_reason(self, deadline: float | None) -> str:
        if deadline is not None and time.monotonic() >= deadline:
            return "wall-clock"
        return "cancelled"


def evaluate_grid(
    jobs: Sequence[SimJob],
    *,
    objective: str = "latency",
    cache=None,
    executor=None,
    batch: int = 8,
    trajectory_path: str | Path | None = None,
    cancel: threading.Event | None = None,
    labels: Sequence[dict] | None = None,
) -> SearchResult:
    """Evaluate a fixed job grid through the search's evaluation path.

    This is how the paper's E1–E12 sweep rides the DSE machinery: same
    ``run_jobs`` evaluation, same trajectory artifact, same summary
    renderers — just with an explicit candidate list instead of an
    optimizer.  ``labels`` optionally supplies the per-job ``point``
    dicts recorded in the trajectory (defaults to a compact spec).
    """
    if objective not in OBJECTIVES:
        raise ValueError(
            f"unknown objective {objective!r}; available: {', '.join(OBJECTIVES)}"
        )
    jobs = list(jobs)
    if labels is not None and len(labels) != len(jobs):
        raise ValueError("labels must match jobs")
    start = time.perf_counter()
    result = SearchResult(
        None,
        trajectory_path=str(trajectory_path) if trajectory_path else None,
    )
    writer: TrajectoryWriter | None = None
    if trajectory_path is not None:
        writer = TrajectoryWriter(trajectory_path)
        writer.header(
            space="grid",
            signature="-",
            optimizer="grid",
            objective=objective,
            seed=0,
        )
    try:
        for lo in range(0, len(jobs), max(1, batch)):
            if cancel is not None and cancel.is_set():
                result.stopped = "cancelled"
                break
            chunk = jobs[lo : lo + batch]
            report = run_jobs(
                chunk, executor=executor, cache=cache, cancel=cancel
            )
            cancelled = False
            for offset, outcome in enumerate(report.outcomes):
                if outcome.error == CANCELLED:
                    cancelled = True
                    continue
                index = result.evaluations
                result.evaluations += 1
                fitness = _fitness_of(objective, outcome)
                if not outcome.ok:
                    result.errors += 1
                ok = outcome.ok
                if ok and (
                    result.best_fitness is None
                    or fitness < result.best_fitness
                ):
                    result.best_fitness = fitness
                    result.best_key = outcome.key
                    job = chunk[offset]
                    result.best_point = (
                        dict(labels[lo + offset])
                        if labels is not None
                        else {
                            "model": job.model,
                            "dataset": job.dataset,
                            "accelerator": job.accelerator,
                            "mapping": job.mapping,
                        }
                    )
                if writer is not None:
                    job = chunk[offset]
                    point = (
                        dict(labels[lo + offset])
                        if labels is not None
                        else {
                            "model": job.model,
                            "dataset": job.dataset,
                            "accelerator": job.accelerator,
                            "mapping": job.mapping,
                        }
                    )
                    writer.evaluation(
                        index=index,
                        key=outcome.key,
                        point=point,
                        rung=-1,
                        fidelity=1.0,
                        fitness=None if math.isinf(fitness) else fitness,
                        best_fitness=result.best_fitness,
                        ok=ok,
                    )
            metrics = report.metrics
            result.executed += metrics.executed
            result.served += (
                metrics.cache_hits + metrics.total_jobs - metrics.unique_jobs
            )
            if writer is not None:
                writer.flush()
            if cancelled:
                result.stopped = "cancelled"
                break
        else:
            result.stopped = "completed"
    finally:
        if writer is not None:
            writer.close()
    result.wall_seconds = time.perf_counter() - start
    return result


def trajectory_summary(path: str | Path) -> dict:
    """Convenience: summarize a trajectory file on disk."""
    from .artifacts import read_trajectory

    _, records = read_trajectory(path)
    return summarize_trajectory(records)
