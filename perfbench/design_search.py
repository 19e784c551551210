"""design-search: seeded random design-space searches on one pubmed graph.

One pass is one ``DSERunner`` random search (``unique=True``, 16
evaluations, one per batch) over ``aurora-core`` on pubmed@0.5, the
graph generated in set-up.  Each search gets a fresh ``ResultCache``,
so every evaluation simulates and the cache is only written; the
in-process memos stay warm across evaluations, as in a long search.
The analytical simulator and its memo layers do most of the work,
``graphs`` almost none.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from contextlib import nullcontext

from . import accuracy, layers
from .common import STATE_DIR, PassResult, import_probe, rng_for
from .common import Workload as BaseWorkload

NAME = "design-search"
MODULES = ("repro.dse.runner", "repro.runtime")
EVALUATIONS = 16
WORKLOAD = {"dataset": "pubmed", "scale": 0.5}


def pass_inputs(seed: int, index: int) -> int:
    """The pass's search seed; the optimizer draws the points from it."""
    return rng_for(seed, NAME, index).randrange(2**31)


class Workload(BaseWorkload):
    op = "design evaluation"

    def setup(self) -> None:
        import_probe(MODULES)
        from repro.graphs.datasets import clear_snapshot_cache, load_dataset
        from repro.perf.bench import clear_hot_path_caches
        from repro.runtime import SimJob

        clear_hot_path_caches()
        clear_snapshot_cache()
        load_dataset(WORKLOAD["dataset"], scale=WORKLOAD["scale"], seed=SimJob().seed)
        (STATE_DIR / "tmp").mkdir(parents=True, exist_ok=True)

    def run_pass(self, index: int, traced: bool) -> PassResult:
        from repro.dse.runner import DSERunner, SearchSpec
        from repro.runtime.cache import ResultCache
        from repro.runtime.executor import SerialExecutor

        spec = SearchSpec(
            space="aurora-core",
            optimizer="random",
            seed=pass_inputs(self.seed, index),
            max_evaluations=EVALUATIONS,
            batch=1,
            options={"unique": True},
            workload=WORKLOAD,
        )
        cache_dir = tempfile.mkdtemp(dir=STATE_DIR / "tmp", prefix="dse-")
        stamps: list = []
        raw: dict = {}
        try:
            with layers.traced_pass(raw) if traced else nullcontext():
                t0 = time.perf_counter()
                runner = DSERunner(
                    spec,
                    cache=ResultCache(cache_dir),
                    executor=SerialExecutor(),
                    progress=lambda f: stamps.append(
                        (f.get("state"), time.perf_counter())
                    ),
                )
                result = runner.run()
                wall = time.perf_counter() - t0
            failed = result.errors
            if (
                result.evaluations != EVALUATIONS
                or result.served
                or not _best_reproduces(runner, result, cache_dir)
            ):
                failed = EVALUATIONS
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        # One batch per evaluation: consecutive "running" publishes
        # bracket each evaluation as the search sees it.
        running = [t for state, t in stamps if state == "running"]
        latencies = [(b - a) * 1e3 for a, b in zip(running, running[1:])]
        if traced:
            raw.update(ops=EVALUATIONS, wall=wall, served=result.served)
        return PassResult(wall, EVALUATIONS, failed, latencies, raw or None)

    def accuracy(self) -> tuple:
        return accuracy.ledger_paper_gap(), accuracy.ledger_drain_err(), {}

    def layer_metrics(self, raw: dict) -> dict:
        out = layers.common_layers(raw)
        ops, wall = raw["ops"], raw["wall"]
        job_seconds = raw["stages"].get("runtime.job", 0.0)
        out["dse.served_frac"] = raw["served"] / ops
        out["dse.overhead_ms"] = (wall - job_seconds) / ops * 1e3
        spans = raw["spans"]
        attributed = (
            spans.get("graphs.generate", 0.0)
            + spans.get("simulate_layer", 0.0)
            + (wall - job_seconds)
        )
        out["unattributed_frac"] = 1.0 - attributed / wall
        return out


def _best_reproduces(runner, result, cache_dir) -> bool:
    """The best point, re-run through ``execute_job``, equals its stored
    result bit for bit (compared in the cache's JSON form)."""
    from repro.runtime.cache import ResultCache
    from repro.runtime.jobs import execute_job, job_key

    job = runner.space.to_job(result.best_point)
    if job_key(job) != result.best_key:
        return False
    stored = ResultCache(cache_dir).load(result.best_key)
    return stored == json.loads(json.dumps(execute_job(job)))
