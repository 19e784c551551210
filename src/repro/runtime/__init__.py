"""Execution layer for simulation sweeps.

Turns every many-run workload in the repo — accelerator × dataset grids,
the experiment registry, sensitivity/DSE sweeps — into batches of frozen
:class:`SimJob` specs drained by a pluggable executor behind a
content-addressed result cache:

* :mod:`.jobs` — the job spec, its canonical content hash, execution;
* :mod:`.cache` — on-disk JSON result cache keyed by job hash and a
  source-tree fingerprint;
* :mod:`.executor` — serial / process-pool / scripted-fake executors
  with per-job failure isolation and cancellation;
* :mod:`.runner` — :func:`run_jobs` orchestration plus sweep metrics.
"""

from .cache import CacheStats, ResultCache, as_cache, code_fingerprint
from .executor import (
    ExecutionRecord,
    FakeExecutor,
    ProcessExecutor,
    SerialExecutor,
    get_executor,
)
from .jobs import SimJob, execute_job, job_key, run_job
from .runner import JobOutcome, SweepMetrics, SweepReport, run_jobs
from .shards import run_tile_shards, tile_sub_key

__all__ = [
    "SimJob",
    "job_key",
    "run_job",
    "execute_job",
    "ResultCache",
    "CacheStats",
    "as_cache",
    "code_fingerprint",
    "SerialExecutor",
    "ProcessExecutor",
    "FakeExecutor",
    "ExecutionRecord",
    "get_executor",
    "JobOutcome",
    "SweepMetrics",
    "SweepReport",
    "run_jobs",
    "run_tile_shards",
    "tile_sub_key",
]
