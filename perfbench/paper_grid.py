"""paper-grid: the GCN comparison grid behind Figs 8-10, cold every pass.

One pass is the 30 ``SimJob``s of ``repro.eval.harness.comparison_jobs``
(five datasets at ``DEFAULT_SCALES`` × Aurora + five baselines) through
``run_jobs`` with the result cache off, after clearing the in-process
memos — what every paper reproduction pays.  Synthetic dataset
generation does most of the work, the analytical core a little, serve
and the cycle tier none.

The pass goes through ``run_jobs`` one dataset at a time (its six jobs),
so each pass yields five latency samples, one per dataset sub-batch,
instead of a single pass wall: ``p50_ms`` and ``p90_ms`` then rank
dataset sub-batches, whose sizes are the same every pass.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

from . import accuracy, layers
from .common import PassResult, import_probe, rng_for
from .common import Workload as BaseWorkload

NAME = "paper-grid"
MODULES = ("repro.runtime", "repro.eval.harness", "repro.eval.golden")


def pass_inputs(seed: int, index: int) -> list:
    """The pass's job order as ``(dataset, accelerator)`` pairs.

    Datasets are shuffled and so are the accelerators within each
    dataset, but a dataset's jobs stay contiguous: every pass generates
    each graph exactly once, whatever the seed, so the 4-entry snapshot
    memo never thrashes on the five datasets.
    """
    from repro.eval.harness import ACCELERATOR_ORDER, DEFAULT_SCALES

    rng = rng_for(seed, NAME, index)
    datasets = list(DEFAULT_SCALES)
    rng.shuffle(datasets)
    order = []
    for ds in datasets:
        accelerators = list(ACCELERATOR_ORDER)
        rng.shuffle(accelerators)
        order.extend((ds, acc) for acc in accelerators)
    return order


class Workload(BaseWorkload):
    op = "dataset sub-batch (6 jobs)"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.gaps: set = set()

    def setup(self) -> None:
        import_probe(MODULES)
        from repro.eval.golden import load_goldens
        from repro.eval.harness import comparison_jobs

        self.jobs = {(j.dataset, j.accelerator): j for j in comparison_jobs()}
        self.goldens = load_goldens()

    def run_pass(self, index: int, traced: bool) -> PassResult:
        from repro.graphs.datasets import clear_snapshot_cache
        from repro.perf.bench import clear_hot_path_caches
        from repro.runtime import run_jobs

        order = pass_inputs(self.seed, index)
        jobs = [self.jobs[pair] for pair in order]
        per = len(jobs) // len({ds for ds, _ in order})
        clear_hot_path_caches()
        clear_snapshot_cache()
        raw: dict = {}
        outcomes = []
        latencies = []
        with layers.traced_pass(raw) if traced else nullcontext():
            for start in range(0, len(jobs), per):
                self.probe()
                t0 = time.perf_counter()
                report = run_jobs(jobs[start : start + per], cache=False)
                latencies.append((time.perf_counter() - t0) * 1e3)
                outcomes.extend(report.outcomes)
        wall = sum(latencies) / 1e3

        failed = sum(not o.ok for o in outcomes)
        if not failed:
            comp = accuracy.comparison_from(order, [o.result for o in outcomes])
            self.gaps.add(accuracy.paper_gap_pts(comp))
            if not accuracy.matches_goldens(accuracy.golden_view(comp), self.goldens):
                failed = len(jobs)
        if traced:
            raw.update(ops=len(jobs), wall=wall)
        parts = list(zip((ds for ds, _ in order[::per]), latencies))
        return PassResult(wall, len(jobs), failed, [], raw or None, parts)

    def accuracy(self) -> tuple:
        return (
            min(self.gaps, default=0.0),
            accuracy.ledger_drain_err(),
            {"paper_gap_pts": len(self.gaps) == 1},
        )

    def layer_metrics(self, raw: dict) -> dict:
        out = layers.common_layers(raw)
        spans = raw["spans"]
        attributed = (
            spans.get("graphs.generate", 0.0)
            + spans.get("simulate_layer", 0.0)
            + spans.get("baselines.simulate", 0.0)
            + out["runtime.overhead_ms"] * raw["ops"] / 1e3
        )
        out["unattributed_frac"] = 1.0 - attributed / raw["wall"]
        return out
