"""Accuracy of the simulator against its two references.

* ``paper_gap_pts`` — mean |simulated − paper| of Aurora's average
  reduction per baseline, over Figs 8 (on-chip latency), 9 (execution
  time) and 10 (energy) × five baselines, in percentage points.  The
  paper's numbers sit in ``paper_reference.json``.
* ``drain_err_pct`` — median |analytical / flit-level NoC drain − 1| ×
  100 over the E14-style matched-tile corpus :data:`CORPUS_SHAPES`.

Both are deterministic functions of the code under test, so every
workload reports both.  paper-grid and cycle-calibrate compute the one
they own from their timed passes; everything else comes from an untimed
ledger run after measurement through the program's own result cache in
``.perfbench/cache``.  The cache key carries the source fingerprint, so
the ledger recomputes once per code change and is a cache read after.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from .common import STATE_DIR

PAPER = json.loads(
    Path(__file__).with_name("paper_reference.json").read_text()
)["average_reduction_percent"]
BASELINES = tuple(PAPER["execution_time"])

#: The metrics ``repro.eval.golden`` pins, in its order.
GOLDEN_METRICS = ("execution_time", "dram_accesses", "onchip_latency", "energy")

#: E14-style matched tiles: (array_k, vertices, edges, seed).  With 64
#: input features each tile carries enough flits that the flit-level
#: engine, not synthetic graph generation, does most of the work.
CORPUS_SHAPES = tuple(
    (k, v, e, s)
    for k in (8, 16)
    for v, e in ((160, 900), (320, 1800), (480, 2800))
    for s in (1, 2)
)
IN_FEATURES = 64
#: E14's acceptance band for analytical / flit-level drain.
RATIO_BAND = (1.0 / 3.0, 3.0)


def corpus() -> list:
    from repro.eval.calibration import CalibrationJob

    return [
        CalibrationJob(
            num_vertices=v, num_edges=e, seed=s, array_k=k, in_features=IN_FEATURES
        )
        for k, v, e, s in CORPUS_SHAPES
    ]


def comparison_from(pairs, results):
    """A ``ComparisonResults`` from ``(dataset, accelerator)`` → result."""
    from repro.eval.harness import ACCELERATOR_ORDER, ComparisonResults
    from repro.graphs.datasets import list_datasets

    # run_comparison's dataset order, so averages sum in the same order.
    present = {ds for ds, _ in pairs}
    datasets = tuple(ds for ds in list_datasets() if ds in present)
    comp = ComparisonResults("gcn", datasets, ACCELERATOR_ORDER)
    comp.results.update(zip(pairs, results))
    return comp


def golden_view(comp) -> dict:
    """The dictionary ``repro.eval.golden.compute_golden_metrics`` pins."""
    return {
        "average_reduction_percent": {
            metric: {
                base: round(comp.average_reduction_vs(metric, base), 2)
                for base in BASELINES
            }
            for metric in GOLDEN_METRICS
        },
        "normalized_execution_time": {
            ds: {acc: round(v, 3) for acc, v in row.items()}
            for ds, row in comp.normalized_grid("execution_time").items()
        },
    }


def matches_goldens(view: dict, goldens: dict) -> bool:
    """``tests/test_golden.py``'s tolerances: 1 point, 2% relative."""
    for metric, row in goldens["average_reduction_percent"].items():
        for base, expected in row.items():
            if abs(view["average_reduction_percent"][metric][base] - expected) > 1.0:
                return False
    for ds, row in goldens["normalized_execution_time"].items():
        for acc, expected in row.items():
            if abs(view["normalized_execution_time"][ds][acc] - expected) > 0.02 * abs(expected):
                return False
    return True


def paper_gap_pts(comp) -> float:
    gaps = [
        abs(comp.average_reduction_vs(metric, base) - paper)
        for metric, row in PAPER.items()
        for base, paper in row.items()
    ]
    return sum(gaps) / len(gaps)


def drain_err_pct(payloads) -> float:
    return statistics.median(abs(p["ratio"] - 1.0) * 100.0 for p in payloads)


def _ledger_cache():
    from repro.runtime.cache import ResultCache

    return ResultCache(STATE_DIR / "cache")


def ledger_paper_gap() -> float:
    from repro.eval.harness import run_comparison

    return paper_gap_pts(run_comparison(cache=_ledger_cache()))


def ledger_drain_err() -> float:
    from repro.eval.calibration import run_calibration_sweep

    report = run_calibration_sweep(corpus(), cache=_ledger_cache())
    report.raise_on_error()
    return drain_err_pct(report.results())
