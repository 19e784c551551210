"""Run one benchmark workload and print its result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it carries the per-layer metrics of a
traced run, whose passes alternate untraced and traced so the tracing
overhead is measured against the same run.  The line before it is a
detail record: sample counts and quartiles, the measured timings before
scaling to the reference CPU, set-up samples, speed-probe scales, pass
counts and the load generator's process and connection counts.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import common  # noqa: E402

WORKLOADS = {
    "paper-grid": "perfbench.paper_grid",
    "design-search": "perfbench.design_search",
    "serve-mixed": "perfbench.serve_mixed",
    "cycle-calibrate": "perfbench.cycle_calibrate",
}


def measure(workload, seconds: float, trace: bool) -> tuple:
    """Set up, warm up, then run passes until ``seconds`` of timed work.

    Returns ``(setup samples, untraced passes, traced passes)``, setup
    samples as ``(seconds, scale)``.  Only the passes' own timed regions
    count toward ``seconds``; the untimed correctness checks and speed
    probes between passes do not.  A normalized workload's pass gets the
    scale of the median probe taken just before, inside and just after
    it; a set-up gets that of the probe just before it.
    """

    def probe() -> float:
        return common.speed_probe() if workload.normalized else common.REF_PROBE_MS

    setup = []
    for rep in range(1 if trace else common.SETUP_REPS):
        if rep:
            workload.discard()
        before = probe()
        t0 = time.perf_counter()
        workload.setup()
        setup.append((time.perf_counter() - t0, common.scale_for([before])))
    workload.pass_probes = []
    workload.warm_up(trace)
    plain, traced = [], []
    timed = 0.0
    index = 0
    before = probe()
    while (
        timed < seconds
        or len(plain) < common.MIN_PASSES
        or (trace and len(traced) < common.MIN_PASSES)
    ):
        is_traced = trace and index % 2 == 1
        workload.pass_probes = []
        result = workload.run_pass(index, traced=is_traced)
        after = probe()
        result.scale = common.scale_for([before, *workload.pass_probes, after])
        (traced if is_traced else plain).append(result)
        timed += result.seconds
        before = after
        index += 1
    return setup, plain, traced


def timings(passes) -> dict:
    """Throughput and headline-op latency of a run's passes."""
    latencies = common.headline_latencies(passes)
    return {
        "ops_per_s": common.composed_rate(passes),
        "p50_ms": statistics.median(latencies),
        "p90_ms": common.percentile(latencies, 90),
    }


def e2e_metrics(passes, setup, peak_rss, accuracy) -> dict:
    """The end-to-end metrics of one untraced run (medians, no means).

    Times are at the reference CPU: every pass and set-up is scaled by
    its speed probes first (a no-op for a workload not normalized).
    """
    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    return {
        **timings([p.at_reference() for p in passes]),
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": peak_rss,
        "setup_s": statistics.median(s * scale for s, scale in setup),
        "paper_gap_pts": accuracy[0],
        "drain_err_pct": accuracy[1],
    }


def overhead_pct(plain, traced) -> float:
    """Traced vs untraced throughput of the same run, in percent."""
    untraced_rate = common.composed_rate(p.at_reference() for p in plain)
    traced_rate = common.composed_rate(p.at_reference() for p in traced)
    return (untraced_rate / traced_rate - 1.0) * 100.0


def run(name: str, seed: int, seconds: float, trace: bool) -> int:
    module = importlib.import_module(WORKLOADS[name])
    workload = module.Workload(seed)
    try:
        setup, plain, traced = measure(workload, seconds, trace)
        peak = workload.peak_rss()
        accuracy = workload.accuracy()
        extra = workload.detail()
    finally:
        workload.close()
    passes = plain + traced
    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    correct = failed == 0 and all(accuracy[2].values())
    detail = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "op": workload.op,
        "load": {
            "processes": common.CLIENT_PROCESSES,
            "connections": common.CLIENT_CONNECTIONS,
            "loop": "closed",
        },
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "normalized": workload.normalized,
        "setup_s": [s for s, _ in setup],
        "setup_scale": [scale for _, scale in setup],
        "pass_scale": common.spread(p.scale for p in plain),
        "pass_ops_per_s": common.spread(p.rate for p in plain),
        "latency_ms": common.spread(
            ms for p in plain for ms in p.latencies_ms or [ms for _, ms in p.parts]
        ),
        "measured": timings(plain),
        "deterministic": {
            "paper_gap_pts": accuracy[0],
            "drain_err_pct": accuracy[1],
            "repeated_exactly": accuracy[2],
            "from_ledger": sorted(
                {"paper_gap_pts", "drain_err_pct"} - set(accuracy[2])
            ),
        },
    }
    detail.update(extra)
    if trace:
        from perfbench import layers

        raw = layers.merge([p.layers for p in traced])
        metrics = workload.layer_metrics(raw)
        metrics["telemetry.overhead_pct"] = overhead_pct(plain, traced)
        detail["traced_op_ms"] = raw["wall"] / raw["ops"] * 1e3
        section = "per_layer"
    else:
        metrics = e2e_metrics(plain, setup, peak, accuracy)
        section = "end_to_end"
    print(json.dumps({"perfbench": detail}))
    print(
        common.result_line(
            correct=correct,
            attempted=attempted,
            failed=failed,
            metrics=metrics,
            section=section,
        )
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: no program here (src/repro is missing)", file=sys.stderr)
        return 2
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
