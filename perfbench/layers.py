"""Layer attribution for the traced run, measured from outside ``src/``.

Sources, per traced pass:

* benchmark-side spans around calls into a layer
  (:func:`benchmark_spans` wraps the public functions listed in
  :data:`BENCH_SPANS` for the duration of the pass);
* the program's ``PERF`` stage timers and counters;
* the program's ``TRACER`` spans (``run_jobs``, ``cache.probe``,
  ``simulate_layer`` ...);
* for the server, ``GET /metrics`` (the same ``PERF`` families) and
  ``GET /trace``.

A traced run reports every name in :data:`LAYER_METRICS`.  A layer the
workload never enters reports 0.  ``*_ms`` metrics are milliseconds per
work unit (job, evaluation, request or calibration point) unless the
README names them as medians.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager

#: Benchmark-side spans: (module, attribute, span name).  Each wraps a
#: function the program calls to enter a layer, so that layer's time
#: appears in the span tree without instrumentation inside ``src/``.
#: ``graphs.datasets`` imports ``power_law_graph`` by name, so wrapping
#: both ``load_dataset`` and ``power_law_graph`` never nests.
BENCH_SPANS = (
    ("repro.runtime.jobs", "load_dataset", "graphs.generate"),
    ("repro.runtime.jobs", "apply_chain", "graphs.delta_apply"),
    ("repro.graphs.generators", "power_law_graph", "graphs.generate"),
    ("repro.baselines.base", "BaselineAccelerator.simulate", "baselines.simulate"),
)

#: PERF stage name → per-layer metric (ms per work unit).
STAGE_METRICS = {
    "partition": "core.partition_ms",
    "tiling": "core.tiling_ms",
    "mapping": "mapping.map_ms",
    "traffic": "mapping.traffic_ms",
    "noc": "arch.noc.analytical_ms",
    "dram": "arch.dram_ms",
    "compute_count": "models.count_ms",
    "runtime.job": "runtime.execute_ms",
    "cycle.noc": "cycle.noc_ms",
    "cycle.inject": "cycle.inject_ms",
    "cycle.routes": "cycle.routes_ms",
    "cycle.pe": "cycle.pe_ms",
    "cycle.map": "cycle.map_ms",
}

#: Span name → per-layer metric (ms per work unit).
SPAN_METRICS = {
    "graphs.generate": "graphs.generate_ms",
    "graphs.delta_apply": "graphs.delta_apply_ms",
    "simulate_layer": "core.simulate_layer_ms",
    "baselines.simulate": "baselines.simulate_ms",
    "cache.probe": "runtime.cache_probe_ms",
}

#: Memo layer → (hit counter, counters that together count every lookup).
HIT_RATIOS = {
    "mapping.memo_hit_ratio": (
        "mapping.tile_cache_hit",
        ("mapping.tile_cache_hit", "mapping.tile_cache_miss"),
    ),
    "partition.sample_hit_ratio": (
        "partition.sample_cache_hit",
        (
            "partition.sample_cache_hit",
            "partition.sample_incremental",
            "partition.sample_full",
        ),
    ),
    "partition.rows_hit_ratio": (
        "partition.rows_cache_hit",
        ("partition.rows_cache_hit", "partition.rows_cache_miss"),
    ),
    "tiling.plan_hit_ratio": (
        "tiling.plan_cache_hit",
        ("tiling.plan_cache_hit", "tiling.plan_cache_miss"),
    ),
    "noc.model_hit_ratio": (
        "noc.model_cache_hit",
        ("noc.model_cache_hit", "noc.model_cache_miss"),
    ),
    "config.plan_hit_ratio": (
        "config.plan_cache_hit",
        ("config.plan_cache_hit", "config.plan_cache_miss"),
    ),
    # tiles.cache_hit already counts the memo hits among its disk hits.
    "tiles.memo_hit_ratio": (
        "tiles.memo_hit",
        ("tiles.cache_hit", "tiles.cache_miss"),
    ),
    "runtime.cache_hit_ratio": (
        "runtime.cache_hit",
        ("runtime.cache_hit", "runtime.cache_miss"),
    ),
}

#: Every per-layer metric a traced run reports, in BENCHMARK.json order.
LAYER_METRICS = (
    "graphs.generate_ms",
    "graphs.delta_apply_ms",
    "core.simulate_layer_ms",
    "core.partition_ms",
    "core.tiling_ms",
    "mapping.map_ms",
    "mapping.traffic_ms",
    "arch.noc.analytical_ms",
    "arch.dram_ms",
    "models.count_ms",
    "mapping.memo_hit_ratio",
    "partition.sample_hit_ratio",
    "partition.rows_hit_ratio",
    "tiling.plan_hit_ratio",
    "noc.model_hit_ratio",
    "config.plan_hit_ratio",
    "tiles.memo_hit_ratio",
    "baselines.simulate_ms",
    "runtime.cache_hit_ratio",
    "runtime.cache_probe_ms",
    "runtime.execute_ms",
    "runtime.overhead_ms",
    "runtime.tiles_reused_ratio",
    "dse.served_frac",
    "dse.overhead_ms",
    "serve.http_ms",
    "serve.admission_ms",
    "serve.batch_wait_ms",
    "serve.transport_ms",
    "serve.batches_per_request",
    "serve.shed_frac",
    "serve.join_frac",
    "serve.cold_p50_ms",
    "serve.delta_p50_ms",
    "cycle.noc_ms",
    "cycle.inject_ms",
    "cycle.routes_ms",
    "cycle.pe_ms",
    "cycle.map_ms",
    "arch.noc.ns_per_flit",
    "arch.noc.flits",
    "arch.noc.packets",
    "arch.noc.sim_cycles",
    "arch.noc.stalls",
    "unattributed_frac",
    "telemetry.overhead_pct",
)


def _spanned(fn, name: str):
    from repro.telemetry import TRACER

    @functools.wraps(fn)
    def spanned(*args, **kwargs):
        with TRACER.span(name):
            return fn(*args, **kwargs)

    return spanned


def install_benchmark_spans() -> list:
    """Wrap every :data:`BENCH_SPANS` target; returns the undo list."""
    undo = []
    for module_name, attribute, span_name in BENCH_SPANS:
        owner = importlib.import_module(module_name)
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        undo.append((owner, leaf, original))
        setattr(owner, leaf, _spanned(original, span_name))
    return undo


@contextmanager
def benchmark_spans():
    undo = install_benchmark_spans()
    try:
        yield
    finally:
        for owner, leaf, original in reversed(undo):
            setattr(owner, leaf, original)


def span_totals(spans) -> dict:
    """Summed duration (s) per span name; spans as objects or dicts."""
    totals: dict = {}
    for span in spans:
        name = span["name"] if isinstance(span, dict) else span.name
        duration = span["duration"] if isinstance(span, dict) else span.duration
        totals[name] = totals.get(name, 0.0) + (duration or 0.0)
    return totals


#: Span buffer for in-process traced passes: one paper-grid pass records
#: a few thousand spans, far below this.
TRACE_BUFFER = 200_000


@contextmanager
def traced_pass(raw: dict):
    """Trace one in-process pass; fills ``raw`` with stages/counters/spans.

    ``PERF`` is reset on entry (it stays on in untraced passes too, as
    the program ships it), the tracer records every span, and the
    benchmark spans are installed only for the pass.
    """
    from repro.perf import PERF
    from repro.telemetry import TRACER

    TRACER.configure(buffer_size=TRACE_BUFFER)
    PERF.reset()
    with TRACER.session(enabled=True, sample_rate=1.0), benchmark_spans():
        yield raw
    snap = PERF.snapshot()
    raw["stages"] = {k: v["seconds"] for k, v in snap["stages"].items()}
    raw["counters"] = dict(snap["counters"])
    raw["spans"] = span_totals(TRACER.buffer.spans())
    TRACER.buffer.clear()


def merge(raws: list) -> dict:
    """Sum traced passes: nested dicts add key-wise, lists concatenate."""
    out: dict = {}
    for raw in raws:
        for key, value in raw.items():
            if isinstance(value, dict):
                slot = out.setdefault(key, {})
                for k, v in value.items():
                    slot[k] = slot.get(k, 0) + v
            elif isinstance(value, list):
                out.setdefault(key, []).extend(value)
            else:
                out[key] = out.get(key, 0) + value
    return out


def _ratio(counters: dict, hit: str, lookups) -> float:
    total = sum(counters.get(name, 0) for name in lookups)
    return counters.get(hit, 0) / total if total else 0.0


def common_layers(raw: dict) -> dict:
    """Every metric derivable from stages, counters and span totals.

    ``raw`` is a :func:`merge` of traced passes and must carry ``ops``
    (work units).  Workload modules override what they measure better
    (serve medians, DSE accounting, flit counts, the unattributed share).
    """
    ops = raw["ops"]
    stages = raw.get("stages", {})
    counters = raw.get("counters", {})
    spans = raw.get("spans", {})
    out = {name: 0.0 for name in LAYER_METRICS}
    for stage, metric in STAGE_METRICS.items():
        out[metric] = stages.get(stage, 0.0) / ops * 1e3
    for span, metric in SPAN_METRICS.items():
        out[metric] = spans.get(span, 0.0) / ops * 1e3
    for metric, (hit, lookups) in HIT_RATIOS.items():
        out[metric] = _ratio(counters, hit, lookups)
    # run_jobs wall minus the job executions it contains.
    if "run_jobs" in spans:
        out["runtime.overhead_ms"] = (
            spans["run_jobs"] - stages.get("runtime.job", 0.0)
        ) / ops * 1e3
    return out
