"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``
    List the dataset registry with published statistics.
``models``
    Print the model zoo (the paper's Table II).
``simulate``
    Simulate a model × dataset on Aurora (or a named baseline).
``compare``
    Run the accelerator comparison and print one normalized figure.
``sweep``
    The comparison grid through the parallel/cached job runner, with a
    sweep summary (jobs executed, cache hits/misses, wall time).
``experiment``
    Regenerate a registered paper experiment (E1–E12, or ``all``).
``info``
    Show the hardware configuration and derived parameters.
``mutate``
    Generate a degree-preserving edge-mutation batch over a dataset
    snapshot — the ``{base, mutations}`` payload ``/simulate`` accepts
    for incremental re-simulation.
``dse``
    Design-space exploration over the content-addressed job cache.
``serve``
    Run the long-lived simulation service (asyncio HTTP, single-flight
    dedup, micro-batching, admission control; drains on SIGTERM).
``cluster``
    Run the sharded fleet: N replica subprocesses behind a
    consistent-hash router with supervision, tiered caching, and
    per-replica drain/restart endpoints.
``request``
    Fire one simulation request at a running service through the
    retrying client (``--trace`` prints the request's span tree).
``trace``
    Export a running server's span buffer as a Chrome ``trace.json``
    (``trace export``) or print a per-stage summary (``trace summary``);
    both also read span JSONL files offline via ``--input``.
``cache``
    Inspect / manage the on-disk result cache (stats, clear, prune).
``observe``
    Record, tail, or replay a running server's live event stream.

Measurement lives outside the package: ``perfbench/`` (declared by
``BENCHMARK.json``) is the benchmark, and ``benchmarks/`` holds the
speedup and overhead gates CI runs.

``compare``/``sweep``/``experiment`` accept ``--jobs N`` (process-pool
fan-out) and ``--cache/--no-cache`` (content-addressed result cache in
``$REPRO_CACHE_DIR`` or ``.repro_cache``); both only change execution,
never results.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .baselines import make_baseline
from .config import default_config
from .core.accelerator import layer_plan
from .core.simulator import AuroraSimulator
from .graphs.datasets import (
    ADVERSARIAL_DATASETS,
    DATASETS,
    dataset_profile,
    load_dataset,
)
from .models.zoo import get_model, list_models

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Aurora GNN accelerator — simulator and paper reproduction",
    )

    def positive_int(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
        return value

    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the dataset registry")
    sub.add_parser("models", help="print the model zoo (Table II)")
    sub.add_parser("info", help="show the hardware configuration")

    p_sim = sub.add_parser("simulate", help="simulate one model x dataset")
    p_sim.add_argument("--model", default="gcn", choices=list_models())
    p_sim.add_argument("--dataset", default="cora", choices=list(DATASETS))
    p_sim.add_argument("--scale", type=float, default=1.0)
    p_sim.add_argument("--hidden", type=int, default=64)
    p_sim.add_argument("--layers", type=int, default=2)
    p_sim.add_argument(
        "--device",
        default="aurora",
        choices=("aurora", "hygcn", "awb-gcn", "gcnax", "regnn", "flowgnn"),
    )
    p_sim.add_argument(
        "--mapping", default="degree-aware", choices=("degree-aware", "hashing")
    )

    def add_runtime_flags(p: argparse.ArgumentParser, *, cache_default: bool) -> None:
        p.add_argument(
            "--jobs",
            type=positive_int,
            default=1,
            metavar="N",
            help="parallel worker processes (1 = serial)",
        )
        p.add_argument(
            "--cache",
            action=argparse.BooleanOptionalAction,
            default=cache_default,
            help="reuse simulation results from the on-disk cache",
        )

    def add_observe_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--observe",
            action="store_true",
            help="stream live telemetry events over ws://HOST:PORT/observe "
            "and serve the browser dashboard at GET /observer",
        )
        p.add_argument(
            "--observe-record",
            default=None,
            metavar="PATH",
            help="also record the event stream as schema-versioned JSONL "
            "(rotated; replay with `repro observe replay`)",
        )
        p.add_argument(
            "--observe-queue",
            type=positive_int,
            default=512,
            metavar="N",
            help="per-client outbound event queue depth (default: 512)",
        )
        p.add_argument(
            "--observe-max-drops",
            type=positive_int,
            default=64,
            metavar="N",
            help="dropped events before a slow client is evicted "
            "with close code 1013 (default: 64)",
        )

    p_cmp = sub.add_parser("compare", help="accelerator comparison figure")
    p_cmp.add_argument("--model", default="gcn", choices=list_models())
    p_cmp.add_argument(
        "--metric",
        default="execution_time",
        choices=("execution_time", "dram_accesses", "onchip_latency", "energy"),
    )
    p_cmp.add_argument(
        "--datasets", nargs="+", default=None, choices=list(DATASETS)
    )
    add_runtime_flags(p_cmp, cache_default=False)

    p_swp = sub.add_parser(
        "sweep", help="comparison grid via the parallel/cached job runner"
    )
    p_swp.add_argument("--model", default="gcn", choices=list_models())
    p_swp.add_argument(
        "--metric",
        default="execution_time",
        choices=("execution_time", "dram_accesses", "onchip_latency", "energy"),
    )
    p_swp.add_argument(
        "--datasets", nargs="+", default=None, choices=list(DATASETS)
    )
    add_runtime_flags(p_swp, cache_default=True)

    p_exp = sub.add_parser("experiment", help="regenerate a paper experiment")
    p_exp.add_argument("experiment_id", help="E1..E12, or 'all'")
    add_runtime_flags(p_exp, cache_default=False)

    p_mut = sub.add_parser(
        "mutate",
        help="generate an edge-mutation batch for incremental re-simulation",
    )
    p_mut.add_argument("--dataset", default="cora", choices=list(DATASETS))
    p_mut.add_argument("--scale", type=float, default=1.0)
    p_mut.add_argument(
        "--seed", type=int, default=7, help="dataset synthesis seed"
    )
    p_mut.add_argument(
        "--rewire-seed",
        type=int,
        default=0,
        metavar="S",
        help="RNG seed for the degree-preserving rewire",
    )
    p_mut.add_argument(
        "--dirty-fraction",
        type=float,
        default=0.1,
        metavar="F",
        help="fraction of tiles to dirty (0..1, default 0.1)",
    )
    p_mut.add_argument(
        "--rows-per-tile",
        type=int,
        default=8,
        metavar="N",
        help="rows to rewire inside each dirty tile (default 8)",
    )
    p_mut.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the {base, mutations} request payload to PATH",
    )
    p_mut.add_argument(
        "--json",
        action="store_true",
        help="print the request payload as JSON instead of a summary",
    )

    p_dse = sub.add_parser(
        "dse",
        help="design-space exploration over the content-addressed job cache",
    )
    p_dse.add_argument(
        "--space",
        default="aurora-core",
        choices=("aurora-core", "aurora-noc", "aurora-mini"),
        help="named design space to search",
    )
    p_dse.add_argument(
        "--optimizer",
        default="random",
        choices=("random", "hillclimb", "genetic", "sha"),
        help="search strategy (sha = successive halving over fidelity rungs)",
    )
    p_dse.add_argument(
        "--objective",
        default="latency",
        choices=("latency", "energy", "edp", "dram", "comm"),
        help="fitness objective (minimised)",
    )
    p_dse.add_argument(
        "--grid",
        default=None,
        choices=("paper-sweep", "adversarial"),
        help="evaluate a named fixed grid through the DSE path instead "
        "of searching (paper-sweep = the E1-E12 comparison grid)",
    )
    p_dse.add_argument(
        "--budget",
        type=positive_int,
        default=200,
        metavar="N",
        help="evaluation budget (default 200)",
    )
    p_dse.add_argument(
        "--batch", type=positive_int, default=8, metavar="N",
        help="candidates per optimizer ask/tell round (default 8)",
    )
    p_dse.add_argument(
        "--seed", type=int, default=0, help="search seed (optimizer RNG)"
    )
    p_dse.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        metavar="S",
        help="wall-clock budget; in-flight batches are cancelled at expiry",
    )
    p_dse.add_argument(
        "--dataset",
        default="cora",
        choices=(*DATASETS, *ADVERSARIAL_DATASETS),
        help="base workload dataset (adv-* = adversarial synthetic)",
    )
    p_dse.add_argument(
        "--datasets",
        nargs="+",
        default=None,
        choices=(*DATASETS, *ADVERSARIAL_DATASETS),
        help="grid mode: restrict the named grid to these datasets",
    )
    p_dse.add_argument("--model", default="gcn", choices=list_models())
    p_dse.add_argument(
        "--scale", type=float, default=None,
        help="base workload dataset scale (default 1.0)",
    )
    p_dse.add_argument("--hidden", type=positive_int, default=64)
    p_dse.add_argument("--layers", type=positive_int, default=2)
    p_dse.add_argument(
        "--workload-seed", type=int, default=7,
        help="dataset synthesis seed of the base workload",
    )
    p_dse.add_argument(
        "--option",
        action="append",
        default=[],
        metavar="K=V",
        help="optimizer option (repeatable), e.g. cohort=27 eta=3",
    )
    p_dse.add_argument(
        "--trajectory",
        default="dse_trajectory.jsonl",
        metavar="PATH",
        help="fitness-trajectory JSONL destination",
    )
    p_dse.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="search-state checkpoint (enables --resume)",
    )
    p_dse.add_argument(
        "--resume",
        action="store_true",
        help="replay the checkpoint and continue the same trajectory",
    )
    p_dse.add_argument(
        "--show-trajectory",
        action="store_true",
        help="print the running-best trajectory table",
    )
    p_dse.add_argument(
        "--json",
        action="store_true",
        help="print the result summary as JSON",
    )
    add_runtime_flags(p_dse, cache_default=True)

    p_srv = sub.add_parser(
        "serve", help="run the long-lived simulation service"
    )
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument(
        "--port", type=int, default=8765, help="0 picks an ephemeral port"
    )
    p_srv.add_argument(
        "--queue-depth",
        type=positive_int,
        default=64,
        metavar="N",
        help="max in-flight requests before shedding with 429",
    )
    p_srv.add_argument(
        "--batch-window",
        type=float,
        default=0.005,
        metavar="SECONDS",
        help="micro-batch accumulation window",
    )
    p_srv.add_argument(
        "--max-batch",
        type=positive_int,
        default=16,
        metavar="N",
        help="flush a batch early once it holds N unique jobs",
    )
    p_srv.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request budget (default: none)",
    )
    p_srv.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="SIGTERM grace period for in-flight work",
    )
    p_srv.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="serve repeated jobs from the on-disk result cache",
    )
    p_srv.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="cache root (default: $REPRO_CACHE_DIR or .repro_cache)",
    )
    p_srv.add_argument(
        "--trace",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="record request traces (GET /trace, X-Repro-Trace-Id)",
    )
    p_srv.add_argument(
        "--trace-sample",
        type=float,
        default=1.0,
        metavar="RATE",
        help="fraction of traces to record, 0..1 (default: 1.0)",
    )
    p_srv.add_argument(
        "--trace-buffer",
        type=positive_int,
        default=4096,
        metavar="N",
        help="span ring-buffer capacity (default: 4096)",
    )
    p_srv.add_argument(
        "--replica-id",
        default=None,
        metavar="ID",
        help="identify this process as a cluster replica (adds the id "
        "to /healthz, /stats, and a repro_replica_info metric)",
    )
    add_observe_flags(p_srv)

    p_cluster = sub.add_parser(
        "cluster", help="run the sharded replica fleet behind the router"
    )
    p_cluster.add_argument("--host", default="127.0.0.1")
    p_cluster.add_argument(
        "--port", type=int, default=8765, help="0 picks an ephemeral port"
    )
    p_cluster.add_argument(
        "--replicas",
        type=positive_int,
        default=2,
        metavar="N",
        help="replica subprocesses to spawn and supervise",
    )
    p_cluster.add_argument(
        "--vnodes",
        type=positive_int,
        default=64,
        metavar="N",
        help="virtual nodes per replica on the hash ring",
    )
    p_cluster.add_argument(
        "--max-inflight",
        type=positive_int,
        default=16,
        metavar="N",
        help="per-replica proxied requests in flight before shedding 429",
    )
    p_cluster.add_argument(
        "--queue-depth",
        type=positive_int,
        default=64,
        metavar="N",
        help="per-replica admission queue depth",
    )
    p_cluster.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="base directory for per-replica cache shards "
        "(default: $REPRO_CACHE_DIR or .repro_cache, shard-<i> inside)",
    )
    p_cluster.add_argument(
        "--probe-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="health-probe period per replica",
    )
    p_cluster.add_argument(
        "--fail-threshold",
        type=positive_int,
        default=3,
        metavar="N",
        help="consecutive silent probes before a replica is restarted",
    )
    p_cluster.add_argument(
        "--proxy-timeout",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="per-proxy budget for one replica to answer /simulate",
    )
    p_cluster.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="SIGTERM grace period for in-flight work, router and replicas",
    )
    add_observe_flags(p_cluster)

    p_req = sub.add_parser(
        "request", help="fire one request at a running service"
    )
    p_req.add_argument("--host", default="127.0.0.1")
    p_req.add_argument("--port", type=int, default=8765)
    p_req.add_argument("--model", default="gcn", choices=list_models())
    p_req.add_argument("--dataset", default="cora", choices=list(DATASETS))
    p_req.add_argument("--scale", type=float, default=1.0)
    p_req.add_argument("--hidden", type=int, default=64)
    p_req.add_argument("--layers", type=int, default=2)
    p_req.add_argument("--seed", type=int, default=7)
    p_req.add_argument(
        "--device",
        default="aurora",
        choices=("aurora", "hygcn", "awb-gcn", "gcnax", "regnn", "flowgnn"),
    )
    p_req.add_argument(
        "--mapping", default="degree-aware", choices=("degree-aware", "hashing")
    )
    p_req.add_argument(
        "--retries", type=int, default=4, help="retry budget for 429/503"
    )
    p_req.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="total budget across retries, propagated to the server",
    )
    p_req.add_argument(
        "--json", action="store_true", help="print the raw response payload"
    )
    p_req.add_argument(
        "--trace",
        action="store_true",
        help="print the server-side trace id and per-stage timing summary",
    )

    p_trace = sub.add_parser(
        "trace", help="export or summarize recorded spans"
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)

    def add_trace_source(p: argparse.ArgumentParser) -> None:
        p.add_argument("--host", default="127.0.0.1")
        p.add_argument("--port", type=int, default=8765)
        p.add_argument(
            "--input",
            default=None,
            metavar="PATH",
            help="read spans from a JSONL file instead of a server",
        )
        p.add_argument(
            "--trace-id",
            default=None,
            metavar="ID",
            help="restrict to one trace",
        )

    t_exp = trace_sub.add_parser(
        "export", help="write spans as Chrome/Perfetto trace.json"
    )
    add_trace_source(t_exp)
    t_exp.add_argument(
        "--output",
        default="trace.json",
        metavar="PATH",
        help="destination (default: trace.json)",
    )
    t_exp.add_argument(
        "--jsonl",
        default=None,
        metavar="PATH",
        help="also write the raw spans as JSONL",
    )
    t_sum = trace_sub.add_parser(
        "summary", help="print a per-stage timing summary"
    )
    add_trace_source(t_sum)

    p_cache = sub.add_parser(
        "cache", help="inspect / manage the on-disk result cache"
    )
    p_cache.add_argument(
        "--dir",
        default=None,
        metavar="PATH",
        help="cache root (default: $REPRO_CACHE_DIR or .repro_cache)",
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    cache_sub.add_parser(
        "stats",
        help="entry count, bytes, fingerprint (plus the per-tile "
        "sub-cache under <root>/tiles when present)",
    )
    cache_sub.add_parser("clear", help="delete every cached result")
    c_prune = cache_sub.add_parser(
        "prune", help="delete results by age and/or total size"
    )
    c_prune.add_argument(
        "--max-age",
        default=None,
        metavar="AGE",
        help="age limit, e.g. 900 (seconds), 30m, 36h, 7d",
    )
    c_prune.add_argument(
        "--max-bytes",
        default=None,
        metavar="SIZE",
        help="on-disk budget, e.g. 50000000, 64k, 100m, 2g; oldest "
        "results are evicted first until the cache fits",
    )

    p_obs = sub.add_parser(
        "observe", help="record, tail, or replay the live event stream"
    )
    obs_sub = p_obs.add_subparsers(dest="observe_command", required=True)

    def add_observe_source(p: argparse.ArgumentParser) -> None:
        p.add_argument("--host", default="127.0.0.1")
        p.add_argument(
            "--port",
            type=int,
            default=8765,
            help="server started with --observe",
        )

    o_rec = obs_sub.add_parser(
        "record", help="attach to ws://HOST:PORT/observe and write JSONL"
    )
    add_observe_source(o_rec)
    o_rec.add_argument(
        "--output",
        default="observe.jsonl",
        metavar="PATH",
        help="recording destination (default: observe.jsonl)",
    )
    o_rec.add_argument(
        "--max-events",
        type=positive_int,
        default=None,
        metavar="N",
        help="stop after N events (default: until the stream closes)",
    )
    o_rec.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop after this long (default: until the stream closes)",
    )

    o_tail = obs_sub.add_parser(
        "tail", help="attach to ws://HOST:PORT/observe and print JSONL"
    )
    add_observe_source(o_tail)
    o_tail.add_argument(
        "--max-events",
        type=positive_int,
        default=None,
        metavar="N",
        help="stop after N events (default: until the stream closes)",
    )
    o_tail.add_argument(
        "--types",
        nargs="+",
        default=None,
        metavar="TYPE",
        help="only print these event types (e.g. request.completed span)",
    )

    o_rep = obs_sub.add_parser(
        "replay", help="re-drive a recorded session at recorded speed"
    )
    o_rep.add_argument("input", metavar="PATH", help="JSONL recording")
    o_rep.add_argument(
        "--speed",
        type=float,
        default=1.0,
        metavar="X",
        help="time acceleration; 0 replays flat-out (default: 1.0)",
    )
    o_rep.add_argument(
        "--port",
        type=int,
        default=None,
        help="serve the replay over ws://127.0.0.1:PORT/observe with the "
        "dashboard at /observer instead of printing to stdout",
    )
    o_rep.add_argument("--host", default="127.0.0.1")
    o_rep.add_argument(
        "--loop",
        action="store_true",
        help="with --port: restart the session when it ends",
    )

    return parser


def parse_age(text: str) -> float:
    """``900`` / ``30m`` / ``36h`` / ``7d`` → seconds."""
    units = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}
    scale = 1.0
    if text and text[-1].lower() in units:
        scale = units[text[-1].lower()]
        text = text[:-1]
    try:
        value = float(text)
    except ValueError:
        raise ValueError(
            f"invalid age {text!r} (expected e.g. 900, 30m, 36h, 7d)"
        ) from None
    if value < 0:
        raise ValueError("age must be >= 0")
    return value * scale


def parse_size(text: str) -> int:
    """``50000000`` / ``64k`` / ``100m`` / ``2g`` → bytes."""
    units = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}
    scale = 1
    if text and text[-1].lower() in units:
        scale = units[text[-1].lower()]
        text = text[:-1]
    try:
        value = float(text)
    except ValueError:
        raise ValueError(
            f"invalid size {text!r} (expected e.g. 50000000, 64k, 100m, 2g)"
        ) from None
    if value < 0:
        raise ValueError("size must be >= 0")
    return int(value * scale)


def _cmd_datasets() -> int:
    from .eval.report import format_table

    rows = []
    for name in DATASETS:
        p = dataset_profile(name)
        rows.append(
            [
                p.name,
                f"{p.num_vertices:,}",
                f"{p.num_edges:,}",
                str(p.num_features),
                str(p.num_classes),
                f"{p.feature_density:.4f}",
            ]
        )
    print(
        format_table(
            ["dataset", "|V|", "|E|", "features", "classes", "density"],
            rows,
            title="Dataset registry (published statistics)",
        )
    )
    return 0


def _cmd_models() -> int:
    from .eval.report import render_table2_operations

    print(render_table2_operations())
    return 0


def _cmd_info() -> int:
    cfg = default_config()
    print("Aurora hardware configuration (paper §VI-A)")
    print(f"  PE array           : {cfg.array_k}x{cfg.array_k} ({cfg.num_pes} PEs)")
    print(f"  frequency          : {cfg.frequency_hz / 1e6:.0f} MHz")
    print(f"  MACs per PE        : {cfg.macs_per_pe}")
    print(f"  PE buffer          : {cfg.pe_buffer_bytes // 1024} KiB "
          f"(total {cfg.onchip_bytes / (1 << 20):.0f} MiB)")
    print(f"  peak throughput    : {cfg.peak_flops / 1e12:.1f} Tops/s")
    print(f"  DRAM bandwidth     : "
          f"{cfg.dram.bandwidth_bytes_per_sec / 1e9:.0f} GB/s")
    print(f"  reconfiguration    : {cfg.reconfiguration_cycles} cycles (2K-1)")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    graph = load_dataset(args.dataset, scale=args.scale)
    model = get_model(args.model)
    profile = dataset_profile(args.dataset)
    dims = layer_plan(graph, args.hidden, args.layers, profile.num_classes)
    if args.device == "aurora":
        sim = AuroraSimulator(mapping_policy=args.mapping)
        result = sim.simulate(model, graph, dims)
    else:
        device = make_baseline(args.device)
        if not device.supports(model):
            print(
                f"warning: {args.device} does not support "
                f"{model.category.value} models; running with the "
                "scalarisation fallback penalty",
                file=sys.stderr,
            )
        result = device.simulate(model, graph, dims, strict=False)
    print(f"device          : {result.accelerator}")
    print(f"model / dataset : {args.model} / {graph.name}")
    print(f"execution time  : {result.total_seconds * 1e6:,.1f} us "
          f"({result.total_cycles:,.0f} cycles)")
    print(f"DRAM traffic    : {result.dram_bytes / 1e6:,.2f} MB")
    print(f"on-chip comm    : {result.onchip_comm_cycles:,} cycles")
    print(f"energy          : {result.energy.total * 1e3:,.3f} mJ")
    for key, value in sorted(result.energy.as_dict().items()):
        if key != "total":
            print(f"  - {key:<16}: {value * 1e3:,.3f} mJ")
    return 0


def _cmd_compare(args: argparse.Namespace, *, show_summary: bool = False) -> int:
    from .eval.harness import run_comparison
    from .eval.report import render_normalized_figure

    comp = run_comparison(
        model=args.model,
        datasets=tuple(args.datasets) if args.datasets else None,
        jobs=args.jobs,
        cache=args.cache or None,
    )
    print(
        render_normalized_figure(
            comp,
            args.metric,
            title=f"{args.metric} normalized to Aurora ({args.model})",
        )
    )
    if show_summary and comp.metrics is not None:
        print(comp.metrics.summary())
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .eval.experiments import EXPERIMENTS, run_experiment, set_sweep_options

    set_sweep_options(jobs=args.jobs, cache=args.cache or None)

    ids = list(EXPERIMENTS) if args.experiment_id.lower() == "all" else [
        args.experiment_id
    ]
    for eid in ids:
        try:
            result = run_experiment(eid)
        except KeyError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"\n{result.experiment_id} — {result.title}")
        print(result.text)
    return 0


def _cmd_mutate(args: argparse.Namespace) -> int:
    import json as json_mod

    from .core.simulator import _BUFFER_UTIL
    from .graphs.delta import dirty_tiles, rewire_delta, tile_boundaries
    from .graphs.tiling import tile_graph

    if not 0.0 < args.dirty_fraction <= 1.0:
        print("error: --dirty-fraction must be in (0, 1]", file=sys.stderr)
        return 2
    graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    cfg = default_config()
    plan = tile_graph(
        graph,
        int(cfg.onchip_bytes * _BUFFER_UTIL),
        bytes_per_value=cfg.bytes_per_value,
    )
    boundaries = tile_boundaries(plan)
    num_tiles = len(plan.tiles)
    target = max(1, round(args.dirty_fraction * num_tiles))
    import numpy as np

    rng = np.random.default_rng(args.rewire_seed)
    chosen = sorted(
        rng.choice(num_tiles, size=min(target, num_tiles), replace=False).tolist()
    )
    rows: list[int] = []
    for t in chosen:
        start, end = int(boundaries[t]), int(boundaries[t + 1])
        span = np.arange(start, end)
        take = min(args.rows_per_tile, span.size)
        rows.extend(rng.choice(span, size=take, replace=False).tolist())
    delta = rewire_delta(graph, rows, seed=args.rewire_seed)
    payload = {
        "base": {
            "dataset": args.dataset,
            "scale": args.scale,
            "seed": args.seed,
        },
        "mutations": [delta.as_dict()],
    }
    if args.output:
        with open(args.output, "w") as handle:
            json_mod.dump(payload, handle, indent=2, sort_keys=True)
    if args.json:
        print(json_mod.dumps(payload, indent=2, sort_keys=True))
        return 0
    dirty = dirty_tiles(boundaries, delta)
    print(f"dataset       : {graph.name} ({graph.num_vertices:,} vertices)")
    print(f"tiles         : {num_tiles} ({len(dirty)} dirty, "
          f"{len(dirty) / num_tiles:.0%})")
    print(f"edits         : {delta.num_edits} "
          f"({len(delta.inserts)} insert / {len(delta.deletes)} delete)")
    print(f"delta key     : {delta.delta_key}")
    if args.output:
        print(f"wrote         : {args.output} (POST it to /simulate)")
    return 0


def _parse_dse_option(item: str) -> tuple[str, object]:
    """``k=v`` optimizer option with numeric/bool coercion."""
    key, sep, raw = item.partition("=")
    if not sep or not key:
        raise SystemExit(f"repro dse: malformed --option {item!r} (want K=V)")
    for convert in (int, float):
        try:
            return key, convert(raw)
        except ValueError:
            pass
    if raw in ("true", "false"):
        return key, raw == "true"
    return key, raw


def _cmd_dse(args: argparse.Namespace) -> int:
    import json as _json

    from .dse import (
        DSERunner,
        SearchSpec,
        build_grid,
        evaluate_grid,
        read_trajectory,
        render_best,
        render_trajectory,
        summarize_trajectory,
    )
    from .runtime.executor import get_executor

    executor = get_executor(args.jobs) if args.jobs > 1 else None
    cache = True if args.cache else None

    if args.grid is not None:
        grid_options: dict = {
            "model": args.model,
            "hidden": args.hidden,
            "num_layers": args.layers,
            "seed": args.workload_seed,
        }
        if args.datasets:
            grid_options["datasets"] = args.datasets
        if args.scale is not None:
            grid_options["scale"] = args.scale
        jobs, labels = build_grid(args.grid, **grid_options)
        result = evaluate_grid(
            jobs,
            objective=args.objective,
            cache=cache,
            executor=executor,
            batch=args.batch,
            trajectory_path=args.trajectory,
            labels=labels,
        )
    else:
        spec = SearchSpec(
            space=args.space,
            optimizer=args.optimizer,
            objective=args.objective,
            seed=args.seed,
            max_evaluations=args.budget,
            max_seconds=args.max_seconds,
            batch=args.batch,
            options=dict(_parse_dse_option(item) for item in args.option),
            workload={
                "dataset": args.dataset,
                "model": args.model,
                "scale": args.scale if args.scale is not None else 1.0,
                "hidden": args.hidden,
                "num_layers": args.layers,
                "seed": args.workload_seed,
            },
        )
        runner = DSERunner(
            spec,
            cache=cache,
            executor=executor,
            trajectory_path=args.trajectory,
            checkpoint_path=args.checkpoint,
            resume=args.resume,
        )
        result = runner.run()

    if args.json:
        print(_json.dumps(result.as_dict(), indent=2, sort_keys=True))
    else:
        print(
            f"dse: {result.evaluations} evaluations "
            f"({result.executed} executed, {result.served} cache/dedup-served, "
            f"{result.served_fraction:.0%}) | stopped: {result.stopped} | "
            f"wall {result.wall_seconds:.2f}s"
        )
        _, records = read_trajectory(args.trajectory)
        summary = summarize_trajectory(records)
        print(render_best(summary, objective=args.objective))
        if args.show_trajectory:
            print(render_trajectory(records))
    if result.evaluations and result.errors == result.evaluations:
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .runtime.cache import ResultCache, shared_cache
    from .serve.server import SimulationService, serve_forever
    from .telemetry import TRACER

    TRACER.configure(
        enabled=args.trace,
        sample_rate=args.trace_sample,
        buffer_size=args.trace_buffer,
    )
    cache = None
    tile_cache = None
    if args.cache:
        cache = ResultCache(args.cache_dir) if args.cache_dir else ResultCache()
        # Per-tile sub-cache lives beside the job cache; the env var is
        # how the job runner finds it, and both hold the root's one
        # shared cache, so /stats counts what the jobs did.
        import os
        from pathlib import Path

        from .runtime.jobs import ENV_TILE_CACHE_DIR

        tiles_root = Path(cache.root) / "tiles"
        os.environ[ENV_TILE_CACHE_DIR] = str(tiles_root)
        tile_cache = shared_cache(tiles_root)
    observe = None
    if args.observe or args.observe_record:
        from .observe import ObserveState

        observe = ObserveState(
            record_path=args.observe_record,
            queue_size=args.observe_queue,
            max_drops=args.observe_max_drops,
            source="serve",
        )
    service = SimulationService(
        cache=cache,
        queue_depth=args.queue_depth,
        batch_window=args.batch_window,
        max_batch=args.max_batch,
        request_timeout=args.timeout,
        replica_id=args.replica_id,
        tile_cache=tile_cache,
        observe=observe,
    )
    return asyncio.run(
        serve_forever(
            service, args.host, args.port, drain_timeout=args.drain_timeout
        )
    )


def _cmd_cluster(args: argparse.Namespace) -> int:
    import asyncio
    import os
    from pathlib import Path

    from .cluster import (
        ClusterRouter,
        ReplicaConfig,
        ReplicaSupervisor,
        cluster_forever,
    )
    from .runtime.cache import DEFAULT_CACHE_DIR, ENV_CACHE_DIR, ResultCache

    base = Path(
        args.cache_dir
        or os.environ.get(ENV_CACHE_DIR)
        or DEFAULT_CACHE_DIR
    )
    serve_args = ("--queue-depth", str(args.queue_depth))
    observe = None
    if args.observe or args.observe_record:
        from .observe import EventHub, ObserveState

        # Replicas stream their own /observe feed; the router relays
        # those into one fleet-wide feed on a private hub (the global
        # hub would pick up this process's own tracer, double-counting
        # spans that already arrive over the relay).
        serve_args = serve_args + ("--observe",)
        observe = ObserveState(
            record_path=args.observe_record,
            queue_size=args.observe_queue,
            max_drops=args.observe_max_drops,
            hub=EventHub(),
            source="cluster",
            install_hook=False,
        )
    configs = [
        ReplicaConfig(
            replica_id=i,
            host="127.0.0.1",
            cache_dir=base / f"shard-{i}",
            serve_args=serve_args,
        )
        for i in range(args.replicas)
    ]
    supervisor = ReplicaSupervisor(
        configs,
        probe_interval=args.probe_interval,
        fail_threshold=args.fail_threshold,
    )
    router = ClusterRouter(
        vnodes=args.vnodes,
        max_inflight_per_replica=args.max_inflight,
        proxy_timeout=args.proxy_timeout,
        observe=observe,
    )
    for cfg in configs:
        # The router reads replica shards directly (same host): a ring
        # change then finds results the previous owner already computed.
        router.add_shard(cfg.name, ResultCache(root=cfg.cache_dir))
    return asyncio.run(
        cluster_forever(
            router,
            supervisor,
            args.host,
            args.port,
            drain_timeout=args.drain_timeout,
        )
    )


def _cmd_request(args: argparse.Namespace) -> int:
    import json as json_mod

    from .serve.client import ServeClient, ServeError

    client = ServeClient(args.host, args.port, retries=args.retries)
    request = {
        "model": args.model,
        "dataset": args.dataset,
        "scale": args.scale,
        "hidden": args.hidden,
        "layers": args.layers,
        "seed": args.seed,
        "device": args.device,
        "mapping": args.mapping,
    }
    try:
        payload = client.simulate(request, deadline=args.deadline)
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json_mod.dumps(payload, indent=2, sort_keys=True))
        return 0
    result = payload["result"]
    source = "cache" if payload["cached"] else (
        "in-flight join" if payload["joined"] else "simulated"
    )
    print(f"key             : {payload['key'][:16]}… ({source})")
    print(f"device          : {result['accelerator']}")
    print(f"model / dataset : {args.model} / {args.dataset}@{args.scale:g}")
    print(f"execution time  : {result['total_seconds'] * 1e6:,.1f} us")
    print(f"DRAM traffic    : {result['dram_bytes'] / 1e6:,.2f} MB")
    print(f"request latency : {payload['latency_seconds'] * 1e3:,.1f} ms")
    if args.trace:
        _print_request_trace(client, payload.get("trace_id"))
    return 0


def _print_request_trace(client, trace_id: str | None) -> None:
    """Fetch and print the request's span tree (``request --trace``)."""
    from .telemetry.export import format_summary, span_summary
    from .telemetry.trace import Span

    if not trace_id:
        print("trace           : none (server tracing disabled?)", file=sys.stderr)
        return
    print(f"trace id        : {trace_id}")
    try:
        doc = client.trace(trace_id)
    except Exception as exc:  # noqa: BLE001 — trace is best-effort extra
        print(f"trace           : fetch failed ({exc})", file=sys.stderr)
        return
    spans = [Span.from_dict(s) for s in doc.get("spans", [])]
    if not spans:
        print("trace           : no spans buffered (sampled out or evicted)")
        return
    print(format_summary(span_summary(spans)))


def _cmd_trace(args: argparse.Namespace) -> int:
    from .telemetry.export import (
        format_summary,
        read_spans_jsonl,
        span_summary,
        trace_roots,
        write_chrome_trace,
        write_spans_jsonl,
    )
    from .telemetry.trace import Span

    if args.input is not None:
        spans = read_spans_jsonl(args.input)
        if args.trace_id:
            spans = [s for s in spans if s.trace_id == args.trace_id]
    else:
        from .serve.client import ServeClient, ServeError

        client = ServeClient(args.host, args.port)
        try:
            doc = client.trace(args.trace_id)
        except ServeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        spans = [Span.from_dict(s) for s in doc.get("spans", [])]
    if not spans:
        print("trace: no spans recorded", file=sys.stderr)
        return 1

    if args.trace_command == "summary":
        trees = trace_roots(spans)
        print(
            f"{len(spans)} spans across {len(trees)} complete trace(s)"
        )
        print(format_summary(span_summary(spans)))
        return 0
    if args.trace_command == "export":
        doc = write_chrome_trace(args.output, spans)
        print(
            f"trace: wrote {args.output} "
            f"({len(doc['traceEvents'])} events, "
            f"{len(trace_roots(spans))} complete trace(s))"
        )
        if args.jsonl:
            count = write_spans_jsonl(args.jsonl, spans)
            print(f"trace: wrote {args.jsonl} ({count} spans)")
        return 0
    raise AssertionError(
        f"unhandled trace command {args.trace_command}"
    )  # pragma: no cover


def _cmd_cache(args: argparse.Namespace) -> int:
    from .runtime.cache import ResultCache

    cache = ResultCache(args.dir) if args.dir else ResultCache()
    if args.cache_command == "stats":
        stats = cache.disk_stats()
        print(f"root        : {stats['root']}")
        print(f"fingerprint : {stats['fingerprint']}")
        print(f"entries     : {stats['entries']}")
        print(f"bytes       : {stats['bytes']:,}")
        if stats["oldest_mtime"] is not None:
            import time as time_mod

            age = time_mod.time() - stats["oldest_mtime"]
            print(f"oldest      : {age / 3600:.1f}h ago")
        tiles_root = cache.root / "tiles"
        if tiles_root.is_dir():
            tile_stats = ResultCache(root=tiles_root).disk_stats()
            print("tiles sub-cache (per-tile results):")
            print(f"  entries   : {tile_stats['entries']}")
            print(f"  bytes     : {tile_stats['bytes']:,}")
        return 0
    if args.cache_command == "clear":
        removed = cache.clear()
        print(f"cache: removed {removed} result(s) from {cache.root}")
        return 0
    if args.cache_command == "prune":
        if args.max_age is None and args.max_bytes is None:
            print(
                "error: prune needs --max-age and/or --max-bytes",
                file=sys.stderr,
            )
            return 2
        removed_old = removed_big = 0
        try:
            if args.max_age is not None:
                removed_old = cache.prune(parse_age(args.max_age))
            if args.max_bytes is not None:
                removed_big = cache.prune_bytes(parse_size(args.max_bytes))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.max_age is not None:
            print(
                f"cache: pruned {removed_old} result(s) older than "
                f"{args.max_age} from {cache.root}"
            )
        if args.max_bytes is not None:
            print(
                f"cache: evicted {removed_big} oldest result(s) to fit "
                f"{args.max_bytes} in {cache.root}"
            )
        return 0
    raise AssertionError(
        f"unhandled cache command {args.cache_command}"
    )  # pragma: no cover


def _cmd_observe(args: argparse.Namespace) -> int:
    import asyncio

    if args.observe_command in ("record", "tail"):
        coro = _observe_attach(args)
    elif args.observe_command == "replay":
        coro = _observe_replay(args)
    else:  # pragma: no cover
        raise AssertionError(f"unhandled observe command {args.observe_command}")
    try:
        return asyncio.run(coro)
    except KeyboardInterrupt:
        return 0


async def _observe_attach(args: argparse.Namespace) -> int:
    """``observe record`` / ``observe tail``: drain a live feed."""
    import json as json_mod

    from .observe import Event, SessionRecorder, stream_events
    from .observe.websocket import WebSocketError

    recorder = None
    if args.observe_command == "record":
        recorder = SessionRecorder(args.output, source="record")
    wanted = set(getattr(args, "types", None) or ()) or None
    count = 0
    try:
        async for event in stream_events(
            args.host,
            args.port,
            max_events=args.max_events,
            duration=getattr(args, "duration", None),
        ):
            if recorder is not None:
                recorder.emit(Event.from_dict(event))
                count += 1
                continue
            if wanted is not None and event.get("type") not in wanted:
                continue
            print(json_mod.dumps(event), flush=True)
            count += 1
    except (ConnectionError, OSError, WebSocketError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if recorder is not None:
            recorder.close()
            print(
                f"observe: recorded {count} event(s) to {args.output}",
                file=sys.stderr,
            )
    return 0


async def _observe_replay(args: argparse.Namespace) -> int:
    """``observe replay``: to stdout, or re-served over a broadcaster."""
    import asyncio
    import json as json_mod

    from .observe.replay import iter_session, replay_events

    try:
        events = iter_session(args.input)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not events:
        print("error: recording holds no events", file=sys.stderr)
        return 1

    if args.port is None:
        await replay_events(
            events,
            lambda event: print(
                json_mod.dumps(event.to_dict()), flush=True
            ),
            speed=args.speed,
        )
        return 0

    # Serve the replay: a broadcaster + dashboard with the recording as
    # the event source instead of a live service.
    from .observe import WebSocketBroadcaster
    from .observe.service import ui_asset
    from .serve.http import ConnectionLoop, RawResponse

    broadcaster = WebSocketBroadcaster()
    broadcaster.bind(asyncio.get_running_loop())

    async def dispatch(request) -> tuple:
        path = request.path.partition("?")[0]
        if path == "/observer" or path.startswith("/observer/"):
            asset = ui_asset(path[len("/observer"):].lstrip("/"))
            if asset is not None:
                return 200, RawResponse(*asset)
            return 404, {"error": "no such asset"}
        return 404, {"error": "replay serves /observe and /observer only"}

    connections = ConnectionLoop(dispatch, websocket=broadcaster.handle_client)
    server = await asyncio.start_server(connections.handle, args.host, args.port)
    host, port = server.sockets[0].getsockname()[:2]
    print(
        f"repro-observe: replaying {len(events)} event(s) on {host}:{port} "
        f"(dashboard http://{host}:{port}/observer, speed x{args.speed:g})",
        flush=True,
    )
    try:
        while True:
            await replay_events(events, broadcaster.emit, speed=args.speed)
            if not args.loop:
                break
    finally:
        await broadcaster.aclose()
        connections.begin_drain()
        server.close()
        await server.wait_closed()
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "datasets":
        return _cmd_datasets()
    if args.command == "models":
        return _cmd_models()
    if args.command == "info":
        return _cmd_info()
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "sweep":
        return _cmd_compare(args, show_summary=True)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "mutate":
        return _cmd_mutate(args)
    if args.command == "dse":
        return _cmd_dse(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "cluster":
        return _cmd_cluster(args)
    if args.command == "request":
        return _cmd_request(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "observe":
        return _cmd_observe(args)
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover
