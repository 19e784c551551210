"""Standard layer benchmarks behind ``repro bench``.

Runs the analytical tier's hot path (:meth:`AuroraSimulator.simulate_layer`)
over a fixed set of dataset workloads, measuring a **cold** call (all
memoization layers emptied) and a set of **warm** repeats, and writes the
result — together with the :data:`~repro.perf.instrumentation.PERF`
per-stage breakdown and cache counters — to a ``BENCH_<n>.json``
snapshot.  The snapshot is what the CI benchmark job archives and what
``docs/performance.md`` explains how to read.

Numbers in the snapshot are *wall-clock only*; the simulated results are
deterministic and independent of everything measured here (asserted by
``tests/test_determinism.py`` and the golden suite).
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BenchCase",
    "CycleBenchCase",
    "DeltaBenchCase",
    "FanoutBenchCase",
    "STANDARD_BENCHES",
    "CYCLE_BENCHES",
    "DELTA_BENCHES",
    "FANOUT_BENCHES",
    "run_benches",
    "run_cluster_benches",
    "run_cycle_benches",
    "run_delta_benches",
    "run_dse_benches",
    "run_fanout_benches",
    "run_observe_benches",
    "run_serve_benches",
    "write_bench_json",
]

#: Bump when the snapshot layout changes incompatibly.
BENCH_SCHEMA_VERSION = 1


def _telemetry_section() -> dict:
    """Tracer state + top stages by cumulative span time (top 5).

    Called *inside* a tracing session so the enabled/sample_rate flags
    reflect what the benches actually ran under.
    """
    from ..telemetry import TRACER
    from ..telemetry.export import span_summary

    spans = TRACER.buffer.spans()
    return {
        **TRACER.snapshot(),
        "span_count": len(spans),
        "top_stages": span_summary(spans)[:5],
    }


@dataclass(frozen=True)
class BenchCase:
    """One standard workload: a model layer on a (scaled) dataset."""

    name: str
    dataset: str
    scale: float = 1.0
    model: str = "gcn"
    hidden: int = 64

    def label(self) -> str:
        return f"{self.model}/{self.dataset}@{self.scale:g}"


#: The standard benches ``repro bench`` runs, mirroring
#: ``benchmarks/test_simulator_performance.py``.
STANDARD_BENCHES: tuple[BenchCase, ...] = (
    BenchCase("cora", "cora", 1.0),
    BenchCase("citeseer", "citeseer", 1.0),
    BenchCase("pubmed", "pubmed", 0.5),
)


def clear_hot_path_caches() -> None:
    """Empty every memoization layer the hot path consults.

    Used before the cold measurement so it reflects a from-scratch run
    (the state a fresh process or a never-seen workload starts in).
    """
    from ..arch.noc.analytical import AnalyticalNoCModel
    from ..arch.noc.network import _clear_route_memo
    from ..core.configuration import ConfigurationUnit
    from ..core.simulator import clear_partition_sample_cache
    from ..graphs.tiling import clear_tiling_cache
    from ..mapping.degree_aware import _zorder_nodes_cached
    from ..mapping.memo import clear_mapping_cache
    from ..runtime.shards import clear_tile_memo

    clear_mapping_cache()
    AnalyticalNoCModel._cache.clear()
    ConfigurationUnit._cache.clear()
    _zorder_nodes_cached.cache_clear()
    _clear_route_memo()
    clear_tiling_cache()
    clear_tile_memo()
    clear_partition_sample_cache()


def _run_case(case: BenchCase, repeat: int) -> dict:
    from ..core.simulator import AuroraSimulator
    from ..graphs.datasets import load_dataset
    from ..models.workload import LayerDims
    from ..models.zoo import get_model

    graph = load_dataset(case.dataset, scale=case.scale)
    model = get_model(case.model)
    dims = LayerDims(graph.num_features, case.hidden)

    clear_hot_path_caches()
    sim = AuroraSimulator()
    t0 = time.perf_counter()
    result = sim.simulate_layer(model, graph, dims)
    cold = time.perf_counter() - t0

    warm: list[float] = []
    for _ in range(max(1, repeat)):
        t0 = time.perf_counter()
        again = sim.simulate_layer(model, graph, dims)
        warm.append(time.perf_counter() - t0)
        if again.to_dict() != result.to_dict():  # pragma: no cover
            raise AssertionError(f"non-deterministic bench result for {case.label()}")

    return {
        "label": case.label(),
        "dataset": case.dataset,
        "scale": case.scale,
        "model": case.model,
        "hidden": case.hidden,
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "cold_seconds": cold,
        "warm_seconds": warm,
        "warm_mean_seconds": sum(warm) / len(warm),
        "warm_min_seconds": min(warm),
        "total_seconds_simulated": result.total_seconds,
    }


@dataclass(frozen=True)
class CycleBenchCase:
    """One cycle-tier workload: a tile executed at flit granularity."""

    name: str
    dataset: str
    scale: float
    model: str = "gcn"
    array_k: int = 16
    hidden: int = 16

    def label(self) -> str:
        return f"{self.model}/{self.dataset}@{self.scale:g}/k{self.array_k}"


#: The cycle-tier bench: a dense pubmed tile on the largest supported
#: array.  Heavy on purpose — the event engine's advantage over the
#: reference grows with traffic, and calibration sweeps are made of
#: exactly this kind of tile.
CYCLE_BENCHES: tuple[CycleBenchCase, ...] = (
    CycleBenchCase("pubmed-tile", "pubmed", 0.12),
)


def _tile_fields(result) -> tuple:
    """The deterministic counters of one tile run, for identity checks."""
    return (
        result.noc_cycles,
        result.stall_events,
        result.mesh_flit_hops,
        result.bypass_flit_hops,
        result.packets,
        result.flits,
        result.avg_packet_latency,
        result.compute_cycles_a,
        result.compute_cycles_b,
    )


def _run_cycle_case(case: CycleBenchCase, repeat: int) -> dict:
    from ..config import small_config
    from ..core.cycle_engine import CycleTileEngine
    from ..graphs.datasets import load_dataset
    from ..models.workload import LayerDims
    from ..models.zoo import get_model

    graph = load_dataset(case.dataset, scale=case.scale)
    model = get_model(case.model)
    dims = LayerDims(graph.num_features, case.hidden)
    cfg = small_config(case.array_k)

    clear_hot_path_caches()
    event = CycleTileEngine(cfg, noc_engine="event")
    t0 = time.perf_counter()
    result = event.run_tile(model, graph, dims)
    cold = time.perf_counter() - t0

    warm: list[float] = []
    for _ in range(max(1, repeat)):
        t0 = time.perf_counter()
        again = event.run_tile(model, graph, dims)
        warm.append(time.perf_counter() - t0)
        if _tile_fields(again) != _tile_fields(result):  # pragma: no cover
            raise AssertionError(
                f"non-deterministic cycle bench result for {case.label()}"
            )

    # The retained original simulator, timed once on the same tile (it
    # has no warm path: routes and flit objects are rebuilt every run).
    reference = CycleTileEngine(cfg, noc_engine="reference")
    t0 = time.perf_counter()
    ref_result = reference.run_tile(model, graph, dims)
    ref_seconds = time.perf_counter() - t0
    if _tile_fields(ref_result) != _tile_fields(result):  # pragma: no cover
        raise AssertionError(
            f"event engine diverged from reference on {case.label()}"
        )

    warm_min = min(warm)
    return {
        "label": case.label(),
        "dataset": case.dataset,
        "scale": case.scale,
        "model": case.model,
        "array_k": case.array_k,
        "hidden": case.hidden,
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "noc_cycles": result.noc_cycles,
        "packets": result.packets,
        "flits": result.flits,
        "cold_seconds": cold,
        "warm_seconds": warm,
        "warm_mean_seconds": sum(warm) / len(warm),
        "warm_min_seconds": warm_min,
        "reference_seconds": ref_seconds,
        "speedup_vs_reference": ref_seconds / warm_min,
        "packets_per_second": result.packets / warm_min,
        "flits_per_second": result.flits / warm_min,
        "cycles_per_second": result.noc_cycles / warm_min,
    }


def run_cycle_benches(
    benches: tuple[CycleBenchCase, ...] = CYCLE_BENCHES,
    *,
    repeat: int = 3,
    telemetry: bool = True,
) -> dict:
    """Run the cycle-tier benches and return the snapshot dict."""
    from ..telemetry import TRACER
    from .instrumentation import PERF

    PERF.reset()
    with TRACER.session(enabled=telemetry, sample_rate=1.0):
        wall_start = time.perf_counter()
        results = {case.name: _run_cycle_case(case, repeat) for case in benches}
        wall = time.perf_counter() - wall_start
        telemetry_section = _telemetry_section()
    perf = PERF.snapshot()
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "tier": "cycle",
        "repeat": repeat,
        "wall_seconds": wall,
        "benches": results,
        "stages": perf["stages"],
        "counters": perf["counters"],
        "telemetry": telemetry_section,
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "machine": platform.machine(),
        },
    }


@dataclass(frozen=True)
class FanoutBenchCase:
    """One intra-job fan-out workload: a multi-tile job, whole layer.

    The single-request latency story of the tile fan-out work: the same
    job is timed cold through the retained reference engine (serial),
    the event engine (serial), and the event engine with tile sharding —
    all three paths must produce identical per-tile results.
    """

    name: str
    dataset: str
    scale: float
    model: str = "gcn"
    array_k: int = 16
    hidden: int = 16
    tile_workers: int = 4
    #: Tiling capacity; None = the full distributed-buffer capacity.
    tile_capacity_bytes: int | None = None

    def label(self) -> str:
        return (
            f"{self.model}/{self.dataset}@{self.scale:g}/k{self.array_k}"
            f"/w{self.tile_workers}"
        )


#: The fan-out bench: pubmed tiled to half the distributed-buffer
#: capacity (region B's banks stage features/weights for the resident
#: tile while the next one loads) — three dense independent tiles,
#: exactly the shape intra-job parallelism was built for.  Tiles are
#: kept heavy on purpose: the event engine's advantage over the
#: reference grows with per-tile traffic, and calibration
#: sweeps are made of tiles like these.
FANOUT_BENCHES: tuple[FanoutBenchCase, ...] = (
    FanoutBenchCase(
        "pubmed-job", "pubmed", 0.4, tile_capacity_bytes=2048 * 1024
    ),
)


def _run_fanout_case(case: FanoutBenchCase, repeat: int) -> dict:
    from ..config import small_config
    from ..core.cycle_layer import run_cycle_layer
    from ..graphs.datasets import load_dataset
    from ..graphs.tiling import tile_graph
    from ..models.workload import LayerDims
    from ..models.zoo import get_model

    graph = load_dataset(case.dataset, scale=case.scale)
    model = get_model(case.model)
    dims = LayerDims(graph.num_features, case.hidden)
    cfg = small_config(case.array_k)
    plan = tile_graph(
        graph, case.tile_capacity_bytes or cfg.onchip_bytes
    )
    if plan.num_tiles < 2:  # pragma: no cover
        raise AssertionError(
            f"fan-out bench needs a multi-tile job, got {plan.num_tiles}"
        )

    def timed(**kwargs):
        clear_hot_path_caches()
        t0 = time.perf_counter()
        layer = run_cycle_layer(model, plan, dims, config=cfg, **kwargs)
        return layer, time.perf_counter() - t0

    reference, reference_s = timed(noc_engine="reference")
    serial, serial_s = timed(noc_engine="event")
    fanout, fanout_s = timed(tile_workers=case.tile_workers)
    base = [_tile_fields(t) for t in reference.tiles]
    for name, layer in (("serial", serial), ("fanout", fanout)):
        if [_tile_fields(t) for t in layer.tiles] != base:  # pragma: no cover
            raise AssertionError(
                f"{name} path diverged from reference on {case.label()}"
            )

    # Warm repeats of the fan-out path: route + mapping memos populated.
    warm: list[float] = []
    for _ in range(max(1, repeat)):
        t0 = time.perf_counter()
        again = run_cycle_layer(
            model, plan, dims, config=cfg, tile_workers=case.tile_workers
        )
        warm.append(time.perf_counter() - t0)
        if [_tile_fields(t) for t in again.tiles] != base:  # pragma: no cover
            raise AssertionError(
                f"warm fan-out diverged from reference on {case.label()}"
            )

    warm_min = min(warm)
    return {
        "label": case.label(),
        "dataset": case.dataset,
        "scale": case.scale,
        "model": case.model,
        "array_k": case.array_k,
        "hidden": case.hidden,
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "num_tiles": plan.num_tiles,
        "tile_workers": case.tile_workers,
        "effective_workers": fanout.fanout.get("workers", 1),
        "shards": fanout.fanout.get("shards", 1),
        "noc_engine": fanout.noc_engine,
        "noc_cycles": fanout.total_cycles,
        "packets": fanout.packets,
        "flits": fanout.flits,
        "reference_seconds": reference_s,
        "serial_event_seconds": serial_s,
        "cold_seconds": fanout_s,
        "warm_seconds": warm,
        "warm_mean_seconds": sum(warm) / len(warm),
        "warm_min_seconds": warm_min,
        # The headline number: cold single-request latency of the event
        # + sharded path against the retained reference simulator.
        "speedup_vs_reference": reference_s / fanout_s,
        "speedup_vs_serial_event": serial_s / fanout_s,
        "packets_per_second": fanout.packets / warm_min,
        "cycles_per_second": fanout.total_cycles / warm_min,
    }


def run_fanout_benches(
    benches: tuple[FanoutBenchCase, ...] = FANOUT_BENCHES,
    *,
    repeat: int = 1,
    telemetry: bool = True,
    tile_workers: int | None = None,
) -> dict:
    """Run the intra-job fan-out benches (BENCH_7-style).

    ``tile_workers`` overrides the case default — the CLI's
    ``--tile-workers`` knob lands here.
    """
    from dataclasses import replace

    from ..telemetry import TRACER
    from .instrumentation import PERF

    if tile_workers is not None:
        benches = tuple(
            replace(case, tile_workers=tile_workers) for case in benches
        )

    PERF.reset()
    with TRACER.session(enabled=telemetry, sample_rate=1.0):
        wall_start = time.perf_counter()
        results = {
            case.name: _run_fanout_case(case, repeat) for case in benches
        }
        wall = time.perf_counter() - wall_start
        telemetry_section = _telemetry_section()
    perf = PERF.snapshot()
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "tier": "fanout",
        "repeat": repeat,
        "wall_seconds": wall,
        "benches": results,
        "stages": perf["stages"],
        "counters": perf["counters"],
        "telemetry": telemetry_section,
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "machine": platform.machine(),
        },
    }


#: The request the serve bench fires: small enough that cold latency is
#: dominated by the service path, not the simulation itself.
SERVE_BENCH_REQUEST = {
    "model": "gcn",
    "dataset": "cora",
    "scale": 0.2,
    "hidden": 16,
    "layers": 1,
}


def run_serve_benches(*, repeat: int = 10, telemetry: bool = True) -> dict:
    """Bench the simulation service end to end (BENCH_4-style).

    Measures, through a real socket against an in-process server:

    * **cold vs warm request latency** — first request simulates and
      fills the cache, the repeats are served straight from it;
    * **saturation throughput** — concurrent warm requests per second;
    * **shed rate under overload** — distinct cold requests fired at a
      service with a tiny admission budget, counting 429s.
    """
    from ..telemetry import TRACER

    with TRACER.session(enabled=telemetry, sample_rate=1.0):
        snapshot = _run_serve_benches_traced(repeat=repeat)
        snapshot["telemetry"] = _telemetry_section()
    return snapshot


def _run_serve_benches_traced(*, repeat: int) -> dict:
    import tempfile
    from concurrent.futures import ThreadPoolExecutor

    from ..runtime.cache import ResultCache
    from ..serve.client import ServeClient, ServeError
    from ..serve.server import ServerThread, SimulationService
    from .instrumentation import PERF

    PERF.reset()
    wall_start = time.perf_counter()
    request = dict(SERVE_BENCH_REQUEST)

    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(Path(tmp))
        service = SimulationService(cache=cache, queue_depth=64)
        with ServerThread(service) as thread:
            host, port = thread.address
            client = ServeClient(host, port, timeout=120.0)

            t0 = time.perf_counter()
            cold_payload = client.simulate(request)
            cold = time.perf_counter() - t0
            if cold_payload["cached"]:  # pragma: no cover
                raise AssertionError("cold serve bench request hit the cache")

            warm: list[float] = []
            for _ in range(max(1, repeat)):
                t0 = time.perf_counter()
                payload = client.simulate(request)
                warm.append(time.perf_counter() - t0)
                if not payload["cached"]:  # pragma: no cover
                    raise AssertionError("warm serve bench request missed")

            # Saturation: concurrent warm requests through one client
            # config (each call opens its own connection).
            concurrency, total = 8, 64
            t0 = time.perf_counter()
            with ThreadPoolExecutor(max_workers=concurrency) as pool:
                list(pool.map(lambda _: client.simulate(request), range(total)))
            saturation_seconds = time.perf_counter() - t0
            stats = client.stats()

    # Overload: distinct (seed-varied) cold jobs against a two-slot
    # admission budget; a zero-retry client converts sheds to errors.
    overload_service = SimulationService(queue_depth=2, batch_window=0.02)
    overload_total = 16
    with ServerThread(overload_service) as thread:
        host, port = thread.address
        shed_client = ServeClient(host, port, retries=0, timeout=120.0)

        def fire(seed: int) -> bool:
            try:
                shed_client.simulate({**request, "seed": seed})
                return True
            except ServeError:
                return False

        with ThreadPoolExecutor(max_workers=overload_total) as pool:
            served = list(pool.map(fire, range(overload_total)))
        overload_stats = overload_service.stats()

    shed = overload_total - sum(served)
    warm_mean = sum(warm) / len(warm)
    wall = time.perf_counter() - wall_start
    perf = PERF.snapshot()
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "tier": "serve",
        "repeat": repeat,
        "wall_seconds": wall,
        "benches": {
            "request": {
                "label": "gcn/cora@0.2 via repro.serve",
                "request": request,
                "cold_seconds": cold,
                "warm_seconds": warm,
                "warm_mean_seconds": warm_mean,
                "warm_min_seconds": min(warm),
                "cold_over_warm": cold / warm_mean if warm_mean else None,
                "latency": stats["latency"],
            },
            "saturation": {
                "concurrency": concurrency,
                "requests": total,
                "wall_seconds": saturation_seconds,
                "requests_per_second": total / saturation_seconds,
            },
            "overload": {
                "queue_depth": 2,
                "requests": overload_total,
                "served": sum(served),
                "shed": shed,
                "shed_rate": shed / overload_total,
                "admission": overload_stats["admission"],
            },
        },
        "stages": perf["stages"],
        "counters": perf["counters"],
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "machine": platform.machine(),
        },
    }


#: Live-observer latency budget on the warm serve path (BENCH_10).
OBSERVE_OVERHEAD_BUDGET = 0.05


def run_observe_benches(*, repeat: int = 40, telemetry: bool = True) -> dict:
    """Bench the warm serve path with the live observer on vs off.

    Two services share one warm cache: a plain one, and one with the
    ``--observe`` equivalents active — tracer hook installed, a
    WebSocket client live-draining the event feed, and a JSONL session
    recorder attached.  Warm requests alternate between them so both
    see the same machine conditions and drift cancels out of the
    comparison.  The snapshot records the overhead fraction against the
    :data:`OBSERVE_OVERHEAD_BUDGET` and proves the recording replays.
    """
    from ..telemetry import TRACER

    with TRACER.session(enabled=telemetry, sample_rate=1.0):
        snapshot = _run_observe_benches_traced(repeat=repeat)
        snapshot["telemetry"] = _telemetry_section()
    return snapshot


def _trimmed_mean(samples: list[float]) -> float:
    """Mean of the middle 80% — robust to scheduler-noise outliers."""
    ordered = sorted(samples)
    drop = len(ordered) // 10
    kept = ordered[drop: len(ordered) - drop] if drop else ordered
    return sum(kept) / len(kept)


def _run_observe_benches_traced(*, repeat: int) -> dict:
    import asyncio
    import tempfile
    import threading

    from ..observe import ObserveState, read_session, stream_events, validate_events
    from ..runtime.cache import ResultCache
    from ..serve.client import ServeClient
    from ..serve.server import ServerThread, SimulationService
    from .instrumentation import PERF

    PERF.reset()
    wall_start = time.perf_counter()
    request = dict(SERVE_BENCH_REQUEST)
    repeat = max(4, repeat)

    def timed(client: ServeClient) -> float:
        t0 = time.perf_counter()
        payload = client.simulate(request)
        elapsed = time.perf_counter() - t0
        if not (payload["cached"] or payload["joined"]):  # pragma: no cover
            raise AssertionError("observe bench request missed the cache")
        return elapsed

    with tempfile.TemporaryDirectory() as tmp:
        cache_dir = Path(tmp) / "cache"
        record_path = Path(tmp) / "session.jsonl"
        observe = ObserveState(record_path=record_path)
        service_off = SimulationService(
            cache=ResultCache(cache_dir), queue_depth=64
        )
        service_on = SimulationService(
            cache=ResultCache(cache_dir), queue_depth=64, observe=observe
        )
        with ServerThread(service_off) as t_off, ServerThread(service_on) as t_on:
            off_client = ServeClient(*t_off.address, timeout=120.0)
            on_client = ServeClient(*t_on.address, timeout=120.0)
            received: list[str] = []
            attached = threading.Event()
            host, port = t_on.address

            def drain() -> None:
                async def _run() -> None:
                    async for event in stream_events(host, port):
                        received.append(event["type"])
                        attached.set()
                asyncio.run(_run())

            drainer = threading.Thread(target=drain, daemon=True)
            drainer.start()
            off_client.simulate(request)  # fill the shared cache + settle
            on_client.simulate(request)
            attached.wait(timeout=5.0)
            off: list[float] = []
            on: list[float] = []
            for _ in range(repeat):
                off.append(timed(off_client))
                on.append(timed(on_client))
            observe_section = service_on.stats()["observe"]
        drainer.join(timeout=5.0)

        recorded, info = read_session(record_path)
        validate_events([event.to_dict() for event in recorded])

    off_mean = _trimmed_mean(off)
    on_mean = _trimmed_mean(on)
    overhead = (on_mean - off_mean) / off_mean if off_mean else 0.0
    perf = PERF.snapshot()
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "tier": "observe",
        "repeat": repeat,
        "wall_seconds": time.perf_counter() - wall_start,
        "benches": {
            "observer": {
                "label": "warm serve path, observer on vs off",
                "request": request,
                "requests_per_phase": repeat,
                "off_mean_seconds": off_mean,
                "on_mean_seconds": on_mean,
                "off_min_seconds": min(off),
                "on_min_seconds": min(on),
                "overhead_fraction": overhead,
                "overhead_budget": OBSERVE_OVERHEAD_BUDGET,
                "within_budget": overhead <= OBSERVE_OVERHEAD_BUDGET,
                "events_received": len(received),
                "event_types": sorted(set(received)),
                "broadcaster": observe_section["broadcaster"],
                "recording": {
                    "events": info["events"],
                    "skipped": info["skipped"],
                    "schema": info["schema"],
                    "replay_valid": True,
                },
            },
        },
        "stages": perf["stages"],
        "counters": perf["counters"],
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "machine": platform.machine(),
        },
    }


#: Fleet sizes the cluster bench sweeps (BENCH_6-style).
CLUSTER_FLEET_SIZES = (1, 2, 4)


def _boot_cluster(replicas: int, cache_base: Path, *, max_inflight: int = 32):
    """A full fleet (router + supervised replica subprocesses), unstarted."""
    from ..cluster import (
        ClusterRouter,
        ClusterThread,
        ReplicaConfig,
        ReplicaSupervisor,
    )
    from ..runtime.cache import ResultCache

    configs = [
        ReplicaConfig(
            replica_id=i,
            cache_dir=cache_base / f"shard-{i}",
            serve_args=("--queue-depth", "64"),
        )
        for i in range(replicas)
    ]
    supervisor = ReplicaSupervisor(
        configs,
        probe_interval=0.25,
        fail_threshold=2,
        restart_backoff=0.25,
    )
    router = ClusterRouter(max_inflight_per_replica=max_inflight)
    for cfg in configs:
        router.tiers.add_shard(ResultCache(root=cfg.cache_dir))
    return ClusterThread(router, supervisor)


def run_cluster_benches(*, repeat: int = 2, telemetry: bool = True) -> dict:
    """Bench the sharded cluster end to end (BENCH_6-style).

    Measures, through a real socket against a router supervising real
    replica subprocesses:

    * **saturation throughput at 1/2/4 replicas** — a mixed cold
      workload (seed-varied jobs, fresh cache shards per fleet) fired
      concurrently; aggregate requests per second per fleet size.
      Scaling is bounded by physical cores — the snapshot records
      ``cpu_count`` so a 1-core box's flat curve reads as what it is;
    * **kill one of four under load** — a replica SIGKILLed mid-run;
      the router's transport-failure failover plus the supervisor's
      restart must keep every client request succeeding.
    """
    from ..telemetry import TRACER

    with TRACER.session(enabled=telemetry, sample_rate=1.0):
        snapshot = _run_cluster_benches_traced(repeat=repeat)
        snapshot["telemetry"] = _telemetry_section()
    return snapshot


def _run_cluster_benches_traced(*, repeat: int) -> dict:
    import os
    import signal as signal_module
    import tempfile
    import threading
    from concurrent.futures import ThreadPoolExecutor

    from ..serve.client import ServeClient, ServeError
    from .instrumentation import PERF

    PERF.reset()
    wall_start = time.perf_counter()
    request = dict(SERVE_BENCH_REQUEST)
    concurrency = 8
    total = max(8, 8 * max(1, repeat))

    benches: dict[str, dict] = {}
    for fleet in CLUSTER_FLEET_SIZES:
        with tempfile.TemporaryDirectory() as tmp:
            cluster = _boot_cluster(fleet, Path(tmp))
            with cluster:
                host, port = cluster.address
                client = ServeClient(host, port, timeout=600.0, retries=4)
                # Mixed cold workload: every job distinct (seed-varied),
                # every shard empty — throughput is all compute.
                t0 = time.perf_counter()
                with ThreadPoolExecutor(max_workers=concurrency) as pool:
                    list(pool.map(
                        lambda seed: client.simulate({**request, "seed": seed}),
                        range(total),
                    ))
                cold_wall = time.perf_counter() - t0
                # Warm repeats of one job: served from the router tiers.
                t0 = time.perf_counter()
                with ThreadPoolExecutor(max_workers=concurrency) as pool:
                    list(pool.map(
                        lambda _: client.simulate({**request, "seed": 0}),
                        range(total),
                    ))
                warm_wall = time.perf_counter() - t0
                counters = dict(cluster.router.counters)
            benches[f"fleet-{fleet}"] = {
                "label": f"{fleet} replica(s), mixed cold workload",
                "replicas": fleet,
                "concurrency": concurrency,
                "requests": total,
                "wall_seconds": cold_wall,
                "requests_per_second": total / cold_wall,
                "warm_wall_seconds": warm_wall,
                "warm_requests_per_second": total / warm_wall,
                "router_counters": counters,
            }

    base_rps = benches["fleet-1"]["requests_per_second"]
    scaling = {
        str(fleet): benches[f"fleet-{fleet}"]["requests_per_second"] / base_rps
        for fleet in CLUSTER_FLEET_SIZES
    }

    # Kill one of four under load: zero client-visible failures allowed.
    kill_total = max(24, 12 * max(1, repeat))
    with tempfile.TemporaryDirectory() as tmp:
        cluster = _boot_cluster(4, Path(tmp))
        with cluster:
            host, port = cluster.address
            client = ServeClient(host, port, timeout=600.0, retries=4)
            done = threading.Event()
            completed = [0]
            killed_pid = [None]

            def kill_one_when_loaded() -> None:
                # Wait until the fleet is genuinely under load, then
                # SIGKILL one routable replica out from under it.
                while completed[0] < concurrency and not done.is_set():
                    time.sleep(0.05)
                snapshot = cluster.supervisor.snapshot()
                for state in snapshot["replicas"].values():
                    if state["state"] == "up" and state["pid"]:
                        killed_pid[0] = state["pid"]
                        os.kill(state["pid"], signal_module.SIGKILL)
                        return

            killer = threading.Thread(target=kill_one_when_loaded)
            killer.start()

            def fire(seed: int) -> bool:
                try:
                    client.simulate({**request, "seed": 1000 + seed})
                    return True
                except ServeError:
                    return False
                finally:
                    completed[0] += 1

            t0 = time.perf_counter()
            with ThreadPoolExecutor(max_workers=concurrency) as pool:
                outcomes = list(pool.map(fire, range(kill_total)))
            kill_wall = time.perf_counter() - t0
            done.set()
            killer.join()

            # The supervisor must bring the killed replica back.
            recovered = False
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if len(cluster.router.routable) == 4:
                    recovered = True
                    break
                time.sleep(0.25)
            restarts = cluster.supervisor.restarts_total
            failovers = cluster.router.counters["proxy_failovers"]

    failed = kill_total - sum(outcomes)
    benches["kill-replica"] = {
        "label": "kill 1 of 4 replicas under load",
        "replicas": 4,
        "concurrency": concurrency,
        "requests": kill_total,
        "failed": failed,
        "killed_pid": killed_pid[0],
        "proxy_failovers": failovers,
        "restarts_total": restarts,
        "recovered": recovered,
        "wall_seconds": kill_wall,
    }

    wall = time.perf_counter() - wall_start
    perf = PERF.snapshot()
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "tier": "cluster",
        "repeat": repeat,
        "wall_seconds": wall,
        "benches": benches,
        "scaling_vs_1_replica": scaling,
        "stages": perf["stages"],
        "counters": perf["counters"],
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
    }


#: Dirty-tile fractions the delta bench sweeps.
DELTA_BENCH_FRACTIONS = (0.01, 0.10, 0.50)


@dataclass(frozen=True)
class DeltaBenchCase:
    """One incremental re-simulation workload: mutate, re-run, reuse.

    ``pe_buffer_bytes`` shrinks the distributed buffer so the dataset
    tiles into a few dozen contiguous ranges (at the default ~100 MiB
    buffer pubmed is a single tile and there is nothing to reuse).  For
    each dirty fraction, a degree-preserving rewire dirties that share
    of tiles; the mutated job is then timed **warm** (per-tile cache
    seeded by the base run — clean tiles resolve from cache) and
    **cold** (no tile cache, everything from scratch), and both results
    must be bit-identical.
    """

    name: str
    dataset: str = "pubmed"
    scale: float = 1.0
    model: str = "gcn"
    hidden: int = 32
    num_layers: int = 2
    #: Shrunk array + minimum buffers → ~128 KiB tiling capacity, ~100
    #: tiles on pubmed; per-tile work then dominates the per-layer fixed
    #: stages (partitioning), which is the regime tiled re-simulation
    #: targets.
    array_k: int = 16
    pe_buffer_bytes: int = 1024
    rows_per_tile: int = 4
    fractions: tuple = DELTA_BENCH_FRACTIONS

    def label(self) -> str:
        return f"{self.model}/{self.dataset}@{self.scale:g}/delta"


DELTA_BENCHES: tuple[DeltaBenchCase, ...] = (
    DeltaBenchCase("pubmed-delta"),
)


def _delta_mutation(case, graph, boundaries, num_tiles, fraction, seed):
    """A rewire delta dirtying ``fraction`` of the tiles, evenly spread."""
    import numpy as np

    from ..graphs.delta import rewire_delta

    target = max(1, round(fraction * num_tiles))
    chosen = np.unique(
        np.linspace(0, num_tiles - 1, num=min(target, num_tiles))
        .round()
        .astype(np.int64)
    )
    rows: list[int] = []
    for t in chosen.tolist():
        start, end = int(boundaries[t]), int(boundaries[t + 1])
        rows.extend(range(start, min(start + case.rows_per_tile, end)))
    return rewire_delta(graph, rows, seed=seed)


def _run_delta_case(case: DeltaBenchCase, repeat: int) -> dict:
    import os
    import tempfile
    from dataclasses import replace

    from ..config import default_config
    from ..core.simulator import _BUFFER_UTIL
    from ..graphs.datasets import load_dataset
    from ..graphs.delta import dirty_tiles, tile_boundaries
    from ..graphs.tiling import tile_graph
    from ..runtime.jobs import ENV_TILE_CACHE_DIR, SimJob, execute_job

    cfg = default_config().scaled(
        array_k=case.array_k, pe_buffer_bytes=case.pe_buffer_bytes
    )
    base_job = SimJob(
        model=case.model,
        dataset=case.dataset,
        scale=case.scale,
        hidden=case.hidden,
        num_layers=case.num_layers,
        config=cfg,
    )
    graph = load_dataset(case.dataset, scale=case.scale, seed=base_job.seed)
    plan = tile_graph(
        graph,
        int(cfg.onchip_bytes * _BUFFER_UTIL),
        bytes_per_value=cfg.bytes_per_value,
    )
    boundaries = tile_boundaries(plan)
    num_tiles = plan.num_tiles
    if num_tiles < 10:  # pragma: no cover
        raise AssertionError(
            f"delta bench needs a many-tile job, got {num_tiles}"
        )

    saved_env = os.environ.get(ENV_TILE_CACHE_DIR)
    benches: dict[str, dict] = {}
    with tempfile.TemporaryDirectory() as tmp:
        try:
            os.environ[ENV_TILE_CACHE_DIR] = tmp
            clear_hot_path_caches()
            t0 = time.perf_counter()
            execute_job(base_job)
            base_seconds = time.perf_counter() - t0

            for fraction in case.fractions:
                warm_times: list[float] = []
                cold_times: list[float] = []
                identical = True
                meta: dict = {}
                delta = None
                for rep in range(max(1, repeat)):
                    # A fresh rewire seed per repeat keeps dirty tiles
                    # genuinely cold in the tile cache each time.
                    delta = _delta_mutation(
                        case, graph, boundaries, num_tiles, fraction,
                        seed=base_job.seed + rep,
                    )
                    job = replace(base_job, mutations=(delta,))
                    # Warm models a persistent serving process: hot-path
                    # memos (including the in-process tile memo) survive
                    # between requests, exactly as under ``repro serve``.
                    # The interleaved cold control wipes that state, so an
                    # untimed base replay restores it first.
                    os.environ[ENV_TILE_CACHE_DIR] = tmp
                    execute_job(base_job)
                    t0 = time.perf_counter()
                    warm_payload = execute_job(job)
                    warm_times.append(time.perf_counter() - t0)
                    meta = warm_payload.get("_exec") or {}

                    del os.environ[ENV_TILE_CACHE_DIR]
                    clear_hot_path_caches()
                    t0 = time.perf_counter()
                    cold_payload = execute_job(job)
                    cold_times.append(time.perf_counter() - t0)
                    warm_result = {
                        k: v for k, v in warm_payload.items() if k != "_exec"
                    }
                    identical = identical and warm_result == cold_payload

                dirty = dirty_tiles(boundaries, delta)
                warm_min = min(warm_times)
                cold_min = min(cold_times)
                key = f"{case.name}-{fraction:g}"
                benches[key] = {
                    "label": f"{case.label()} @ {fraction:.0%} dirty",
                    "dataset": case.dataset,
                    "scale": case.scale,
                    "model": case.model,
                    "hidden": case.hidden,
                    "num_layers": case.num_layers,
                    "num_vertices": graph.num_vertices,
                    "num_edges": graph.num_edges,
                    "num_tiles": num_tiles,
                    "dirty_fraction": fraction,
                    "dirty_tiles": int(dirty.size),
                    "edits": delta.num_edits,
                    "base_cold_seconds": base_seconds,
                    "warm_seconds": warm_min,
                    "warm_seconds_all": warm_times,
                    "cold_seconds": cold_min,
                    "cold_seconds_all": cold_times,
                    "speedup_vs_cold": cold_min / warm_min,
                    "tiles": meta.get("tiles", 0),
                    "tiles_reused": meta.get("tiles_reused", 0),
                    "tiles_recomputed": meta.get("tiles_recomputed", 0),
                    "bit_identical": identical,
                }
        finally:
            if saved_env is None:
                os.environ.pop(ENV_TILE_CACHE_DIR, None)
            else:
                os.environ[ENV_TILE_CACHE_DIR] = saved_env
    return benches


def run_delta_benches(
    benches: tuple[DeltaBenchCase, ...] = DELTA_BENCHES,
    *,
    repeat: int = 1,
    telemetry: bool = True,
) -> dict:
    """Run the incremental re-simulation benches (BENCH_8-style)."""
    from ..telemetry import TRACER
    from .instrumentation import PERF

    PERF.reset()
    with TRACER.session(enabled=telemetry, sample_rate=1.0):
        wall_start = time.perf_counter()
        results: dict[str, dict] = {}
        for case in benches:
            results.update(_run_delta_case(case, repeat))
        wall = time.perf_counter() - wall_start
        telemetry_section = _telemetry_section()
    perf = PERF.snapshot()
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "tier": "delta",
        "repeat": repeat,
        "wall_seconds": wall,
        "benches": results,
        "stages": perf["stages"],
        "counters": perf["counters"],
        "telemetry": telemetry_section,
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "machine": platform.machine(),
        },
    }


#: The optimizers the DSE bench races over one shared cache.  ``random``
#: samples with replacement (the cache is the dedup), so cache-served
#: fraction is the headline; ``sha`` races one cohort cheap → full
#: fidelity, so its evaluations/s shows the multi-fidelity saving.
DSE_BENCH_SEARCHES: tuple[tuple[str, dict], ...] = (
    ("random", {}),
    ("sha", {"cohort": 27}),
)

#: The DSE bench workload: pubmed scaled far down so a 200-candidate
#: search finishes in CI time; the search dynamics (cache amplification,
#: rung promotion) are scale-independent.
DSE_BENCH_WORKLOAD = {
    "dataset": "pubmed",
    "scale": 0.05,
    "hidden": 16,
    "num_layers": 1,
    "seed": 7,
}


def run_dse_benches(
    *,
    repeat: int = 1,
    evaluations: int = 200,
    telemetry: bool = True,
) -> dict:
    """Bench the design-space-exploration service (BENCH_9-style).

    For each optimizer in :data:`DSE_BENCH_SEARCHES`, runs a seeded
    search over the ``aurora-mini`` space on the pubmed workload twice
    against one on-disk :class:`ResultCache`:

    * **cold** — empty cache; ``served`` counts in-batch dedup plus any
      repeat proposals (random samples with replacement, so repeats are
      free);
    * **warm** — same spec, same cache; nearly every evaluation should
      come back cache-served.

    The headline numbers are ``evaluations_per_second`` (cold) and the
    cold/warm ``served_fraction`` — the cache-amplification story the
    whole subsystem is built on.
    """
    import tempfile

    from ..dse import DSERunner, SearchSpec
    from ..runtime.cache import ResultCache
    from ..telemetry import TRACER
    from .instrumentation import PERF

    PERF.reset()
    with TRACER.session(enabled=telemetry, sample_rate=1.0):
        wall_start = time.perf_counter()
        results: dict[str, dict] = {}
        for optimizer, options in DSE_BENCH_SEARCHES:
            spec = SearchSpec(
                space="aurora-mini",
                optimizer=optimizer,
                objective="latency",
                seed=7,
                max_evaluations=evaluations,
                batch=8,
                options=options,
                workload=dict(DSE_BENCH_WORKLOAD),
            )
            with tempfile.TemporaryDirectory() as tmp:
                cache = ResultCache(Path(tmp) / "cache")

                def run_once(tag: str):
                    clear_hot_path_caches()
                    runner = DSERunner(
                        spec,
                        cache=cache,
                        trajectory_path=Path(tmp) / f"{tag}.jsonl",
                    )
                    t0 = time.perf_counter()
                    result = runner.run()
                    return result, time.perf_counter() - t0

                cold, cold_s = run_once("cold")
                warm_all: list[tuple] = []
                for rep in range(max(1, repeat)):
                    warm_all.append(run_once(f"warm-{rep}"))
                warm, warm_s = min(warm_all, key=lambda item: item[1])
                if warm.best_key != cold.best_key:  # pragma: no cover
                    raise AssertionError(
                        f"warm {optimizer} search found a different best "
                        f"design than cold"
                    )

            results[optimizer] = {
                "label": f"{optimizer} over aurora-mini on "
                f"pubmed@{DSE_BENCH_WORKLOAD['scale']:g}",
                "space": "aurora-mini",
                "optimizer": optimizer,
                "options": options,
                "budget": evaluations,
                "evaluations": cold.evaluations,
                "stopped": cold.stopped,
                "cold_seconds": cold_s,
                "cold_executed": cold.executed,
                "cold_served": cold.served,
                "cold_served_fraction": cold.served_fraction,
                "warm_seconds": warm_s,
                "warm_executed": warm.executed,
                "warm_served": warm.served,
                "warm_served_fraction": warm.served_fraction,
                "evaluations_per_second": cold.evaluations / cold_s,
                "warm_evaluations_per_second": warm.evaluations / warm_s,
                "best_fitness": cold.best_fitness,
                "best_point": cold.best_point,
            }
        wall = time.perf_counter() - wall_start
        telemetry_section = _telemetry_section()
    perf = PERF.snapshot()
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "tier": "dse",
        "repeat": repeat,
        "wall_seconds": wall,
        "benches": results,
        "stages": perf["stages"],
        "counters": perf["counters"],
        "telemetry": telemetry_section,
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "machine": platform.machine(),
        },
    }


def run_benches(
    benches: tuple[BenchCase, ...] = STANDARD_BENCHES,
    *,
    repeat: int = 5,
    telemetry: bool = True,
) -> dict:
    """Run the standard benches and return the snapshot dict."""
    from ..telemetry import TRACER
    from .instrumentation import PERF

    PERF.reset()
    with TRACER.session(enabled=telemetry, sample_rate=1.0):
        wall_start = time.perf_counter()
        results = {case.name: _run_case(case, repeat) for case in benches}
        wall = time.perf_counter() - wall_start
        telemetry_section = _telemetry_section()
    perf = PERF.snapshot()
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "tier": "analytical",
        "repeat": repeat,
        "wall_seconds": wall,
        "benches": results,
        "stages": perf["stages"],
        "counters": perf["counters"],
        "telemetry": telemetry_section,
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "machine": platform.machine(),
        },
    }


def write_bench_json(
    path: str | Path,
    benches: tuple[BenchCase, ...] | tuple[CycleBenchCase, ...] | None = None,
    *,
    repeat: int | None = None,
    tier: str = "analytical",
    telemetry: bool = True,
    tile_workers: int | None = None,
) -> dict:
    """Run one tier's benches and write the snapshot to ``path``.

    ``tier`` selects the analytical layer benches (BENCH_2-style), the
    flit-level cycle-tier bench (BENCH_3-style), the end-to-end service
    bench (BENCH_4-style), the sharded-cluster fleet bench
    (BENCH_6-style), the intra-job tile fan-out bench (BENCH_7-style),
    the incremental re-simulation bench (BENCH_8-style), the
    cache-amplified design-space-search bench (BENCH_9-style), or the
    live-observer overhead bench (BENCH_10-style); returns
    the snapshot.  With
    ``telemetry`` the benches run traced and the snapshot carries a
    ``telemetry`` section (span count, top stages by cumulative time).
    ``tile_workers`` applies to the fan-out tier only.
    """
    if tier == "analytical":
        snapshot = run_benches(
            benches if benches is not None else STANDARD_BENCHES,
            repeat=repeat if repeat is not None else 5,
            telemetry=telemetry,
        )
    elif tier == "cycle":
        snapshot = run_cycle_benches(
            benches if benches is not None else CYCLE_BENCHES,
            repeat=repeat if repeat is not None else 3,
            telemetry=telemetry,
        )
    elif tier == "serve":
        snapshot = run_serve_benches(
            repeat=repeat if repeat is not None else 10, telemetry=telemetry
        )
    elif tier == "cluster":
        snapshot = run_cluster_benches(
            repeat=repeat if repeat is not None else 2, telemetry=telemetry
        )
    elif tier == "fanout":
        snapshot = run_fanout_benches(
            benches if benches is not None else FANOUT_BENCHES,
            repeat=repeat if repeat is not None else 1,
            telemetry=telemetry,
            tile_workers=tile_workers,
        )
    elif tier == "delta":
        snapshot = run_delta_benches(
            benches if benches is not None else DELTA_BENCHES,
            repeat=repeat if repeat is not None else 1,
            telemetry=telemetry,
        )
    elif tier == "dse":
        snapshot = run_dse_benches(
            repeat=repeat if repeat is not None else 1, telemetry=telemetry
        )
    elif tier == "observe":
        snapshot = run_observe_benches(
            repeat=repeat if repeat is not None else 40, telemetry=telemetry
        )
    else:
        raise ValueError(
            "tier must be 'analytical', 'cycle', 'serve', 'cluster', "
            "'fanout', 'delta', 'dse', or 'observe'"
        )
    Path(path).write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    return snapshot
