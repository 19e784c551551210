"""Intra-job fan-out gate: event engine + tile sharding vs reference.

The fan-out path runs the batched event engine and fans a job's
independent tiles out over worker processes; the contract is a >=5x
*cold single-request* speedup on the multi-tile pubmed job while every
path — serial, sharded, either engine — stays bit-identical to the
retained reference.  This module is the CI guard on that contract.

Like the cycle-tier gate, the speedup assert is a ratio of two runs on
the same machine, relaxed by ``$REPRO_BENCH_SLACK`` against runner
jitter.
"""

import os
import time
from dataclasses import dataclass

from conftest import tile_fields

from repro.perf.bench import clear_hot_path_caches

#: Multiplier on every bound; CI sets e.g. REPRO_BENCH_SLACK=4.
SLACK = float(os.environ.get("REPRO_BENCH_SLACK", "1.0"))

#: Locked contract: cold event+sharded request vs one cold reference run
#: of the same job.  The serial event path alone measured 6.1x;
#: sharding adds more on multicore machines.
MIN_SPEEDUP = 5.0


@dataclass(frozen=True)
class FanoutBenchCase:
    """One intra-job fan-out workload: a multi-tile job, whole layer.

    The same job is timed cold through the retained reference engine
    (serial), the event engine (serial), and the event engine with tile
    sharding — all three paths must produce identical per-tile results.
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


#: pubmed tiled to half the distributed-buffer capacity (region B's
#: banks stage features/weights for the resident tile while the next one
#: loads) — three dense independent tiles, exactly the shape intra-job
#: parallelism was built for.  Tiles are kept heavy on purpose: the
#: event engine's advantage over the reference grows with per-tile
#: traffic, and calibration sweeps are made of tiles like these.
FANOUT_BENCHES: tuple[FanoutBenchCase, ...] = (
    FanoutBenchCase(
        "pubmed-job", "pubmed", 0.4, tile_capacity_bytes=2048 * 1024
    ),
)


def _run_fanout_case(case: FanoutBenchCase, repeat: int) -> dict:
    """Cold reference, serial-event and fan-out runs of the whole job,
    then ``repeat`` warm fan-out runs; every path must reproduce the
    reference's per-tile counters."""
    from repro.config import small_config
    from repro.core.cycle_layer import run_cycle_layer
    from repro.graphs.datasets import load_dataset
    from repro.graphs.tiling import tile_graph
    from repro.models.workload import LayerDims
    from repro.models.zoo import get_model

    graph = load_dataset(case.dataset, scale=case.scale)
    model = get_model(case.model)
    dims = LayerDims(graph.num_features, case.hidden)
    cfg = small_config(case.array_k)
    plan = tile_graph(
        graph, case.tile_capacity_bytes or cfg.onchip_bytes
    )

    def timed(**kwargs):
        clear_hot_path_caches()
        t0 = time.perf_counter()
        layer = run_cycle_layer(model, plan, dims, config=cfg, **kwargs)
        return layer, time.perf_counter() - t0

    reference, reference_s = timed(noc_engine="reference")
    serial, _ = timed(noc_engine="event")
    fanout, fanout_s = timed(tile_workers=case.tile_workers)
    base = [tile_fields(t) for t in reference.tiles]
    for name, layer in (("serial", serial), ("fanout", fanout)):
        assert [tile_fields(t) for t in layer.tiles] == base, (
            f"{name} path diverged from reference on {case.name}"
        )

    # Warm repeats of the fan-out path: route + mapping memos populated.
    for _ in range(max(1, repeat)):
        again = run_cycle_layer(
            model, plan, dims, config=cfg, tile_workers=case.tile_workers
        )
        assert [tile_fields(t) for t in again.tiles] == base, (
            f"warm fan-out diverged from reference on {case.name}"
        )

    return {
        "num_tiles": plan.num_tiles,
        "noc_cycles": fanout.total_cycles,
        "packets": fanout.packets,
        # Cold single-request latency of the event + sharded path
        # against the retained reference simulator.
        "speedup_vs_reference": reference_s / fanout_s,
    }


def test_fanout_speedup_vs_reference():
    """One bench pass (reference + serial + fan-out + warm repeat) with
    per-tile identity checks built into ``_run_fanout_case`` — a
    diverging tile fails before any timing assert can pass."""
    bench = _run_fanout_case(FANOUT_BENCHES[0], repeat=1)
    assert bench["speedup_vs_reference"] >= MIN_SPEEDUP / SLACK
    # Absolute sanity: the job must be the heavy multi-tile standard one.
    assert bench["num_tiles"] >= 2
    assert bench["packets"] > 10_000
    assert bench["noc_cycles"] > 50_000
