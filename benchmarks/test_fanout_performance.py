"""Multi-tile cycle-layer gate: the event engine's tile loop vs reference.

``run_cycle_layer`` runs a job's tiles one after another in the calling
process through the batched event engine; the contract is a >=5x *cold
single-request* speedup on the multi-tile pubmed job while both engines
stay bit-identical tile by tile.  This module is the CI guard on that
contract.

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

#: Locked contract: one cold event-engine run of the layer vs one cold
#: reference run of the same job.
MIN_SPEEDUP = 5.0


@dataclass(frozen=True)
class FanoutBenchCase:
    """One multi-tile workload: a whole layer of one job.

    The same job is timed cold through the retained reference engine
    and through the event engine; both must produce identical per-tile
    results.
    """

    name: str
    dataset: str
    scale: float
    model: str = "gcn"
    array_k: int = 16
    hidden: int = 16
    #: Tiling capacity; None = the full distributed-buffer capacity.
    tile_capacity_bytes: int | None = None


#: pubmed tiled to half the distributed-buffer capacity (region B's
#: banks stage features/weights for the resident tile while the next one
#: loads) — three dense independent tiles.  Tiles are kept heavy on
#: purpose: the
#: event engine's advantage over the reference grows with per-tile
#: traffic, and calibration sweeps are made of tiles like these.
FANOUT_BENCHES: tuple[FanoutBenchCase, ...] = (
    FanoutBenchCase(
        "pubmed-job", "pubmed", 0.4, tile_capacity_bytes=2048 * 1024
    ),
)


def _run_fanout_case(case: FanoutBenchCase, repeat: int) -> dict:
    """Cold reference and event runs of the whole job, then ``repeat``
    warm event runs; every run must reproduce the reference's per-tile
    counters."""
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
    event, event_s = timed(noc_engine="event")
    base = [tile_fields(t) for t in reference.tiles]
    assert [tile_fields(t) for t in event.tiles] == base, (
        f"event path diverged from reference on {case.name}"
    )

    # Warm repeats of the event path: mapping memos populated.
    for _ in range(max(1, repeat)):
        again = run_cycle_layer(model, plan, dims, config=cfg)
        assert [tile_fields(t) for t in again.tiles] == base, (
            f"warm event path diverged from reference on {case.name}"
        )

    return {
        "num_tiles": plan.num_tiles,
        "noc_cycles": event.total_cycles,
        "packets": event.packets,
        # Cold single-request latency of the event path against the
        # retained reference simulator.
        "speedup_vs_reference": reference_s / event_s,
    }


def test_fanout_speedup_vs_reference():
    """One bench pass (reference + event + warm repeat) with per-tile
    identity checks built into ``_run_fanout_case`` — a diverging tile
    fails before any timing assert can pass."""
    bench = _run_fanout_case(FANOUT_BENCHES[0], repeat=1)
    assert bench["speedup_vs_reference"] >= MIN_SPEEDUP / SLACK
    # Absolute sanity: the job must be the heavy multi-tile standard one.
    assert bench["num_tiles"] >= 2
    assert bench["packets"] > 10_000
    assert bench["noc_cycles"] > 50_000
