"""Cycle-tier layer runner: one layer, many tiles, sharded execution.

:class:`~repro.core.cycle_engine.CycleTileEngine` executes one tile;
this module runs a whole layer's worth of tiles and is where intra-job
parallelism lives.  Tiles are independent — each maps, configures,
injects, and drains its own NoC — so the runner hands them to
:func:`repro.runtime.shards.run_tile_shards`, which batches them into
contiguous shards across worker processes, serves previously computed
tiles from the per-tile result cache, and recovers crashed shards
serially.

Two invariants the property tests pin:

* **Deterministic order** — results come back in tile order regardless
  of worker count or shard layout.
* **Bit identity** — the aggregate result is identical under serial,
  sharded, and either NoC engine, because the event engine is pinned
  bit-identical to the reference and per-tile work is a pure function
  of the tile.

Worker processes receive the parent's NoC route memo
(:func:`repro.arch.noc.network.export_route_memo`) so identical
topologies never re-derive routes per shard.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial
from typing import Sequence

from typing import TYPE_CHECKING

from ..arch.noc.network import export_route_memo, install_route_memo
from ..config import AcceleratorConfig
from ..graphs.csr import CSRGraph
from ..graphs.tiling import TilingPlan
from ..models.base import GNNModel
from ..models.workload import LayerDims
from ..telemetry import TRACER
from .cycle_engine import CycleTileEngine, CycleTileResult

if TYPE_CHECKING:  # deferred at runtime: repro.runtime imports repro.core
    from ..runtime.cache import ResultCache
    from ..runtime.shards import TileShardJob, TileShardPlanner

__all__ = ["CycleLayerResult", "run_cycle_layer"]


@dataclass
class CycleLayerResult:
    """Per-tile cycle-accurate results for one layer, in tile order."""

    tiles: list[CycleTileResult]
    fanout: dict
    noc_engine: str

    @property
    def total_cycles(self) -> int:
        """Layer latency with tiles executed back to back."""
        return sum(t.tile_cycles for t in self.tiles)

    @property
    def packets(self) -> int:
        return sum(t.packets for t in self.tiles)

    @property
    def flits(self) -> int:
        return sum(t.flits for t in self.tiles)

    @property
    def stall_events(self) -> int:
        return sum(t.stall_events for t in self.tiles)


def _run_cycle_shard(
    job: TileShardJob,
    *,
    config: AcceleratorConfig,
    model: GNNModel,
    dims: LayerDims,
    mapping_policy: str,
    noc_engine: str,
) -> dict:
    """Pool-worker entry: execute one shard's tiles, return JSON payloads.

    Module-level (and invoked through :func:`functools.partial`) so the
    process pool can pickle it by reference.
    """
    if job.route_memo:
        install_route_memo(dict(job.route_memo))
    engine = CycleTileEngine(
        config, mapping_policy=mapping_policy, noc_engine=noc_engine
    )
    tiles = []
    for sub in job.payloads:
        if not isinstance(sub, CSRGraph):
            # Shared-memory handle from the parent's GraphPlane; resolves
            # through the worker's content-keyed graph cache.
            from ..runtime.graphplane import resolve_handle

            sub = resolve_handle(sub)
        tiles.append(engine.run_tile(model, sub, dims).to_payload())
    return {"tiles": tiles}


def _tile_keys(
    subs: Sequence[CSRGraph],
    model: GNNModel,
    dims: LayerDims,
    config: AcceleratorConfig,
    mapping_policy: str,
    partition_signature: dict | None,
) -> list[str]:
    """Per-tile content-addressed cache sub-keys.

    The NoC engine is deliberately absent: the event engine is
    property-tested bit-identical to the reference, so a tile computed
    under ``event`` is a valid cache hit for a later ``reference`` run
    of the same workload.  The partition signature *is* present: a tile
    cached under one tiling configuration must never satisfy a probe
    from another.
    """
    from ..runtime.shards import tile_sub_key

    base = {
        "model": model.name,
        "dims": [dims.in_features, dims.out_features, dims.hidden],
        "config": asdict(config),
        "policy": mapping_policy,
        "tiling": partition_signature,
    }
    return [
        tile_sub_key("cycle-tile", {**base, "graph": sub.content_key})
        for sub in subs
    ]


def run_cycle_layer(
    model: GNNModel,
    tiles: TilingPlan | Sequence[CSRGraph],
    dims: LayerDims,
    *,
    config: AcceleratorConfig,
    mapping_policy: str = "degree-aware",
    noc_engine: str = "event",
    tile_workers: int = 1,
    cache: ResultCache | None = None,
    planner: TileShardPlanner | None = None,
    timeout: float | None = None,
    partition_signature: dict | None = None,
    graph_plane=None,
) -> CycleLayerResult:
    """Execute every tile of one layer, fanned out over ``tile_workers``.

    ``tiles`` is either a :class:`~repro.graphs.tiling.TilingPlan` or a
    sequence of tile subgraphs.  With a ``cache``, each tile is probed
    under its content-addressed sub-key first, so re-running a job after
    editing one tile recomputes only that tile.  ``partition_signature``
    carries the tiling parameters into the cache keys (defaults to the
    plan's own parameters when ``tiles`` is a
    :class:`~repro.graphs.tiling.TilingPlan`).  With a ``graph_plane``
    and multiple workers, cold tile subgraphs ship to workers as
    shared-memory handles instead of pickled arrays.
    """
    from ..runtime.shards import run_tile_shards

    # Up front: with a warm cache no engine is ever built to reject it.
    CycleTileEngine.check_noc_engine(noc_engine)
    if isinstance(tiles, TilingPlan):
        subs = [tile.subgraph for tile in tiles]
        if partition_signature is None:
            partition_signature = {
                "capacity_bytes": tiles.capacity_bytes,
                "bytes_per_value": tiles.bytes_per_value,
            }
    else:
        subs = list(tiles)

    worker_fn = partial(
        _run_cycle_shard,
        config=config,
        model=model,
        dims=dims,
        mapping_policy=mapping_policy,
        noc_engine=noc_engine,
    )
    keys = (
        _tile_keys(subs, model, dims, config, mapping_policy, partition_signature)
        if cache is not None
        else None
    )
    ship_via_plane = graph_plane is not None and tile_workers > 1

    def build_payloads(indices):
        return [
            graph_plane.publish(subs[i]) if ship_via_plane else subs[i]
            for i in indices
        ]
    with TRACER.span(
        "cycle.layer",
        {
            "model": model.name,
            "tiles": len(subs),
            "tile_workers": tile_workers,
            "noc_engine": noc_engine,
        },
    ):
        fanout = run_tile_shards(
            len(subs),
            worker_fn,
            kind="cycle",
            tile_workers=tile_workers,
            costs=[max(1, sub.num_edges) for sub in subs],
            tile_keys=keys,
            cache=cache,
            planner=planner,
            route_memo=export_route_memo(),
            timeout=timeout,
            payload_builder=build_payloads,
        )
    return CycleLayerResult(
        tiles=[CycleTileResult.from_payload(p) for p in fanout.payloads],
        fanout=fanout.stats,
        noc_engine=noc_engine,
    )
