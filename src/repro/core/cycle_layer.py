"""Cycle-tier layer runner: one layer, many tiles, one tile loop.

:class:`~repro.core.cycle_engine.CycleTileEngine` executes one tile;
this module runs a whole layer's worth of tiles.  Tiles are independent
— each maps, configures, injects, and drains its own NoC — so the
runner hands them to :func:`repro.runtime.shards.run_tile_shards`,
which serves previously computed tiles from the per-tile result cache
and runs the rest in tile order in this process.

Two invariants the property tests pin:

* **Deterministic order** — results come back in tile order whether a
  tile was cached or computed.
* **Bit identity** — the aggregate result is identical cached or
  uncached and under either NoC engine, because the event engine is
  pinned bit-identical to the reference and per-tile work is a pure
  function of the tile.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Sequence

from ..config import AcceleratorConfig
from ..graphs.csr import CSRGraph
from ..graphs.tiling import TilingPlan
from ..models.base import GNNModel
from ..models.workload import LayerDims
from ..telemetry import TRACER
from .cycle_engine import CycleTileEngine, CycleTileResult

if TYPE_CHECKING:  # deferred at runtime: repro.runtime imports repro.core
    from ..runtime.cache import ResultCache

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
    from ..runtime.shards import tile_sub_keys

    base = {
        "model": model.name,
        "dims": [dims.in_features, dims.out_features, dims.hidden],
        "config": asdict(config),
        "policy": mapping_policy,
        "tiling": partition_signature,
    }
    return tile_sub_keys(
        "cycle-tile", base, [{"graph": sub.content_key} for sub in subs]
    )


def run_cycle_layer(
    model: GNNModel,
    tiles: TilingPlan | Sequence[CSRGraph],
    dims: LayerDims,
    *,
    config: AcceleratorConfig,
    mapping_policy: str = "degree-aware",
    noc_engine: str = "event",
    cache: ResultCache | None = None,
    partition_signature: dict | None = None,
) -> CycleLayerResult:
    """Execute every tile of one layer, in tile order.

    ``tiles`` is either a :class:`~repro.graphs.tiling.TilingPlan` or a
    sequence of tile subgraphs.  With a ``cache``, each tile is probed
    under its content-addressed sub-key first, so re-running a job after
    editing one tile recomputes only that tile.  ``partition_signature``
    carries the tiling parameters into the cache keys (defaults to the
    plan's own parameters when ``tiles`` is a
    :class:`~repro.graphs.tiling.TilingPlan`).
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

    def run_cold(cold):
        engine = CycleTileEngine(
            config, mapping_policy=mapping_policy, noc_engine=noc_engine
        )
        return {
            "tiles": [
                engine.run_tile(model, sub, dims).to_payload()
                for sub in cold.payloads
            ]
        }

    keys = (
        _tile_keys(subs, model, dims, config, mapping_policy, partition_signature)
        if cache is not None
        else None
    )
    with TRACER.span(
        "cycle.layer",
        {
            "model": model.name,
            "tiles": len(subs),
            "noc_engine": noc_engine,
        },
    ):
        run = run_tile_shards(
            subs, run_cold, kind="cycle", tile_keys=keys, cache=cache
        )
    return CycleLayerResult(
        tiles=[CycleTileResult.from_payload(p) for p in run.payloads],
        fanout=run.stats,
        noc_engine=noc_engine,
    )
