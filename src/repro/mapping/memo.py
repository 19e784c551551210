"""Memoized tile mapping shared by the analytical and cycle tiers.

Both :class:`repro.core.simulator.AuroraSimulator` and
:class:`repro.core.cycle_engine.CycleTileEngine` map tiles with identical
inputs whenever tile structures repeat (regular generators, repeated
layers of one graph, calibration runs re-executing the same tile).  The
mapping algorithms are pure functions of ``(subgraph content, region,
policy, capacity)``, so their results are cached in a bounded LRU keyed
by :attr:`repro.graphs.csr.CSRGraph.content_key`.

:class:`~repro.mapping.base.MappingResult` is frozen and treated as
immutable by every consumer (its ``vertex_to_pe`` array is only read),
so sharing one instance across cache hits is safe.
"""

from __future__ import annotations

from collections import OrderedDict

from ..graphs.csr import CSRGraph
from ..perf import PERF
from ..telemetry import TRACER
from .base import MappingResult, PERegion
from .degree_aware import degree_aware_map
from .hashing import hashing_map

__all__ = ["map_tile", "clear_mapping_cache", "MAPPING_CACHE_MAX"]

#: Bounded LRU size; tiles are small and MappingResults lighter still,
#: but sweeps touch many graphs so the cache must not grow unbounded.
MAPPING_CACHE_MAX = 512

_CACHE: OrderedDict[tuple, MappingResult] = OrderedDict()


def map_tile(
    sub: CSRGraph,
    region: PERegion,
    policy: str,
    *,
    pe_vertex_capacity: int | None = None,
) -> MappingResult:
    """Map ``sub`` onto ``region`` under ``policy``, with an LRU memo.

    ``pe_vertex_capacity`` defaults to the ceiling of vertices over the
    region's PEs — the capacity both simulator tiers use.
    """
    if policy not in ("degree-aware", "hashing"):
        raise ValueError("policy must be 'degree-aware' or 'hashing'")
    cap = (
        pe_vertex_capacity
        if pe_vertex_capacity is not None
        else max(1, -(-sub.num_vertices // region.num_pes))
    )
    key = (sub.content_key, region, policy, cap)
    hit = _CACHE.get(key)
    if hit is not None:
        _CACHE.move_to_end(key)
        PERF.incr("mapping.tile_cache_hit")
        return hit
    PERF.incr("mapping.tile_cache_miss")
    with TRACER.span("mapping"):
        if policy == "degree-aware":
            result = degree_aware_map(sub, region, pe_vertex_capacity=cap)
        else:
            result = hashing_map(sub, region, pe_vertex_capacity=cap)
    _CACHE[key] = result
    if len(_CACHE) > MAPPING_CACHE_MAX:
        _CACHE.popitem(last=False)
    return result


def clear_mapping_cache() -> None:
    """Drop all memoized tile mappings (tests, memory pressure)."""
    _CACHE.clear()
