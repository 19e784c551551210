"""Traffic extraction: mapped subgraph → NoC flows.

Converts a graph tile plus a vertex→PE placement into the (src PE, dst PE,
bytes) flow list consumed by both the flit-level and analytical NoC
models.  Fully vectorised; the flow list length is the edge count before
aggregation, so this is the hot path for large tiles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..arch.noc.analytical import TrafficMatrix, ceil_flits
from ..arrays import group_sum, run_starts, sorted_unique
from ..graphs.csr import CSRGraph
from ..telemetry import TRACER
from .base import MappingResult

__all__ = [
    "edge_flows",
    "aggregate_flows",
    "multicast_flows",
    "batched_multicast_flows",
    "MulticastTraffic",
]


@dataclass(frozen=True)
class MulticastTraffic:
    """Traffic of a feature-distribution phase under tree multicast.

    During aggregation each vertex's feature vector is needed by every PE
    hosting one of its out-neighbors.  The flexible NoC distributes it as
    a multicast: the source injects the message once and routers/reuse
    FIFOs replicate it along a tree.  Consequences per quantity:

    * ``flows`` — (src_pe, dst_pe, bytes) rows where each source vertex's
      payload is split across its destination set.  This approximates the
      shared tree from the *source's* perspective: links near the source
      (where the hotspot sits and tree paths fully overlap) are counted
      exactly once per payload, while deep-tree replication onto disjoint
      branches is undercounted — a deliberate trade, since the drain
      bottleneck the model reports is governed by the near-source links
      and the (exact) ejection/injection port loads.  The flit-level
      validator (`arch.noc.multicast`) measures the exact tree volume;
      `tests/test_multicast.py` pins the relationship.  One row per
      delivery (a remote (source vertex, destination PE) pair), sorted
      by that pair; only the flit-level tier reads them, so they are
      derived on access;
    * ``pairs`` — ``flows`` merged per (src_pe, dst_pe), bytes summed,
      sorted by ``src * num_nodes + dst``: what :func:`aggregate_flows`
      returns for ``flows``;
    * ``eject_bytes[node]`` — full payload per received message (every
      destination consumes the entire vector);
    * ``inject_bytes[node]`` — one payload per source vertex (the tree is
      fed once).

    The deliveries themselves are kept grouped by pair: ``pair_sizes``
    counts each pair's deliveries, and ``sources`` / ``shares`` hold
    each delivery's source vertex (numbered across the layer, so only
    its order within a tile means anything) and tree-shared bytes.
    """

    pairs: np.ndarray  # (p, 3): src_pe, dst_pe, summed bytes
    eject_bytes: np.ndarray  # per-node full ejection bytes
    inject_bytes: np.ndarray  # per-node injection bytes (once per vertex)
    sources: np.ndarray  # (u,): source vertex per delivery, pair order
    shares: np.ndarray  # (u,): tree-shared bytes per delivery
    pair_sizes: np.ndarray  # (p,): deliveries per pair

    @property
    def flows(self) -> np.ndarray:
        """``(u, 3)`` rows ``(src_pe, dst_pe, tree-shared bytes)`` in
        (source vertex, destination PE) order."""
        src = np.repeat(self.pairs[:, 0], self.pair_sizes)
        dst = np.repeat(self.pairs[:, 1], self.pair_sizes)
        order = np.lexsort((dst, self.sources))
        return np.column_stack((src, dst, self.shares))[order]

    def matrix(self, flit_bytes: int, k: int) -> TrafficMatrix:
        """The aggregated pairs as a :class:`TrafficMatrix` on a k×k
        array."""
        return TrafficMatrix.from_pairs(*self.pairs.T, flit_bytes, k)

    def port_flits(self, flit_bytes: int) -> tuple[np.ndarray, np.ndarray]:
        """``(eject, inject)`` per-node port loads in flits, rounded up:
        a partial trailing flit still holds its port for a cycle."""
        return (
            ceil_flits(self.eject_bytes, flit_bytes),
            ceil_flits(self.inject_bytes, flit_bytes),
        )


def multicast_flows(
    graph: CSRGraph,
    mapping: MappingResult,
    payload_bytes: int,
) -> MulticastTraffic:
    """Tree-multicast traffic for the aggregation feature distribution
    (one tile: a one-tile :func:`batched_multicast_flows` call)."""
    return batched_multicast_flows([graph], [mapping], payload_bytes)[0]


def batched_multicast_flows(
    subs: "list[CSRGraph] | tuple[CSRGraph, ...]",
    mappings: "list[MappingResult] | tuple[MappingResult, ...]",
    payload_bytes: int,
) -> list[MulticastTraffic]:
    """Tree-multicast traffic for *all* tiles of a layer in one pass.

    Each tile's entry equals a one-tile call (bit-for-bit, pinned by
    ``tests/test_traffic_batched.py``), but the edge→flow extraction,
    remote filtering, (source vertex, destination PE) dedup, pair
    aggregation and port counts run over the layer's concatenated edge
    array with one fused key per edge: one sort and three ``bincount``
    calls per layer, whatever the tile count.
    """
    if len(subs) != len(mappings):
        raise ValueError("need one mapping per subgraph")
    if payload_bytes < 1:
        raise ValueError("payload_bytes must be >= 1")
    if not subs:
        return []
    with TRACER.span("traffic"):
        return _batched_multicast_flows(subs, mappings, payload_bytes)


def _batched_multicast_flows(
    subs, mappings, payload_bytes: int
) -> list[MulticastTraffic]:
    num_nodes = mappings[0].region.array_k ** 2
    n_tiles = len(subs)
    for sub, mapping in zip(subs, mappings):
        if mapping.vertex_to_pe.size != sub.num_vertices:
            raise ValueError("mapping does not cover the graph's vertices")
        if mapping.region.array_k ** 2 != num_nodes:
            raise ValueError("all mappings must target the same array size")
    sizes = [sub.num_vertices for sub in subs]
    n_vert = sum(sizes)
    _check_key_bound(n_tiles, num_nodes, n_vert)

    # One key per remote edge, ordered (tile, src PE, dst PE, global
    # source vertex): its sorted unique values are the deliveries, each
    # (source vertex, destination PE) once, grouped by tile and pair.
    v2p = np.concatenate([m.vertex_to_pe for m in mappings], dtype=np.int64)
    tile_of = np.repeat(np.arange(n_tiles, dtype=np.int64), sizes)
    src_key = (tile_of * num_nodes + v2p) * (num_nodes * n_vert)
    src_key += np.arange(n_vert)  # each vertex's key for dst PE 0
    degrees = np.concatenate([sub.degrees for sub in subs])
    dst_pe = np.concatenate(
        [m.vertex_to_pe[sub.indices] for sub, m in zip(subs, mappings)],
        dtype=np.int64,
    )
    key = np.repeat(src_key, degrees)
    key += dst_pe * n_vert
    key = sorted_unique(key[np.repeat(v2p, degrees) != dst_pe])

    prefix = key // n_vert  # tile, src PE, dst PE
    vertex = key - prefix * n_vert
    fanout = np.bincount(vertex, minlength=n_vert)  # destinations per vertex
    share = np.maximum(payload_bytes // np.maximum(fanout, 1), 1)[vertex]
    starts = run_starts(prefix)  # each pair's first delivery
    pair_sizes = np.diff(starts, append=key.size)
    # Per-pair byte sums as differences of the running total at each
    # pair's last delivery (exact in int64, unlike a weighted bincount,
    # and cheaper than ``np.add.reduceat`` over many short runs).
    sums = np.diff(np.cumsum(share)[starts + pair_sizes - 1], prepend=0)
    pkey = prefix[starts]
    ptile = pkey // (num_nodes * num_nodes)
    pair = pkey - ptile * (num_nodes * num_nodes)
    pdst = pair % num_nodes
    pairs = np.column_stack((pair // num_nodes, pdst, sums))
    pbounds = np.searchsorted(ptile, np.arange(n_tiles + 1))
    rbounds = np.append(starts, key.size)[pbounds]

    # Every delivery ejects the full payload (float64 sums of integer
    # counts are exact below 2**53); every vertex that sends injects it
    # once.
    eject = np.bincount(
        ptile * num_nodes + pdst, weights=pair_sizes, minlength=n_tiles * num_nodes
    ).astype(np.int64).reshape(n_tiles, num_nodes) * payload_bytes
    sender = np.flatnonzero(fanout)
    inject = np.bincount(
        tile_of[sender] * num_nodes + v2p[sender],
        minlength=n_tiles * num_nodes,
    ).reshape(n_tiles, num_nodes) * payload_bytes

    return [
        MulticastTraffic(
            pairs=pairs[pbounds[t] : pbounds[t + 1]],
            eject_bytes=eject[t],
            inject_bytes=inject[t],
            sources=vertex[rbounds[t] : rbounds[t + 1]],
            shares=share[rbounds[t] : rbounds[t + 1]],
            pair_sizes=pair_sizes[pbounds[t] : pbounds[t + 1]],
        )
        for t in range(n_tiles)
    ]


def _check_key_bound(n_tiles: int, num_nodes: int, num_vertices: int) -> None:
    """Raise unless the layer's fused sort keys fit in int64.

    A key packs (tile, src PE, dst PE, global source vertex), so the
    largest is ``tiles·N²·V - 1`` for ``N`` nodes and ``V`` vertices.
    """
    if n_tiles * num_nodes**2 * num_vertices >= 2**63:
        raise ValueError(
            f"layer too large for one int64 sort key: tiles·N²·V = "
            f"{n_tiles}·{num_nodes}²·{num_vertices} must be below 2**63"
        )


def edge_flows(
    graph: CSRGraph,
    mapping: MappingResult,
    payload_bytes: int,
    *,
    dedup_per_pe: bool = True,
    reduction_dedup: bool = False,
) -> np.ndarray:
    """Per-edge flows ``(src_pe_node, dst_pe_node, bytes)``.

    One message per edge: the neighbor's feature (or edge embedding)
    travelling from the PE holding the source vertex to the PE holding
    the destination vertex.  Edges whose endpoints share a PE produce
    zero NoC traffic (served from the local bank buffer) and are dropped.

    ``dedup_per_pe`` models Aurora's reuse FIFO (paper §III-D): a vertex's
    feature is sent to a given PE once and reused there for every edge
    targeting that PE, so duplicate ``(vertex, destination PE)`` pairs
    collapse into a single message.

    ``reduction_dedup`` models source-side partial aggregation: when the
    aggregation function is associative and commutative (ΣV / MaxV with
    at most scalar edge coefficients), a source PE pre-reduces all its
    contributions to one destination vertex into a single partial, so
    duplicate ``(source PE, destination vertex)`` pairs collapse.  This is
    the standard fan-in mitigation for high-degree vertices and the
    traffic the bypass links then carry.  When set it takes precedence
    over ``dedup_per_pe`` (partials are per-destination values, so the
    multicast dedup does not compose with them).
    """
    if payload_bytes < 1:
        raise ValueError("payload_bytes must be >= 1")
    if mapping.vertex_to_pe.size != graph.num_vertices:
        raise ValueError("mapping does not cover the graph's vertices")
    if graph.num_edges == 0:
        return np.empty((0, 3), dtype=np.int64)
    src_v = np.repeat(
        np.arange(graph.num_vertices, dtype=np.int64), graph.degrees
    )
    dst_v = graph.indices
    src_pe = mapping.vertex_to_pe[src_v]
    dst_pe = mapping.vertex_to_pe[dst_v]
    remote = src_pe != dst_pe
    src_v = src_v[remote]
    dst_v = dst_v[remote]
    src_pe = src_pe[remote]
    dst_pe = dst_pe[remote]
    num_nodes = mapping.region.array_k ** 2
    # Each dedup key determines both PEs, so the sorted unique keys are
    # the kept rows.
    if reduction_dedup and src_v.size:
        n = graph.num_vertices
        key = sorted_unique(src_pe * n + dst_v)
        src_pe, dst_pe = key // n, mapping.vertex_to_pe[key % n]
    elif dedup_per_pe and src_v.size:
        key = sorted_unique(src_v * num_nodes + dst_pe)
        src_pe = mapping.vertex_to_pe[key // num_nodes]
        dst_pe = key % num_nodes
    flows = np.column_stack(
        (
            src_pe,
            dst_pe,
            np.full(src_pe.size, payload_bytes, dtype=np.int64),
        )
    )
    return flows


def aggregate_flows(flows: np.ndarray, num_nodes: int) -> np.ndarray:
    """Merge duplicate (src, dst) pairs, summing bytes.

    Returns an ``(u, 3)`` array sorted by (src, dst).
    """
    flows = np.asarray(flows, dtype=np.int64)
    if flows.size == 0:
        flows = flows.reshape(0, 3)
    key, sums = group_sum(flows[:, 0] * num_nodes + flows[:, 1], flows[:, 2])
    return np.column_stack((key // num_nodes, key % num_nodes, sums))
