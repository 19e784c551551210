"""Traffic extraction: mapped subgraph → NoC flows.

Converts a graph tile plus a vertex→PE placement into the (src PE, dst PE,
bytes) flow list consumed by both the flit-level and analytical NoC
models.  Fully vectorised; the flow list length is the edge count before
aggregation, so this is the hot path for large tiles.
"""

from __future__ import annotations

import numpy as np

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


from dataclasses import dataclass


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
      `tests/test_multicast.py` pins the relationship;
    * ``eject_bytes[node]`` — full payload per received message (every
      destination consumes the entire vector);
    * ``inject_bytes[node]`` — one payload per source vertex (the tree is
      fed once).
    """

    flows: np.ndarray  # (u, 3): src_pe, dst_pe, tree-shared bytes
    eject_bytes: np.ndarray  # per-node full ejection bytes
    inject_bytes: np.ndarray  # per-node injection bytes (once per vertex)


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
    remote filtering, and (source vertex, destination PE) dedup run over
    a single concatenated edge array with tile-composite keys — one
    ``np.unique`` instead of one per tile.  The per-call NumPy dispatch
    overhead, which dominates many-tile plans, is paid once.
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
    src_parts: list[np.ndarray] = []
    pe_src_parts: list[np.ndarray] = []
    pe_dst_parts: list[np.ndarray] = []
    voff = np.zeros(len(subs) + 1, dtype=np.int64)
    for t, (sub, mapping) in enumerate(zip(subs, mappings)):
        if mapping.vertex_to_pe.size != sub.num_vertices:
            raise ValueError("mapping does not cover the graph's vertices")
        if mapping.region.array_k ** 2 != num_nodes:
            raise ValueError("all mappings must target the same array size")
        voff[t + 1] = voff[t] + sub.num_vertices
        if sub.num_edges == 0:
            continue
        src_v = np.repeat(
            np.arange(sub.num_vertices, dtype=np.int64), sub.degrees
        )
        dst_pe = mapping.vertex_to_pe[sub.indices]
        src_pe = mapping.vertex_to_pe[src_v]
        remote = src_pe != dst_pe
        src_parts.append(src_v[remote] + voff[t])
        pe_src_parts.append(src_pe[remote])
        pe_dst_parts.append(dst_pe[remote])

    empty = MulticastTraffic(
        flows=np.empty((0, 3), dtype=np.int64),
        eject_bytes=np.zeros(num_nodes, dtype=np.int64),
        inject_bytes=np.zeros(num_nodes, dtype=np.int64),
    )
    if not src_parts:
        return [
            MulticastTraffic(
                flows=empty.flows,
                eject_bytes=empty.eject_bytes.copy(),
                inject_bytes=empty.inject_bytes.copy(),
            )
            for _ in subs
        ]

    gsrc = np.concatenate(src_parts)
    src_pe = np.concatenate(pe_src_parts)
    dst_pe = np.concatenate(pe_dst_parts)
    # Tile-composite key: the global source-vertex id already encodes the
    # tile, so one dedup covers every tile without cross-tile collisions.
    key = gsrc * num_nodes + dst_pe
    _, keep = np.unique(key, return_index=True)
    gsrc, src_pe, dst_pe = gsrc[keep], src_pe[keep], dst_pe[keep]
    n_dst = np.bincount(gsrc, minlength=int(voff[-1]))
    share = np.maximum(payload_bytes // np.maximum(n_dst[gsrc], 1), 1)
    # Kept rows are sorted by key, hence grouped by tile: slice per tile.
    tile_of = np.searchsorted(voff, gsrc, side="right") - 1
    bounds = np.searchsorted(tile_of, np.arange(len(subs) + 1))

    out: list[MulticastTraffic] = []
    for t, (sub, mapping) in enumerate(zip(subs, mappings)):
        lo, hi = int(bounds[t]), int(bounds[t + 1])
        if lo == hi:
            out.append(
                MulticastTraffic(
                    flows=np.empty((0, 3), dtype=np.int64),
                    eject_bytes=np.zeros(num_nodes, dtype=np.int64),
                    inject_bytes=np.zeros(num_nodes, dtype=np.int64),
                )
            )
            continue
        t_dst = dst_pe[lo:hi]
        flows = np.column_stack((src_pe[lo:hi], t_dst, share[lo:hi]))
        eject = np.bincount(t_dst, minlength=num_nodes) * payload_bytes
        senders = np.unique(gsrc[lo:hi]) - voff[t]
        inject = (
            np.bincount(mapping.vertex_to_pe[senders], minlength=num_nodes)
            * payload_bytes
        )
        out.append(
            MulticastTraffic(flows=flows, eject_bytes=eject, inject_bytes=inject)
        )
    return out


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
    if reduction_dedup and src_v.size:
        key = src_pe * graph.num_vertices + dst_v
        _, keep = np.unique(key, return_index=True)
        src_pe = src_pe[keep]
        dst_pe = dst_pe[keep]
    elif dedup_per_pe and src_v.size:
        key = src_v * num_nodes + dst_pe
        _, keep = np.unique(key, return_index=True)
        src_pe = src_pe[keep]
        dst_pe = dst_pe[keep]
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
        return np.empty((0, 3), dtype=np.int64)
    key = flows[:, 0] * num_nodes + flows[:, 1]
    order = np.argsort(key, kind="stable")
    key = key[order]
    byts = flows[order, 2]
    uniq, starts = np.unique(key, return_index=True)
    sums = np.add.reduceat(byts, starts)
    return np.column_stack((uniq // num_nodes, uniq % num_nodes, sums))
