"""Deadlock-freedom checking for configured topologies.

Dimension-ordered XY routing on a mesh is provably deadlock-free, but
Aurora *reconfigures* its network: bypass segments add turns XY never
takes, and ring regions introduce cyclic channel usage by construction.
The link controller must therefore only install configurations whose
channel-dependency graph stays safe.  This module builds that CDG for
the deterministic routing over a configured
:class:`FlexibleMeshTopology` and reports:

* whether the mesh-channel dependency graph is acyclic (wormhole-safe
  with a single VC), and the offending cycles if not;
* which cycles are ring wrap-arounds — safe with the dateline discipline
  the second VC provides (the paper's router has ``vcs_per_port`` ≥ 2),
  as opposed to genuine routing-induced cycles.

Used by tests to verify that every configuration the mapping/
configuration units emit is safe, and usable as an assertion inside
design-space exploration.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from .routing import compute_routes
from .topology import FlexibleMeshTopology

__all__ = ["DeadlockReport", "build_channel_dependency_graph", "check_deadlock_freedom"]

Channel = tuple[int, int]  # directed link (from_node, to_node)


@dataclass(frozen=True)
class DeadlockReport:
    """Outcome of a CDG analysis."""

    acyclic: bool
    cycles: tuple[tuple[Channel, ...], ...]
    ring_cycles: tuple[tuple[Channel, ...], ...]

    @property
    def safe_with_vc_dateline(self) -> bool:
        """Safe when every cycle is a ring wrap-around (handled by the
        dateline discipline on the second VC)."""
        return self.acyclic or len(self.cycles) == len(self.ring_cycles)


def build_channel_dependency_graph(
    topo: FlexibleMeshTopology,
    *,
    allow_bypass: bool = True,
) -> nx.DiGraph:
    """CDG over every deterministic route of the configured topology.

    Nodes are directed channels; an edge (c1 → c2) means some packet
    holds c1 while requesting c2 (consecutive hops of a route).
    """
    cdg = nx.DiGraph()
    n = topo.num_nodes
    pairs = [(src, dst) for src in range(n) for dst in range(n) if src != dst]
    for route in compute_routes(topo, pairs, allow_bypass=allow_bypass):
        channels = list(zip(route, route[1:]))
        for c1, c2 in zip(channels, channels[1:]):
            cdg.add_edge(c1, c2)
        for c in channels:
            cdg.add_node(c)
    return cdg


def _is_ring_cycle(topo: FlexibleMeshTopology, cycle: tuple[Channel, ...]) -> bool:
    """A cycle whose channels all live inside one ring region's row."""
    rings = topo.ring_regions
    if not rings:
        return False
    for ring in rings:
        if all(
            ring.contains(*topo.coords(a)) and ring.contains(*topo.coords(b))
            for a, b in cycle
        ):
            return True
    return False


def check_deadlock_freedom(
    topo: FlexibleMeshTopology,
    *,
    allow_bypass: bool = True,
    max_cycles: int = 16,
) -> DeadlockReport:
    """Analyse a configured topology; see :class:`DeadlockReport`."""
    cdg = build_channel_dependency_graph(topo, allow_bypass=allow_bypass)
    try:
        found = []
        for cycle in nx.simple_cycles(cdg):
            found.append(tuple(cycle))
            if len(found) >= max_cycles:
                break
    except nx.NetworkXNoCycle:  # pragma: no cover - simple_cycles yields
        found = []
    ring_cycles = tuple(c for c in found if _is_ring_cycle(topo, c))
    return DeadlockReport(
        acyclic=not found,
        cycles=tuple(found),
        ring_cycles=ring_cycles,
    )
