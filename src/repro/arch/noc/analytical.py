"""Analytical (counting-based) NoC performance model.

The paper's simulator derives on-chip communication time from counted
accesses; this module is that counting model for the NoC.  Given a traffic
matrix between PE grid positions, it computes:

* hop counts per flow under XY routing, optionally improved by configured
  bypass segments (the routing module's vectorised bypass rule),
* per-link loads (the drain time of a network is bounded below by its
  most-loaded link and its hottest ejection port),
* a drain-time estimate combining the bottleneck load with the average
  pipeline + serialisation latency.

The estimate is calibrated against the flit-level simulator (tests assert
agreement on matched traffic), and scales to millions of flows because
everything is NumPy array math.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...config import NoCConfig
from ...observe.events import noc_heat_enabled
from ...telemetry import TRACER
from .routing import bypass_choice
from .topology import FlexibleMeshTopology

__all__ = [
    "TrafficMatrix",
    "AnalyticalNoCResult",
    "AnalyticalNoCModel",
    "ceil_flits",
]


def ceil_flits(nbytes, flit_bytes: int):
    """Bytes → flits with ceiling division.

    A partial flit still occupies a link/port slot for a full cycle, so
    sub-flit payload remainders must round *up* — floor division would
    silently drop them (e.g. Cora's 1433-feature messages are not a
    multiple of the 16-byte flit width).
    """
    if flit_bytes < 1:
        raise ValueError("flit_bytes must be >= 1")
    return -(-np.asarray(nbytes) // flit_bytes)


@dataclass(frozen=True)
class TrafficMatrix:
    """Aggregated flows: parallel arrays of grid coords and flit counts."""

    src_x: np.ndarray
    src_y: np.ndarray
    dst_x: np.ndarray
    dst_y: np.ndarray
    flits: np.ndarray

    def __post_init__(self) -> None:
        sizes = {
            self.src_x.size,
            self.src_y.size,
            self.dst_x.size,
            self.dst_y.size,
            self.flits.size,
        }
        if len(sizes) != 1:
            raise ValueError("all traffic arrays must have equal length")

    @property
    def num_flows(self) -> int:
        return int(self.src_x.size)

    @property
    def total_flits(self) -> int:
        return int(self.flits.sum())

    @staticmethod
    def from_flows(
        flows: np.ndarray, flit_bytes: int, k: int
    ) -> "TrafficMatrix":
        """Build from an ``(n, 3)`` array of ``(src_node, dst_node, bytes)``.

        Flows between identical nodes are dropped (local traffic stays in
        the PE's own buffer).  Duplicate (src, dst) pairs are merged.
        """
        flows = np.asarray(flows, dtype=np.int64)
        if flows.size == 0:
            z = np.zeros(0, dtype=np.int64)
            return TrafficMatrix(z, z, z, z, z)
        if flows.ndim != 2 or flows.shape[1] != 3:
            raise ValueError("flows must be (n, 3): src, dst, bytes")
        mask = flows[:, 0] != flows[:, 1]
        flows = flows[mask]
        if flows.shape[0] == 0:
            z = np.zeros(0, dtype=np.int64)
            return TrafficMatrix(z, z, z, z, z)
        key = flows[:, 0] * (k * k) + flows[:, 1]
        order = np.argsort(key, kind="stable")
        key = key[order]
        byts = flows[order, 2]
        uniq, starts = np.unique(key, return_index=True)
        sums = np.add.reduceat(byts, starts)
        src = uniq // (k * k)
        dst = uniq % (k * k)
        flits = np.maximum(1, -(-sums // flit_bytes))
        return TrafficMatrix(
            src_x=(src % k).astype(np.int64),
            src_y=(src // k).astype(np.int64),
            dst_x=(dst % k).astype(np.int64),
            dst_y=(dst // k).astype(np.int64),
            flits=flits.astype(np.int64),
        )


@dataclass(frozen=True)
class AnalyticalNoCResult:
    """Outputs of the analytical model."""

    drain_cycles: int
    total_flit_hops: int
    bypass_flit_hops: int
    avg_hops: float
    max_link_load: int
    max_ejection_load: int
    total_flits: int

    @property
    def avg_latency(self) -> float:
        """Mean uncontended per-packet latency component."""
        return self.avg_hops  # one flit-hop per cycle per hop, pre-pipeline


class AnalyticalNoCModel:
    """Counting model over a :class:`FlexibleMeshTopology` configuration.

    Per-flow hop counts come from :func:`~repro.arch.noc.routing.bypass_choice`,
    the same bypass rule the flit-level tier routes packets by.
    """

    def __init__(
        self,
        topology: FlexibleMeshTopology,
        config: NoCConfig | None = None,
    ) -> None:
        self.topology = topology
        self.config = config or NoCConfig()

    def _link_loads(
        self,
        traffic: TrafficMatrix,
        boost_nodes: tuple[int, ...] = (),
        boost_factor: float = 3.0,
    ) -> tuple[int, int]:
        """(max mesh-link load, max ejection load) in flits, XY routing.

        Nodes in ``boost_nodes`` have their bypass-link endpoints usable
        as additional ejection lanes, and their row mates pre-merge
        partial reductions through their reuse FIFOs (the paper's extra
        injection/ejection bandwidth for high-degree vertices), so their
        ejection load is divided by ``boost_factor``.

        Horizontal crossings happen in the source row; vertical crossings
        in the destination column.  Range accumulation uses the standard
        difference-array trick per row/column.
        """
        k = self.topology.k
        sx, sy = traffic.src_x, traffic.src_y
        dx, dy = traffic.dst_x, traffic.dst_y
        fl = traffic.flits

        # Horizontal links: K rows × (K-1) boundaries.
        h = np.zeros((k, k), dtype=np.int64)  # diff array per row
        lo = np.minimum(sx, dx)
        hi = np.maximum(sx, dx)
        horiz = hi > lo
        if np.any(horiz):
            np.add.at(h, (sy[horiz], lo[horiz]), fl[horiz])
            np.subtract.at(h, (sy[horiz], hi[horiz]), fl[horiz])
        h_loads = np.cumsum(h, axis=1)[:, : k - 1]

        v = np.zeros((k, k), dtype=np.int64)  # diff array per column
        lo = np.minimum(sy, dy)
        hi = np.maximum(sy, dy)
        vert = hi > lo
        if np.any(vert):
            np.add.at(v, (dx[vert], lo[vert]), fl[vert])
            np.subtract.at(v, (dx[vert], hi[vert]), fl[vert])
        v_loads = np.cumsum(v, axis=1)[:, : k - 1]

        eject = np.zeros(k * k, dtype=np.float64)
        np.add.at(eject, dy * k + dx, fl)
        if boost_nodes:
            idx = np.asarray(boost_nodes, dtype=np.int64)
            eject[idx] /= max(boost_factor, 1.0)

        max_link = int(max(h_loads.max(initial=0), v_loads.max(initial=0)))
        return max_link, int(eject.max(initial=0.0))

    @staticmethod
    def _boosted_max(
        loads_flits: np.ndarray,
        boost_nodes: tuple[int, ...],
        boost_factor: float,
    ) -> int:
        """Max per-node load after dividing boosted nodes' load."""
        loads = np.asarray(loads_flits, dtype=np.float64).copy()
        if boost_nodes:
            idx = np.asarray(boost_nodes, dtype=np.int64)
            loads[idx] /= max(boost_factor, 1.0)
        return int(loads.max(initial=0.0))

    # ------------------------------------------------------------------
    def evaluate(
        self,
        traffic: TrafficMatrix,
        *,
        boost_nodes: tuple[int, ...] = (),
        boost_factor: float = 3.0,
        eject_flits: np.ndarray | None = None,
        inject_flits: np.ndarray | None = None,
    ) -> AnalyticalNoCResult:
        """Estimate drain time and hop statistics for a traffic matrix.

        ``boost_nodes`` are PEs whose bypass endpoints add ejection and
        injection bandwidth (the degree-aware mapping's S_PEs).

        For multicast traffic the per-flow flits in ``traffic`` carry the
        tree-shared link volume; pass the *full* per-node ejection (and
        injection) loads in flits via ``eject_flits``/``inject_flits`` so
        the port bottlenecks are not undercounted.
        """
        if traffic.num_flows == 0:
            return AnalyticalNoCResult(0, 0, 0, 0.0, 0, 0, 0)
        with TRACER.span("noc") as span:
            if span.sampled and noc_heat_enabled():
                # Destination-router flit totals as a k×k row-major
                # grid: the live observer's per-tile heatmap, carried
                # home on the span (so worker-process tiles reach the
                # serving process through the span-merge path).
                k = self.topology.k
                heat = np.bincount(
                    traffic.dst_y * k + traffic.dst_x,
                    weights=traffic.flits,
                    minlength=k * k,
                )
                span.set(noc_heat=[int(v) for v in heat], k=k)
            return self._evaluate(
                traffic,
                boost_nodes=boost_nodes,
                boost_factor=boost_factor,
                eject_flits=eject_flits,
                inject_flits=inject_flits,
            )

    def _evaluate(
        self,
        traffic: TrafficMatrix,
        *,
        boost_nodes: tuple[int, ...],
        boost_factor: float,
        eject_flits: np.ndarray | None,
        inject_flits: np.ndarray | None,
    ) -> AnalyticalNoCResult:
        hops, seg, _ = bypass_choice(
            self.topology, traffic.src_x, traffic.src_y, traffic.dst_x, traffic.dst_y
        )
        used_bypass = seg >= 0
        flit_hops = int((hops * traffic.flits).sum())
        bypass_hops = int(traffic.flits[used_bypass].sum())
        max_link, max_eject = self._link_loads(traffic, boost_nodes, boost_factor)
        if eject_flits is not None:
            max_eject = self._boosted_max(eject_flits, boost_nodes, boost_factor)
        max_inject = 0
        if inject_flits is not None:
            max_inject = self._boosted_max(inject_flits, boost_nodes, boost_factor)
        # Bypass segments relieve the most-loaded links: flows that take a
        # segment stop crossing the congested span. First-order correction:
        # subtract the bypassed flits from the bottleneck, floored at 30%
        # of the original load (a segment is itself a single-flit-per-cycle
        # wire and cannot erase a hotspot entirely).
        relieved = max(max_link - bypass_hops, int(0.3 * max_link))
        bottleneck = max(relieved, max_eject, max_inject)
        per_hop = self.config.router_pipeline_stages + self.config.link_latency
        avg_hops = float((hops * traffic.flits).sum() / traffic.total_flits)
        avg_base_latency = avg_hops * per_hop
        drain = int(round(bottleneck + avg_base_latency)) + per_hop
        return AnalyticalNoCResult(
            drain_cycles=drain,
            total_flit_hops=flit_hops,
            bypass_flit_hops=bypass_hops,
            avg_hops=avg_hops,
            max_link_load=max_link,
            max_ejection_load=max_eject,
            total_flits=traffic.total_flits,
        )
