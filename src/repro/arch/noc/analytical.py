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

from ...arrays import group_sum
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
            flows = flows.reshape(0, 3)
        if flows.ndim != 2 or flows.shape[1] != 3:
            raise ValueError("flows must be (n, 3): src, dst, bytes")
        flows = flows[flows[:, 0] != flows[:, 1]]
        kk = k * k
        key, sums = group_sum(flows[:, 0] * kk + flows[:, 1], flows[:, 2])
        return TrafficMatrix.from_pairs(
            key // kk, key % kk, sums, flit_bytes, k
        )

    @staticmethod
    def from_pairs(
        src: np.ndarray,
        dst: np.ndarray,
        nbytes: np.ndarray,
        flit_bytes: int,
        k: int,
    ) -> "TrafficMatrix":
        """Build from already-merged int64 ``(src_node, dst_node, bytes)``
        columns: at least one flit per pair, partial flits round up."""
        return TrafficMatrix(
            src_x=src % k,
            src_y=src // k,
            dst_x=dst % k,
            dst_y=dst // k,
            flits=np.maximum(1, ceil_flits(nbytes, flit_bytes)),
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
        eject_flits: np.ndarray | None = None,
    ) -> tuple[int, int]:
        """(max mesh-link load, max ejection load) in flits, XY routing.

        Nodes in ``boost_nodes`` have their bypass-link endpoints usable
        as additional ejection lanes, and their row mates pre-merge
        partial reductions through their reuse FIFOs (the paper's extra
        injection/ejection bandwidth for high-degree vertices), so their
        ejection load is divided by ``boost_factor``.  The ejection load
        is ``eject_flits`` per node when given, else the traffic's own
        per-destination flits.

        Horizontal crossings happen in the source row; vertical crossings
        in the destination column.  Range accumulation uses the standard
        difference-array trick per row/column, the arrays built by
        weighted ``bincount`` (float64 sums of integers are exact below
        2**53).  A flow that does not cross a row (column) adds and
        subtracts its flits at the same entry, so it needs no mask.
        """
        k = self.topology.k
        sx, sy = traffic.src_x, traffic.src_y
        dx, dy = traffic.dst_x, traffic.dst_y
        fl = traffic.flits
        kk = k * k

        def spans(line, a, b):
            # Per-line diff arrays: +flits at the span's low end, -flits
            # at its high end, one line (row/column) per k entries.
            line = line * k
            diff = np.bincount(
                line + np.minimum(a, b), weights=fl, minlength=kk
            ) - np.bincount(line + np.maximum(a, b), weights=fl, minlength=kk)
            return np.cumsum(diff.astype(np.int64).reshape(k, k), axis=1)[
                :, : k - 1
            ]

        h_loads = spans(sy, sx, dx)  # K rows × (K-1) boundaries
        v_loads = spans(dx, sy, dy)  # K columns × (K-1) boundaries
        max_link = int(max(h_loads.max(initial=0), v_loads.max(initial=0)))

        if eject_flits is None:
            eject_flits = np.bincount(dy * k + dx, weights=fl, minlength=kk)
        return max_link, self._boosted_max(eject_flits, boost_nodes, boost_factor)

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
        max_link, max_eject = self._link_loads(
            traffic, boost_nodes, boost_factor, eject_flits
        )
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
        avg_hops = flit_hops / traffic.total_flits
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
