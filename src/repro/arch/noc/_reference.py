"""Reference (pre-event-engine) flit-level simulator.

:class:`ReferenceNoCSimulator` is the original per-cycle object-graph
implementation of :class:`~repro.arch.noc.network.NoCSimulator`, kept
verbatim as the behavioural spec for the event-driven engine.
``tests/test_noc_equivalence.py`` property-tests the production engine
against it across random topologies, bypass/ring configurations and
traffic patterns — the same pinning strategy
``tests/test_mapping_equivalence.py`` uses for the mapping hot path.

Do not optimise this module: its value is being the slow, obviously
faithful implementation.
"""

from __future__ import annotations

from ...config import NoCConfig
from .packet import Flit, Packet
from .router import INJECT_PORT, Router
from .routing import compute_route
from .stats import NoCStats
from .topology import FlexibleMeshTopology

__all__ = ["ReferenceNoCSimulator"]


class ReferenceNoCSimulator:
    """Flit-level network simulator over a flexible mesh (original form).

    Walks every router every cycle, keeps per-flit Python objects, and
    rescans the tails dict to answer :meth:`all_delivered` — exactly the
    costs the event engine removes, preserved here as ground truth.
    """

    def __init__(
        self,
        topology: FlexibleMeshTopology,
        config: NoCConfig | None = None,
    ) -> None:
        self.topology = topology
        self.config = config or NoCConfig()
        self.routers = [
            Router(n, self.config) for n in range(topology.num_nodes)
        ]
        self.cycle = 0
        self.stats = NoCStats()
        self._pending: list[Packet] = []  # injected, not fully delivered
        self._next_pid = 0
        self._tails_remaining: dict[int, int] = {}  # pid -> flits not ejected
        self._bypass_pairs = self._collect_bypass_pairs()

    # ------------------------------------------------------------------
    def _collect_bypass_pairs(self) -> set[frozenset[int]]:
        pairs = set()
        for seg in self.topology.bypass_segments:
            a, b = self.topology.segment_endpoints(seg)
            pairs.add(frozenset((a, b)))
        return pairs

    def refresh_configuration(self) -> None:
        """Re-read the topology's bypass segments (after reconfiguration)."""
        self._bypass_pairs = self._collect_bypass_pairs()

    def _is_bypass_hop(self, a: int, b: int) -> bool:
        return frozenset((a, b)) in self._bypass_pairs

    # ------------------------------------------------------------------
    def inject(
        self,
        src: int,
        dst: int,
        size_bytes: int,
        *,
        cycle: int | None = None,
        allow_bypass: bool = True,
    ) -> Packet:
        """Inject one packet at ``src`` destined for ``dst``."""
        when = self.cycle if cycle is None else cycle
        if when < self.cycle:
            raise ValueError("cannot inject in the past")
        route = compute_route(self.topology, src, dst, allow_bypass=allow_bypass)
        packet = Packet(
            pid=self._next_pid,
            src=src,
            dst=dst,
            size_bytes=size_bytes,
            inject_cycle=when,
            route=route,
        )
        self._next_pid += 1
        packet.num_flits = max(1, -(-size_bytes // self.config.flit_bytes))
        self._tails_remaining[packet.pid] = packet.num_flits
        router = self.routers[src]
        for i in range(packet.num_flits):
            flit = Flit(packet=packet, index=i, hop=0, ready_cycle=when)
            router.input_port(INJECT_PORT).queue.append(flit)
        self._pending.append(packet)
        return packet

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the network by one cycle."""
        now = self.cycle
        # Collect all desired moves first so a flit moved this cycle is not
        # moved twice, then apply them. Moves are (router, upstream, flit).
        moves: list[tuple[Router, int, Flit, int]] = []
        ejections: list[tuple[Router, int]] = []
        for router in self.routers:
            wants = router.heads_by_output(now)
            for output, contenders in wants.items():
                upstream = router.arbitrate(output, contenders)
                if output == router.node_id:
                    ejections.append((router, upstream))
                else:
                    moves.append((router, upstream, router.inputs[upstream].queue[0], output))

        # Apply ejections (unbounded ejection ports: the PE's reuse FIFO
        # absorbs one flit per cycle, matching the single local port).
        for router, upstream in ejections:
            flit = router.pop_head(upstream)
            router.flits_ejected += 1
            self.stats.flits_delivered += 1
            pid = flit.packet.pid
            self._tails_remaining[pid] -= 1
            if self._tails_remaining[pid] == 0:
                flit.packet.done_cycle = now + 1
                latency = flit.packet.done_cycle - flit.packet.inject_cycle
                self.stats.packets_delivered += 1
                self.stats.total_packet_latency += latency
                self.stats.max_packet_latency = max(
                    self.stats.max_packet_latency, latency
                )

        # Apply forwards with backpressure.
        for router, upstream, flit, output in moves:
            target = self.routers[output]
            port = target.input_port(router.node_id)
            if not port.has_space:
                router.stall_cycles += 1
                self.stats.stall_events += 1
                continue
            router.pop_head(upstream)
            is_bypass = self._is_bypass_hop(router.node_id, output)
            hop_latency = (
                self.config.bypass_segment_latency
                if is_bypass
                else self.config.link_latency
            )
            flit.hop += 1
            flit.ready_cycle = now + self.config.router_pipeline_stages + hop_latency
            port.queue.append(flit)
            router.flits_forwarded += 1
            if is_bypass:
                self.stats.bypass_flit_hops += 1
            else:
                self.stats.mesh_flit_hops += 1

        self.cycle += 1
        self.stats.cycles = self.cycle

        # Drop finished packets from the pending list lazily.
        if len(self._pending) > 256:
            self._pending = [p for p in self._pending if p.done_cycle is None]

    def run(self, *, max_cycles: int = 1_000_000) -> NoCStats:
        """Run until every injected packet is delivered (or the limit)."""
        while not self.all_delivered():
            if self.cycle >= max_cycles:
                raise RuntimeError(
                    f"NoC did not drain within {max_cycles} cycles "
                    f"({self.undelivered()} packets outstanding)"
                )
            self.step()
        return self.stats

    # ------------------------------------------------------------------
    def all_delivered(self) -> bool:
        return all(v == 0 for v in self._tails_remaining.values())

    def undelivered(self) -> int:
        return sum(1 for v in self._tails_remaining.values() if v > 0)

