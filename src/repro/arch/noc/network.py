"""Event-driven, batched cycle-level flit simulator for the flexible NoC.

Semantics are pinned by :class:`repro.arch.noc._reference.ReferenceNoCSimulator`
(the original object-graph implementation, kept verbatim): packets are
injected with a byte size, split into flits of ``flit_bytes``, routed
deterministically at injection (RC), and advanced one link hop per cycle
under credit-based backpressure and per-output round-robin arbitration.
``tests/test_noc_equivalence.py`` property-tests this engine against the
reference for bit-identical cycle counts and stats.

What changed versus the reference is purely *how* each cycle is computed:

* **Struct-of-arrays flit state** — flit position, hop, ready cycle and
  route index live in NumPy arrays; per-port FIFOs are intrusive linked
  lists over those arrays.  Python ``Packet`` objects exist only at the
  inject/eject boundary.
* **Candidate-driven, vectorised arbitration** — each cycle touches only
  the ports whose head flit is ready (``p_ready <= now``) instead of
  walking every router.  Grouping by (router, requested output) and the
  round-robin grant are computed with one packed-key sort plus
  ``searchsorted``; sequential semantics (ejections before moves, moves
  in router order, freed-slot chains) are preserved exactly.
* **Idle-cycle fast-forwarding** — :meth:`run` jumps straight to the next
  cycle at which any head flit becomes ready instead of spinning
  :meth:`step` through idle cycles (interleaved-injection workloads such
  as the latency-load sweeps spend most cycles idle).
* **O(1) drain tracking** — outstanding flit and packet counters replace
  the reference's per-cycle dict scan in ``all_delivered``.

The per-cycle ordering rules inherited from the reference, for the
record: round-robin state is untouched by single-contender grants but is
updated by multi-contender grants *even when the granted move then
stalls*; all ejections apply before any forward; forwards apply in
router-id order, so a pop can free a buffer slot only for a mover at a
higher-numbered router in the same cycle.
"""

from __future__ import annotations

import numpy as np

from ...config import NoCConfig
from .drain import NoCDeadlockError
from .packet import Packet
from .routing import compute_route, compute_routes
from .stats import NoCStats
from .topology import FlexibleMeshTopology

__all__ = [
    "NoCStats",
    "NoCSimulator",
]

_INF = 1 << 62


class NoCSimulator:
    """Flit-level network simulator over a flexible mesh (event engine)."""

    def __init__(
        self,
        topology: FlexibleMeshTopology,
        config: NoCConfig | None = None,
    ) -> None:
        self.topology = topology
        self.config = config or NoCConfig()
        self.cycle = 0
        self.stats = NoCStats()
        self._next_pid = 0
        # Flits and packets injected but not yet ejected: the O(1)
        # answers to all_delivered()/undelivered().
        self._outstanding_flits = 0
        self._outstanding_packets = 0

        n = topology.num_nodes
        self._n = n
        # Upstream sort key: upstream + 1 (injection port -1 -> 0).
        self._ukb = (n + 2).bit_length()
        self._ukmask = (1 << self._ukb) - 1
        self._buf_cap = self.config.vcs_per_port * self.config.vc_depth

        # ---- port SoA (grown as ports materialise) --------------------
        cap0 = 4 * n + 8
        self._np_ports = 0
        self._p_router = np.empty(cap0, dtype=np.int64)
        self._p_ukey = np.empty(cap0, dtype=np.int64)
        self._p_cap = np.empty(cap0, dtype=np.int64)
        self._p_count = np.zeros(cap0, dtype=np.int64)
        self._p_head = np.full(cap0, -1, dtype=np.int64)
        self._p_tail = np.full(cap0, -1, dtype=np.int64)
        self._p_ready = np.full(cap0, _INF, dtype=np.int64)
        self._p_key = np.zeros(cap0, dtype=np.int64)
        self._p_target = np.zeros(cap0, dtype=np.int64)
        # Precomputed key base ((router*n) << ukb | ukey): the head key is
        # base + (target << ukb), one add instead of re-packing.
        self._p_base = np.zeros(cap0, dtype=np.int64)

        # Dense (router, upstream) -> port id and per-directed-pair hop
        # class tables; n is bounded by the cycle tier's 16x16 cap plus
        # headroom, so n*n stays small.
        self._pt = np.full(n * n, -1, dtype=np.int64)
        self._inject_port = np.empty(n, dtype=np.int64)
        self._rr = np.full(n * n, -2, dtype=np.int64)
        # Scratch scatter tables: port id -> position among this cycle's
        # movers / ejection flag (reset after each use).
        self._port_pos = np.full(cap0, -1, dtype=np.int64)
        self._port_flag = np.zeros(cap0, dtype=bool)
        self._idle = False

        # Per-packet remaining-flit tails as an array so ejections batch;
        # positions mirror pid.
        self._pkt_tails = np.empty(256, dtype=np.int64)

        # ---- flit SoA -------------------------------------------------
        self._nf = 0
        fcap = 1024
        self._f_ready = np.empty(fcap, dtype=np.int64)
        self._f_hop = np.empty(fcap, dtype=np.int64)
        self._f_pid = np.empty(fcap, dtype=np.int64)
        self._f_rid = np.empty(fcap, dtype=np.int64)
        self._f_next = np.empty(fcap, dtype=np.int64)

        # ---- routes (shared across packets) ---------------------------
        self._route_cache: dict[tuple[int, int, bool], int] = {}
        self._routes: list[tuple[int, ...]] = []
        self._route_off = np.empty(64, dtype=np.int64)
        self._route_len = np.empty(64, dtype=np.int64)
        # Derived tables for the hot path: last hop index (len - 1) and
        # offset of the second hop (off + 1).
        self._route_last = np.empty(64, dtype=np.int64)
        self._route_off1 = np.empty(64, dtype=np.int64)
        self._route_flat = np.empty(256, dtype=np.int64)
        self._flat_used = 0

        self._packets: list[Packet] = []

        for node in range(n):
            self._inject_port[node] = self._new_port(node, -1, 1 << 30)
        self.refresh_configuration()

    # ------------------------------------------------------------------
    # Configuration / topology tables
    # ------------------------------------------------------------------
    def refresh_configuration(self) -> None:
        """Re-read the topology's links and bypass segments.

        Ports for removed links are kept (in-flight flits drain through
        them at mesh latency, as the reference does); ports for new links
        are added.  Cached routes are invalidated.
        """
        n = self._n
        self._bypass = np.zeros(n * n, dtype=bool)
        for seg in self.topology.bypass_segments:
            a, b = self.topology.segment_endpoints(seg)
            self._bypass[a * n + b] = True
            self._bypass[b * n + a] = True
        for node in range(n):
            for neigh, _kind in self.topology.links_from(node):
                if self._pt[neigh * n + node] < 0:
                    self._new_port(neigh, node, self._buf_cap)
        self._lat_mesh = self.config.router_pipeline_stages + self.config.link_latency
        self._lat_byp = (
            self.config.router_pipeline_stages + self.config.bypass_segment_latency
        )
        self._route_cache.clear()

    def _new_port(self, router: int, upstream: int, cap: int) -> int:
        pid = self._np_ports
        if pid == self._p_router.size:
            for name in (
                "_p_router", "_p_ukey", "_p_cap", "_p_count",
                "_p_head", "_p_tail", "_p_ready", "_p_key", "_p_target",
                "_p_base",
            ):
                old = getattr(self, name)
                new = np.empty(2 * old.size, dtype=old.dtype)
                new[: old.size] = old
                setattr(self, name, new)
            self._port_pos = np.full(2 * self._port_pos.size, -1, dtype=np.int64)
            self._port_flag = np.zeros(2 * self._port_flag.size, dtype=bool)
        self._np_ports = pid + 1
        self._p_router[pid] = router
        self._p_ukey[pid] = upstream + 1
        self._p_cap[pid] = cap
        self._p_count[pid] = 0
        self._p_head[pid] = -1
        self._p_tail[pid] = -1
        self._p_ready[pid] = _INF
        self._p_base[pid] = ((router * self._n) << self._ukb) | (upstream + 1)
        if upstream >= 0:
            self._pt[router * self._n + upstream] = pid
        return pid

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def route_pairs(self, pairs) -> None:
        """Route many ``(src, dst)`` pairs ahead of their injection.

        One :func:`~repro.arch.noc.routing.compute_routes` call decides
        the bypass for every pair; :meth:`inject` (with bypass allowed)
        then finds each route in this simulator's table.
        """
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        for (src, dst), route in zip(
            pairs.tolist(), compute_routes(self.topology, pairs)
        ):
            self._add_route((src, dst, True), route)

    def _route_id(self, src: int, dst: int, allow_bypass: bool) -> int:
        key = (src, dst, allow_bypass)
        rid = self._route_cache.get(key)
        if rid is None:
            route = compute_route(self.topology, src, dst, allow_bypass=allow_bypass)
            rid = self._add_route(key, route)
        return rid

    def _add_route(self, key: tuple[int, int, bool], route: tuple[int, ...]) -> int:
        rid = len(self._routes)
        self._routes.append(route)
        if rid == self._route_off.size:
            for name in ("_route_off", "_route_len", "_route_last", "_route_off1"):
                old = getattr(self, name)
                setattr(
                    self,
                    name,
                    np.concatenate([old, np.empty(old.size, dtype=np.int64)]),
                )
        # Keep one slack slot past the used region: the vectorised
        # next-hop gather reads (off + hop + 1) unmasked before the
        # at-destination select.
        need = self._flat_used + len(route) + 1
        if need > self._route_flat.size:
            grown = np.empty(max(need, 2 * self._route_flat.size), dtype=np.int64)
            grown[: self._flat_used] = self._route_flat[: self._flat_used]
            self._route_flat = grown
        self._route_off[rid] = self._flat_used
        self._route_len[rid] = len(route)
        self._route_last[rid] = len(route) - 1
        self._route_off1[rid] = self._flat_used + 1
        self._route_flat[self._flat_used : self._flat_used + len(route)] = route
        self._flat_used += len(route)
        n = self._n
        for a, b in zip(route, route[1:]):
            if self._pt[b * n + a] < 0:
                # Route over a link the port tables have not seen (e.g. a
                # segment added without refresh_configuration): create the
                # port lazily, as the reference's lazy input_port does.
                self._new_port(b, a, self._buf_cap)
        self._route_cache[key] = rid
        return rid

    # ------------------------------------------------------------------
    # Injection
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
        rid = self._route_id(src, dst, allow_bypass)
        packet = Packet(
            pid=self._next_pid,
            src=src,
            dst=dst,
            size_bytes=size_bytes,
            inject_cycle=when,
            route=self._routes[rid],
        )
        self._next_pid += 1
        nf = max(1, -(-size_bytes // self.config.flit_bytes))
        packet.num_flits = nf
        self._outstanding_flits += nf
        self._outstanding_packets += 1
        if packet.pid == self._pkt_tails.size:
            grown = np.empty(2 * self._pkt_tails.size, dtype=np.int64)
            grown[: packet.pid] = self._pkt_tails[: packet.pid]
            self._pkt_tails = grown
        self._pkt_tails[packet.pid] = nf
        self._packets.append(packet)

        base = self._nf
        need = base + nf
        if need > self._f_ready.size:
            grow = max(need, 2 * self._f_ready.size)
            for name in ("_f_ready", "_f_hop", "_f_pid", "_f_rid", "_f_next"):
                old = getattr(self, name)
                new = np.empty(grow, dtype=np.int64)
                new[: self._nf] = old[: self._nf]
                setattr(self, name, new)
        self._nf = need
        sl = slice(base, need)
        self._f_ready[sl] = when
        self._f_hop[sl] = 0
        self._f_pid[sl] = packet.pid
        self._f_rid[sl] = rid
        self._f_next[sl] = np.arange(base + 1, need + 1, dtype=np.int64)
        self._f_next[need - 1] = -1

        port = int(self._inject_port[src])
        if self._p_count[port] == 0:
            self._p_head[port] = base
            self._p_ready[port] = when
            target = src if len(packet.route) == 1 else packet.route[1]
            self._p_target[port] = target
            self._p_key[port] = self._p_base[port] + (target << self._ukb)
        else:
            self._f_next[self._p_tail[port]] = base
        self._p_tail[port] = need - 1
        self._p_count[port] += nf
        return packet

    # ------------------------------------------------------------------
    # One cycle
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the network by one cycle."""
        now = self.cycle
        p_ready = self._p_ready
        cand = (p_ready[: self._np_ports] <= now).nonzero()[0]
        self._idle = cand.size == 0
        if not self._idle:
            p_head = self._p_head
            p_tail = self._p_tail
            p_count = self._p_count
            f_next = self._f_next
            n = self._n
            ukb = self._ukb
            stats = self.stats

            keys = self._p_key[cand]
            order = np.argsort(keys)
            skeys = keys[order]
            sports = cand[order]
            groups = skeys >> ukb

            starts_mask = np.empty(groups.size, dtype=bool)
            starts_mask[0] = True
            np.not_equal(groups[1:], groups[:-1], out=starts_mask[1:])
            starts = starts_mask.nonzero()[0]
            ends = np.empty(starts.size, dtype=np.int64)
            ends[:-1] = starts[1:]
            ends[-1] = groups.size

            winner_idx = starts.copy()
            multi = ends - starts > 1
            if np.count_nonzero(multi):
                m_start = starts[multi]
                m_end = ends[multi]
                m_group = groups[m_start]
                last = self._rr[m_group]
                thresh = (m_group << ukb) | (last + 2)
                pos = np.searchsorted(skeys, thresh)
                pos = np.where(pos >= m_end, m_start, pos)
                winner_idx[multi] = pos
                # RR advances for every multi-contender grant, even when
                # the granted move stalls this cycle.
                self._rr[m_group] = (skeys[pos] & self._ukmask) - 1

            wports = sports[winner_idx]
            wtarget = self._p_target[wports]
            wrouter = self._p_router[wports]
            eject = wtarget == wrouter
            ei = eject.nonzero()[0]
            n_eject = ei.size
            n_win = wports.size

            if n_eject:
                e_ports = wports[ei]
                e_flits = p_head[e_ports]

            s_flits = s_tq = None
            if n_eject < n_win:
                mi = (~eject).nonzero()[0]
                m_ports = wports[mi]
                m_router = wrouter[mi]
                m_target = wtarget[mi]
                tq = self._pt[m_target * n + m_router]
                # Forward targets are always network input ports, which
                # share one capacity.
                success = p_count[tq] < self._buf_cap
                if n_eject:
                    # Ejections drain before forwards are considered: a
                    # full port whose head ejects this cycle still admits
                    # its mover.
                    flag = self._port_flag
                    flag[e_ports] = True
                    success |= flag[tq]
                    flag[e_ports] = False
                blocked = (~success).nonzero()[0]
                if blocked.size:
                    # A full target also admits the move if its head
                    # departs via an earlier (lower position = lower
                    # router id) successful forward — walk the blocked
                    # positions in ascending order so freed-slot chains
                    # settle in one pass (a same-router dependency would
                    # be an ejection, so dependencies point strictly
                    # down).
                    pos = self._port_pos
                    pos[m_ports] = np.arange(m_ports.size, dtype=np.int64)
                    dep = pos[tq[blocked]]
                    pos[m_ports] = -1
                    for i, j in zip(blocked.tolist(), dep.tolist()):
                        if 0 <= j < i and success[j]:
                            success[i] = True
                si = success.nonzero()[0]
                stats.stall_events += int(m_ports.size - si.size)
                if si.size:
                    s_ports = m_ports[si]
                    s_flits = p_head[s_ports]
                    s_tq = tq[si]
                    s_rt = m_router[si] * n + m_target[si]

            # ---- apply pops (ejections + successful forwards) ---------
            if n_eject and s_flits is not None:
                popped = np.concatenate([e_ports, s_ports])
                pflits = np.concatenate([e_flits, s_flits])
            elif n_eject:
                popped, pflits = e_ports, e_flits
            elif s_flits is not None:
                popped, pflits = s_ports, s_flits
            else:
                popped = None

            if popped is not None:
                nh = f_next[pflits]
                p_head[popped] = nh
                p_count[popped] -= 1
                emptied = nh < 0
                if np.count_nonzero(emptied):
                    drained = popped[emptied]
                    p_tail[drained] = -1
                    p_ready[drained] = _INF
                    touched = popped[~emptied]
                else:
                    touched = popped

                # ---- apply pushes (each port receives <= 1 flit/cycle) -
                if s_flits is not None:
                    byp = self._bypass[s_rt]
                    n_byp = int(np.count_nonzero(byp))
                    stats.bypass_flit_hops += n_byp
                    stats.mesh_flit_hops += int(byp.size - n_byp)
                    self._f_hop[s_flits] += 1
                    self._f_ready[s_flits] = np.where(
                        byp, now + self._lat_byp, now + self._lat_mesh
                    )
                    old_tail = p_tail[s_tq]
                    has_tail = old_tail >= 0
                    if np.count_nonzero(has_tail) == has_tail.size:
                        f_next[old_tail] = s_flits
                    else:
                        f_next[old_tail[has_tail]] = s_flits[has_tail]
                        was_empty = s_tq[~has_tail]
                        p_head[was_empty] = s_flits[~has_tail]
                        touched = np.concatenate([touched, was_empty])
                    f_next[s_flits] = -1
                    p_tail[s_tq] = s_flits
                    p_count[s_tq] += 1

                # ---- refresh metadata of ports whose head changed ------
                if touched.size:
                    h = p_head[touched]
                    hop = self._f_hop[h]
                    rid = self._f_rid[h]
                    at_dest = hop == self._route_last[rid]
                    # rows at destination read one slot past their route in
                    # _route_flat (still inside the +1 slack) and are then
                    # masked by the select below.
                    target = np.where(
                        at_dest,
                        self._p_router[touched],
                        self._route_flat[self._route_off1[rid] + hop],
                    )
                    self._p_target[touched] = target
                    self._p_key[touched] = self._p_base[touched] + (target << ukb)
                    p_ready[touched] = self._f_ready[h]

            # ---- delivery accounting ----------------------------------
            if n_eject:
                stats.flits_delivered += n_eject
                done = now + 1
                # At most one flit ejects per router per cycle and a packet
                # drains at a single router, so these pids are unique —
                # plain fancy-index decrement is race-free.
                pids = self._f_pid[e_flits]
                self._pkt_tails[pids] -= 1
                rem = self._pkt_tails[pids]
                self._outstanding_flits -= n_eject
                completed = pids[rem == 0]
                if completed.size:
                    self._outstanding_packets -= int(completed.size)
                    for pid in completed.tolist():
                        pkt = self._packets[pid]
                        pkt.done_cycle = done
                        latency = done - pkt.inject_cycle
                        stats.packets_delivered += 1
                        stats.total_packet_latency += latency
                        if latency > stats.max_packet_latency:
                            stats.max_packet_latency = latency

        self.cycle = now + 1
        self.stats.cycles = self.cycle

    # ------------------------------------------------------------------
    def run(self, *, max_cycles: int = 1_000_000) -> NoCStats:
        """Run until every injected packet is delivered (or the limit).

        Idle cycles — no head flit ready anywhere — are fast-forwarded:
        nothing moves, arbitration state is untouched and no stalls
        accrue in such cycles, so jumping the clock to the next ready
        time is exactly equivalent to spinning :meth:`step`.  The scan
        for the next event only happens after a step that found no ready
        head, so saturated drains never pay for it.
        """
        while not self.all_delivered():
            if self.cycle >= max_cycles:
                raise self._deadlock(
                    f"NoC did not drain within {max_cycles} cycles "
                    f"({self.undelivered()} packets outstanding)",
                    cycle=self.cycle,
                )
            self.step()
            if self._idle:
                next_ready = int(self._p_ready[: self._np_ports].min())
                if next_ready > self.cycle:
                    self.cycle = min(next_ready, max_cycles)
                    self.stats.cycles = self.cycle
        return self.stats

    def all_delivered(self) -> bool:
        return self._outstanding_flits == 0

    def undelivered(self) -> int:
        return self._outstanding_packets

    def _queue_depths(self) -> dict[int, int]:
        """Per-router resident flit counts (non-empty routers only)."""
        P = self._np_ports
        depths = np.bincount(
            self._p_router[:P], weights=self._p_count[:P], minlength=self._n
        ).astype(np.int64)
        return {int(r): int(d) for r, d in enumerate(depths) if d > 0}

    def _deadlock(self, message: str, *, cycle: int) -> NoCDeadlockError:
        return NoCDeadlockError(
            message,
            cycle=cycle,
            outstanding_packets=self._outstanding_packets,
            queue_depths=self._queue_depths(),
        )
