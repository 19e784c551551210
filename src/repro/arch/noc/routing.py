"""Route computation for the flexible NoC.

Baseline routing is dimension-ordered XY (deadlock-free on the mesh).
When bypass segments are configured, the route computation considers the
segments reachable from the source's row/column and takes a bypass when it
strictly shortens the path — this is how the "longest communications for
each high-degree vertex" get bridged (paper §IV).

Inside a ring region, traffic flows in the ring direction (+x with a
wrap-around), which is what the weight-stationary dataflow requires.
"""

from __future__ import annotations

import numpy as np

from .topology import FlexibleMeshTopology

__all__ = [
    "xy_route",
    "bypass_choice",
    "bypass_route",
    "ring_route",
    "compute_route",
    "compute_routes",
]


def xy_route(topo: FlexibleMeshTopology, src: int, dst: int) -> tuple[int, ...]:
    """Dimension-ordered route: x first, then y. Includes both endpoints."""
    sx, sy = topo.coords(src)
    dx, dy = topo.coords(dst)
    route = [src]
    x, y = sx, sy
    step = 1 if dx > x else -1
    while x != dx:
        x += step
        route.append(topo.node_id(x, y))
    step = 1 if dy > y else -1
    while y != dy:
        y += step
        route.append(topo.node_id(x, y))
    return tuple(route)


def bypass_choice(
    topo: FlexibleMeshTopology, sx, sy, dx, dy
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bypass rule, vectorised over flows given by grid coordinates.

    Returns per-flow ``(hops, seg, direction)``: the route's hop count,
    the index into ``topo.bypass_segments`` of the express segment taken
    (``-1`` for plain XY), and ``+1`` when the segment is entered at its
    ``start`` end or ``-1`` when entered at its ``end`` (``0`` for XY).

    A packet takes at most one segment, and only as an express link
    inside a dimension-ordered route (the *monotonic express-channel*
    discipline that keeps the channel-dependency graph acyclic, verified
    by :mod:`repro.arch.noc.deadlock`), never to double back:

    * Row segments: the source must sit on the segment's row, and both
      the approach and the continuation must move in the segment's
      travel direction (the whole x-phase is monotonic; y follows).
    * Column segments: the destination must sit on the segment's column
      (no x-movement after the express hop, preserving x-before-y), with
      the same monotonic-y requirement.

    Both amount to the segment lying within the flow's span along the
    segment's axis.  A usable segment of length ``L`` replaces ``L``
    mesh hops of the XY route with one express hop, so the longest
    usable segment wins.  It is taken only when it strictly shortens the
    route, so plain XY wins a tie, and among equally long segments the
    first in ``topo.bypass_segments`` order wins.

    Each line (row or column) that carries a usable segment and holds a
    flow gets a k×k table indexed by a flow's span ``(lo, hi)`` along
    it.  An entry holds one packed code, hops saved first and the
    segment's rank in ``bypass_segments`` second (an earlier segment
    ranks higher), so the largest code is the rule's pick.  A segment
    is usable for every span with ``lo <= start`` and ``hi >= end``, so
    it raises ``table[:start + 1, end:]`` to its code.  A flow then
    costs two gathers (its source row's table, its destination column's
    table) and a max; row segments precede column segments in
    ``bypass_segments``, so a row wins an equal-length tie.
    """
    sx, sy, dx, dy = (np.asarray(a, dtype=np.int64) for a in (sx, sy, dx, dy))
    hops = np.abs(sx - dx) + np.abs(sy - dy)
    seg = np.full(hops.shape, -1, dtype=np.int64)
    direction = np.zeros(hops.shape, dtype=np.int64)
    segments = topo.bypass_segments
    if not segments or not hops.size:
        return hops, seg, direction
    # Code 0 is plain XY; ``m`` exceeds every tie-break rank.
    k, m = topo.k, len(segments) + 1
    code = np.zeros(hops.shape, dtype=np.int64)
    # Per axis: the flow's line, then its position along the segment's
    # axis at the source and at the destination.
    axes = {"row": (sy, sx, dx), "col": (dx, sy, dy)}
    for axis, (line, a, b) in axes.items():
        # Only lines that hold a flow get a table, so a one-pair call
        # fills at most one per axis.
        held = np.bincount(line, minlength=k).tolist()
        slots: dict[int, int] = {}  # line → its table (0: no segment)
        fills = []
        for i, s in enumerate(segments):
            # A one-hop segment never beats its mesh link.
            if s.axis == axis and s.length > 1 and held[s.line]:
                fills.append((slots.setdefault(s.line, len(slots) + 1), i, s))
        if not fills:
            continue
        tables = np.zeros((len(slots) + 1, k, k), dtype=np.int64)
        for t, i, s in fills:
            block = tables[t, : s.start + 1, s.end :]
            np.maximum(block, (s.length - 1) * m + m - 1 - i, out=block)
        slot = np.zeros(k, dtype=np.int64)
        slot[list(slots)] = list(slots.values())
        flat = (slot[line] * k + np.minimum(a, b)) * k + np.maximum(a, b)
        np.maximum(code, tables.ravel()[flat], out=code)
    chosen = np.flatnonzero(code)
    if chosen.size:
        seg[chosen] = m - 1 - code[chosen] % m
        # Entered at ``start`` exactly when the flow travels towards ``end``.
        is_row = np.array([s.axis == "row" for s in segments])[seg[chosen]]
        forward = np.where(
            is_row, sx[chosen] < dx[chosen], sy[chosen] < dy[chosen]
        )
        direction[chosen] = np.where(forward, 1, -1)
    return hops - code // m, seg, direction


def _express_route(
    topo: FlexibleMeshTopology, src: int, dst: int, seg: int, direction: int
) -> tuple[int, ...]:
    """The route ``bypass_choice`` picked: XY, or src → entry → exit → dst."""
    if seg < 0:
        return xy_route(topo, src, dst)
    a, b = topo.segment_endpoints(topo.bypass_segments[seg])
    entry, exit_ = (a, b) if direction > 0 else (b, a)
    head = xy_route(topo, src, entry)  # ends at the segment entry
    tail = xy_route(topo, exit_, dst)  # starts at the segment exit
    return head + (exit_,) + tail[1:]


def bypass_route(
    topo: FlexibleMeshTopology, src: int, dst: int
) -> tuple[int, ...]:
    """Shortest route considering configured bypass segments.

    Plain XY or a single-segment bypass route, as :func:`bypass_choice`
    decides.  A single bypass per route matches the hardware: a packet
    may use at most one express segment, as segments are per-row/column
    resources.
    """
    (sx, sy), (dx, dy) = topo.coords(src), topo.coords(dst)
    _, seg, direction = bypass_choice(topo, [sx], [sy], [dx], [dy])
    return _express_route(topo, src, dst, int(seg[0]), int(direction[0]))


def ring_route(topo: FlexibleMeshTopology, src: int, dst: int) -> tuple[int, ...]:
    """Route within a ring region: unidirectional +x with wrap-around.

    Both endpoints must sit on the same ring row; vertical moves fall
    back to XY (rings are per-row).
    """
    ring = topo.ring_for(src)
    if ring is None or topo.ring_for(dst) is not ring:
        raise ValueError("ring_route endpoints must share a ring region")
    sx, sy = topo.coords(src)
    dx, dy = topo.coords(dst)
    if sy != dy:
        # Move vertically first (mesh links), then ring along the row.
        mid = topo.node_id(sx, dy)
        head = xy_route(topo, src, mid)
        tail = ring_route(topo, mid, dst)
        return head + tail[1:]
    route = [src]
    x = sx
    while x != dx:
        if x + 1 < ring.x1:
            x += 1
        else:
            x = ring.x0  # wrap-around over the bypass wire
        route.append(topo.node_id(x, dy))
    return tuple(route)


def compute_routes(
    topo: FlexibleMeshTopology,
    pairs,
    *,
    allow_bypass: bool = True,
) -> list[tuple[int, ...]]:
    """The RC unit over ``(src, dst)`` pairs: each pair's route by the
    current configuration, with one :func:`bypass_choice` call deciding
    the bypass for all of them."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if pairs.size and not 0 <= pairs.min() <= pairs.max() < topo.num_nodes:
        raise ValueError(f"route endpoints outside the {topo.k}x{topo.k} mesh")
    seg = np.full(len(pairs), -1, dtype=np.int64)
    direction = np.zeros(len(pairs), dtype=np.int64)
    if allow_bypass:
        k = topo.k
        src, dst = pairs[:, 0], pairs[:, 1]
        _, seg, direction = bypass_choice(topo, src % k, src // k, dst % k, dst // k)
    routes = []
    for (src, dst), s, d in zip(pairs.tolist(), seg.tolist(), direction.tolist()):
        ring = topo.ring_for(src)
        if src == dst:
            routes.append((src,))
        elif ring is not None and topo.ring_for(dst) is ring:
            routes.append(ring_route(topo, src, dst))
        else:
            routes.append(_express_route(topo, src, dst, s, d))
    return routes


def compute_route(
    topo: FlexibleMeshTopology,
    src: int,
    dst: int,
    *,
    allow_bypass: bool = True,
) -> tuple[int, ...]:
    """The RC unit: pick the route class by the current configuration.

    One pair at a time (the reference engine routes each packet at
    injection), so it skips :func:`compute_routes`' array set-up.
    """
    if src == dst:
        return (src,)
    ring = topo.ring_for(src)
    if ring is not None and topo.ring_for(dst) is ring:
        return ring_route(topo, src, dst)
    if allow_bypass and topo.bypass_segments:
        return bypass_route(topo, src, dst)
    return xy_route(topo, src, dst)
