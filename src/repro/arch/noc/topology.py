"""The flexible NoC topology (paper §III-B).

Built on a conventional K×K mesh with one bi-directional bypassing link
per row and per column.  Each bypassing link runs the full length of its
row/column and contains a link switch at every node position, so it can be
*segmented* into multiple short express links of arbitrary extent.  A
configured segment bridges two routers directly (one traversal regardless
of distance), and the same physical wires double as the wrap-around links
when a region is configured as rings for the weight-stationary dataflow.

Coordinates: node ``(x, y)`` with ``x`` the column and ``y`` the row;
node id = ``y * K + x``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["BypassSegment", "RingConfig", "FlexibleMeshTopology"]


@dataclass(frozen=True)
class BypassSegment:
    """One configured segment of a row/column bypass link.

    ``axis`` is ``"row"`` (link along x at fixed y) or ``"col"``.  The
    segment directly bridges positions ``start`` and ``end`` (inclusive
    coordinates along the axis) and is bi-directional.
    """

    axis: str
    line: int  # which row (for axis="row") or column (for axis="col")
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.axis not in ("row", "col"):
            raise ValueError("axis must be 'row' or 'col'")
        if self.start >= self.end:
            raise ValueError("segment must span at least one hop (start < end)")
        if self.start < 0:
            raise ValueError("segment coordinates must be non-negative")

    @property
    def length(self) -> int:
        return self.end - self.start

    def overlaps(self, other: "BypassSegment") -> bool:
        """Two segments on the same physical link cannot overlap."""
        if self.axis != other.axis or self.line != other.line:
            return False
        return not (self.end <= other.start or other.end <= self.start)


@dataclass(frozen=True)
class RingConfig:
    """A rectangular PE region configured as rings (weight-stationary).

    Each row of the region becomes a unidirectional ring: the mesh links
    carry the forward direction and the row's bypass link provides the
    wrap-around from the region's right edge back to its left edge.
    """

    x0: int
    y0: int
    x1: int  # exclusive
    y1: int  # exclusive

    def __post_init__(self) -> None:
        if self.x0 >= self.x1 or self.y0 >= self.y1:
            raise ValueError("ring region must be non-empty")
        if self.x0 < 0 or self.y0 < 0:
            raise ValueError("region coordinates must be non-negative")

    @property
    def width(self) -> int:
        return self.x1 - self.x0

    @property
    def height(self) -> int:
        return self.y1 - self.y0

    def contains(self, x: int, y: int) -> bool:
        return self.x0 <= x < self.x1 and self.y0 <= y < self.y1


class FlexibleMeshTopology:
    """K×K mesh + configurable bypass segments + ring regions."""

    def __init__(self, k: int) -> None:
        if k < 2:
            raise ValueError("mesh dimension must be >= 2")
        self.k = k
        self._row_segments: list[BypassSegment] = []
        self._col_segments: list[BypassSegment] = []
        # The same segments by physical link, for the overlap check.
        self._link_segments: dict[tuple[str, int], list[BypassSegment]] = {}
        self._rings: list[RingConfig] = []

    # ------------------------------------------------------------------
    # Coordinates
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.k * self.k

    def node_id(self, x: int, y: int) -> int:
        if not (0 <= x < self.k and 0 <= y < self.k):
            raise ValueError(f"({x},{y}) outside {self.k}x{self.k} mesh")
        return y * self.k + x

    def coords(self, node: int) -> tuple[int, int]:
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} out of range")
        return (node % self.k, node // self.k)

    def mesh_neighbors(self, node: int) -> list[int]:
        x, y = self.coords(node)
        out = []
        if x > 0:
            out.append(self.node_id(x - 1, y))
        if x < self.k - 1:
            out.append(self.node_id(x + 1, y))
        if y > 0:
            out.append(self.node_id(x, y - 1))
        if y < self.k - 1:
            out.append(self.node_id(x, y + 1))
        return out

    def manhattan(self, a: int, b: int) -> int:
        ax, ay = self.coords(a)
        bx, by = self.coords(b)
        return abs(ax - bx) + abs(ay - by)

    # ------------------------------------------------------------------
    # Bypass configuration
    # ------------------------------------------------------------------
    def clear_configuration(self) -> None:
        self._row_segments.clear()
        self._col_segments.clear()
        self._link_segments.clear()
        self._rings.clear()

    def add_bypass_segment(self, segment: BypassSegment) -> None:
        """Configure one segment; rejects overlaps on the same wire and
        out-of-range coordinates (only one physical link per row/column)."""
        if segment.line < 0 or segment.line >= self.k:
            raise ValueError("segment line outside mesh")
        if segment.end >= self.k:
            raise ValueError("segment end outside mesh")
        link = self._link_segments.setdefault((segment.axis, segment.line), [])
        for existing in link:
            if segment.overlaps(existing):
                raise ValueError(
                    f"segment {segment} overlaps configured segment {existing} "
                    "on the same physical bypass link"
                )
        link.append(segment)
        if segment.axis == "row":
            self._row_segments.append(segment)
        else:
            self._col_segments.append(segment)

    @property
    def bypass_segments(self) -> list[BypassSegment]:
        return self._row_segments + self._col_segments

    def segment_endpoints(self, segment: BypassSegment) -> tuple[int, int]:
        """Node ids bridged by a segment."""
        if segment.axis == "row":
            return (
                self.node_id(segment.start, segment.line),
                self.node_id(segment.end, segment.line),
            )
        return (
            self.node_id(segment.line, segment.start),
            self.node_id(segment.line, segment.end),
        )

    # ------------------------------------------------------------------
    # Ring configuration
    # ------------------------------------------------------------------
    def add_ring_region(self, ring: RingConfig) -> None:
        if ring.x1 > self.k or ring.y1 > self.k:
            raise ValueError("ring region outside mesh")
        for existing in self._rings:
            if not (
                ring.x1 <= existing.x0
                or existing.x1 <= ring.x0
                or ring.y1 <= existing.y0
                or existing.y1 <= ring.y0
            ):
                raise ValueError("ring regions must not overlap")
        # The wrap-around consumes the row bypass across the region span.
        for y in range(ring.y0, ring.y1):
            self.add_bypass_segment(
                BypassSegment("row", y, ring.x0, ring.x1 - 1)
            )
        self._rings.append(ring)

    @property
    def ring_regions(self) -> list[RingConfig]:
        return list(self._rings)

    def ring_for(self, node: int) -> RingConfig | None:
        x, y = self.coords(node)
        for ring in self._rings:
            if ring.contains(x, y):
                return ring
        return None

    # ------------------------------------------------------------------
    # Adjacency under the current configuration
    # ------------------------------------------------------------------
    def links_from(self, node: int) -> list[tuple[int, str]]:
        """Outgoing links as ``(neighbor, kind)``; kind ∈ {mesh, bypass}.

        Ring wrap-arounds appear as their underlying bypass segments.
        """
        out = [(n, "mesh") for n in self.mesh_neighbors(node)]
        x, y = self.coords(node)
        for seg in self._row_segments:
            if seg.line == y and x in (seg.start, seg.end):
                other = seg.end if x == seg.start else seg.start
                out.append((self.node_id(other, y), "bypass"))
        for seg in self._col_segments:
            if seg.line == x and y in (seg.start, seg.end):
                other = seg.end if y == seg.start else seg.start
                out.append((self.node_id(x, other), "bypass"))
        return out
