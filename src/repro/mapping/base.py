"""Common mapping types: the result of placing a subgraph on a PE region."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..arch.noc.topology import BypassSegment

__all__ = ["PERegion", "MappingResult"]


@dataclass(frozen=True)
class PERegion:
    """A rectangular region of the PE array assigned to a sub-accelerator.

    Coordinates are half-open: columns ``[x0, x1)``, rows ``[y0, y1)`` of
    the global K×K array.
    """

    x0: int
    y0: int
    x1: int
    y1: int
    array_k: int

    def __post_init__(self) -> None:
        if not (0 <= self.x0 < self.x1 <= self.array_k):
            raise ValueError("invalid x extent")
        if not (0 <= self.y0 < self.y1 <= self.array_k):
            raise ValueError("invalid y extent")

    @property
    def width(self) -> int:
        return self.x1 - self.x0

    @property
    def height(self) -> int:
        return self.y1 - self.y0

    @property
    def num_pes(self) -> int:
        return self.width * self.height

    def node_ids(self) -> np.ndarray:
        """Global node ids of the region's PEs, row-major."""
        xs = np.arange(self.x0, self.x1)
        ys = np.arange(self.y0, self.y1)
        grid = ys[:, None] * self.array_k + xs[None, :]
        return grid.ravel()

    def local_to_node(self, local_index: int) -> int:
        """Map a region-local PE index (row-major) to a global node id."""
        if not 0 <= local_index < self.num_pes:
            raise IndexError("local index out of region")
        ly, lx = divmod(local_index, self.width)
        return (self.y0 + ly) * self.array_k + (self.x0 + lx)

    def contains_node(self, node: int) -> bool:
        x, y = node % self.array_k, node // self.array_k
        return self.x0 <= x < self.x1 and self.y0 <= y < self.y1


@dataclass(frozen=True)
class MappingResult:
    """Placement of one subgraph tile onto a PE region.

    ``vertex_to_pe`` maps each (tile-local) vertex id to a *global* NoC
    node id.  ``s_pe_nodes`` and ``high_degree_vertices`` are empty for
    mapping policies without degree awareness.
    """

    policy: str
    region: PERegion
    vertex_to_pe: np.ndarray
    s_pe_nodes: tuple[int, ...] = ()
    high_degree_vertices: tuple[int, ...] = ()
    bypass_segments: tuple[BypassSegment, ...] = ()
    algorithm_cycles: int = 0  # preprocessing cost (overlappable, §IV)

    def __post_init__(self) -> None:
        v2p = np.asarray(self.vertex_to_pe)
        if v2p.ndim != 1:
            raise ValueError("vertex_to_pe must be 1-D")
        # Region bounds per vertex (x, y >= 0 follows from y >= y0 >= 0).
        r = self.region
        x, y = v2p % r.array_k, v2p // r.array_k
        inside = (x >= r.x0) & (x < r.x1) & (y >= r.y0) & (y < r.y1)
        if v2p.dtype.kind not in "iu":
            inside &= v2p == np.floor(v2p)  # node ids are whole numbers
        if not inside.all():
            raise ValueError("mapping places vertices outside its region")

    @property
    def num_vertices(self) -> int:
        return int(self.vertex_to_pe.size)

    def pe_loads(self) -> np.ndarray:
        """Vertices per PE (indexed by global node id)."""
        k = self.region.array_k
        return np.bincount(self.vertex_to_pe, minlength=k * k)

    def communication_loads(self, graph_degrees: np.ndarray) -> np.ndarray:
        """Messages each PE must absorb: sum of degrees of its vertices."""
        k = self.region.array_k
        # float64 sums of integer degrees are exact below 2**53.
        return np.bincount(
            self.vertex_to_pe, weights=graph_degrees, minlength=k * k
        ).astype(np.int64)
