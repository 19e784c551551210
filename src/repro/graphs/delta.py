"""Edge-mutation streams over the CSR substrate.

Evolving graphs arrive as :class:`EdgeDelta` batches (edge inserts and
deletes).  Applying a delta rebuilds only the touched CSR rows and — via
the per-row digests of :func:`repro.graphs.csr.compute_row_digests` —
refreshes the graph's ``content_key`` incrementally, so a mutated graph
is immediately addressable by the content-keyed caches (mapping memo,
per-tile result cache) without re-hashing every edge.

:class:`MutationLog` names a graph as ``base_key + delta_chain`` so a
stream of mutations over one base snapshot has a stable, canonical
identity; :func:`dirty_tiles` predicts which tiles of a contiguous
vertex-range partition a delta invalidates (the tiles whose *rows* were
mutated — a range tile reads only its own CSR rows, so destination-only
changes elsewhere leave it clean).

Delta application is canonical: rows stay sorted and deduplicated, so
``apply_delta`` is bit-identical to rebuilding the CSR from the mutated
edge set with :func:`repro.graphs.csr.from_edge_list` (property-tested).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from ..arrays import run_starts, sorted_unique
from .csr import CSRGraph, compute_row_digests
from .tiling import TilingPlan

__all__ = [
    "EdgeDelta",
    "MutationLog",
    "apply_delta",
    "apply_chain",
    "dirty_tiles",
    "tile_boundaries",
    "rewire_delta",
]

_Edges = tuple  # tuple[tuple[int, int], ...]


def _canonical_edges(edges, label: str) -> tuple:
    """Validate and canonicalize an edge list: sorted, deduplicated."""
    out = set()
    for pair in edges:
        try:
            u, v = pair
        except (TypeError, ValueError):
            raise ValueError(f"{label} entries must be (src, dst) pairs") from None
        if not all(isinstance(x, (int, np.integer)) for x in (u, v)):
            raise ValueError(f"{label} endpoints must be integers")
        u, v = int(u), int(v)
        if u < 0 or v < 0:
            raise ValueError(f"{label} endpoints must be non-negative ints")
        out.add((u, v))
    return tuple(sorted(out))


@dataclass(frozen=True)
class EdgeDelta:
    """One batch of edge mutations, canonical and hashable.

    ``deletes`` are applied before ``inserts``; an edge may not appear in
    both lists.  Construct through :meth:`make` (or :meth:`from_dict`),
    which sorts, deduplicates, and validates — two spellings of the same
    mutation batch therefore share a :attr:`delta_key`, keeping content
    hashes and dedup stable.
    """

    inserts: _Edges = field(default=())
    deletes: _Edges = field(default=())

    @classmethod
    def make(cls, inserts=(), deletes=()) -> "EdgeDelta":
        ins = _canonical_edges(inserts, "insert")
        dels = _canonical_edges(deletes, "delete")
        overlap = set(ins) & set(dels)
        if overlap:
            raise ValueError(
                f"edges appear in both insert and delete: {sorted(overlap)[:4]}"
            )
        return cls(inserts=ins, deletes=dels)

    @classmethod
    def from_dict(cls, data: dict) -> "EdgeDelta":
        if not isinstance(data, dict):
            raise ValueError("mutation batch must be an object")
        payload = dict(data)
        ins = payload.pop("insert", payload.pop("inserts", ()))
        dels = payload.pop("delete", payload.pop("deletes", ()))
        if payload:
            raise ValueError(f"unknown mutation fields: {sorted(payload)}")
        return cls.make(inserts=ins or (), deletes=dels or ())

    def as_dict(self) -> dict:
        return {
            "insert": [list(e) for e in self.inserts],
            "delete": [list(e) for e in self.deletes],
        }

    @property
    def delta_key(self) -> str:
        blob = json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:32]

    @property
    def num_edits(self) -> int:
        return len(self.inserts) + len(self.deletes)

    def touched_rows(self) -> np.ndarray:
        """Sorted unique source rows mutated by this delta."""
        rows = [u for u, _ in self.inserts] + [u for u, _ in self.deletes]
        return np.unique(np.asarray(rows, dtype=np.int64))

    def touched_columns(self) -> np.ndarray:
        """Sorted unique destination vertices of the mutated edges."""
        cols = [v for _, v in self.inserts] + [v for _, v in self.deletes]
        return np.unique(np.asarray(cols, dtype=np.int64))


@dataclass(frozen=True)
class MutationLog:
    """Addresses a graph as ``base_key + delta_chain``.

    The log never holds graph arrays — only the base snapshot's content
    key and the ordered deltas — so it is cheap to ship and store.  Two
    logs with the same base and the same canonical deltas share a
    :attr:`chain_key` regardless of how the deltas were spelled.
    """

    base_key: str
    deltas: tuple = field(default=())

    def append(self, delta: EdgeDelta) -> "MutationLog":
        return MutationLog(base_key=self.base_key, deltas=(*self.deltas, delta))

    @property
    def chain_key(self) -> str:
        h = hashlib.sha256(self.base_key.encode())
        for d in self.deltas:
            h.update(d.delta_key.encode())
        return h.hexdigest()[:32]

    def as_dict(self) -> dict:
        return {
            "base_key": self.base_key,
            "deltas": [d.as_dict() for d in self.deltas],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MutationLog":
        return cls(
            base_key=str(data["base_key"]),
            deltas=tuple(EdgeDelta.from_dict(d) for d in data.get("deltas", [])),
        )

    def __len__(self) -> int:
        return len(self.deltas)


def _edge_array(edges: _Edges) -> np.ndarray:
    return np.asarray(edges, dtype=np.int64).reshape(-1, 2)


# Per-key membership bits of the one sorted pass in :func:`apply_delta`.
_CUR, _DEL, _INS = 1, 2, 4


def apply_delta(
    graph: CSRGraph,
    delta: EdgeDelta,
    *,
    name: str | None = None,
    strict: bool = True,
) -> CSRGraph:
    """Apply one mutation batch, rebuilding only the touched rows.

    Deletes are applied before inserts.  With ``strict`` (the default) a
    delete of an absent edge or an insert of a present edge raises,
    naming the first offending edge in (row, col) order; with
    ``strict=False`` both degrade to set semantics (no-ops).  Rows are
    kept sorted and deduplicated, so the result is bit-identical to
    rebuilding the CSR from the mutated edge set from scratch.

    The touched rows' edges, the deletes and the inserts become
    ``row * n + col`` keys that one sort groups: each distinct key's
    membership bits say whether it stays.  The returned graph's per-row
    digests are seeded from the parent and recomputed for touched rows
    only — its ``content_key`` is therefore incremental in the delta
    size, not the graph size.
    """
    n = graph.num_vertices
    ins = _edge_array(delta.inserts)
    dels = _edge_array(delta.deletes)
    for label, edges in (("insert", ins), ("delete", dels)):
        bad = np.flatnonzero((edges >= n).any(axis=1))
        if bad.size:
            u, v = edges[bad[0]].tolist()
            raise ValueError(
                f"{label} edge ({u}, {v}) out of range for {n} vertices"
            )
    touched = sorted_unique(np.concatenate((ins[:, 0], dels[:, 0])))
    if touched.size == 0:
        return graph

    indptr, indices = graph.indptr, graph.indices
    degrees = graph.degrees
    # Positions of the touched rows' current edges in ``indices``.
    old_counts = degrees[touched]
    old_before = np.cumsum(old_counts) - old_counts
    positions = np.arange(int(old_counts.sum()), dtype=np.int64) + np.repeat(
        indptr[touched] - old_before, old_counts
    )
    current = np.repeat(touched, old_counts) * n + indices[positions]

    # Key * 8 + membership bit: the sort orders by key, and OR-ing the
    # bits over each key's run gives its membership in all three sets.
    tagged = np.concatenate((
        current * 8 + _CUR,
        (dels[:, 0] * n + dels[:, 1]) * 8 + _DEL,
        (ins[:, 0] * n + ins[:, 1]) * 8 + _INS,
    ))
    tagged.sort()
    starts = run_starts(tagged >> 3)
    keys = tagged[starts] >> 3
    member = np.bitwise_or.reduceat(tagged & 7, starts)
    if strict:
        absent = keys[(member & (_DEL | _CUR)) == _DEL]
        present = keys[(member & (_INS | _DEL | _CUR)) == (_INS | _CUR)]
        # The first offending row reports; in it, a delete before an insert.
        if absent.size and (not present.size or absent[0] // n <= present[0] // n):
            r, c = divmod(int(absent[0]), n)
            raise ValueError(f"delete of absent edge ({r}, {c})")
        if present.size:
            r, c = divmod(int(present[0]), n)
            raise ValueError(f"insert of existing edge ({r}, {c})")
    kept = keys[((member & _INS) != 0) | ((member & (_CUR | _DEL)) == _CUR)]
    new_rows = kept // n
    new_cols = kept % n
    new_counts = np.bincount(
        np.searchsorted(touched, new_rows), minlength=touched.size
    )

    new_degrees = degrees.copy()
    new_degrees[touched] = new_counts
    new_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(new_degrees, out=new_indptr[1:])
    # Splice: drop the touched rows' old edges, then insert each new
    # edge where its row starts among the untouched edges left.
    row_start = indptr[touched] - old_before
    new_indices = np.insert(
        np.delete(indices, positions),
        np.repeat(row_start, new_counts),
        new_cols,
    )

    child = CSRGraph(
        new_indptr,
        new_indices,
        num_features=graph.num_features,
        feature_density=graph.feature_density,
        edge_feature_dim=graph.edge_feature_dim,
        name=name if name is not None else f"{graph.name}+d",
    )
    digests = graph.row_digests.copy()
    mini_indptr = np.zeros(touched.size + 1, dtype=np.int64)
    np.cumsum(new_counts, out=mini_indptr[1:])
    digests[touched] = compute_row_digests(mini_indptr, new_cols)
    child._row_digests = digests
    child.derived_from = graph.content_key
    return child


def apply_chain(
    graph: CSRGraph,
    deltas,
    *,
    name: str | None = None,
    strict: bool = True,
) -> CSRGraph:
    """Apply a delta chain in order; see :func:`apply_delta`."""
    deltas = tuple(deltas)
    out = graph
    for delta in deltas:
        out = apply_delta(out, delta, strict=strict)
    if name is None and deltas:
        name = f"{graph.name}+{len(deltas)}d"
    if name is not None and out is not graph:
        out.name = name
    return out


def tile_boundaries(plan: TilingPlan) -> np.ndarray:
    """Vertex-range boundaries ``[b0, b1, ..., bT]`` of a contiguous plan."""
    tiles = plan.tiles
    if not tiles:
        return np.zeros(1, dtype=np.int64)
    bounds = [int(t.vertices[0]) for t in tiles]
    bounds.append(int(tiles[-1].vertices[-1]) + 1)
    return np.asarray(bounds, dtype=np.int64)


def dirty_tiles(
    boundaries: np.ndarray,
    delta: "EdgeDelta | np.ndarray",
    *,
    include_destinations: bool = False,
) -> np.ndarray:
    """Tile indices a delta invalidates under a contiguous partition.

    ``boundaries`` is the ``[b0, ..., bT]`` array of
    :func:`tile_boundaries`.  A contiguous vertex-range tile reads only
    its own CSR rows, so only tiles containing mutated *source* rows are
    dirty; ``include_destinations`` adds the tiles containing mutated
    destination vertices for conservative callers whose tile payloads
    also read in-edges.
    """
    boundaries = np.asarray(boundaries, dtype=np.int64)
    if isinstance(delta, EdgeDelta):
        rows = delta.touched_rows()
        if include_destinations:
            rows = np.union1d(rows, delta.touched_columns())
    else:
        rows = np.unique(np.asarray(delta, dtype=np.int64))
    if rows.size == 0:
        return np.empty(0, dtype=np.int64)
    t = np.searchsorted(boundaries, rows, side="right") - 1
    t = t[(t >= 0) & (t < boundaries.size - 1)]
    return np.unique(t)


def rewire_delta(
    graph: CSRGraph,
    rows,
    *,
    seed: int = 0,
) -> EdgeDelta:
    """Degree-preserving rewire: per row, delete one edge, insert another.

    For each given row with at least one out-edge and at least one
    absent destination, one existing destination is replaced by a fresh
    one chosen by a seeded RNG.  Degrees (hence ``indptr`` and any
    degree-driven tile boundaries) are unchanged, which makes this the
    canonical mutation generator for dirty-fraction benchmarks: the set
    of dirty tiles is exactly the set of tiles owning the given rows.
    """
    n = graph.num_vertices
    rng = np.random.default_rng(seed)
    inserts: list[tuple[int, int]] = []
    deletes: list[tuple[int, int]] = []
    for r in np.unique(np.asarray(rows, dtype=np.int64)).tolist():
        if not 0 <= r < n:
            raise ValueError(f"row {r} out of range")
        nbrs = graph.neighbors(r)
        if nbrs.size == 0 or nbrs.size >= n:
            continue
        old = int(nbrs[int(rng.integers(nbrs.size))])
        cand = None
        for _ in range(32):
            probe = int(rng.integers(n))
            pos = int(np.searchsorted(nbrs, probe))
            if pos >= nbrs.size or int(nbrs[pos]) != probe:
                cand = probe
                break
        if cand is None:
            absent = np.ones(n, dtype=bool)
            absent[nbrs] = False
            cand = int(np.argmax(absent))
        deletes.append((r, old))
        inserts.append((r, cand))
    return EdgeDelta.make(inserts=inserts, deletes=deletes)
