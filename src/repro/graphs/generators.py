"""Deterministic synthetic graph generators.

The paper evaluates on five public graph datasets.  We cannot ship the raw
files offline, so this module generates graphs whose *structural statistics*
match the published numbers: vertex/edge counts, heavy-tailed (power-law)
degree distributions, and light community structure.  Every result in the
paper depends only on these statistics (op counts, traffic volume, degree
skew), so a matched synthetic graph exercises identical code paths.

Two generator families are provided:

* ``power_law_graph`` — preferential-attachment-style generator with an
  exact edge budget and a tunable skew exponent.  Degree skew is what the
  degree-aware mapping exploits, so the exponent is the knob that matters.
* ``rmat_graph`` — Kronecker/R-MAT generator used for scale experiments and
  property-based tests (its recursive structure creates the community +
  hub patterns typical of social graphs such as Reddit).

All generators take an integer ``seed`` and are fully deterministic.
"""

from __future__ import annotations

import numpy as np

from ..arrays import sorted_unique
from .csr import CSRGraph, from_edge_list

__all__ = [
    "power_law_graph",
    "rmat_graph",
    "uniform_random_graph",
    "grid_graph",
    "star_graph",
    "bipartite_graph",
    "near_clique_hub_graph",
    "chain_graph",
    "complete_graph",
]


def _sample_power_law_degrees(
    n: int, m: int, exponent: float, rng: np.random.Generator
) -> np.ndarray:
    """Sample ``n`` degrees summing exactly to ``m`` with a Zipf-like tail.

    Draws Pareto-distributed weights, scales to the edge budget, then
    repairs rounding error by distributing the remainder over the highest-
    weight vertices (preserving the tail shape).
    """
    if exponent <= 1.0:
        raise ValueError("exponent must be > 1")
    weights = rng.pareto(exponent - 1.0, size=n) + 1.0
    weights /= weights.sum()
    degrees = np.floor(weights * m).astype(np.int64)
    deficit = m - int(degrees.sum())
    if deficit > 0:
        top = np.argsort(weights)[::-1][: max(deficit, 1)]
        # Round-robin the remainder over the heaviest vertices.
        add = np.zeros(n, dtype=np.int64)
        idx = np.resize(top, deficit)
        np.add.at(add, idx, 1)
        degrees += add
    elif deficit < 0:
        # Remove surplus from vertices that can spare it.
        surplus = -deficit
        donors = np.argsort(weights)[::-1]
        for v in donors:
            take = min(surplus, int(degrees[v]))
            degrees[v] -= take
            surplus -= take
            if surplus == 0:
                break
    # Cap degrees at n (a vertex cannot have more than n distinct targets
    # including a self-loop); redistribute overflow uniformly.
    overflow = int(np.maximum(degrees - n, 0).sum())
    degrees = np.minimum(degrees, n)
    while overflow > 0:
        room = n - degrees
        candidates = np.nonzero(room > 0)[0]
        if candidates.size == 0:  # pragma: no cover - m <= n*n guards this
            break
        pick = rng.choice(candidates, size=min(overflow, candidates.size), replace=False)
        degrees[pick] += 1
        overflow -= pick.size
    return degrees


#: Preferential top-up rounds before :func:`power_law_graph` fills a
#: vertex's remaining neighbours uniformly.  Every registry dataset needs
#: at most one round; the bound only stops degenerate CDFs from spinning.
_TOP_UP_ROUNDS = 64

#: Rows of at most this many neighbours are built from Python ints (set
#: and ``sorted`` over ``.tolist()`` draws, list shuffles); longer rows
#: keep ndarray ops, whose fixed per-call cost their length amortises.
#: Timed per row on pubmed- and reddit-like CDFs, the two forms cross
#: between 8 and 16 neighbours (docs/performance.md).
_LIST_ROW_MAX = 12


def _uniform_fill(
    rng: np.random.Generator, nbrs, d: int, num_vertices: int
) -> np.ndarray:
    """``d - len(nbrs)`` distinct vertices outside the sorted ``nbrs``.

    The CDF mass sits on a few vertices (sparse budgets, heavy tails):
    the rest of the row is drawn uniformly from the vertices not yet
    chosen instead of spinning.
    """
    rest = np.setdiff1d(
        np.arange(num_vertices), np.asarray(nbrs, dtype=np.int64), assume_unique=True
    )
    return rng.choice(rest, d - len(nbrs), replace=False)


def _array_row(
    rng: np.random.Generator,
    cdf: np.ndarray,
    v: int,
    d: int,
    n_local: int,
    n_global: int,
    n_glob: int,
    window: int,
    num_vertices: int,
) -> np.ndarray:
    """One long row of :func:`power_law_graph`, built with ndarray ops.

    Makes the same generator calls, with the same sizes and in the same
    order, as the Python-int path of the row loop.
    """
    local = sorted_unique(
        rng.integers(v - window, v + window + 1, size=4 * n_local + 4)
        % num_vertices
    )
    rng.shuffle(local)
    glob = sorted_unique(cdf.searchsorted(rng.random(n_glob), side="right"))
    rng.shuffle(glob)
    nbrs = sorted_unique(np.concatenate((local[:n_local], glob[:n_global])))
    rounds = 0
    while nbrs.size < d and rounds < _TOP_UP_ROUNDS:
        extra = cdf.searchsorted(rng.random(2 * d), side="right")
        nbrs = sorted_unique(np.concatenate((nbrs, extra)))
        rounds += 1
    if nbrs.size < d:
        nbrs = np.concatenate((nbrs, _uniform_fill(rng, nbrs, d, num_vertices)))
    rng.shuffle(nbrs)
    nbrs = nbrs[:d]
    nbrs.sort()
    return nbrs


def power_law_graph(
    num_vertices: int,
    num_edges: int,
    *,
    exponent: float = 2.1,
    locality: float = 0.0,
    locality_window: int | None = None,
    num_features: int = 16,
    feature_density: float = 1.0,
    edge_feature_dim: int = 0,
    seed: int = 0,
    name: str = "powerlaw",
) -> CSRGraph:
    """Directed graph with a power-law out-degree distribution.

    ``num_edges`` is hit exactly.  Destinations are drawn preferentially
    (proportional to the same weight vector used for the sources) so hubs
    are hubs on both sides, as in real social/citation graphs.

    ``locality`` in [0, 1) is the fraction of edges drawn from a window of
    ±``locality_window`` ids around the source instead of globally.  Real
    citation/social graphs have strong community locality when vertices
    are numbered in crawl/community order; locality-preserving mappings
    (sequential fill) exploit it, hashing mappings destroy it — which is
    part of what the paper's mapping comparison measures.

    Rows are drawn vertex by vertex.  A row of at most
    ``_LIST_ROW_MAX`` neighbours (most rows of the registry graphs) is
    built from Python ints: ``set``/``sorted`` over ``.tolist()`` draws
    and shuffles of lists, which skip the fixed per-call cost of small
    ndarray ops; a longer row keeps the ndarray ops, whose cost its
    length amortises.  Both make the same Generator calls with the same
    sizes in the same order (a list shuffle draws what an int64-array
    shuffle of its length draws), so the graph does not depend on the
    split.
    """
    if num_vertices <= 0:
        raise ValueError("num_vertices must be positive")
    if num_edges < 0:
        raise ValueError("num_edges must be non-negative")
    if num_edges > num_vertices * num_vertices:
        raise ValueError("edge budget exceeds |V|^2")
    if not 0.0 <= locality < 1.0:
        raise ValueError("locality must be in [0, 1)")
    rng = np.random.default_rng(seed)
    degrees = _sample_power_law_degrees(num_vertices, num_edges, exponent, rng)
    window = locality_window or max(4, num_vertices // 64)

    # Cap the tail at ~3.5·sqrt(n): real citation/social graphs have heavy
    # but bounded hubs (Cora's max degree is 168 at n=2708), while an
    # unrepaired Pareto draw can produce arbitrarily extreme outliers.
    # It never drops below the mean degree ⌈m/n⌉: with n·cap < m (e.g.
    # ``reddit`` at scale 0.0005) the excess below has nowhere to go.
    cap = max(16, int(3.5 * np.sqrt(num_vertices)), -(-num_edges // num_vertices))
    excess = int(np.maximum(degrees - cap, 0).sum())
    degrees = np.minimum(degrees, cap)
    while excess > 0:
        room = np.nonzero(degrees < cap)[0]
        take = min(excess, room.size)
        picks = rng.choice(room, size=take, replace=False)
        degrees[picks] += 1
        excess -= take

    # Destination sampling weights share the tail so in-degree is skewed
    # too, with the same hub cap.
    dst_weights = rng.pareto(exponent - 1.0, size=num_vertices) + 1.0
    dst_weights = np.minimum(dst_weights, np.quantile(dst_weights, 0.999) * 2)
    dst_weights /= dst_weights.sum()
    dst_weights = np.minimum(dst_weights, cap / max(num_edges, 1))
    dst_weights /= dst_weights.sum()

    # ``rng.choice(num_vertices, size, p=...)`` over these weights is
    # exactly ``cdf.searchsorted(rng.random(size), side="right")`` over
    # this CDF; building it once spares every vertex a re-validation and
    # re-cumsum of the whole weight vector and draws the same stream.
    cdf = dst_weights.cumsum()
    cdf /= cdf[-1]

    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    indices = np.empty(num_edges, dtype=np.int64)
    # Per-vertex local/global split and global draw size, for every
    # vertex at once (``np.round`` ties to even, like ``round``).
    rows = np.flatnonzero(degrees)
    row_degrees = degrees[rows]
    n_locals = np.round(row_degrees * locality).astype(np.int64)
    n_globals = row_degrees - n_locals
    glob_draws = np.minimum(4 * n_globals + 8, num_vertices * 2)
    integers, random, shuffle = rng.integers, rng.random, rng.shuffle
    searchsorted = cdf.searchsorted
    for v, d, n_local, n_global, n_glob, start in zip(
        rows.tolist(),
        row_degrees.tolist(),
        n_locals.tolist(),
        n_globals.tolist(),
        glob_draws.tolist(),
        indptr[rows].tolist(),
    ):
        if d >= num_vertices:
            indices[start : start + d] = np.arange(num_vertices, dtype=np.int64)
            continue
        if d > _LIST_ROW_MAX:
            indices[start : start + d] = _array_row(
                rng, cdf, v, d, n_local, n_global, n_glob, window, num_vertices
            )
            continue
        # Local edges: a window around the source id (community order).
        local = sorted(
            {
                u % num_vertices
                for u in integers(
                    v - window, v + window + 1, size=4 * n_local + 4
                ).tolist()
            }
        )
        shuffle(local)
        # Global edges: preferential attachment to the hubs.
        glob = sorted(set(searchsorted(random(n_glob), side="right").tolist()))
        shuffle(glob)
        chosen = set(local[:n_local])
        chosen.update(glob[:n_global])
        rounds = 0
        while len(chosen) < d and rounds < _TOP_UP_ROUNDS:
            chosen.update(searchsorted(random(2 * d), side="right").tolist())
            rounds += 1
        nbrs = sorted(chosen)
        if len(nbrs) < d:
            nbrs += _uniform_fill(rng, nbrs, d, num_vertices).tolist()
        shuffle(nbrs)
        nbrs = nbrs[:d]
        nbrs.sort()
        indices[start : start + d] = nbrs
    return CSRGraph(
        indptr,
        indices,
        num_features=num_features,
        feature_density=feature_density,
        edge_feature_dim=edge_feature_dim,
        name=name,
    )


def rmat_graph(
    scale: int,
    edge_factor: int = 16,
    *,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    num_features: int = 16,
    feature_density: float = 1.0,
    edge_feature_dim: int = 0,
    seed: int = 0,
    name: str = "rmat",
) -> CSRGraph:
    """R-MAT (Kronecker) graph with ``2**scale`` vertices.

    Uses the classic (a, b, c, d) quadrant recursion; duplicates are
    removed, so the realised edge count is slightly below
    ``edge_factor * 2**scale``.
    """
    if scale < 1 or scale > 24:
        raise ValueError("scale must be in [1, 24]")
    d = 1.0 - a - b - c
    if d < 0 or min(a, b, c) < 0:
        raise ValueError("quadrant probabilities must be non-negative and sum <= 1")
    n = 1 << scale
    m = edge_factor * n
    rng = np.random.default_rng(seed)
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    for bit in range(scale):
        r = rng.random(m)
        go_right = (r >= a + c) & (r < a + b + c) | (r >= a + b + c)
        go_down = (r >= a) & (r < a + c) | (r >= a + b + c)
        # quadrants: a=TL, b=TR, c=BL, d=BR
        src |= (go_down.astype(np.int64)) << bit
        dst |= (go_right.astype(np.int64)) << bit
    edges = np.unique(np.column_stack((src, dst)), axis=0)
    return from_edge_list(
        n,
        edges,
        num_features=num_features,
        feature_density=feature_density,
        edge_feature_dim=edge_feature_dim,
        name=name,
        dedup=False,
    )


def uniform_random_graph(
    num_vertices: int,
    num_edges: int,
    *,
    num_features: int = 16,
    feature_density: float = 1.0,
    edge_feature_dim: int = 0,
    seed: int = 0,
    name: str = "uniform",
) -> CSRGraph:
    """Erdős–Rényi-style directed graph (uniform degree, no hubs).

    Serves as the contrast workload for degree-aware-mapping ablations:
    with no hubs, degree-aware and hashing mapping should converge.
    """
    if num_edges > num_vertices * num_vertices:
        raise ValueError("edge budget exceeds |V|^2")
    rng = np.random.default_rng(seed)
    seen: set[int] = set()
    target = num_edges
    pairs = np.empty((0, 2), dtype=np.int64)
    while pairs.shape[0] < target:
        need = target - pairs.shape[0]
        cand = rng.integers(0, num_vertices, size=(2 * need + 16, 2), dtype=np.int64)
        keys = cand[:, 0] * num_vertices + cand[:, 1]
        fresh_mask = np.fromiter(
            (int(k) not in seen for k in keys), dtype=bool, count=keys.size
        )
        cand = cand[fresh_mask]
        keys = keys[fresh_mask]
        _, first = np.unique(keys, return_index=True)
        cand = cand[np.sort(first)][:need]
        for k in (cand[:, 0] * num_vertices + cand[:, 1]).tolist():
            seen.add(int(k))
        pairs = np.vstack((pairs, cand))
    return from_edge_list(
        num_vertices,
        pairs,
        num_features=num_features,
        feature_density=feature_density,
        edge_feature_dim=edge_feature_dim,
        name=name,
        dedup=False,
    )


def grid_graph(rows: int, cols: int, *, num_features: int = 16, name: str = "grid") -> CSRGraph:
    """4-neighbour 2-D grid (regular, mesh-friendly traffic)."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    n = rows * cols
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
                edges.append((v + 1, v))
            if r + 1 < rows:
                edges.append((v, v + cols))
                edges.append((v + cols, v))
    return from_edge_list(n, edges, num_features=num_features, name=name)


def star_graph(num_leaves: int, *, num_features: int = 16, name: str = "star") -> CSRGraph:
    """One hub connected to ``num_leaves`` leaves, both directions.

    The extreme high-degree-vertex case that motivates bypass links.
    """
    if num_leaves < 1:
        raise ValueError("num_leaves must be positive")
    edges = [(0, i) for i in range(1, num_leaves + 1)]
    edges += [(i, 0) for i in range(1, num_leaves + 1)]
    return from_edge_list(num_leaves + 1, edges, num_features=num_features, name=name)


def bipartite_graph(
    num_left: int,
    num_right: int,
    num_edges: int,
    *,
    num_features: int = 16,
    feature_density: float = 1.0,
    seed: int = 0,
    name: str = "bipartite",
) -> CSRGraph:
    """Directed bipartite graph: edges only cross the left/right partition.

    Vertices ``[0, num_left)`` form the left side, the rest the right side;
    every left vertex points right and vice versa.  Bipartite traffic is
    adversarial for locality-preserving mappings (sequential fill places
    each side contiguously, so *every* edge crosses the array) while a
    hashing mapping spreads it — the opposite of the community-local case.
    """
    if num_left < 1 or num_right < 1:
        raise ValueError("partition sizes must be positive")
    max_edges = 2 * num_left * num_right
    if num_edges > max_edges:
        raise ValueError("edge budget exceeds bipartite capacity")
    rng = np.random.default_rng(seed)
    n = num_left + num_right
    n_lr = num_edges // 2
    n_rl = num_edges - n_lr
    seen: set[int] = set()
    rows: list[np.ndarray] = []
    for count, (src_lo, src_n, dst_lo, dst_n) in (
        (n_lr, (0, num_left, num_left, num_right)),
        (n_rl, (num_left, num_right, 0, num_left)),
    ):
        got = 0
        while got < count:
            need = count - got
            src = src_lo + rng.integers(0, src_n, size=2 * need + 8, dtype=np.int64)
            dst = dst_lo + rng.integers(0, dst_n, size=2 * need + 8, dtype=np.int64)
            keys = src * n + dst
            fresh = np.fromiter(
                (int(k) not in seen for k in keys), dtype=bool, count=keys.size
            )
            src, dst, keys = src[fresh], dst[fresh], keys[fresh]
            _, first = np.unique(keys, return_index=True)
            order = np.sort(first)[:need]
            for k in keys[order].tolist():
                seen.add(int(k))
            rows.append(np.column_stack((src[order], dst[order])))
            got += order.size
    edges = np.vstack(rows) if rows else np.empty((0, 2), dtype=np.int64)
    return from_edge_list(
        n,
        edges,
        num_features=num_features,
        feature_density=feature_density,
        name=name,
        dedup=False,
    )


def near_clique_hub_graph(
    num_vertices: int,
    clique_size: int,
    *,
    clique_density: float = 0.9,
    spoke_degree: int = 2,
    num_features: int = 16,
    feature_density: float = 1.0,
    seed: int = 0,
    name: str = "hubclique",
) -> CSRGraph:
    """A dense near-clique core with sparse spokes to the periphery.

    The first ``clique_size`` vertices form a near-clique (each ordered
    pair present with probability ``clique_density``); every peripheral
    vertex sends ``spoke_degree`` edges into the core and receives one
    back.  This concentrates both compute and multicast traffic on a tiny
    vertex set — the pathological hub-pressure case for PE load balance
    and for the NoC bypass-link heuristics.
    """
    if clique_size < 2 or clique_size > num_vertices:
        raise ValueError("clique_size must be in [2, num_vertices]")
    if not 0.0 < clique_density <= 1.0:
        raise ValueError("clique_density must be in (0, 1]")
    if spoke_degree < 1:
        raise ValueError("spoke_degree must be positive")
    rng = np.random.default_rng(seed)
    src, dst = np.meshgrid(
        np.arange(clique_size), np.arange(clique_size), indexing="ij"
    )
    mask = (src != dst) & (rng.random((clique_size, clique_size)) < clique_density)
    edges = [np.column_stack((src[mask], dst[mask]))]
    periphery = np.arange(clique_size, num_vertices, dtype=np.int64)
    if periphery.size:
        deg = min(spoke_degree, clique_size)
        spokes_in = np.column_stack(
            (
                np.repeat(periphery, deg),
                rng.integers(0, clique_size, size=periphery.size * deg),
            )
        )
        spokes_out = np.column_stack(
            (rng.integers(0, clique_size, size=periphery.size), periphery)
        )
        edges += [spokes_in, spokes_out]
    return from_edge_list(
        num_vertices,
        np.vstack(edges),
        num_features=num_features,
        feature_density=feature_density,
        name=name,
    )


def chain_graph(n: int, *, num_features: int = 16, name: str = "chain") -> CSRGraph:
    """Simple directed path 0 -> 1 -> ... -> n-1."""
    if n < 1:
        raise ValueError("n must be positive")
    edges = [(i, i + 1) for i in range(n - 1)]
    return from_edge_list(n, edges, num_features=num_features, name=name)


def complete_graph(n: int, *, num_features: int = 16, name: str = "complete") -> CSRGraph:
    """Complete directed graph without self-loops."""
    if n < 1:
        raise ValueError("n must be positive")
    src, dst = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    mask = src != dst
    edges = np.column_stack((src[mask], dst[mask]))
    return from_edge_list(n, edges, num_features=num_features, name=name, dedup=False)
