"""Reference implementations the optimised hot paths are pinned against.

Both are the straightforward forms the library used before it was tuned,
kept verbatim so property tests can require bit-identical output:

* :func:`reference_power_law_graph` builds every row of
  :func:`repro.graphs.generators.power_law_graph` with ndarray ops
  (``sorted_unique``, ``concatenate``, ``% n``); the library builds short
  rows from Python ints.
* :func:`reference_full_scores` and :func:`reference_incremental_scores`
  score the partition scan's candidate row splits from ``(k - 1) x S``
  PE-position matrices and a ``remote`` mask; the library scores each
  candidate from narrow per-slot x/y tables.
"""

from __future__ import annotations

import numpy as np

from repro.arrays import sorted_unique
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import _TOP_UP_ROUNDS, _sample_power_law_degrees
from repro.mapping.base import PERegion
from repro.mapping.degree_aware import _zorder_nodes_cached


def reference_power_law_graph(
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
    start = 0
    for v, d in enumerate(degrees.tolist()):
        if d == 0:
            continue
        if d >= num_vertices:
            nbrs = np.arange(num_vertices, dtype=np.int64)
        else:
            n_local = int(round(d * locality))
            n_global = d - n_local
            # Local edges: a window around the source id (community order).
            local = sorted_unique(
                rng.integers(v - window, v + window + 1, size=4 * n_local + 4)
                % num_vertices
            )
            rng.shuffle(local)
            # Global edges: preferential attachment to the hubs.
            glob = sorted_unique(
                cdf.searchsorted(
                    rng.random(min(4 * n_global + 8, num_vertices * 2)), side="right"
                )
            )
            rng.shuffle(glob)
            nbrs = sorted_unique(
                np.concatenate((local[:n_local], glob[:n_global]))
            )
            rounds = 0
            while nbrs.size < d and rounds < _TOP_UP_ROUNDS:
                extra = cdf.searchsorted(rng.random(2 * d), side="right")
                nbrs = sorted_unique(np.concatenate((nbrs, extra)))
                rounds += 1
            if nbrs.size < d:
                # The CDF mass sits on a few vertices (sparse budgets,
                # heavy tails): draw the rest uniformly from the vertices
                # not yet chosen instead of spinning.
                rest = np.setdiff1d(
                    np.arange(num_vertices), nbrs, assume_unique=True
                )
                nbrs = np.concatenate(
                    (nbrs, rng.choice(rest, d - nbrs.size, replace=False))
                )
            rng.shuffle(nbrs)
            nbrs = nbrs[:d]
            nbrs.sort()
        indices[start : start + d] = nbrs
        start += d
    return CSRGraph(
        indptr,
        indices,
        num_features=num_features,
        feature_density=feature_density,
        edge_feature_dim=edge_feature_dim,
        name=name,
    )



def _placement_positions(verts: np.ndarray, k: int, n: int) -> np.ndarray:
    """PE positions of ``verts`` under every candidate A-row count.

    Returns a ``(k - 1, verts.size)`` matrix whose row ``i`` places each
    vertex on the ``(i + 1)``-row region A under the mapper's Z-order
    sequential fill — the placement model the partition scan scores.
    """
    rows_arr = np.arange(1, k, dtype=np.int64)
    a_arr = rows_arr * k
    orders = np.zeros((k - 1, k * k), dtype=np.int32)
    for i, rows in enumerate(rows_arr):
        region_rows = PERegion(0, 0, k, int(rows), k)
        orders[i, : int(rows) * k] = np.asarray(
            _zorder_nodes_cached(region_rows), dtype=np.int32
        )
    flat = orders.ravel()
    offs = (np.arange(k - 1, dtype=np.int64) * (k * k))[:, None]
    vpp = np.maximum(1, -(-n // a_arr))
    cap_idx = (a_arr - 1)[:, None]
    return flat[np.minimum(verts[None, :] // vpp[:, None], cap_idx) + offs]


def _remote_and_hops(
    ps: np.ndarray, pd: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    remote = ps != pd
    hops = np.abs(ps % k - pd % k) + np.abs(ps // k - pd // k)
    return remote, hops


def reference_full_scores(src, dst, k, n):
    """Per-candidate ``(rcount, hsum)`` of a from-scratch scan."""
    ps = _placement_positions(src, k, n)
    pd = _placement_positions(dst, k, n)
    remote, hops = _remote_and_hops(ps, pd, k)
    rcount = remote.sum(axis=1)
    hsum = np.where(remote, hops, 0).sum(axis=1)
    return rcount, hsum


def reference_incremental_scores(rcount, hsum, src, old_dst, dst, k, n):
    """The parent's ``(rcount, hsum)`` adjusted where ``dst`` changed."""
    rcount = rcount.copy()
    hsum = hsum.copy()
    changed = np.nonzero(dst != old_dst)[0]
    if changed.size:
        ps = _placement_positions(src[changed], k, n)
        pd_old = _placement_positions(old_dst[changed], k, n)
        pd_new = _placement_positions(dst[changed], k, n)
        remote_old, hops_old = _remote_and_hops(ps, pd_old, k)
        remote_new, hops_new = _remote_and_hops(ps, pd_new, k)
        rcount += remote_new.sum(axis=1) - remote_old.sum(axis=1)
        hsum += np.where(remote_new, hops_new, 0).sum(axis=1)
        hsum -= np.where(remote_old, hops_old, 0).sum(axis=1)
    return rcount, hsum
