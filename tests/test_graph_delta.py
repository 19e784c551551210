"""Edge-delta streams: canonical batches, incremental hashing, dirty tiles.

The contract under test: a graph mutated through
:func:`repro.graphs.delta.apply_delta` is *bit-identical* — arrays,
per-row digests, and content key — to rebuilding the CSR from the
mutated edge set from scratch, and every incremental shortcut built on
that (plan patching in :mod:`repro.graphs.tiling`, the partition sample
memo in :mod:`repro.core.simulator`) produces exactly what the
from-scratch path produces.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import default_config
from repro.core.simulator import (
    AuroraSimulator,
    clear_partition_sample_cache,
)
from repro.graphs.csr import CSRGraph, from_edge_list
from repro.graphs.datasets import clear_snapshot_cache, load_dataset
from repro.graphs.delta import (
    EdgeDelta,
    MutationLog,
    apply_chain,
    apply_delta,
    dirty_tiles,
    rewire_delta,
    tile_boundaries,
)
from repro.graphs.generators import power_law_graph
from repro.graphs.tiling import clear_tiling_cache, tile_graph

SEEDS = range(25)


def _graph(seed: int, n: int = 80, m: int = 320) -> CSRGraph:
    return power_law_graph(
        n, m, exponent=2.1, num_features=16, feature_density=0.5, seed=seed
    )


def _edge_set(g: CSRGraph) -> list:
    src = np.repeat(np.arange(g.num_vertices, dtype=np.int64), g.degrees)
    return list(zip(src.tolist(), g.indices.tolist()))


def _random_delta(g: CSRGraph, rng: np.random.Generator, edits: int = 6):
    edges = _edge_set(g)
    k = min(len(edges), int(rng.integers(1, edits + 1)))
    picked = rng.choice(len(edges), size=k, replace=False)
    deletes = [edges[i] for i in picked]
    have = set(edges)
    inserts = []
    n = g.num_vertices
    while len(inserts) < edits:
        e = (int(rng.integers(n)), int(rng.integers(n)))
        if e not in have and e not in inserts and e not in deletes:
            inserts.append(e)
    return EdgeDelta.make(inserts=inserts, deletes=deletes)


def _rebuilt(g: CSRGraph, name: str) -> CSRGraph:
    return from_edge_list(
        g.num_vertices,
        _edge_set(g),
        num_features=g.num_features,
        feature_density=g.feature_density,
        edge_feature_dim=g.edge_feature_dim,
        name=name,
    )


class TestEdgeDelta:
    def test_canonical_spellings_share_key(self):
        a = EdgeDelta.make(inserts=[(3, 4), (1, 2), (3, 4)], deletes=[(5, 6)])
        b = EdgeDelta.make(inserts=[(1, 2), (3, 4)], deletes=[(5, 6)])
        assert a == b
        assert a.delta_key == b.delta_key
        assert a.num_edits == 3

    def test_from_dict_aliases_and_roundtrip(self):
        d = EdgeDelta.from_dict({"insert": [[1, 2]], "deletes": [[3, 4]]})
        assert d.inserts == ((1, 2),) and d.deletes == ((3, 4),)
        assert EdgeDelta.from_dict(d.as_dict()) == d

    def test_rejections(self):
        with pytest.raises(ValueError, match="unknown mutation fields"):
            EdgeDelta.from_dict({"insert": [], "bogus": 1})
        with pytest.raises(ValueError, match="both insert and delete"):
            EdgeDelta.make(inserts=[(1, 2)], deletes=[(1, 2)])
        with pytest.raises(ValueError, match="non-negative"):
            EdgeDelta.make(inserts=[(-1, 2)])
        with pytest.raises(ValueError, match="pairs"):
            EdgeDelta.make(inserts=[(1, 2, 3)])

    def test_touched_rows_and_columns(self):
        d = EdgeDelta.make(inserts=[(7, 1)], deletes=[(2, 9), (7, 3)])
        assert d.touched_rows().tolist() == [2, 7]
        assert d.touched_columns().tolist() == [1, 3, 9]


class TestMutationLog:
    def test_chain_key_is_order_sensitive_and_stable(self):
        d1 = EdgeDelta.make(inserts=[(1, 2)])
        d2 = EdgeDelta.make(deletes=[(3, 4)])
        log = MutationLog(base_key="abc", deltas=(d1, d2))
        assert log.chain_key == MutationLog("abc", (d1, d2)).chain_key
        assert log.chain_key != MutationLog("abc", (d2, d1)).chain_key
        assert log.chain_key != MutationLog("xyz", (d1, d2)).chain_key

    def test_append_and_roundtrip(self):
        d1 = EdgeDelta.make(inserts=[(1, 2)])
        log = MutationLog(base_key="abc").append(d1)
        assert len(log) == 1
        assert MutationLog.from_dict(log.as_dict()) == log


class TestApplyDelta:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_apply_matches_from_scratch_rebuild(self, seed):
        g = _graph(seed)
        rng = np.random.default_rng(1000 + seed)
        delta = _random_delta(g, rng)
        child = apply_delta(g, delta)
        rebuilt = _rebuilt(child, child.name)
        assert np.array_equal(child.indptr, rebuilt.indptr)
        assert np.array_equal(child.indices, rebuilt.indices)
        assert child.content_key == rebuilt.content_key

    @pytest.mark.parametrize("seed", SEEDS)
    def test_incremental_content_key_equals_full_rehash(self, seed):
        g = _graph(seed)
        rng = np.random.default_rng(2000 + seed)
        child = apply_delta(g, _random_delta(g, rng))
        fresh = CSRGraph(
            child.indptr.copy(),
            child.indices.copy(),
            num_features=child.num_features,
            feature_density=child.feature_density,
            edge_feature_dim=child.edge_feature_dim,
            name=child.name,
        )
        assert np.array_equal(child.row_digests, fresh.row_digests)
        assert child.content_key == fresh.content_key

    def test_strict_mode_rejects_bad_edits(self):
        g = from_edge_list(4, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="absent edge"):
            apply_delta(g, EdgeDelta.make(deletes=[(0, 3)]))
        with pytest.raises(ValueError, match="existing edge"):
            apply_delta(g, EdgeDelta.make(inserts=[(0, 1)]))

    def test_lenient_mode_degrades_to_set_semantics(self):
        g = from_edge_list(4, [(0, 1), (1, 2)])
        delta = EdgeDelta.make(inserts=[(0, 1), (2, 3)], deletes=[(0, 3)])
        child = apply_delta(g, delta, strict=False)
        assert _edge_set(child) == [(0, 1), (1, 2), (2, 3)]

    def test_empty_delta_returns_same_graph(self):
        g = _graph(0)
        assert apply_delta(g, EdgeDelta.make()) is g

    def test_provenance_points_at_parent(self):
        g = _graph(1)
        child = apply_delta(g, EdgeDelta.make(inserts=[(0, 5)], deletes=()))
        assert child.derived_from == g.content_key
        assert g.derived_from is None

    def test_renamed_view_shares_content(self):
        g = _graph(2)
        view = g.renamed("other")
        assert view.name == "other"
        assert view.content_key == g.content_key
        assert view.indices is g.indices

    @pytest.mark.parametrize("seed", range(10))
    def test_apply_chain_composes(self, seed):
        g = _graph(seed)
        rng = np.random.default_rng(3000 + seed)
        d1 = _random_delta(g, rng)
        mid = apply_delta(g, d1)
        d2 = _random_delta(mid, rng)
        chained = apply_chain(g, (d1, d2))
        stepped = apply_delta(mid, d2)
        assert np.array_equal(chained.indptr, stepped.indptr)
        assert np.array_equal(chained.indices, stepped.indices)
        assert chained.content_key == stepped.content_key


def _set_reference(g: CSRGraph, delta: EdgeDelta, strict: bool):
    """Set-based reference for ``apply_delta``: the mutated edge set, or
    the strict-mode error text for the first offending edge (rows in
    order; in a row, deletes are checked before inserts)."""
    edges = set(_edge_set(g))
    if strict:
        for r in sorted({u for u, _ in delta.inserts + delta.deletes}):
            absent = sorted(v for u, v in delta.deletes if u == r and (u, v) not in edges)
            if absent:
                return f"delete of absent edge ({r}, {absent[0]})"
            kept = edges - set(delta.deletes)
            present = sorted(v for u, v in delta.inserts if u == r and (u, v) in kept)
            if present:
                return f"insert of existing edge ({r}, {present[0]})"
    return sorted((edges - set(delta.deletes)) | set(delta.inserts))


#: The adversarial registry shapes at ~41 vertices, and power-law graphs.
SHAPES = ("adv-star", "adv-bipartite", "adv-hubclique", "power-law")


class TestApplyDeltaProperties:
    @settings(max_examples=150, deadline=None)
    @given(
        shape=st.sampled_from(SHAPES),
        seed=st.integers(0, 5),
        strict=st.booleans(),
        valid=st.booleans(),
        data=st.data(),
    )
    def test_matches_set_reference_and_rebuild(self, shape, seed, strict, valid, data):
        if shape == "power-law":
            g = _graph(seed, n=41, m=160)
        else:
            g = load_dataset(shape, scale=0.01, seed=seed)
        n = g.num_vertices
        edges = _edge_set(g)
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        if valid:
            deletes = data.draw(st.lists(st.sampled_from(edges), max_size=8))
            present = set(edges)
            inserts = [e for e in data.draw(st.lists(pair, max_size=8)) if e not in present]
        else:
            deletes = data.draw(st.lists(pair, max_size=8))
            inserts = [e for e in data.draw(st.lists(pair, max_size=8)) if e not in deletes]
        delta = EdgeDelta.make(inserts=inserts, deletes=deletes)
        expected = _set_reference(g, delta, strict)
        if isinstance(expected, str):
            with pytest.raises(ValueError) as info:
                apply_delta(g, delta, strict=strict)
            assert str(info.value) == expected
            return
        child = apply_delta(g, delta, strict=strict)
        assert _edge_set(child) == expected
        rebuilt = from_edge_list(
            n, expected, num_features=g.num_features,
            feature_density=g.feature_density, name=child.name,
        )
        assert np.array_equal(child.indptr, rebuilt.indptr)
        assert np.array_equal(child.indices, rebuilt.indices)
        assert child.indices.dtype == np.int64
        assert np.array_equal(child.row_digests, rebuilt.row_digests)
        assert child.content_key == rebuilt.content_key

    def test_first_offending_row_reports(self):
        g = from_edge_list(4, [(0, 1), (1, 2)])
        same_row = EdgeDelta.make(inserts=[(0, 1)], deletes=[(0, 3)])
        with pytest.raises(ValueError, match=r"delete of absent edge \(0, 3\)"):
            apply_delta(g, same_row)
        insert_row_first = EdgeDelta.make(inserts=[(0, 1)], deletes=[(1, 3)])
        with pytest.raises(ValueError, match=r"insert of existing edge \(0, 1\)"):
            apply_delta(g, insert_row_first)

    def test_out_of_range_names_the_first_edge(self):
        g = from_edge_list(4, [(0, 1)])
        delta = EdgeDelta.make(inserts=[(1, 2), (5, 0), (7, 1)], deletes=[(9, 9)])
        with pytest.raises(ValueError, match=r"insert edge \(5, 0\) out of range for 4"):
            apply_delta(g, delta)


class TestDirtyTiles:
    def _plan(self, g):
        return tile_graph(g, 4096, bytes_per_value=8)

    def test_only_source_row_tiles_are_dirty(self):
        g = _graph(3, n=200, m=800)
        bounds = tile_boundaries(self._plan(g))
        assert bounds.size > 3
        row = int(bounds[1])  # first row of tile 1
        delta = EdgeDelta.make(inserts=[(row, 0)])
        assert dirty_tiles(bounds, delta).tolist() == [1]

    def test_include_destinations_adds_column_tiles(self):
        g = _graph(3, n=200, m=800)
        bounds = tile_boundaries(self._plan(g))
        row, col = int(bounds[1]), int(bounds[2])
        delta = EdgeDelta.make(inserts=[(row, col)])
        assert dirty_tiles(bounds, delta, include_destinations=True).tolist() == [
            1,
            2,
        ]

    def test_empty_delta_is_clean(self):
        g = _graph(3, n=200, m=800)
        bounds = tile_boundaries(self._plan(g))
        assert dirty_tiles(bounds, EdgeDelta.make()).size == 0

    def test_accepts_raw_rows(self):
        bounds = np.array([0, 10, 20, 30])
        assert dirty_tiles(bounds, np.array([5, 25])).tolist() == [0, 2]


class TestRewireDelta:
    @pytest.mark.parametrize("seed", range(10))
    def test_degree_preserving_and_deterministic(self, seed):
        g = _graph(seed, n=120, m=480)
        rows = [0, 5, 17, 40]
        delta = rewire_delta(g, rows, seed=seed)
        assert delta == rewire_delta(g, rows, seed=seed)
        child = apply_delta(g, delta)
        assert np.array_equal(child.indptr, g.indptr)
        assert set(delta.touched_rows().tolist()) <= set(rows)


class TestIncrementalTiling:
    def _settings(self):
        return dict(capacity_bytes=4096, bytes_per_value=8)

    def _assert_plans_equal(self, a, b):
        assert a.num_tiles == b.num_tiles
        assert a.graph_name == b.graph_name
        for ta, tb in zip(a.tiles, b.tiles):
            assert np.array_equal(ta.vertices, tb.vertices)
            assert ta.boundary_edges == tb.boundary_edges
            assert ta.external_vertices == tb.external_vertices
            assert ta.subgraph.content_key == tb.subgraph.content_key
            assert ta.subgraph.name == tb.subgraph.name
            assert np.array_equal(ta.subgraph.indices, tb.subgraph.indices)

    @pytest.mark.parametrize("seed", range(10))
    def test_patched_plan_matches_from_scratch(self, seed):
        clear_tiling_cache()
        g = _graph(seed, n=200, m=800)
        s = self._settings()
        tile_graph(g, s["capacity_bytes"], bytes_per_value=s["bytes_per_value"])
        delta = rewire_delta(g, [3, 60, 150], seed=seed)
        child = apply_delta(g, delta)
        patched = tile_graph(
            child, s["capacity_bytes"], bytes_per_value=s["bytes_per_value"]
        )
        clear_tiling_cache()
        cold = tile_graph(
            child, s["capacity_bytes"], bytes_per_value=s["bytes_per_value"]
        )
        self._assert_plans_equal(patched, cold)

    def test_degree_changing_delta_falls_back(self):
        clear_tiling_cache()
        g = _graph(0, n=200, m=800)
        s = self._settings()
        tile_graph(g, s["capacity_bytes"], bytes_per_value=s["bytes_per_value"])
        rng = np.random.default_rng(0)
        child = apply_delta(g, _random_delta(g, rng))  # changes degrees
        patched = tile_graph(
            child, s["capacity_bytes"], bytes_per_value=s["bytes_per_value"]
        )
        clear_tiling_cache()
        cold = tile_graph(
            child, s["capacity_bytes"], bytes_per_value=s["bytes_per_value"]
        )
        self._assert_plans_equal(patched, cold)

    def test_plan_memo_returns_same_object(self):
        clear_tiling_cache()
        g = _graph(1, n=200, m=800)
        a = tile_graph(g, 4096, bytes_per_value=8)
        b = tile_graph(g, 4096, bytes_per_value=8)
        assert a is b
        clear_tiling_cache()
        assert tile_graph(g, 4096, bytes_per_value=8) is not a


class TestPartitionSampleCache:
    @pytest.mark.parametrize("seed", range(10))
    def test_incremental_stats_match_full_pass(self, seed):
        clear_partition_sample_cache()
        cfg = default_config().scaled(array_k=8, pe_buffer_bytes=1024)
        sim = AuroraSimulator(cfg)
        g = _graph(seed, n=300, m=1500)
        k = cfg.array_k
        sim._placement_sample_stats(g, k)  # seed the parent entry
        delta = rewire_delta(g, [1, 40, 200], seed=seed)
        child = apply_delta(g, delta)
        inc_hops, inc_frac = sim._placement_sample_stats(child, k)
        clear_partition_sample_cache()
        full_hops, full_frac = sim._placement_sample_stats(child, k)
        assert np.array_equal(inc_hops, full_hops)
        assert np.array_equal(inc_frac, full_frac)


class TestSnapshotMemo:
    def test_load_dataset_memoizes_and_clears(self):
        clear_snapshot_cache()
        a = load_dataset("cora", scale=0.1, seed=3)
        b = load_dataset("cora", scale=0.1, seed=3)
        assert a is b
        assert load_dataset("cora", scale=0.1, seed=4) is not a
        clear_snapshot_cache()
        c = load_dataset("cora", scale=0.1, seed=3)
        assert c is not a
        assert c.content_key == a.content_key
