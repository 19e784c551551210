"""Perf layer: PERF registry, memo caches, ceil-flit audit.

Covers the perf-instrumentation API (:mod:`repro.perf`), the shared
tile-mapping LRU (:func:`repro.mapping.memo.map_tile`), the byte→flit
ceiling-division audit (:func:`repro.arch.noc.analytical.ceil_flits` and
the ejection/injection path), and the stages and memo counters a cold
then warm layer records.
"""

import json

import numpy as np
import pytest

from repro.arch.noc.analytical import TrafficMatrix, ceil_flits
from repro.graphs.generators import power_law_graph, uniform_random_graph
from repro.mapping.base import PERegion
from repro.mapping.degree_aware import degree_aware_map
from repro.mapping.memo import MAPPING_CACHE_MAX, clear_mapping_cache, map_tile
from repro.perf import PERF, PerfRegistry


# ---------------------------------------------------------------------------
# PerfRegistry API
# ---------------------------------------------------------------------------


class TestPerfRegistry:
    def test_timer_accumulates(self):
        reg = PerfRegistry()
        with reg.timer("stage"):
            pass
        with reg.timer("stage"):
            pass
        assert reg.stages["stage"].calls == 2
        assert reg.stages["stage"].seconds >= 0.0

    def test_timer_records_on_exception(self):
        reg = PerfRegistry()
        with pytest.raises(RuntimeError):
            with reg.timer("boom"):
                raise RuntimeError("x")
        assert reg.stages["boom"].calls == 1

    def test_counters_and_reset(self):
        reg = PerfRegistry()
        reg.incr("hits")
        reg.incr("hits", 4)
        assert reg.counters["hits"] == 5
        reg.reset()
        assert reg.counters == {} and reg.stages == {}

    def test_disabled_registry_is_inert(self):
        reg = PerfRegistry(enabled=False)
        with reg.timer("stage"):
            pass
        reg.incr("hits")
        assert reg.stages == {} and reg.counters == {}

    def test_snapshot_is_json_serialisable(self):
        reg = PerfRegistry()
        with reg.timer("a"):
            pass
        reg.incr("b", 2)
        snap = reg.snapshot()
        parsed = json.loads(json.dumps(snap))
        assert parsed["stages"]["a"]["calls"] == 1
        assert parsed["counters"]["b"] == 2


# ---------------------------------------------------------------------------
# Shared tile-mapping memo
# ---------------------------------------------------------------------------


class TestMapTileMemo:
    def setup_method(self):
        clear_mapping_cache()

    def test_repeated_tile_hits_cache(self):
        graph = power_law_graph(80, 600, seed=5)
        region = PERegion(0, 0, 8, 4, 8)
        PERF.reset()
        first = map_tile(graph, region, "degree-aware")
        assert PERF.counters.get("mapping.tile_cache_miss") == 1
        second = map_tile(graph, region, "degree-aware")
        assert PERF.counters.get("mapping.tile_cache_hit") == 1
        assert second is first  # shared immutable MappingResult

    def test_identical_content_different_name_hits(self):
        """Cache keys on content, not the tile's debug name."""
        g1 = uniform_random_graph(50, 300, seed=3)
        g2 = g1.renamed("other") if hasattr(g1, "renamed") else None
        if g2 is None:
            from repro.graphs.csr import CSRGraph

            g2 = CSRGraph(
                g1.indptr.copy(),
                g1.indices.copy(),
                num_features=g1.num_features,
                feature_density=g1.feature_density,
                edge_feature_dim=g1.edge_feature_dim,
                name="other",
            )
        region = PERegion(0, 0, 8, 8, 8)
        PERF.reset()
        a = map_tile(g1, region, "hashing")
        b = map_tile(g2, region, "hashing")
        assert PERF.counters.get("mapping.tile_cache_hit") == 1
        np.testing.assert_array_equal(a.vertex_to_pe, b.vertex_to_pe)

    def test_policy_and_region_distinguish_entries(self):
        graph = uniform_random_graph(40, 200, seed=4)
        r1 = PERegion(0, 0, 8, 4, 8)
        r2 = PERegion(0, 4, 8, 8, 8)
        PERF.reset()
        map_tile(graph, r1, "degree-aware")
        map_tile(graph, r2, "degree-aware")
        map_tile(graph, r1, "hashing")
        assert PERF.counters.get("mapping.tile_cache_miss") == 3
        assert PERF.counters.get("mapping.tile_cache_hit") is None

    def test_memo_result_matches_direct_call(self):
        graph = power_law_graph(64, 500, seed=6)
        region = PERegion(0, 0, 8, 4, 8)
        cap = max(1, -(-graph.num_vertices // region.num_pes))
        direct = degree_aware_map(graph, region, pe_vertex_capacity=cap)
        memod = map_tile(graph, region, "degree-aware")
        np.testing.assert_array_equal(memod.vertex_to_pe, direct.vertex_to_pe)
        assert memod.bypass_segments == direct.bypass_segments

    def test_cache_is_bounded(self):
        region = PERegion(0, 0, 8, 8, 8)
        from repro.mapping import memo

        for seed in range(MAPPING_CACHE_MAX + 10):
            map_tile(uniform_random_graph(10, 20, seed=seed), region, "hashing")
        assert len(memo._CACHE) <= MAPPING_CACHE_MAX

    def test_simulator_and_cycle_engine_share_cache(self):
        """The cycle tier replays analytical-tier tiles out of one memo."""
        from repro import AuroraSimulator, LayerDims, get_model
        from repro.config import default_config
        from repro.core.cycle_engine import CycleTileEngine

        graph = power_law_graph(60, 400, seed=8)
        model = get_model("gcn")
        dims = LayerDims(graph.num_features, 16)
        sim = AuroraSimulator()
        sim.simulate_layer(model, graph, dims)

        cfg = default_config().scaled(array_k=8)
        engine = CycleTileEngine(cfg)
        k = cfg.array_k
        region_a = PERegion(0, 0, k, k // 2, k)
        clear_mapping_cache()
        PERF.reset()
        first = engine._map(graph, region_a)
        second = engine._map(graph, region_a)
        assert second is first
        assert PERF.counters.get("mapping.tile_cache_hit") == 1


# ---------------------------------------------------------------------------
# Byte → flit ceiling audit
# ---------------------------------------------------------------------------


class TestCeilFlits:
    def test_partial_flit_rounds_up(self):
        assert int(ceil_flits(1, 16)) == 1
        assert int(ceil_flits(16, 16)) == 1
        assert int(ceil_flits(17, 16)) == 2
        assert int(ceil_flits(0, 16)) == 0

    def test_vectorised(self):
        got = ceil_flits(np.array([0, 15, 16, 31, 32, 33]), 16)
        np.testing.assert_array_equal(got, [0, 1, 1, 2, 2, 3])

    def test_rejects_bad_flit_width(self):
        with pytest.raises(ValueError):
            ceil_flits(10, 0)

    def test_from_flows_rounds_partial_flits_up(self):
        """A 17-byte payload on a 16-byte flit occupies two slots."""
        flows = np.array([[0, 1, 17]], dtype=np.int64)
        tm = TrafficMatrix.from_flows(flows, flit_bytes=16, k=4)
        assert tm.total_flits == 2

    def test_eject_path_uses_ceiling(self):
        """The simulate_layer ejection/injection path must not floor away
        partial flits: with a single hot ejection port, one extra flit is
        one extra drain cycle."""
        from repro.arch.noc.analytical import AnalyticalNoCModel
        from repro.arch.noc.topology import FlexibleMeshTopology
        from repro.config import NoCConfig

        cfg = NoCConfig()
        topo = FlexibleMeshTopology(4)
        model = AnalyticalNoCModel(topo, cfg)
        flows = np.array([[0, 5, 170]], dtype=np.int64)
        tm = TrafficMatrix.from_flows(flows, cfg.flit_bytes, 4)
        eject = np.zeros(16, dtype=np.int64)
        eject[5] = 170  # bytes arriving at node 5
        floor_res = model.evaluate(tm, eject_flits=eject // cfg.flit_bytes)
        ceil_res = model.evaluate(tm, eject_flits=ceil_flits(eject, cfg.flit_bytes))
        assert int(ceil_flits(np.int64(170), cfg.flit_bytes)) == (
            170 // cfg.flit_bytes + (1 if 170 % cfg.flit_bytes else 0)
        )
        assert ceil_res.max_ejection_load >= floor_res.max_ejection_load


# ---------------------------------------------------------------------------
# Cold / warm memo layers
# ---------------------------------------------------------------------------


class TestBenchSnapshot:
    def test_warm_runs_hit_all_memo_layers(self):
        """A cold simulate_layer times every hot-path stage perfbench
        reads; an identical warm call misses no memo layer."""
        from repro import AuroraSimulator, LayerDims, get_model, load_dataset
        from repro.perf.bench import clear_hot_path_caches

        graph = load_dataset("cora", scale=0.5)
        model = get_model("gcn")
        dims = LayerDims(graph.num_features, 32)
        clear_hot_path_caches()
        sim = AuroraSimulator()
        PERF.reset()
        sim.simulate_layer(model, graph, dims)
        stages = PERF.stages
        # The stage names perfbench/layers.py attributes time to.
        for stage in ("mapping", "traffic", "noc", "compute_count"):
            assert stages[stage].calls >= 1
            assert stages[stage].seconds >= 0
        PERF.reset()
        sim.simulate_layer(model, graph, dims)
        counters = PERF.counters
        assert counters.get("mapping.tile_cache_miss") is None
        assert counters.get("noc.model_cache_miss") is None
        assert counters.get("config.plan_cache_miss") is None
        assert counters.get("mapping.tile_cache_hit", 0) >= 1
        assert counters.get("noc.model_cache_hit", 0) >= 1
        assert counters.get("config.plan_cache_hit", 0) >= 1
