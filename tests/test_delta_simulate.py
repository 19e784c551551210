"""Incremental re-simulation: mutation streams are bit-identical to
from-scratch runs, dirty tiles recompute alone, and the supporting
machinery (tile memory tier, partition-signature keys) behaves as
documented.
"""

import numpy as np
import pytest

from repro.config import default_config
from repro.core.cycle_layer import _tile_keys, run_cycle_layer
from repro.core.simulator import _BUFFER_UTIL
from repro.graphs.delta import rewire_delta, tile_boundaries
from repro.graphs.generators import power_law_graph
from repro.graphs.delta import apply_delta
from repro.graphs.tiling import tile_graph
from repro.models.workload import LayerDims
from repro.models.zoo import get_model
from repro.perf.bench import clear_hot_path_caches
from repro.runtime.cache import ResultCache, clear_memory_tier
from repro.runtime.jobs import ENV_TILE_CACHE_DIR, SimJob, execute_job
from repro.runtime.shards import run_tile_shards

SEEDS = range(20)


@pytest.fixture
def tile_env(tmp_path, monkeypatch):
    """Point the per-tile cache env at a temp root, cleaning hot caches."""
    monkeypatch.setenv(ENV_TILE_CACHE_DIR, str(tmp_path / "tiles"))
    clear_hot_path_caches()
    yield str(tmp_path / "tiles")
    clear_hot_path_caches()


def _delta_for(job: SimJob, seed: int):
    from repro.graphs.datasets import load_dataset

    cfg = job.config
    graph = load_dataset(job.dataset, scale=job.scale, seed=job.seed)
    plan = tile_graph(
        graph,
        int(cfg.onchip_bytes * _BUFFER_UTIL),
        bytes_per_value=cfg.bytes_per_value,
    )
    bounds = tile_boundaries(plan)
    rng = np.random.default_rng(seed)
    tiles = rng.choice(plan.num_tiles, size=2, replace=False)
    rows = [int(bounds[t]) for t in tiles]
    return rewire_delta(graph, rows, seed=seed), plan.num_tiles


class TestAnalyticalTierIdentity:
    """Warm incremental aurora-tier runs equal from-scratch runs."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_warm_equals_cold(self, seed, tile_env, monkeypatch):
        cfg = default_config().scaled(array_k=8, pe_buffer_bytes=1024)
        base = SimJob(dataset="cora", hidden=16, num_layers=2, config=cfg)
        delta, num_tiles = _delta_for(base, seed)
        assert num_tiles >= 4
        execute_job(base)  # seed the per-tile cache
        from dataclasses import replace

        job = replace(base, mutations=(delta,))
        warm = execute_job(job)
        meta = warm.pop("_exec")
        assert meta["tiles_reused"] > 0
        assert meta["tiles_reused"] + meta["tiles_recomputed"] == meta["tiles"]

        monkeypatch.delenv(ENV_TILE_CACHE_DIR)
        clear_hot_path_caches()
        cold = execute_job(job)
        assert "_exec" not in cold
        assert warm == cold

    def test_no_cache_env_means_no_exec_meta(self, monkeypatch):
        monkeypatch.delenv(ENV_TILE_CACHE_DIR, raising=False)
        cfg = default_config().scaled(array_k=8, pe_buffer_bytes=1024)
        payload = execute_job(
            SimJob(dataset="cora", scale=0.2, hidden=16, config=cfg)
        )
        assert "_exec" not in payload


class TestCycleTierIdentity:
    """Cached cycle-tier layers equal uncached runs on mutated graphs."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_warm_equals_cold(self, seed, tmp_path):
        clear_hot_path_caches()
        cfg = default_config().scaled(array_k=4, pe_buffer_bytes=1024)
        g = power_law_graph(
            120, 480, exponent=2.1, num_features=8,
            feature_density=0.5, seed=seed,
        )
        capacity = int(cfg.onchip_bytes * _BUFFER_UTIL)
        plan = tile_graph(g, capacity, bytes_per_value=cfg.bytes_per_value)
        assert plan.num_tiles >= 2
        model = get_model("gcn")
        dims = LayerDims(g.num_features, 8)
        cache = ResultCache(tmp_path / "tiles")
        run_cycle_layer(model, plan, dims, config=cfg, cache=cache)

        delta = rewire_delta(g, [0, 60], seed=seed)
        child = apply_delta(g, delta)
        mplan = tile_graph(child, capacity, bytes_per_value=cfg.bytes_per_value)
        warm = run_cycle_layer(model, mplan, dims, config=cfg, cache=cache)
        assert warm.fanout["cache_hits"] > 0
        clear_hot_path_caches()
        cold = run_cycle_layer(model, mplan, dims, config=cfg, cache=None)
        assert [t.to_payload() for t in warm.tiles] == [
            t.to_payload() for t in cold.tiles
        ]


class TestPartitionSignatureKeys:
    """Tiles cached under one tiling configuration never satisfy another."""

    def test_two_partition_settings_give_disjoint_keys(self):
        g = power_law_graph(60, 240, exponent=2.1, num_features=8, seed=1)
        cfg = default_config().scaled(array_k=4, pe_buffer_bytes=1024)
        model = get_model("gcn")
        dims = LayerDims(8, 8)
        sig_a = {"capacity_bytes": 4096, "bytes_per_value": 8}
        sig_b = {"capacity_bytes": 8192, "bytes_per_value": 8}
        keys_a = _tile_keys([g], model, dims, cfg, "degree-aware", sig_a)
        keys_b = _tile_keys([g], model, dims, cfg, "degree-aware", sig_b)
        keys_none = _tile_keys([g], model, dims, cfg, "degree-aware", None)
        assert not set(keys_a) & set(keys_b)
        assert not set(keys_a) & set(keys_none)

    def test_cross_setting_probe_misses_end_to_end(self, tmp_path):
        clear_hot_path_caches()
        cfg = default_config().scaled(array_k=4, pe_buffer_bytes=1024)
        g = power_law_graph(
            60, 240, exponent=2.1, num_features=8, feature_density=0.5, seed=2
        )
        model = get_model("gcn")
        dims = LayerDims(g.num_features, 8)
        cache = ResultCache(tmp_path / "tiles")
        sig_a = {"capacity_bytes": 4096, "bytes_per_value": 8}
        sig_b = {"capacity_bytes": 8192, "bytes_per_value": 8}
        first = run_cycle_layer(
            model, [g], dims, config=cfg, cache=cache, partition_signature=sig_a
        )
        assert first.fanout["cache_hits"] == 0
        again = run_cycle_layer(
            model, [g], dims, config=cfg, cache=cache, partition_signature=sig_a
        )
        assert again.fanout["cache_hits"] == 1
        other = run_cycle_layer(
            model, [g], dims, config=cfg, cache=cache, partition_signature=sig_b
        )
        assert other.fanout["cache_hits"] == 0


class TestTileMemoTier:
    def _run(self, cache, keys, n=3):
        def worker(job):
            return {"tiles": [{"i": i} for i in job.tile_indices]}

        return run_tile_shards(
            [{"p": i} for i in range(n)],
            worker,
            kind="memo-test",
            tile_keys=keys,
            cache=cache,
        )

    def test_memory_tier_fronts_disk(self, tmp_path):
        clear_memory_tier()
        cache = ResultCache(tmp_path / "a")
        keys = [f"k{i}" for i in range(3)]
        first = self._run(cache, keys)
        assert first.stats["cache_hits"] == 0
        second = self._run(cache, keys)
        assert second.stats["cache_hits"] == 3
        assert second.stats["memo_hits"] == 0  # a store does not fill memory
        third = self._run(cache, keys)
        assert third.stats["cache_hits"] == 3
        assert third.stats["memo_hits"] == 3  # the disk hits filled it
        clear_memory_tier()
        fourth = self._run(cache, keys)
        assert fourth.stats["cache_hits"] == 3
        assert fourth.stats["memo_hits"] == 0  # disk still authoritative
        assert first.payloads == second.payloads == third.payloads
        assert third.payloads == fourth.payloads

