"""Property tests for a layer's tile loop and its per-tile cache.

Pins the contract the tile loop rests on: the helper returns per-tile
results in tile order, hands only the cold tiles to the worker, and the
aggregates are bit-identical uncached, cold-cached and warm-cached
(analytical tier) and under either NoC engine (cycle tier).
"""

import json
import random

import pytest

from repro.config import AcceleratorConfig, NoCConfig
from repro.core.cycle_layer import run_cycle_layer
from repro.core.simulator import AuroraSimulator
from repro.graphs.generators import power_law_graph
from repro.graphs.tiling import tile_graph
from repro.models.workload import LayerDims
from repro.models.zoo import get_model
from repro.perf import PERF
from repro.runtime.cache import ResultCache, clear_memory_tier
from repro.runtime import shards
from repro.runtime.shards import run_tile_shards, tile_sub_key, tile_sub_keys

TILE_COUNTERS = ("tiles.cache_hit", "tiles.memo_hit", "tiles.cache_miss")


def _echo(cold):
    return {"tiles": [{"value": payload * 10} for payload in cold.payloads]}


class TestRunTileShards:
    def test_results_in_tile_order(self, tmp_path):
        """Warm and cold tiles interleave; the worker sees only the cold
        ones, and the results still come back in tile order."""
        clear_memory_tier()
        cache = ResultCache(tmp_path)
        payloads = list(range(13))
        keys = [tile_sub_key("echo", {"p": p}) for p in payloads]
        warm = payloads[::3]
        run_tile_shards(
            warm, _echo, kind="echo", tile_keys=keys[::3], cache=cache
        )
        seen = []

        def worker(cold):
            seen.append(cold.tile_indices)
            return _echo(cold)

        out = run_tile_shards(
            payloads, worker, kind="echo", tile_keys=keys, cache=cache
        )
        assert seen == [tuple(i for i in payloads if i % 3)]
        assert out.stats["cache_hits"] == len(warm)
        assert [p["value"] for p in out.payloads] == [
            v * 10 for v in payloads
        ]

    def test_raising_worker_fails_once(self):
        """A worker that raises runs once and its own exception
        propagates."""
        calls = []

        def failing(cold):
            calls.append(cold.tile_indices)
            raise RuntimeError("tile failed")

        with pytest.raises(RuntimeError, match="tile failed"):
            run_tile_shards([1, 2, 3], failing, kind="echo")
        assert calls == [(0, 1, 2)]

    def test_cache_probe_and_store(self, tmp_path):
        cache = ResultCache(tmp_path)
        payloads = [1, 2, 3, 4]
        keys = [tile_sub_key("echo", {"p": p}) for p in payloads]
        cold = run_tile_shards(
            payloads, _echo, kind="echo", tile_keys=keys, cache=cache
        )
        assert cold.stats["cache_hits"] == 0

        def unreachable(cold):
            raise AssertionError("a warm layer must not call the worker")

        warm = run_tile_shards(
            payloads, unreachable, kind="echo", tile_keys=keys, cache=cache
        )
        assert warm.stats["cache_hits"] == 4
        assert [p["value"] for p in warm.payloads] == [
            p["value"] for p in cold.payloads
        ]

    def test_counters_move_only_when_a_cache_is_probed(self, tmp_path):
        def counts():
            return [PERF.counters.get(name, 0) for name in TILE_COUNTERS]

        before = counts()
        run_tile_shards([1, 2, 3], _echo, kind="echo")
        assert counts() == before
        keys = [tile_sub_key("echo", {"p": p}) for p in (1, 2, 3)]
        run_tile_shards(
            [1, 2, 3], _echo, kind="echo", tile_keys=keys,
            cache=ResultCache(tmp_path),
        )
        assert counts() == [before[0], before[1], before[2] + 3]


def _graph(seed: int):
    rng = random.Random(seed)
    return power_law_graph(
        rng.randint(300, 900),
        rng.randint(1200, 4000),
        num_features=rng.choice([16, 64]),
        seed=seed,
        name=f"fanout-{seed}",
    )


class TestAnalyticalCacheIdentity:
    """Uncached vs cold-cached vs warm-cached AuroraSimulator."""

    @pytest.mark.parametrize("seed", range(20))
    def test_uncached_vs_cached_bit_identical(self, seed, tmp_path):
        g = _graph(seed)
        model = get_model(
            random.Random(seed).choice(["gcn", "gin", "graphsage-mean"])
        )
        dims = LayerDims(g.num_features, 8)
        # Small buffer so the graph splits into several tiles.
        cfg = AcceleratorConfig(array_k=4, pe_buffer_bytes=2048)
        uncached = AuroraSimulator(cfg).simulate_layer(model, g, dims)
        assert uncached.num_tiles > 1
        ref = json.dumps(uncached.to_dict(), sort_keys=True)
        cache = ResultCache(tmp_path)
        cold_sim = AuroraSimulator(cfg, tile_cache=cache)
        cold = cold_sim.simulate_layer(model, g, dims)
        assert cold_sim.take_tile_stats()["reused"] == 0
        # Warm from disk, which fills the memory tier, then from memory.
        for _ in range(2):
            memory_hits = cache.stats.memory_hits
            warm_sim = AuroraSimulator(cfg, tile_cache=cache)
            warm = warm_sim.simulate_layer(model, g, dims)
            assert warm_sim.take_tile_stats()["reused"] == uncached.num_tiles
            assert json.dumps(warm.to_dict(), sort_keys=True) == ref
        assert cache.stats.memory_hits - memory_hits == uncached.num_tiles
        assert json.dumps(cold.to_dict(), sort_keys=True) == ref


class TestTileSubKeys:
    """A layer's keys, serialised once per layer, equal ``tile_sub_key``
    of each tile's full dict: warm caches stay valid."""

    def _spy(self, monkeypatch):
        calls = []

        def spy(kind, context, tiles):
            keys = tile_sub_keys(kind, context, tiles)
            calls.append((kind, context, tiles, keys))
            return keys

        monkeypatch.setattr(shards, "tile_sub_keys", spy)
        return calls

    def _check(self, calls, kind):
        (got_kind, context, tiles, keys), = calls
        assert got_kind == kind
        assert len(tiles) > 1
        assert keys == [
            tile_sub_key(kind, {**context, **parts}) for parts in tiles
        ]
        assert len(set(keys)) == len(keys)

    def test_analytical_layer(self, monkeypatch, tmp_path):
        calls = self._spy(monkeypatch)
        g = _graph(3)
        cfg = AcceleratorConfig(array_k=4, pe_buffer_bytes=2048)
        sim = AuroraSimulator(cfg, tile_cache=ResultCache(tmp_path))
        sim.simulate_layer(get_model("gcn"), g, LayerDims(g.num_features, 8))
        self._check(calls, "analytical-tile")
        assert sorted(calls[0][2][0]) == ["boundary", "graph"]

    def test_cycle_layer(self, monkeypatch, tmp_path):
        calls = self._spy(monkeypatch)
        g = power_law_graph(240, 900, num_features=16, seed=7, name="keys")
        cfg = AcceleratorConfig(array_k=8, noc=NoCConfig())
        run_cycle_layer(
            get_model("gcn"), tile_graph(g, 40_000), LayerDims(16, 16),
            config=cfg, cache=ResultCache(tmp_path),
        )
        self._check(calls, "cycle-tile")

    def test_nested_and_unicode_values(self):
        context = {"z": {"b": [1, 2.5], "a": "ü"}, "a": None, "m": True}
        tiles = [{"graph": "k1", "n": [3, {"y": 1, "x": 2}]}, {"graph": "k2", "n": []}]
        assert tile_sub_keys("t", context, tiles) == [
            tile_sub_key("t", {**context, **parts}) for parts in tiles
        ]
        assert tile_sub_keys("t", context, []) == []

    def test_field_clash_rejected(self):
        with pytest.raises(ValueError):
            tile_sub_keys("t", {"graph": 1}, [{"graph": 2}])
        with pytest.raises(ValueError):
            tile_sub_keys("t", {}, [{"graph": 1}, {"graph": 2, "extra": 3}])


#: Engine names that are not registered: a typo and the removed engines.
UNKNOWN_ENGINES = ["warp-drive", "fused", "numba", "auto"]


class TestCycleLayerIdentity:
    """run_cycle_layer: both engines and the tile cache, all bit-identical."""

    def _setup(self):
        g = power_law_graph(
            240, 900, num_features=16, seed=7, name="cycle-fanout"
        )
        plan = tile_graph(g, 40_000)
        assert plan.num_tiles > 1
        cfg = AcceleratorConfig(array_k=8, noc=NoCConfig())
        return get_model("gcn"), plan, LayerDims(16, 16), cfg

    def test_event_vs_reference_engine(self):
        model, plan, dims, cfg = self._setup()
        event = run_cycle_layer(model, plan, dims, config=cfg)
        reference = run_cycle_layer(
            model, plan, dims, config=cfg, noc_engine="reference"
        )
        assert [t.to_payload() for t in reference.tiles] == [
            t.to_payload() for t in event.tiles
        ]

    def test_engine_agnostic_cache_keys(self, tmp_path):
        model, plan, dims, cfg = self._setup()
        cache = ResultCache(tmp_path)
        first = run_cycle_layer(
            model, plan, dims, config=cfg, cache=cache, noc_engine="event"
        )
        second = run_cycle_layer(
            model, plan, dims, config=cfg, cache=cache, noc_engine="reference"
        )
        assert second.fanout["cache_hits"] == plan.num_tiles
        assert [t.to_payload() for t in second.tiles] == [
            t.to_payload() for t in first.tiles
        ]

    @pytest.mark.parametrize("name", UNKNOWN_ENGINES)
    def test_unknown_engine_rejected(self, name):
        model, plan, dims, cfg = self._setup()
        with pytest.raises(ValueError, match="noc_engine"):
            run_cycle_layer(model, plan, dims, config=cfg, noc_engine=name)

    def test_unknown_engine_rejected_on_warm_cache(self, tmp_path):
        """Every tile a cache hit builds no engine; the name is still
        checked rather than stamped onto the result."""
        model, plan, dims, cfg = self._setup()
        cache = ResultCache(tmp_path)
        run_cycle_layer(model, plan, dims, config=cfg, cache=cache)
        for name in UNKNOWN_ENGINES:
            with pytest.raises(ValueError, match="noc_engine"):
                run_cycle_layer(
                    model, plan, dims, config=cfg, cache=cache,
                    noc_engine=name,
                )
