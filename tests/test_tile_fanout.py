"""Property tests for intra-job tile parallelism.

Pins the contract the tentpole rests on: shard planning is deterministic
and order-preserving, the fan-out driver returns per-tile results in
tile order with bit-identical aggregates under serial / sharded / cached
execution (analytical and cycle tiers, both NoC engines), a mid-shard
worker crash degrades to serial recovery without changing a single bit,
and the shared worker budget stops serve's pool and tile fan-out from
oversubscribing the machine together.
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
from repro.runtime.budget import _WORKER_ENV, BUDGET, WorkerBudget
from repro.runtime.cache import ResultCache
from repro.runtime.executor import FakeExecutor
from repro.runtime.shards import (
    TileShardPlanner,
    run_tile_shards,
    tile_sub_key,
)


def _shard_echo(job):
    """Module-level worker (picklable): tags each tile with its shard."""
    return {
        "tiles": [
            {"value": payload * 10, "shard": job.shard_index}
            for payload in job.payloads
        ]
    }


class TestTileShardPlanner:
    @pytest.mark.parametrize("seed", range(20))
    def test_shards_concatenate_to_tile_order(self, seed):
        rng = random.Random(seed)
        costs = [rng.randint(1, 1000) for _ in range(rng.randint(1, 60))]
        workers = rng.randint(1, 8)
        planner = TileShardPlanner(
            shards_per_worker=rng.randint(1, 3),
            min_shard_cost=rng.choice([0.0, 100.0]),
        )
        shards = planner.plan(costs, workers)
        flat = [i for shard in shards for i in shard.tile_indices]
        assert flat == list(range(len(costs)))
        assert [s.index for s in shards] == list(range(len(shards)))
        # Deterministic: same inputs, same plan.
        again = planner.plan(costs, workers)
        assert [s.tile_indices for s in again] == [
            s.tile_indices for s in shards
        ]

    def test_single_worker_is_one_shard(self):
        shards = TileShardPlanner().plan([5, 5, 5], workers=1)
        assert len(shards) == 1
        assert shards[0].tile_indices == (0, 1, 2)

    def test_min_shard_cost_batches_small_tiles(self):
        # 16 unit-cost tiles, 4 workers: without a floor this would make
        # 8 shards; a floor of 8 allows only ceil(16/8) = 2.
        planner = TileShardPlanner(shards_per_worker=2, min_shard_cost=8.0)
        shards = planner.plan([1.0] * 16, workers=4)
        assert len(shards) == 2

    def test_empty(self):
        assert TileShardPlanner().plan([], workers=4) == []


class TestRunTileShards:
    @pytest.fixture(autouse=True)
    def _four_workers(self, monkeypatch):
        # The CI box may be single-core; the fan-out paths under test
        # need the shared budget to actually grant parallel workers.
        monkeypatch.setattr(BUDGET, "total", 4)
        monkeypatch.delenv(_WORKER_ENV, raising=False)

    def test_results_in_tile_order(self):
        payloads = list(range(13))
        out = run_tile_shards(
            payloads,
            _shard_echo,
            kind="echo",
            tile_workers=4,
            executor=FakeExecutor(fn=_shard_echo),
        )
        assert [p["value"] for p in out.payloads] == [
            v * 10 for v in payloads
        ]

    def test_mid_shard_crash_recovers_serially(self):
        payloads = list(range(12))
        clean = run_tile_shards(
            payloads,
            _shard_echo,
            kind="echo",
            tile_workers=4,
            executor=FakeExecutor(fn=_shard_echo),
        )
        assert clean.stats["shards"] > 1

        # Crash one middle shard: its tiles must come back identical via
        # the in-process serial retry.
        crashed = run_tile_shards(
            payloads,
            _shard_echo,
            kind="echo",
            tile_workers=4,
            executor=FakeExecutor(
                fn=_shard_echo, fail_when=lambda job: job.shard_index == 1
            ),
        )
        assert crashed.stats["recovered_shards"] == 1
        assert crashed.payloads == clean.payloads

    def test_cache_probe_and_store(self, tmp_path):
        cache = ResultCache(tmp_path)
        payloads = [1, 2, 3, 4]
        keys = [tile_sub_key("echo", {"p": p}) for p in payloads]
        cold = run_tile_shards(
            payloads, _shard_echo, kind="echo", tile_keys=keys, cache=cache
        )
        assert cold.stats["cache_hits"] == 0
        warm = run_tile_shards(
            payloads, _shard_echo, kind="echo", tile_keys=keys, cache=cache
        )
        assert warm.stats["cache_hits"] == 4
        assert warm.stats["shards"] == 0
        assert [p["value"] for p in warm.payloads] == [
            p["value"] for p in cold.payloads
        ]


def _graph(seed: int):
    rng = random.Random(seed)
    return power_law_graph(
        rng.randint(300, 900),
        rng.randint(1200, 4000),
        num_features=rng.choice([16, 64]),
        seed=seed,
        name=f"fanout-{seed}",
    )


class TestAnalyticalFanoutIdentity:
    """Serial vs sharded vs cached AuroraSimulator: bit-identical."""

    @pytest.mark.parametrize("seed", range(20))
    def test_serial_vs_sharded_bit_identical(self, seed, monkeypatch):
        monkeypatch.setattr(BUDGET, "total", 4)
        monkeypatch.delenv(_WORKER_ENV, raising=False)
        g = _graph(seed)
        model = get_model(
            random.Random(seed).choice(["gcn", "gin", "graphsage-mean"])
        )
        dims = LayerDims(g.num_features, 8)
        # Small buffer so the graph splits into several tiles.
        cfg = AcceleratorConfig(array_k=4, pe_buffer_bytes=2048)
        serial = AuroraSimulator(cfg).simulate_layer(model, g, dims)
        sharded = AuroraSimulator(cfg, tile_workers=3).simulate_layer(
            model, g, dims
        )
        assert serial.num_tiles > 1
        assert json.dumps(serial.to_dict(), sort_keys=True) == json.dumps(
            sharded.to_dict(), sort_keys=True
        )

    def test_cached_rerun_bit_identical(self, tmp_path, monkeypatch):
        monkeypatch.setattr(BUDGET, "total", 4)
        g = _graph(99)
        model = get_model("gcn")
        dims = LayerDims(g.num_features, 8)
        cfg = AcceleratorConfig(array_k=4, pe_buffer_bytes=2048)
        cache = ResultCache(tmp_path)
        serial = AuroraSimulator(cfg).simulate_layer(model, g, dims)
        cold = AuroraSimulator(
            cfg, tile_workers=2, tile_cache=cache
        ).simulate_layer(model, g, dims)
        warm = AuroraSimulator(
            cfg, tile_workers=2, tile_cache=cache
        ).simulate_layer(model, g, dims)
        ref = json.dumps(serial.to_dict(), sort_keys=True)
        assert json.dumps(cold.to_dict(), sort_keys=True) == ref
        assert json.dumps(warm.to_dict(), sort_keys=True) == ref


#: Engine names that are not registered: a typo and the removed engines.
UNKNOWN_ENGINES = ["warp-drive", "fused", "numba", "auto"]


class TestCycleLayerIdentity:
    """run_cycle_layer: serial vs sharded vs engines, all bit-identical."""

    def _setup(self):
        g = power_law_graph(
            240, 900, num_features=16, seed=7, name="cycle-fanout"
        )
        plan = tile_graph(g, 40_000)
        assert plan.num_tiles > 1
        cfg = AcceleratorConfig(array_k=8, noc=NoCConfig())
        return get_model("gcn"), plan, LayerDims(16, 16), cfg

    def test_serial_vs_sharded_vs_engines(self, monkeypatch):
        monkeypatch.setattr(BUDGET, "total", 4)
        model, plan, dims, cfg = self._setup()
        serial = run_cycle_layer(model, plan, dims, config=cfg)
        sharded = run_cycle_layer(
            model, plan, dims, config=cfg, tile_workers=4
        )
        reference = run_cycle_layer(
            model, plan, dims, config=cfg, noc_engine="reference"
        )
        base = [t.to_payload() for t in serial.tiles]
        for other in (sharded, reference):
            assert [t.to_payload() for t in other.tiles] == base

    def test_engine_agnostic_cache_keys(self, tmp_path, monkeypatch):
        monkeypatch.setattr(BUDGET, "total", 2)
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


class TestWorkerBudget:
    def test_lease_grants_remainder(self):
        budget = WorkerBudget(total=8)
        assert budget.lease("serve-batch", 6) == 6
        assert budget.lease("tile-fanout", 6) == 2
        snap = budget.snapshot()
        assert snap["leased"] == 8
        assert snap["available"] == 0
        budget.release("serve-batch")
        assert budget.lease("tile-fanout", 6) == 6

    def test_lease_never_below_one(self):
        budget = WorkerBudget(total=2)
        assert budget.lease("a", 2) == 2
        assert budget.lease("b", 4) == 1  # serial is always allowed

    def test_pool_worker_always_serial(self, monkeypatch):
        budget = WorkerBudget(total=16)
        monkeypatch.setenv(_WORKER_ENV, "1")
        assert budget.lease("tile-fanout", 8) == 1
        assert budget.snapshot()["in_pool_worker"] is True

    def test_relesase_replaces_not_accumulates(self):
        budget = WorkerBudget(total=8)
        assert budget.lease("a", 4) == 4
        assert budget.lease("a", 8) == 8  # replaces the old lease
        assert budget.snapshot()["leases"] == {"a": 8}
