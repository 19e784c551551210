"""Delta bases stored beside their tiles: ``load_dataset(store=)``.

A delta job reads its base graph from the per-tile result cache when
the process's snapshot memo no longer holds it, and synthesises the
base only the first time.  Pinned here: a stored snapshot rebuilds to
the synthesised graph for every registry dataset, a delta's result and
tile counters do not depend on where its base came from, a damaged
entry is re-synthesised and rewritten, a job without mutations never
writes a snapshot, and a served delta whose base was evicted runs
without calling the generator.
"""

import base64
import json
from dataclasses import replace

import numpy as np
import pytest

from repro.config import default_config
from repro.graphs import datasets
from repro.graphs.datasets import (
    clear_snapshot_cache,
    list_adversarial_datasets,
    list_datasets,
    load_dataset,
)
from repro.graphs.delta import rewire_delta
from repro.runtime import ResultCache, SimJob
from repro.runtime.cache import clear_memory_tier, shared_cache
from repro.runtime.jobs import ENV_TILE_CACHE_DIR, execute_job
from repro.serve.client import ServeClient
from repro.serve.server import ServerThread, SimulationService

#: Small scales: every registry dataset, reddit included, stays cheap.
SCALES = {"nell": 0.02, "reddit": 0.005}

#: A multi-tile delta base: a shrunk array and minimal PE buffers.
BASE = SimJob(
    dataset="cora",
    scale=0.3,
    hidden=8,
    num_layers=1,
    config=default_config().scaled(array_k=8, pe_buffer_bytes=1024),
)


def _entry_path(root):
    """Where ``BASE``'s snapshot entry lives in the store at ``root``."""
    key = datasets._snapshot_key((BASE.dataset, float(BASE.scale), BASE.seed))
    return ResultCache(root).path_for(key)


def _delta_job():
    graph = load_dataset(BASE.dataset, scale=BASE.scale, seed=BASE.seed)
    return replace(BASE, mutations=(rewire_delta(graph, [0, 1, 2], seed=5),))


@pytest.fixture
def cold_graphs():
    """No snapshot memo or memory-tier entry survives into or out of a test."""
    clear_snapshot_cache()
    clear_memory_tier()
    yield
    clear_snapshot_cache()
    clear_memory_tier()


def _ints(text):
    """A stored base64 little-endian int64 array, decoded."""
    return np.frombuffer(base64.b64decode(text), dtype="<i8").copy()


def _b64(raw):
    return base64.b64encode(raw).decode("ascii")


def _result(payload):
    """A job payload without its tile counters."""
    return {k: v for k, v in payload.items() if k != "_exec"}


def _no_synthesis(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the base graph was synthesised")

    monkeypatch.setattr(datasets, "power_law_graph", refuse)


@pytest.mark.parametrize("name", list_datasets() + list_adversarial_datasets())
def test_stored_snapshot_rebuilds_the_synthesised_graph(name, tmp_path, cold_graphs):
    scale = SCALES.get(name, 0.1)
    synthesised = load_dataset(name, scale=scale, seed=3)
    store = ResultCache(tmp_path)
    clear_snapshot_cache()
    assert load_dataset(name, scale=scale, seed=3, store=store) is not synthesised
    assert store.stats.stores == 1
    entry = json.loads(store.entries()[0].read_text())["result"]
    assert isinstance(entry["indptr"], str) and isinstance(entry["indices"], str)
    clear_snapshot_cache()
    clear_memory_tier()
    loaded = load_dataset(name, scale=scale, seed=3, store=store)
    assert store.stats.hits == 1
    assert loaded.content_key == synthesised.content_key
    assert np.array_equal(loaded.indptr, synthesised.indptr)
    assert np.array_equal(loaded.indices, synthesised.indices)
    for attr in ("num_features", "feature_density", "edge_feature_dim", "name"):
        assert getattr(loaded, attr) == getattr(synthesised, attr)


class TestDeltaJobs:
    def _reference(self, tmp_path, monkeypatch):
        """The delta job's payload with its base synthesised, on a tile
        cache warmed by the base job."""
        monkeypatch.setenv(ENV_TILE_CACHE_DIR, str(tmp_path / "synth"))
        execute_job(BASE)
        delta_job = _delta_job()
        clear_snapshot_cache()
        payload = execute_job(delta_job)
        assert _entry_path(tmp_path / "synth").exists()
        return delta_job, payload

    def test_memo_store_and_synthesis_agree(self, tmp_path, monkeypatch, cold_graphs):
        delta_job, synthesised = self._reference(tmp_path, monkeypatch)
        assert synthesised["_exec"]["tiles_reused"] > 0
        assert synthesised["_exec"]["tiles_recomputed"] > 0

        monkeypatch.setenv(ENV_TILE_CACHE_DIR, str(tmp_path / "memo"))
        execute_job(BASE)  # leaves the base in the memo
        from_memo = execute_job(delta_job)
        assert not _entry_path(tmp_path / "memo").exists()

        root = tmp_path / "store"
        monkeypatch.setenv(ENV_TILE_CACHE_DIR, str(root))
        execute_job(BASE)
        clear_snapshot_cache()
        load_dataset(BASE.dataset, scale=BASE.scale, seed=BASE.seed, store=ResultCache(root))
        clear_snapshot_cache()
        clear_memory_tier()
        _no_synthesis(monkeypatch)
        from_store = execute_job(delta_job)

        assert from_memo == synthesised
        assert from_store == synthesised

    @pytest.mark.parametrize(
        "damage",
        [
            "truncated",
            "garbage",
            "stale",
            "content_key",
            "malformed",
            "bad_base64",
            "wrong_length",
            "ragged_bytes",
        ],
    )
    def test_damaged_entry_is_resynthesised(self, damage, tmp_path, monkeypatch, cold_graphs):
        delta_job, reference = self._reference(tmp_path, monkeypatch)
        path = _entry_path(tmp_path / "synth")
        text = path.read_text()
        blob = json.loads(text)
        if damage == "truncated":
            path.write_text(text[: len(text) // 2])
        elif damage == "garbage":
            path.write_bytes(b"\xff\x00not json")
        elif damage == "stale":
            blob["fingerprint"] = "0" * 16
            path.write_text(json.dumps(blob))
        elif damage == "content_key":
            indices = _ints(blob["result"]["indices"])
            num_vertices = _ints(blob["result"]["indptr"]).size - 1
            indices[0] = (indices[0] + 1) % num_vertices
            blob["result"]["indices"] = _b64(indices.tobytes())
            path.write_text(json.dumps(blob))
        elif damage == "malformed":
            del blob["result"]["indices"]
            path.write_text(json.dumps(blob))
        elif damage == "bad_base64":
            blob["result"]["indices"] = "not*base64!"
            path.write_text(json.dumps(blob))
        elif damage == "wrong_length":
            # Whole int64s, one fewer than ``indptr`` promises.
            blob["result"]["indices"] = _b64(_ints(blob["result"]["indices"])[:-1].tobytes())
            path.write_text(json.dumps(blob))
        else:
            raw = base64.b64decode(blob["result"]["indptr"])
            blob["result"]["indptr"] = _b64(raw + b"\x00\x00\x00")
            path.write_text(json.dumps(blob))
        clear_snapshot_cache()
        clear_memory_tier()
        assert _result(execute_job(delta_job)) == _result(reference)
        # Rewritten: the next memo miss reads it without synthesising.
        assert json.loads(path.read_text()) == json.loads(text)
        clear_snapshot_cache()
        clear_memory_tier()
        _no_synthesis(monkeypatch)
        assert _result(execute_job(delta_job)) == _result(reference)

    def test_job_without_mutations_writes_no_snapshot(self, tmp_path, monkeypatch, cold_graphs):
        monkeypatch.setenv(ENV_TILE_CACHE_DIR, str(tmp_path))
        execute_job(BASE)
        assert len(ResultCache(tmp_path)) > 0  # its tiles
        assert not _entry_path(tmp_path).exists()
        clear_snapshot_cache()
        execute_job(replace(BASE, hidden=16))
        assert not _entry_path(tmp_path).exists()


def test_served_delta_after_eviction_skips_synthesis(tmp_path, monkeypatch, cold_graphs):
    """An in-process ``repro serve`` delta whose base five cold misses
    evicted from the memo is answered from the stored base."""
    root = tmp_path / "tiles"
    monkeypatch.setenv(ENV_TILE_CACHE_DIR, str(root))
    service = SimulationService(
        cache=ResultCache(tmp_path / "results"),
        tile_cache=ResultCache(root),
        batch_window=0.0,
    )
    base = {k: v for k, v in BASE.as_dict().items() if k != "mutations"}
    graph = load_dataset(BASE.dataset, scale=BASE.scale, seed=BASE.seed)

    def delta_request(seed):
        delta = rewire_delta(graph, [0, 1], seed=seed)
        return {"base": base, "mutations": [delta.as_dict()]}

    cold_seeds = iter(range(101, 111))

    def evict():
        """Five cold misses: the base leaves the 4-entry memo."""
        for _ in range(5):
            client.simulate(
                {"dataset": "citeseer", "scale": 0.1, "hidden": 8, "seed": next(cold_seeds)}
            )
        assert (BASE.dataset, BASE.scale, BASE.seed) not in datasets._SNAPSHOTS

    with ServerThread(service) as thread:
        client = ServeClient(*thread.address, timeout=60.0)
        client.simulate(base)
        evict()
        # The first delta after an eviction synthesises its base and stores it.
        assert client.simulate(delta_request(1))["cached"] is False
        assert _entry_path(root).exists()
        evict()
        _no_synthesis(monkeypatch)
        second = client.simulate(delta_request(2))
        assert second["cached"] is False
        assert second["tiles_reused"] > 0


def test_stats_count_what_the_jobs_did(tmp_path, monkeypatch, cold_graphs):
    """The service's ``/stats`` tile cache is the one its jobs read and
    write: a cold request stores tiles, a delta on it hits them."""
    root = tmp_path / "tiles"
    monkeypatch.setenv(ENV_TILE_CACHE_DIR, str(root))
    service = SimulationService(
        cache=ResultCache(tmp_path / "results"),
        tile_cache=shared_cache(root),
        batch_window=0.0,
    )
    base = {k: v for k, v in BASE.as_dict().items() if k != "mutations"}
    graph = load_dataset(BASE.dataset, scale=BASE.scale, seed=BASE.seed)
    delta = rewire_delta(graph, [0, 1], seed=1)
    with ServerThread(service) as thread:
        client = ServeClient(*thread.address, timeout=60.0)
        client.simulate(base)
        cold = client.stats()["tile_cache"]["stats"]
        assert cold["stores"] > 0
        assert cold["hits"] == 0
        client.simulate({"base": base, "mutations": [delta.as_dict()]})
        after = client.stats()["tile_cache"]["stats"]
        assert after["hits"] > 0
        assert after["stores"] > cold["stores"]
