"""Tests for the content-addressed on-disk result cache."""

import json
import threading

import pytest

from repro.runtime import ResultCache, SimJob, as_cache, code_fingerprint, job_key
from repro.runtime import cache as cache_module
from repro.runtime.cache import clear_memory_tier

PAYLOAD = {"accelerator": "aurora", "total_seconds": 1.25}
KEY = "ab" + "0" * 62


class TestAccounting:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.load(KEY) is None
        cache.store(KEY, PAYLOAD)
        assert cache.load(KEY) == PAYLOAD
        assert cache.stats.as_dict() == {
            "hits": 1,
            "memory_hits": 0,
            "misses": 1,
            "stores": 1,
            "invalidations": 0,
            "corrupt": 0,
            "store_errors": 0,
        }

    def test_store_records_the_job(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = SimJob(dataset="pubmed", scale=0.5)
        cache.store(job_key(job), PAYLOAD, job=job)
        blob = json.loads(cache.path_for(job_key(job)).read_text())
        assert blob["job"]["dataset"] == "pubmed"
        assert blob["fingerprint"] == cache.fingerprint

    def test_stored_text_is_one_json_dumps_of_the_blob(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = SimJob(dataset="cora")
        result = {"total_seconds": 0.1 + 0.2, "name": "ü", "tiles": [1, [2.5]]}
        cache.store(KEY, result, job=job)
        blob = {
            "fingerprint": cache.fingerprint,
            "key": KEY,
            "job": job.as_dict(),
            "result": result,
        }
        assert cache.path_for(KEY).read_text() == json.dumps(blob)

    def test_store_into_a_fresh_root_creates_the_shard_directory(self, tmp_path):
        cache = ResultCache(tmp_path / "new" / "root")
        path = cache.path_for(KEY)
        assert not path.parent.exists()
        cache.store(KEY, PAYLOAD)
        assert path.parent.is_dir()
        assert cache.load(KEY) == PAYLOAD
        cache.store(KEY[:2] + "f" * 62, PAYLOAD)  # same shard, now present
        assert len(cache) == 2

    def test_len_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(KEY, PAYLOAD)
        cache.store("cd" + "0" * 62, PAYLOAD)
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0


class TestInvalidation:
    def test_fingerprint_change_invalidates(self, tmp_path):
        old = ResultCache(tmp_path, fingerprint="aaaa")
        old.store(KEY, PAYLOAD)
        new = ResultCache(tmp_path, fingerprint="bbbb")
        assert new.load(KEY) is None
        assert new.stats.invalidations == 1
        assert new.stats.misses == 1
        # The stale blob is evicted, so a matching store can replace it.
        assert not new.path_for(KEY).exists()

    def test_same_fingerprint_survives(self, tmp_path):
        a = ResultCache(tmp_path, fingerprint="aaaa")
        a.store(KEY, PAYLOAD)
        b = ResultCache(tmp_path, fingerprint="aaaa")
        assert b.load(KEY) == PAYLOAD

    def test_code_fingerprint_is_stable_in_process(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 16


class TestCorruption:
    def test_undecodable_blob_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(KEY, PAYLOAD)
        cache.path_for(KEY).write_text("{not json")
        assert cache.load(KEY) is None
        assert cache.stats.corrupt == 1
        assert not cache.path_for(KEY).exists()

    def test_wrong_shape_blob_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.path_for(KEY).parent.mkdir(parents=True)
        cache.path_for(KEY).write_text(json.dumps({"fingerprint": cache.fingerprint}))
        assert cache.load(KEY) is None
        assert cache.stats.corrupt == 1

    def test_recovers_after_eviction(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(KEY, PAYLOAD)
        cache.path_for(KEY).write_text("garbage")
        assert cache.load(KEY) is None
        cache.store(KEY, PAYLOAD)
        assert cache.load(KEY) == PAYLOAD

    def test_truncated_blob_is_a_miss_and_evicts(self, tmp_path):
        """A blob cut off mid-write (crash, full disk) must not raise."""
        cache = ResultCache(tmp_path)
        cache.store(KEY, PAYLOAD)
        raw = cache.path_for(KEY).read_text()
        cache.path_for(KEY).write_text(raw[: len(raw) // 2])
        assert cache.load(KEY) is None
        assert cache.stats.corrupt == 1
        assert cache.stats.misses == 1
        assert not cache.path_for(KEY).exists()

    def test_result_with_wrong_type_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.path_for(KEY).parent.mkdir(parents=True)
        cache.path_for(KEY).write_text(
            json.dumps({"fingerprint": cache.fingerprint, "result": [1, 2]})
        )
        assert cache.load(KEY) is None
        assert cache.stats.corrupt == 1
        assert not cache.path_for(KEY).exists()

    def test_empty_blob_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.path_for(KEY).parent.mkdir(parents=True)
        cache.path_for(KEY).write_text("")
        assert cache.load(KEY) is None
        assert cache.stats.corrupt == 1

    def test_binary_garbage_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.path_for(KEY).parent.mkdir(parents=True)
        cache.path_for(KEY).write_bytes(b"\x00\xff\xfe garbage \x01")
        assert cache.load(KEY) is None
        assert cache.stats.corrupt == 1


class TestPruneAndStats:
    def test_prune_removes_only_old_blobs(self, tmp_path):
        import os
        import time

        cache = ResultCache(tmp_path)
        old_key, new_key = KEY, "cd" + "0" * 62
        cache.store(old_key, PAYLOAD)
        cache.store(new_key, PAYLOAD)
        now = time.time()
        two_days_ago = now - 2 * 86400
        os.utime(cache.path_for(old_key), (two_days_ago, two_days_ago))
        removed = cache.prune(86400, now=now)
        assert removed == 1
        assert not cache.path_for(old_key).exists()
        assert cache.path_for(new_key).exists()

    def test_prune_zero_age_removes_everything_past(self, tmp_path):
        import time

        cache = ResultCache(tmp_path)
        cache.store(KEY, PAYLOAD)
        assert cache.prune(0, now=time.time() + 10) == 1
        assert len(cache) == 0

    def test_prune_rejects_negative_age(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(tmp_path).prune(-1)

    def test_prune_bytes_evicts_oldest_first(self, tmp_path):
        import os
        import time

        cache = ResultCache(tmp_path)
        keys = [f"{i:02d}" + "0" * 62 for i in range(4)]
        now = time.time()
        for i, key in enumerate(keys):
            cache.store(key, PAYLOAD)
            stamp = now - (100 - i)  # keys[0] is oldest
            os.utime(cache.path_for(key), (stamp, stamp))
        blob_size = cache.path_for(keys[0]).stat().st_size
        removed = cache.prune_bytes(2 * blob_size)
        assert removed == 2
        assert not cache.path_for(keys[0]).exists()
        assert not cache.path_for(keys[1]).exists()
        assert cache.path_for(keys[2]).exists()
        assert cache.path_for(keys[3]).exists()

    def test_prune_bytes_noop_when_under_budget(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(KEY, PAYLOAD)
        assert cache.prune_bytes(1 << 30) == 0
        assert len(cache) == 1

    def test_prune_bytes_zero_removes_everything(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(KEY, PAYLOAD)
        cache.store("cd" + "0" * 62, PAYLOAD)
        assert cache.prune_bytes(0) == 2
        assert len(cache) == 0

    def test_prune_bytes_rejects_negative(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(tmp_path).prune_bytes(-1)

    def test_disk_stats(self, tmp_path):
        cache = ResultCache(tmp_path)
        stats = cache.disk_stats()
        assert stats["entries"] == 0
        assert stats["bytes"] == 0
        assert stats["oldest_mtime"] is None
        cache.store(KEY, PAYLOAD)
        stats = cache.disk_stats()
        assert stats["entries"] == 1
        assert stats["bytes"] > 0
        assert stats["fingerprint"] == cache.fingerprint
        assert stats["oldest_mtime"] is not None

    def test_entries_sorted(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store("cd" + "0" * 62, PAYLOAD)
        cache.store(KEY, PAYLOAD)
        names = [p.name for p in cache.entries()]
        assert names == sorted(names)


class TestConfiguration:
    def test_env_var_sets_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        cache = ResultCache()
        cache.store(KEY, PAYLOAD)
        assert (tmp_path / "envcache").is_dir()

    def test_default_root_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert ResultCache().root.name == ".repro_cache"

    def test_as_cache_normalisation(self, tmp_path):
        assert as_cache(None) is None
        assert as_cache(False) is None
        explicit = ResultCache(tmp_path)
        assert as_cache(explicit) is explicit
        assert isinstance(as_cache(True), ResultCache)


class TestMemoryTier:
    @pytest.fixture(autouse=True)
    def _cold_tier(self):
        clear_memory_tier()
        yield
        clear_memory_tier()

    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.load(KEY) is None
        cache.store(KEY, PAYLOAD)
        assert cache.load(KEY) == PAYLOAD  # from disk, filling the tier
        assert cache.stats.memory_hits == 0
        assert cache.load(KEY) == PAYLOAD  # from memory
        assert (cache.stats.hits, cache.stats.misses) == (2, 1)
        assert cache.stats.memory_hits == 1

    def test_store_does_not_fill_memory(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(KEY, PAYLOAD)
        root = str(cache.root)
        assert [k for k in cache_module._MEMORY if k[0] == root] == []
        assert cache.load(KEY) == PAYLOAD
        assert cache.stats.memory_hits == 0  # the first load reads disk

    def test_memory_hit_equals_disk_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = {"total_seconds": 0.1 + 0.2, "name": "ü", "tiles": [1, [2.5]]}
        cache.store(KEY, result)
        disk = cache.load(KEY)
        memory = cache.load(KEY)
        assert cache.stats.memory_hits == 1
        assert memory == disk == result

    def test_distinct_roots_do_not_alias(self, tmp_path):
        a = ResultCache(tmp_path / "a")
        a.store(KEY, PAYLOAD)
        assert a.load(KEY) == PAYLOAD
        b = ResultCache(tmp_path / "b")
        assert b.load(KEY) is None
        assert (b.stats.hits, b.stats.misses) == (0, 1)

    def test_different_fingerprint_never_hits(self, tmp_path):
        old = ResultCache(tmp_path, fingerprint="aaaa")
        old.store(KEY, PAYLOAD)
        assert old.load(KEY) == PAYLOAD  # now in the memory tier
        new = ResultCache(tmp_path, fingerprint="bbbb")
        assert new.load(KEY) is None
        assert new.stats.memory_hits == 0
        assert new.stats.invalidations == 1

    def _filled(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(KEY, PAYLOAD)
        assert cache.load(KEY) == PAYLOAD
        return cache

    def _entries(self, cache):
        root = str(cache.root)
        return [k for k in cache_module._MEMORY if k[0] == root]

    def test_clear_drops_entries(self, tmp_path):
        cache = self._filled(tmp_path)
        cache.store("cd" + "0" * 62, PAYLOAD)
        assert cache.load("cd" + "0" * 62) == PAYLOAD
        cache.path_for(KEY).unlink()  # deleted behind the cache's back
        assert cache.clear() == 1
        assert self._entries(cache) == []
        assert cache.load(KEY) is None

    def test_prune_drops_entries(self, tmp_path):
        import time

        cache = self._filled(tmp_path)
        assert cache.prune(0, now=time.time() + 10) == 1
        assert self._entries(cache) == []
        assert cache.load(KEY) is None

    def test_prune_bytes_drops_entries(self, tmp_path):
        cache = self._filled(tmp_path)
        assert cache.prune_bytes(0) == 1
        assert self._entries(cache) == []
        assert cache.load(KEY) is None

    def test_corrupt_blob_eviction_drops_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.path_for(KEY).parent.mkdir(parents=True)
        cache.path_for(KEY).write_text("{not json")
        assert cache.load(KEY) is None
        assert cache.stats.corrupt == 1
        assert self._entries(cache) == []
        cache.store(KEY, PAYLOAD)
        assert cache.load(KEY) == PAYLOAD
        assert cache.stats.memory_hits == 0  # read from disk

    def test_bound_evicts_least_recently_used(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cache_module, "MEMORY_TIER_MAX", 2)
        cache = ResultCache(tmp_path)
        keys = [f"{i:02d}" + "0" * 62 for i in range(3)]
        for key in keys:
            cache.store(key, {"key": key})
        cache.load(keys[0])
        cache.load(keys[1])
        cache.load(keys[0])  # memory hit; keys[1] is now the oldest
        cache.load(keys[2])  # fills, evicting keys[1]
        assert len(cache_module._MEMORY) == 2
        assert cache.stats.memory_hits == 1
        assert cache.load(keys[1]) == {"key": keys[1]}
        assert cache.stats.memory_hits == 1  # keys[1] came from disk
        assert cache.load(keys[2]) == {"key": keys[2]}
        assert cache.stats.memory_hits == 2
        assert len(cache_module._MEMORY) == 2

    def test_concurrent_load_and_clear_never_raise(self, tmp_path, monkeypatch):
        """Loaders and clearers racing (more threads than cores, short
        switch interval) never raise, never see another key's result,
        and never push the tier past its bound."""
        import sys

        monkeypatch.setattr(cache_module, "MEMORY_TIER_MAX", 4)
        cache = ResultCache(tmp_path)
        keys = [f"{i:02d}" + "0" * 62 for i in range(16)]
        for key in keys:
            cache.store(key, {"key": key})
        errors = []

        def loader():
            try:
                for _ in range(20):
                    for key in keys:
                        result = cache.load(key)
                        assert result is None or result == {"key": key}
            except BaseException as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        def clearer():
            try:
                for _ in range(20):
                    cache.clear()
                    clear_memory_tier()
                    for key in keys:
                        cache.store(key, {"key": key})
            except BaseException as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        threads = [threading.Thread(target=f) for f in (loader, loader, clearer, clearer)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(cache_module._MEMORY) <= 4



class TestSharedCache:
    def test_one_instance_per_root(self, tmp_path):
        from repro.runtime.cache import shared_cache

        a = shared_cache(tmp_path / "tiles")
        assert shared_cache(str(tmp_path / "tiles")) is a
        assert shared_cache(tmp_path / "other") is not a
        assert a.root == tmp_path / "tiles"

    def test_concurrent_counters_lose_no_update(self, tmp_path):
        """Memory-tier hits from more threads than cores, switching
        often, all land in the one cache's counters."""
        import sys

        from repro.runtime.cache import shared_cache

        cache = shared_cache(tmp_path)
        workers, rounds = 8, 20_000
        clear_memory_tier()
        keys = [f"{w:064x}" for w in range(workers)]
        for key in keys:
            cache.store(key, {"key": key})
            cache.load(key)  # a disk hit fills the memory tier

        def pump(w):
            def run():
                for _ in range(rounds):
                    cache.load(keys[w])

            return run

        threads = [threading.Thread(target=pump(w)) for w in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        stats = cache.stats.as_dict()
        assert stats["stores"] == workers
        assert stats["hits"] == workers + workers * rounds
        assert stats["memory_hits"] == workers * rounds
        clear_memory_tier()


class TestStoreFailure:
    """A write that fails (full disk, partial write) never fails a run."""

    @staticmethod
    def _fail_under(monkeypatch, root, where):
        """Make ``mkstemp`` or ``os.replace`` raise ENOSPC below ``root``."""
        import errno
        import os
        import tempfile

        def enospc():
            return OSError(errno.ENOSPC, "No space left on device")

        if where == "mkstemp":
            original = tempfile.mkstemp

            def mkstemp(*args, dir=None, **kwargs):
                if dir is not None and str(dir).startswith(str(root)):
                    raise enospc()
                return original(*args, dir=dir, **kwargs)

            monkeypatch.setattr(tempfile, "mkstemp", mkstemp)
        else:
            original = os.replace

            def replace(src, dst, *args, **kwargs):
                if str(dst).startswith(str(root)):
                    raise enospc()
                return original(src, dst, *args, **kwargs)

            monkeypatch.setattr(os, "replace", replace)

    @pytest.mark.parametrize("where", ["mkstemp", "replace"])
    def test_store_returns_false_and_counts(self, where, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        assert cache.store(KEY, PAYLOAD) is True
        self._fail_under(monkeypatch, tmp_path, where)
        other = "cd" + "0" * 62
        assert cache.store(other, PAYLOAD) is False
        assert cache.stats.store_errors == 1
        assert cache.stats.stores == 1
        assert cache.stats.as_dict()["store_errors"] == 1
        assert list(tmp_path.rglob("*.tmp")) == []
        assert cache.load(other) is None

    def test_non_os_error_still_raises(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(TypeError):
            cache.store(KEY, {"bad": object()})
        assert list(tmp_path.rglob("*.tmp")) == []
        assert cache.stats.store_errors == 0

    @pytest.mark.parametrize("where", ["mkstemp", "replace"])
    def test_jobs_survive_failed_result_tile_and_snapshot_stores(
        self, where, tmp_path, monkeypatch
    ):
        """A base job and a delta job write results, tiles and a delta
        base snapshot; every write fails, every job returns its result."""
        from dataclasses import replace

        from repro.config import default_config
        from repro.graphs.datasets import clear_snapshot_cache, load_dataset
        from repro.graphs.delta import rewire_delta
        from repro.perf import PERF
        from repro.runtime import run_jobs
        from repro.runtime.jobs import ENV_TILE_CACHE_DIR, execute_job

        base = SimJob(
            dataset="cora", scale=0.2, hidden=8, num_layers=1,
            config=default_config().scaled(array_k=8, pe_buffer_bytes=1024),
        )
        graph = load_dataset("cora", scale=0.2, seed=base.seed)
        delta = replace(base, mutations=(rewire_delta(graph, [0, 1], seed=2),))
        expected = [execute_job(job) for job in (base, delta)]

        monkeypatch.setenv(ENV_TILE_CACHE_DIR, str(tmp_path / "tiles"))
        self._fail_under(monkeypatch, tmp_path, where)
        clear_snapshot_cache()  # the delta's base load consults the store
        clear_memory_tier()
        cache = ResultCache(tmp_path / "results")
        misses = PERF.counters.get("graphs.snapshot_miss", 0)
        report = run_jobs([delta, base], cache=cache)
        assert PERF.counters.get("graphs.snapshot_miss", 0) == misses + 1
        assert report.metrics.errors == 0
        assert [o.result.to_dict() for o in report.outcomes] == expected[::-1]
        assert cache.stats.store_errors == 2
        assert list(tmp_path.rglob("*.tmp")) == []
        assert list(tmp_path.rglob("*.json")) == []
        clear_snapshot_cache()
