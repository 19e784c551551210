"""Tests for single-flight deduplication and micro-batching."""

import asyncio
import time

import pytest

from repro.perf import PERF
from repro.runtime import ResultCache, SimJob, job_key, run_jobs
from repro.runtime.runner import JobOutcome, SweepMetrics, SweepReport
from repro.serve.batcher import JobBatcher
from repro.telemetry import MetricsRegistry

SMALL = dict(scale=0.1, hidden=8, num_layers=1)


def make_runner(calls, *, delay=0.0, cached_keys=()):
    """Scripted async runner: records batches, fabricates outcomes."""

    async def runner(jobs):
        calls.append([job_key(job) for job in jobs])
        if delay:
            await asyncio.sleep(delay)
        outcomes = [
            JobOutcome(
                job,
                job_key(job),
                None,
                cached=job_key(job) in cached_keys,
            )
            for job in jobs
        ]
        return SweepReport(outcomes, SweepMetrics())

    return runner


class TestSingleFlight:
    def test_concurrent_identical_submits_execute_once(self):
        calls = []

        async def run():
            batcher = JobBatcher(
                runner=make_runner(calls, delay=0.05), batch_window=0.01
            )
            job = SimJob(**SMALL)
            results = await asyncio.gather(
                batcher.submit(job), batcher.submit(job), batcher.submit(job)
            )
            return results

        results = asyncio.run(run())
        # One execution total, every caller got the same outcome back.
        assert sum(len(batch) for batch in calls) == 1
        outcomes = [outcome for outcome, _ in results]
        assert all(outcome.key == outcomes[0].key for outcome in outcomes)
        joins = [joined for _, joined in results]
        assert joins.count(True) == 2  # two of three joined in flight
        assert joins.count(False) == 1

    def test_sequential_submits_execute_separately(self):
        calls = []

        async def run():
            batcher = JobBatcher(runner=make_runner(calls), batch_window=0.0)
            job = SimJob(**SMALL)
            await batcher.submit(job)
            await batcher.submit(job)

        asyncio.run(run())
        # No overlap → no single-flight join; each submit executes.
        assert sum(len(batch) for batch in calls) == 2

    def test_join_counter(self):
        calls = []

        async def run():
            batcher = JobBatcher(
                runner=make_runner(calls, delay=0.05), batch_window=0.01
            )
            job = SimJob(**SMALL)
            await asyncio.gather(batcher.submit(job), batcher.submit(job))
            return batcher

        batcher = asyncio.run(run())
        assert batcher.snapshot()["singleflight_joins"] == 1


class TestBatching:
    def test_window_groups_distinct_jobs(self):
        calls = []

        async def run():
            batcher = JobBatcher(
                runner=make_runner(calls), batch_window=0.03, max_batch=8
            )
            jobs = [SimJob(seed=s, **SMALL) for s in range(3)]
            await asyncio.gather(*(batcher.submit(j) for j in jobs))

        asyncio.run(run())
        assert len(calls) == 1  # one micro-batch
        assert len(calls[0]) == 3

    def test_max_batch_flushes_early(self):
        calls = []

        async def run():
            batcher = JobBatcher(
                runner=make_runner(calls), batch_window=5.0, max_batch=2
            )
            jobs = [SimJob(seed=s, **SMALL) for s in range(2)]
            # A 5s window would stall forever; max_batch must flush now.
            await asyncio.wait_for(
                asyncio.gather(*(batcher.submit(j) for j in jobs)), timeout=2.0
            )

        asyncio.run(run())
        assert len(calls) == 1
        assert len(calls[0]) == 2

    def test_cached_flag_passes_through(self):
        calls = []
        job = SimJob(**SMALL)

        async def run():
            batcher = JobBatcher(
                runner=make_runner(calls, cached_keys={job_key(job)}),
                batch_window=0.0,
            )
            outcome, _ = await batcher.submit(job)
            return outcome

        assert asyncio.run(run()).cached is True


#: The event family the cache-probe tests' batchers count into.
EVENTS = MetricsRegistry().counter("repro_serve_events_total", labelnames=("event",))


def counter_deltas(names, action):
    """Run ``action`` and return how much each counter moved: the PERF
    events in ``names``, and ``batch`` from :data:`EVENTS`."""

    def read():
        counts = {name: PERF.counters.get(name, 0) for name in names}
        counts["batch"] = EVENTS.labels(event="batch").get()
        return counts

    before = read()
    result = action()
    after = read()
    return result, {name: after[name] - before[name] for name in after}


COUNTERS = ("runtime.cache_hit", "runtime.cache_miss")


class TestCacheProbe:
    """Cache hits are answered before the batch window; misses are not."""

    def test_warm_submit_skips_the_window(self, tmp_path):
        job = SimJob(**SMALL)
        run_jobs([job], cache=ResultCache(tmp_path))  # warm the blob
        cache = ResultCache(tmp_path)
        calls = []

        async def run():
            batcher = JobBatcher(
                cache=cache, runner=make_runner(calls), batch_window=5.0,
                events=EVENTS,
            )
            start = time.perf_counter()
            outcome, joined = await batcher.submit(job)
            return outcome, joined, time.perf_counter() - start, batcher

        (outcome, joined, elapsed, batcher), moved = counter_deltas(
            COUNTERS, lambda: asyncio.run(run())
        )
        assert elapsed < 0.5  # a tenth of the 5 s window
        assert outcome.ok and outcome.cached and not joined
        assert outcome.key == job_key(job)
        assert calls == []  # the runner never saw the hit
        snapshot = batcher.snapshot()
        assert snapshot["batches_run"] == 0 and snapshot["jobs_run"] == 0
        assert cache.stats.hits == 1 and cache.stats.misses == 0
        assert moved == {
            "runtime.cache_hit": 1, "runtime.cache_miss": 0, "batch": 0
        }

    def test_cold_then_warm_counts_each_request_once(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = SimJob(**SMALL)

        async def submit(batcher):
            outcome, _ = await batcher.submit(job)
            return outcome

        batcher = JobBatcher(cache=cache, batch_window=0.0, events=EVENTS)
        cold, moved_cold = counter_deltas(
            COUNTERS, lambda: asyncio.run(submit(batcher))
        )
        assert cold.ok and not cold.cached
        assert (cache.stats.hits, cache.stats.misses, cache.stats.stores) == (
            0, 1, 1
        )
        assert moved_cold == {
            "runtime.cache_hit": 0, "runtime.cache_miss": 1, "batch": 1
        }
        assert batcher.snapshot()["batches_run"] == 1

        warm, moved_warm = counter_deltas(
            COUNTERS, lambda: asyncio.run(submit(batcher))
        )
        assert warm.ok and warm.cached
        assert warm.result.to_dict() == cold.result.to_dict()
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)
        assert moved_warm == {
            "runtime.cache_hit": 1, "runtime.cache_miss": 0, "batch": 0
        }
        assert batcher.snapshot()["batches_run"] == 1  # the hit ran no batch

    def _submit_once(self, cache, job):
        async def run():
            batcher = JobBatcher(cache=cache, batch_window=0.0)
            outcome, _ = await batcher.submit(job)
            return outcome, batcher

        return asyncio.run(run())

    def test_stale_blob_is_evicted_and_recomputed(self, tmp_path):
        job = SimJob(**SMALL)
        run_jobs([job], cache=ResultCache(tmp_path, fingerprint="0" * 16))
        cache = ResultCache(tmp_path)
        outcome, batcher = self._submit_once(cache, job)
        assert outcome.ok and not outcome.cached
        assert cache.stats.invalidations == 1
        # The probe's evicting load and the batch's re-probe are one
        # request: one miss, not two.
        assert cache.stats.misses == 1
        assert batcher.snapshot()["batches_run"] == 1  # recomputed through the batch
        assert cache.stats.stores == 1  # ...and stored afresh
        warm, batcher = self._submit_once(cache, job)
        assert warm.cached and batcher.snapshot()["batches_run"] == 0

    def test_corrupt_blob_is_evicted_and_recomputed(self, tmp_path):
        job = SimJob(**SMALL)
        cache = ResultCache(tmp_path)
        path = cache.path_for(job_key(job))
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        outcome, batcher = self._submit_once(cache, job)
        assert outcome.ok and not outcome.cached
        assert cache.stats.corrupt == 1
        assert cache.stats.misses == 1
        assert batcher.snapshot()["batches_run"] == 1
        assert cache.stats.stores == 1
        warm, batcher = self._submit_once(cache, job)
        assert warm.cached and batcher.snapshot()["batches_run"] == 0

    def test_run_jobs_counts_a_corrupt_blob_once(self, tmp_path):
        """Without the batcher's probe, run_jobs' own load is the miss."""
        job = SimJob(**SMALL)
        cache = ResultCache(tmp_path)
        path = cache.path_for(job_key(job))
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        run_jobs([job], cache=cache)
        assert (cache.stats.misses, cache.stats.corrupt) == (1, 1)

    def test_inflight_join_comes_before_the_probe(self, tmp_path):
        """A job already in flight is joined even once its blob lands."""
        job = SimJob(**SMALL)
        cache = ResultCache(tmp_path)
        calls = []

        async def run():
            batcher = JobBatcher(
                cache=cache, runner=make_runner(calls, delay=0.05),
                batch_window=0.0,
            )
            first = asyncio.ensure_future(batcher.submit(job))
            await asyncio.sleep(0.01)  # first is now executing
            run_jobs([job], cache=ResultCache(tmp_path))  # blob lands
            second = await batcher.submit(job)
            return await first, second

        (_, first_joined), (_, second_joined) = asyncio.run(run())
        assert not first_joined and second_joined
        assert len(calls) == 1


class TestFlushRearm:
    def test_submit_during_execution_is_not_stranded(self):
        """A job submitted while a batch executes must still flush.

        Regression: the window-flush task used to take ``_pending`` once
        and exit after executing it.  A submit arriving *during* that
        execution saw the flush task as live, armed nothing, and its job
        sat in ``_pending`` forever unless more traffic happened along.
        """
        calls = []

        async def run():
            gate = asyncio.Event()
            started = asyncio.Event()

            async def gated_runner(jobs):
                calls.append([job_key(job) for job in jobs])
                if len(calls) == 1:
                    started.set()
                    await gate.wait()
                return SweepReport(
                    [JobOutcome(j, job_key(j), None) for j in jobs],
                    SweepMetrics(),
                )

            batcher = JobBatcher(runner=gated_runner, batch_window=0.001)
            task_a = asyncio.ensure_future(
                batcher.submit(SimJob(seed=1, **SMALL))
            )
            await started.wait()  # batch A is now mid-execution
            task_b = asyncio.ensure_future(
                batcher.submit(SimJob(seed=2, **SMALL))
            )
            await asyncio.sleep(0.01)  # let B land in the pending queue
            gate.set()
            # No further submits: B must resolve from the re-armed flush.
            outcome_a, _ = await asyncio.wait_for(task_a, timeout=2.0)
            outcome_b, _ = await asyncio.wait_for(task_b, timeout=2.0)
            await asyncio.wait_for(batcher.drain(), timeout=2.0)
            return outcome_a, outcome_b, batcher

        outcome_a, outcome_b, batcher = asyncio.run(run())
        assert outcome_a.ok and outcome_b.ok
        assert len(calls) == 2  # two batches, no job left behind
        assert batcher.inflight_count == 0


class TestFailureIsolation:
    def test_runner_crash_becomes_error_outcome(self):
        async def exploding_runner(jobs):
            raise RuntimeError("pool detonated")

        async def run():
            batcher = JobBatcher(runner=exploding_runner, batch_window=0.0)
            outcome, _ = await batcher.submit(SimJob(**SMALL))
            return outcome

        outcome = asyncio.run(run())
        assert not outcome.ok
        assert "pool detonated" in outcome.error

    def test_missing_outcome_becomes_error(self):
        async def forgetful_runner(jobs):
            return SweepReport([], SweepMetrics())

        async def run():
            batcher = JobBatcher(runner=forgetful_runner, batch_window=0.0)
            outcome, _ = await batcher.submit(SimJob(**SMALL))
            return outcome

        outcome = asyncio.run(run())
        assert not outcome.ok
        assert "no outcome" in outcome.error

    def test_error_does_not_poison_next_submit(self):
        flags = {"fail": True}

        async def flaky_runner(jobs):
            if flags["fail"]:
                raise RuntimeError("transient")
            return SweepReport(
                [JobOutcome(j, job_key(j), None) for j in jobs], SweepMetrics()
            )

        async def run():
            batcher = JobBatcher(runner=flaky_runner, batch_window=0.0)
            job = SimJob(**SMALL)
            first, _ = await batcher.submit(job)
            flags["fail"] = False
            second, _ = await batcher.submit(job)
            return first, second

        first, second = asyncio.run(run())
        assert not first.ok
        assert second.ok


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            JobBatcher(max_batch=0)
        with pytest.raises(ValueError):
            JobBatcher(batch_window=-1.0)


class TestDrain:
    def test_drain_waits_for_inflight(self):
        calls = []

        async def run():
            batcher = JobBatcher(
                runner=make_runner(calls, delay=0.05), batch_window=0.0
            )
            task = asyncio.ensure_future(batcher.submit(SimJob(**SMALL)))
            await asyncio.sleep(0.01)  # let the submit enter execution
            await batcher.drain()
            assert batcher.inflight_count == 0
            outcome, _ = await task
            return outcome

        assert asyncio.run(run()).ok
