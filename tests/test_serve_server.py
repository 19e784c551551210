"""End-to-end tests of the service over real sockets (in-process).

Covers the acceptance criteria that don't need a subprocess: two
concurrent identical requests collapse to one execution, the bounded
queue sheds under overload, per-request timeouts answer 504 while their
execution finishes into the cache, and the drain path completes
in-flight work.
"""

import threading
import time

import pytest

from repro.perf import PERF
from repro.runtime import ResultCache, SimJob, job_key, run_jobs
from repro.serve.client import RequestFailed, ServeClient, ServiceUnavailable
from repro.serve.server import LatencyWindow, ServerThread, SimulationService

SMALL = {"dataset": "cora", "scale": 0.1, "hidden": 8, "layers": 1}


def make_counting_runner(calls, *, delay=0.0, cache=None):
    """Wrap run_jobs, recording each batch and optionally slowing it."""

    async def runner(jobs):
        import asyncio

        calls.append(list(jobs))
        if delay:
            await asyncio.sleep(delay)
        return await asyncio.to_thread(lambda: run_jobs(jobs, cache=cache))

    return runner


@pytest.fixture
def served():
    """A running service + client; yields (service, client, calls)."""
    calls = []
    service = SimulationService(
        runner=make_counting_runner(calls, delay=0.15),
        batch_window=0.01,
        queue_depth=8,
    )
    with ServerThread(service) as thread:
        host, port = thread.address
        yield service, ServeClient(host, port, timeout=60.0), calls


class TestSingleFlight:
    def test_concurrent_identical_requests_execute_once(self, served):
        service, client, calls = served
        payloads = [None, None]

        def fire(i):
            payloads[i] = client.simulate(SMALL)

        threads = [threading.Thread(target=fire, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        executed = [job for batch in calls for job in batch]
        assert len(executed) == 1  # exactly one SimJob execution
        assert payloads[0]["key"] == payloads[1]["key"]
        assert all(p["result"]["accelerator"] == "aurora" for p in payloads)
        # The second request completed via the in-flight join.
        assert sorted(p["joined"] for p in payloads) == [False, True]
        assert service.batcher.singleflight_joins == 1

    def test_warm_request_served_from_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        calls = []
        service = SimulationService(
            cache=cache,
            runner=make_counting_runner(calls, cache=cache),
            batch_window=0.0,
        )
        with ServerThread(service) as thread:
            client = ServeClient(*thread.address, timeout=60.0)
            cold = client.simulate(SMALL)
            warm = client.simulate(SMALL)
        assert cold["cached"] is False
        assert warm["cached"] is True
        assert warm["key"] == cold["key"]
        # Only the cold request reached run_jobs; the warm one was
        # answered from the cache before the batch window.
        assert sum(len(b) for b in calls) == 1
        assert service.batcher.batches_run == 1
        assert cache.stats.hits == 1


class TestCacheHitPath:
    """Warm requests are answered before the batch window."""

    def test_each_request_counted_once(self, tmp_path):
        names = ("runtime.cache_hit", "runtime.cache_miss", "serve.batch")
        cache = ResultCache(tmp_path)
        service = SimulationService(cache=cache, batch_window=0.005)
        with ServerThread(service) as thread:
            client = ServeClient(*thread.address, timeout=60.0)
            before = {n: PERF.counters.get(n, 0) for n in names}
            cold = client.simulate(SMALL)
            after_cold = {n: PERF.counters.get(n, 0) for n in names}
            warm = client.simulate(SMALL)
            after_warm = {n: PERF.counters.get(n, 0) for n in names}
            batcher = client.stats()["batcher"]
        assert cold["cached"] is False and warm["cached"] is True
        assert {n: after_cold[n] - before[n] for n in names} == {
            "runtime.cache_hit": 0, "runtime.cache_miss": 1, "serve.batch": 1
        }
        assert {n: after_warm[n] - after_cold[n] for n in names} == {
            "runtime.cache_hit": 1, "runtime.cache_miss": 0, "serve.batch": 0
        }
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)
        assert batcher["batches_run"] == 1 and batcher["jobs_run"] == 1

    def test_warm_hit_while_draining_is_503(self, tmp_path):
        cache = ResultCache(tmp_path)
        service = SimulationService(cache=cache, batch_window=0.0)
        with ServerThread(service) as thread:
            client = ServeClient(*thread.address, timeout=60.0)
            client.simulate(SMALL)
            assert client.simulate(SMALL)["cached"] is True  # a live hit
            service.begin_drain()
            status, headers, _ = raw_request(
                thread.address, "POST", "/simulate", SMALL
            )
        assert status == 503
        assert "Retry-After" in headers
        assert cache.stats.hits == 1  # shed before the probe


class TestOverload:
    def test_bounded_queue_sheds_instead_of_queueing(self):
        calls = []
        service = SimulationService(
            runner=make_counting_runner(calls, delay=0.3),
            batch_window=0.02,
            queue_depth=2,
        )
        with ServerThread(service) as thread:
            client = ServeClient(
                *thread.address, retries=0, timeout=60.0
            )
            outcomes = []

            def fire(seed):
                try:
                    client.simulate({**SMALL, "seed": seed})
                    outcomes.append("ok")
                except ServiceUnavailable:
                    outcomes.append("shed")

            threads = [
                threading.Thread(target=fire, args=(seed,)) for seed in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        assert outcomes.count("shed") >= 1
        assert outcomes.count("ok") >= 1
        snap = service.admission.snapshot()
        assert snap["admitted"] + snap["shed"] == 6
        assert snap["admitted"] <= 2 + snap["completed"]

    def test_shed_request_succeeds_after_retry(self):
        calls = []
        service = SimulationService(
            runner=make_counting_runner(calls, delay=0.2),
            batch_window=0.01,
            queue_depth=1,
        )
        with ServerThread(service) as thread:
            client = ServeClient(
                *thread.address, retries=8, backoff=0.05, timeout=60.0
            )
            results = []

            def fire(seed):
                results.append(client.simulate({**SMALL, "seed": seed}))

            threads = [
                threading.Thread(target=fire, args=(seed,)) for seed in range(3)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        # With a retry budget every request eventually lands.
        assert len(results) == 3


class TestTimeouts:
    def test_slow_request_gets_504(self):
        calls = []
        service = SimulationService(
            runner=make_counting_runner(calls, delay=1.0),
            batch_window=0.0,
            request_timeout=0.1,
        )
        with ServerThread(service) as thread:
            client = ServeClient(*thread.address, retries=0, timeout=60.0)
            with pytest.raises(RequestFailed) as excinfo:
                client.simulate(SMALL)
        assert excinfo.value.status == 504
        assert service.counters["timeouts"] == 1

    @staticmethod
    def _timed_out_service(cache, calls):
        # The batch outlives the 0.1 s budget by about half a second.
        return SimulationService(
            cache=cache,
            runner=make_counting_runner(calls, delay=0.5, cache=cache),
            batch_window=0.0,
            request_timeout=0.1,
        )

    def test_timed_out_execution_lands_in_cache(self, tmp_path):
        """The 504 abandons the request, not its shielded execution: the
        batch finishes on its thread and stores the result, so the same
        request asked again is a cache hit with no second batch."""
        cache = ResultCache(tmp_path)
        calls = []
        service = self._timed_out_service(cache, calls)
        with ServerThread(service) as thread:
            client = ServeClient(*thread.address, retries=0, timeout=60.0)
            with pytest.raises(RequestFailed) as excinfo:
                client.simulate(SMALL)
            assert excinfo.value.status == 504
            assert client.stats()["requests"]["timeouts"] == 1
            deadline = time.monotonic() + 30.0
            while service.batcher.inflight_count and time.monotonic() < deadline:
                time.sleep(0.05)
            assert service.batcher.inflight_count == 0
            payload = client.simulate(SMALL)
        assert payload["cached"] is True
        assert payload["key"] == excinfo.value.payload["key"]
        assert len(calls) == 1
        assert service.counters["timeouts"] == 1

    def test_stop_waits_for_timed_out_execution(self, tmp_path):
        calls = []
        service = self._timed_out_service(ResultCache(tmp_path), calls)
        thread = ServerThread(service)
        client = ServeClient(*thread.start(), retries=0, timeout=60.0)
        with pytest.raises(RequestFailed) as excinfo:
            client.simulate(SMALL)
        assert excinfo.value.status == 504
        assert service.batcher.inflight_count == 1  # still running
        assert thread.stop() == 0  # the drain waited for it
        assert len(calls) == 1
        stored = ResultCache(tmp_path).load(excinfo.value.payload["key"])
        assert stored is not None

    def test_client_deadline_header_caps_server_budget(self):
        calls = []
        service = SimulationService(
            runner=make_counting_runner(calls, delay=1.0), batch_window=0.0
        )
        with ServerThread(service) as thread:
            client = ServeClient(*thread.address, retries=0, timeout=60.0)
            with pytest.raises((RequestFailed, ServiceUnavailable)):
                client.simulate(SMALL, deadline=0.15)


class TestEndpoints:
    def test_healthz_and_stats(self, served):
        service, client, calls = served
        health = client.healthz()
        assert health["status"] == "ok"
        client.simulate(SMALL)
        stats = client.stats()
        assert stats["requests"]["completed"] == 1
        assert stats["admission"]["admitted"] == 1
        assert stats["latency"]["count"] == 1
        assert stats["latency"]["p50_seconds"] > 0

    def test_unknown_endpoint_404(self, served):
        service, client, calls = served
        status, payload = client.call("GET", "/nope")
        assert status == 404

    def test_wrong_method_405(self, served):
        service, client, calls = served
        status, _ = client.call("POST", "/healthz", {})
        assert status == 405

    def test_bad_body_400(self, served):
        service, client, calls = served
        status, payload = client.call("POST", "/simulate", {"bogus": 1})
        assert status == 400
        assert "bogus" in payload["error"]
        assert service.counters["bad_requests"] == 1


def raw_request(address, method, path, body=None):
    """One raw HTTP exchange; returns (status, headers, payload)."""
    import http.client
    import json

    conn = http.client.HTTPConnection(*address, timeout=30.0)
    try:
        conn.request(
            method,
            path,
            body=json.dumps(body) if body is not None else None,
            headers={"Content-Type": "application/json"} if body else {},
        )
        response = conn.getresponse()
        raw = response.read()
        payload = json.loads(raw) if raw else {}
        return response.status, dict(response.getheaders()), payload
    finally:
        conn.close()


class TestReplicaMode:
    """The serve-side surface the cluster router relies on."""

    def test_healthz_reports_inflight_and_uptime(self, served):
        service, client, calls = served
        health = client.healthz()
        assert health["inflight"] == 0
        assert health["in_flight"] == 0  # legacy key kept
        assert health["uptime_seconds"] >= 0
        assert "replica_id" not in health

    def test_replica_id_in_healthz_stats_and_metrics(self):
        service = SimulationService(replica_id="3")
        with ServerThread(service) as thread:
            client = ServeClient(*thread.address, timeout=60.0)
            assert client.healthz()["replica_id"] == "3"
            assert client.stats()["replica_id"] == "3"
            assert 'repro_replica_info{replica="3"}' in client.metrics()

    def test_result_endpoint_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        service = SimulationService(cache=cache, batch_window=0.0)
        with ServerThread(service) as thread:
            client = ServeClient(*thread.address, timeout=60.0)
            payload = client.simulate(SMALL)
            status, _, hit = raw_request(
                thread.address, "GET", f"/result/{payload['key']}"
            )
        assert status == 200
        assert hit == {
            "key": payload["key"],
            "cached": True,
            "result": payload["result"],
        }

    def test_result_endpoint_miss_is_404(self, tmp_path):
        service = SimulationService(cache=ResultCache(tmp_path))
        with ServerThread(service) as thread:
            status, _, payload = raw_request(
                thread.address, "GET", "/result/" + "a" * 64
            )
        assert status == 404

    def test_result_endpoint_without_cache_is_404(self, served):
        service, client, calls = served
        status, _, _ = raw_request(
            (client.host, client.port), "GET", "/result/" + "a" * 64
        )
        assert status == 404

    def test_result_endpoint_validates_key(self, served):
        service, client, calls = served
        address = (client.host, client.port)
        for bad in ("not-hex!", "A" * 64, "f" * 200):
            status, _, _ = raw_request(address, "GET", f"/result/{bad}")
            assert status == 400, bad

    def test_shed_carries_retry_after_header(self):
        calls = []
        service = SimulationService(
            runner=make_counting_runner(calls, delay=0.5),
            batch_window=0.02,
            queue_depth=1,
            retry_after_hint=0.125,
        )
        with ServerThread(service) as thread:
            address = thread.address
            fired = []

            def fire(seed):
                fired.append(
                    raw_request(address, "POST", "/simulate", {**SMALL, "seed": seed})
                )

            threads = [
                threading.Thread(target=fire, args=(seed,)) for seed in range(5)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        sheds = [
            (headers, payload)
            for status, headers, payload in fired
            if status == 429
        ]
        assert sheds  # the one-slot queue must have shed something
        for headers, _ in sheds:
            assert headers["Retry-After"] == "0.125"

    def test_draining_503_carries_retry_after_header(self):
        service = SimulationService(retry_after_hint=0.25)
        service.begin_drain()
        with ServerThread(service) as thread:
            status, headers, _ = raw_request(
                thread.address, "POST", "/simulate", SMALL
            )
        assert status == 503
        assert headers["Retry-After"] == "0.250"


class TestDrain:
    def test_drain_completes_inflight_work(self):
        calls = []
        service = SimulationService(
            runner=make_counting_runner(calls, delay=0.3), batch_window=0.0
        )
        thread = ServerThread(service)
        host, port = thread.start()
        client = ServeClient(host, port, timeout=60.0)
        payloads = []

        worker = threading.Thread(
            target=lambda: payloads.append(client.simulate(SMALL))
        )
        worker.start()
        time.sleep(0.1)  # request is now in flight
        exit_code = thread.stop()
        worker.join(timeout=10.0)

        assert exit_code == 0  # drained cleanly
        assert len(payloads) == 1  # the in-flight request completed
        assert payloads[0]["result"] is not None

    def test_draining_service_rejects_with_503(self):
        calls = []
        service = SimulationService(runner=make_counting_runner(calls))
        service.begin_drain()
        with ServerThread(service) as thread:
            client = ServeClient(*thread.address, retries=0)
            with pytest.raises(ServiceUnavailable, match="503"):
                client.simulate(SMALL)


class TestLatencyWindow:
    def test_percentiles(self):
        window = LatencyWindow(size=100)
        for value in range(1, 101):
            window.add(value / 100.0)
        assert window.percentile(0.50) == pytest.approx(0.50, abs=0.02)
        assert window.percentile(0.95) == pytest.approx(0.95, abs=0.02)

    def test_empty_window(self):
        window = LatencyWindow()
        assert window.percentile(0.5) is None
        snap = window.snapshot()
        assert snap["count"] == 0
        assert snap["p50_seconds"] is None

    def test_bounded_size(self):
        window = LatencyWindow(size=4)
        for value in range(100):
            window.add(float(value))
        snap = window.snapshot()
        assert snap["count"] == 100
        assert snap["window"] == 4
