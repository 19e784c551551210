"""End-to-end telemetry through the serve stack.

One ``/simulate`` request must yield a single span tree
(``http → admission, serve.request → batcher → batch → run_jobs →
executor.job → runtime.job → simulate_layer → {partition, tiling,
mapping, traffic, noc, …}``; a warm cache hit is just ``http →
admission, serve.request → cache.probe``), exposed over
``/trace``, renderable as valid Chrome-trace JSON, alongside a
parseable Prometheus ``/metrics`` endpoint and a telemetry section in
``/stats``.
"""

import threading
import time

import pytest

from repro.perf.bench import clear_hot_path_caches
from repro.runtime import ResultCache
from repro.serve.client import ServeClient
from repro.serve.server import LatencyWindow, ServerThread, SimulationService
from repro.telemetry import TRACER
from repro.telemetry.export import (
    to_chrome_trace,
    trace_roots,
    validate_chrome_trace,
)
from repro.telemetry.trace import Span

SMALL = {"model": "gcn", "dataset": "cora", "scale": 0.2, "hidden": 16}


@pytest.fixture
def traced_server():
    with TRACER.session(enabled=True, sample_rate=1.0):
        service = SimulationService()
        with ServerThread(service) as thread:
            host, port = thread.address
            yield ServeClient(host, port, timeout=60.0), service


class TestRequestTree:
    def test_single_request_single_tree(self, traced_server):
        client, _ = traced_server
        # The tiling and mapping spans time their memos' miss paths.
        clear_hot_path_caches()
        payload = client.simulate(SMALL)
        trace_id = payload["trace_id"]
        assert trace_id
        doc = client.trace(trace_id)
        spans = [Span.from_dict(s) for s in doc["spans"]]
        assert doc["count"] == len(spans) > 0

        names = {s.name for s in spans}
        assert {
            "http",
            "admission",
            "batcher",
            "batch",
            "run_jobs",
            "cache.probe",
            "executor.job",
            "simulate_layer",
            "partition",
            "tiling",
            "mapping",
            "traffic",
            "noc",
        } <= names

        roots = [s for s in spans if s.parent_id is None]
        assert [r.name for r in roots] == ["http"]
        ids = {s.span_id for s in spans}
        assert all(
            s.parent_id in ids for s in spans if s.parent_id is not None
        )

    def test_tree_exports_as_valid_chrome_trace(self, traced_server):
        client, _ = traced_server
        payload = client.simulate(SMALL)
        spans = [
            Span.from_dict(s)
            for s in client.trace(payload["trace_id"])["spans"]
        ]
        doc = to_chrome_trace(spans)
        assert validate_chrome_trace(doc) == []
        assert len(trace_roots(spans)) == 1

    def test_client_supplied_trace_id_adopted(self, traced_server):
        client, _ = traced_server
        payload = client.simulate(SMALL, trace_id="feedc0de")
        assert payload["trace_id"] == "feedc0de"
        assert client.trace("feedc0de")["count"] > 0

    def test_invalid_client_trace_id_replaced(self, traced_server):
        client, _ = traced_server
        payload = client.simulate(SMALL, trace_id=None)
        assert payload["trace_id"] != ""
        status, got = client.call(
            "POST",
            "/simulate",
            dict(SMALL),
            headers={"X-Repro-Trace-Id": "NOT HEX !!"},
        )
        assert status == 200
        assert got["trace_id"] != "NOT HEX !!"

    def test_response_header_echoes_trace_id(self, traced_server):
        client, _ = traced_server
        import http.client as httplib
        import json as json_mod

        conn = httplib.HTTPConnection(client.host, client.port, timeout=30.0)
        try:
            conn.request(
                "POST",
                "/simulate",
                body=json_mod.dumps(SMALL).encode(),
                headers={"X-Repro-Trace-Id": "abc123"},
            )
            response = conn.getresponse()
            body = json_mod.loads(response.read())
            assert response.getheader("X-Repro-Trace-Id") == "abc123"
            assert body["trace_id"] == "abc123"
        finally:
            conn.close()

    def test_bad_request_still_traced(self, traced_server):
        client, _ = traced_server
        status, payload = client.call(
            "POST", "/simulate", {"model": "gcn", "bogus_field": 1}
        )
        assert status == 400
        assert payload.get("trace_id")
        spans = client.trace(payload["trace_id"])["spans"]
        http_span = next(s for s in spans if s["name"] == "http")
        assert http_span["attributes"]["status"] == 400


class TestWarmHitTree:
    def test_warm_hit_is_http_admission_and_probe_only(self, tmp_path):
        with TRACER.session(enabled=True, sample_rate=1.0):
            service = SimulationService(cache=ResultCache(tmp_path))
            with ServerThread(service) as thread:
                client = ServeClient(*thread.address, timeout=60.0)
                cold = client.simulate(SMALL)
                warm = client.simulate(SMALL)
                cold_spans = client.trace(cold["trace_id"])["spans"]
                warm_spans = [
                    Span.from_dict(s)
                    for s in client.trace(warm["trace_id"])["spans"]
                ]
        assert warm["cached"] is True
        assert {"batcher", "batch"} <= {s["name"] for s in cold_spans}

        by_id = {s.span_id: s for s in warm_spans}
        tree = sorted(
            (s.name, by_id[s.parent_id].name if s.parent_id else None)
            for s in warm_spans
        )
        assert tree == [
            ("admission", "http"),
            ("cache.probe", "serve.request"),
            ("http", None),
            ("serve.request", "http"),
        ]
        probe = next(s for s in warm_spans if s.name == "cache.probe")
        assert probe.attributes["hits"] == 1


class TestTraceEndpoint:
    def test_limit_parameter(self, traced_server):
        client, _ = traced_server
        client.simulate(SMALL)
        doc = client.trace(limit=2)
        assert doc["count"] == 2

    def test_unknown_trace_id_empty(self, traced_server):
        client, _ = traced_server
        client.simulate(SMALL)
        assert client.trace("deadbeef")["count"] == 0

    def test_get_only(self, traced_server):
        client, _ = traced_server
        status, _ = client.call("POST", "/trace", {})
        assert status == 405


class TestMetricsEndpoint:
    def test_prometheus_text_parseable(self, traced_server):
        import re

        client, _ = traced_server
        client.simulate(SMALL)
        text = client.metrics()
        assert "# TYPE repro_requests_total counter" in text
        assert 'repro_requests_total{status="200"}' in text
        assert "# TYPE repro_request_seconds histogram" in text
        assert "repro_request_seconds_count" in text
        line_re = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.eE+-]+(inf)?$"
        )
        for line in text.splitlines():
            if line.startswith("#") or not line:
                continue
            assert line_re.match(line), line

    def test_perf_stages_surface_on_metrics(self, traced_server):
        client, _ = traced_server
        client.simulate(SMALL)
        text = client.metrics()
        assert 'repro_stage_seconds_count{stage="serve.request"}' in text

    def test_get_only(self, traced_server):
        client, _ = traced_server
        status, _ = client.call("POST", "/metrics", {})
        assert status == 405


class TestStatsTelemetry:
    def test_stats_carries_tracer_snapshot(self, traced_server):
        client, _ = traced_server
        client.simulate(SMALL)
        telemetry = client.stats()["telemetry"]
        assert telemetry["enabled"] is True
        assert telemetry["buffered"] > 0
        assert telemetry["total"] >= telemetry["buffered"]
        assert telemetry["dropped"] == 0

    def test_disabled_tracer_records_nothing(self):
        service = SimulationService()
        assert TRACER.enabled is False
        TRACER.buffer.clear()  # drop spans left over from other tests
        with ServerThread(service) as thread:
            host, port = thread.address
            client = ServeClient(host, port, timeout=60.0)
            payload = client.simulate(SMALL)
            assert "trace_id" not in payload
            assert client.trace()["count"] == 0
            assert client.stats()["telemetry"]["enabled"] is False


class TestLatencyWindowConcurrency:
    """Satellite: /stats p50/p95 stay sane under concurrent requests."""

    def test_no_lost_samples_and_bounded_window(self):
        window = LatencyWindow(size=256)
        n, workers = 2_000, 8

        def pump(w: int) -> None:
            for i in range(n):
                window.add((w * n + i) * 1e-6)

        threads = [
            threading.Thread(target=pump, args=(w,)) for w in range(workers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = window.snapshot()
        assert snap["count"] == n * workers  # no lost count updates
        assert snap["window"] == 256  # bounded

    def test_percentiles_monotone_under_concurrent_adds(self):
        window = LatencyWindow(size=128)
        stop = threading.Event()

        def writer() -> None:
            i = 0
            while not stop.is_set():
                window.add((i % 100) * 1e-3)
                i += 1

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            deadline = time.monotonic() + 0.5
            while time.monotonic() < deadline:
                snap = window.snapshot()
                if snap["window"] == 0:
                    continue
                assert 0 <= snap["p50_seconds"] <= snap["p95_seconds"]
                assert snap["window"] <= 128
                assert snap["count"] >= snap["window"]
        finally:
            stop.set()
            for t in threads:
                t.join()

    def test_live_stats_percentiles_under_concurrent_requests(self):
        from concurrent.futures import ThreadPoolExecutor

        service = SimulationService()
        with ServerThread(service) as thread:
            host, port = thread.address
            client = ServeClient(host, port, timeout=60.0)
            client.simulate(SMALL)  # warm the cache

            def fire(_):
                return client.simulate(SMALL)

            with ThreadPoolExecutor(8) as pool:
                list(pool.map(fire, range(32)))
            latency = client.stats()["latency"]
        assert latency["count"] == 33
        assert latency["window"] == 33
        assert latency["p50_seconds"] <= latency["p95_seconds"]
        assert latency["mean_seconds"] > 0


class TestCLITraceCommands:
    def test_request_trace_flag_prints_summary(self, traced_server, capsys):
        from repro.cli import main

        client, _ = traced_server
        rc = main(
            [
                "request",
                "--host",
                client.host,
                "--port",
                str(client.port),
                "--dataset",
                "cora",
                "--scale",
                "0.2",
                "--hidden",
                "16",
                "--trace",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "trace id" in out
        assert "simulate_layer" in out
        assert "http" in out

    def test_trace_export_and_summary(self, traced_server, tmp_path, capsys):
        import json as json_mod

        from repro.cli import main

        client, _ = traced_server
        client.simulate(SMALL)
        out_json = tmp_path / "trace.json"
        out_jsonl = tmp_path / "spans.jsonl"
        rc = main(
            [
                "trace",
                "export",
                "--host",
                client.host,
                "--port",
                str(client.port),
                "--output",
                str(out_json),
                "--jsonl",
                str(out_jsonl),
            ]
        )
        assert rc == 0
        doc = json_mod.loads(out_json.read_text())
        assert validate_chrome_trace(doc) == []
        assert out_jsonl.exists()

        capsys.readouterr()
        rc = main(["trace", "summary", "--input", str(out_jsonl)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "simulate_layer" in out

    def test_trace_summary_no_server_spans(self, tmp_path, capsys):
        from repro.cli import main

        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        rc = main(["trace", "summary", "--input", str(empty)])
        assert rc == 1
