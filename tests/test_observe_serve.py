"""Live-feed integration tests: a real server, a real WebSocket client.

Covers the end-to-end contract: one /simulate produces the ordered
lifecycle sequence on a live ``/observe`` connection AND in the JSONL
recording; the dashboard is served; slow consumers are evicted with
1013 and shutdown closes with 1001 after delivering the queued tail.
"""

import asyncio
import http.client
import json

import pytest

from repro.observe.broadcaster import _EVICT, WebSocketBroadcaster, _Client
from repro.observe.client import ObserveClient, stream_events
from repro.observe.events import HUB, REQUEST_LIFECYCLE, Event, validate_events
from repro.observe.recorder import read_session
from repro.observe.service import ObserveState
from repro.observe.websocket import (
    OP_CLOSE,
    OP_TEXT,
    close_code,
    read_frame,
)
from repro.runtime import ResultCache, run_jobs
from repro.serve.server import ServerThread, SimulationService

SMALL = {"dataset": "cora", "scale": 0.1, "hidden": 8, "layers": 1}


@pytest.fixture(autouse=True)
def clean_global_hub():
    """The serve path publishes into the process-global HUB; always
    leave it empty so one test's sinks never observe another test."""
    yield
    HUB.reset()
    from repro.telemetry import TRACER

    TRACER.on_span = None


def make_runner():
    async def runner(jobs):
        return await asyncio.to_thread(lambda: run_jobs(jobs))

    return runner


@pytest.fixture
def observed(tmp_path):
    """A running service with --observe semantics + its record path."""
    record_path = tmp_path / "session.jsonl"
    service = SimulationService(
        runner=make_runner(),
        batch_window=0.01,
        observe=ObserveState(
            record_path=record_path,
            flush_interval=0.0,
            tick_interval=0.0,
            source="test",
        ),
    )
    with ServerThread(service) as thread:
        yield service, thread.address, record_path


def http_get(address, path, method="GET"):
    conn = http.client.HTTPConnection(*address, timeout=30)
    try:
        conn.request(method, path)
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


def collect_one_request(address):
    """Fire one /simulate while attached to /observe; return (result,
    live events)."""
    host, port = address

    async def run():
        events = []
        client = ObserveClient(host, port)
        hello = await client.connect()
        assert hello["data"]["schema"] >= 1
        request = asyncio.create_task(
            asyncio.to_thread(
                lambda: http_post_simulate(address, SMALL)
            )
        )
        try:
            while True:
                event = await asyncio.wait_for(client.next_event(), timeout=60)
                assert event is not None
                events.append(event)
                if event["type"] == "request.completed":
                    break
        finally:
            await client.close()
        return await request, events

    return asyncio.run(run())


def http_post_simulate(address, spec):
    conn = http.client.HTTPConnection(*address, timeout=60)
    try:
        conn.request(
            "POST",
            "/simulate",
            body=json.dumps(spec),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class TestLiveFeed:
    def test_one_request_streams_the_lifecycle_in_order(self, observed):
        _service, address, _record = observed
        (status, result), events = collect_one_request(address)
        assert status == 200
        assert result["result"]["accelerator"] == "aurora"

        types = [e["type"] for e in events]
        positions = [types.index(t) for t in REQUEST_LIFECYCLE]
        assert positions == sorted(positions), types
        assert validate_events(events) == []
        rids = {e["data"]["rid"] for e in events if "rid" in e["data"]}
        assert len(rids) == 1

    def test_warm_hit_lifecycle_has_no_batch_flush(self, tmp_path):
        service = SimulationService(
            cache=ResultCache(tmp_path / "cache"),
            batch_window=0.01,
            observe=ObserveState(
                flush_interval=0.0, tick_interval=0.0, source="test"
            ),
        )
        with ServerThread(service) as thread:
            (status, cold), _ = collect_one_request(thread.address)
            (status, warm), events = collect_one_request(thread.address)
        assert status == 200
        assert cold["cached"] is False and warm["cached"] is True

        lifecycle = [
            e for e in events
            if e["type"].startswith("request.") or e["type"] == "batch.flush"
        ]
        assert [e["type"] for e in lifecycle] == [
            "request.received",
            "request.admitted",
            "request.completed",
        ]
        assert lifecycle[-1]["data"]["cached"] is True
        assert len({e["data"]["rid"] for e in lifecycle}) == 1
        assert validate_events(events) == []

    def test_recording_replays_the_live_sequence(self, observed):
        _service, address, record_path = observed
        _result, live = collect_one_request(address)

        # Recorder runs on the same hub: after shutdown the JSONL holds
        # (at least) everything the live client saw, byte-identical.
        _service.observe.recorder.flush()
        recorded, info = read_session(record_path)
        assert info["skipped"] == 0
        assert validate_events(recorded) == []
        by_seq = {e.seq: e for e in recorded}
        for event in live:
            match = by_seq[event["seq"]]
            assert match.to_dict() == event

    def test_stats_exposes_the_observe_section(self, observed):
        _service, address, record_path = observed
        collect_one_request(address)
        status, _headers, body = http_get(address, "/stats")
        assert status == 200
        observe = json.loads(body)["observe"]
        assert observe["enabled"] is True
        assert observe["hub"]["events_emitted"] > 0
        assert observe["broadcaster"]["connections_total"] == 1
        assert observe["recorder"]["path"] == str(record_path)


class TestDashboard:
    def test_dashboard_and_assets_are_served(self, observed):
        _service, address, _record = observed
        status, headers, body = http_get(address, "/observer")
        assert status == 200
        assert headers["Content-Type"].startswith("text/html")
        assert b"/observe" in body  # the page self-connects

        for asset, content_type in (
            ("/observer/observer.js", "application/javascript"),
            ("/observer/observer.css", "text/css"),
        ):
            status, headers, _body = http_get(address, asset)
            assert status == 200
            assert headers["Content-Type"].startswith(content_type)

    def test_unknown_asset_is_404_and_post_is_405(self, observed):
        _service, address, _record = observed
        assert http_get(address, "/observer/../secrets")[0] == 404
        assert http_get(address, "/observer/nope.js")[0] == 404
        assert http_get(address, "/observer", method="POST")[0] == 405

    def test_observe_without_upgrade_is_400(self, observed):
        _service, address, _record = observed
        status, _headers, body = http_get(address, "/observe")
        assert status == 400
        assert b"upgrade" in body.lower()

    def test_everything_404s_when_observe_is_off(self):
        service = SimulationService(runner=make_runner())
        with ServerThread(service) as thread:
            assert http_get(thread.address, "/observe")[0] == 404
            assert http_get(thread.address, "/observer")[0] == 404
            _status, _headers, body = http_get(thread.address, "/stats")
            assert json.loads(body)["observe"] is None


def make_event(seq):
    return Event(seq=seq, ts=float(seq), type="stats.tick", data={})


class TestSlowConsumer:
    def test_queue_overflow_drops_then_evicts(self):
        broadcaster = WebSocketBroadcaster(
            queue_size=2, max_drops=1, flush_interval=0.0
        )
        client = _Client("test", 2)
        broadcaster._clients[client.id] = client

        for seq in range(1, 4):  # fills the queue, then one tolerated drop
            broadcaster._dispatch(make_event(seq))
        assert client.drops == 1 and not client.evicted

        broadcaster._dispatch(make_event(4))  # drops > max_drops → evict
        assert client.evicted
        assert broadcaster.clients_evicted == 1
        assert broadcaster.events_dropped == 2
        # The stalled queue was flushed down to the eviction marker.
        assert client.queue.get_nowait() is _EVICT

        broadcaster._dispatch(make_event(5))  # evicted clients are skipped
        assert broadcaster.events_dropped == 2

    def run_send_loop(self, prepare):
        """Drive _send_loop against a real socket; return decoded frames."""

        async def run():
            ends = {}
            ready = asyncio.Event()

            async def handler(reader, writer):
                ends["writer"] = writer
                ready.set()
                await asyncio.sleep(30)

            server = await asyncio.start_server(handler, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            reader, cwriter = await asyncio.open_connection(host, port)
            await ready.wait()

            broadcaster = WebSocketBroadcaster(queue_size=8, flush_interval=0.0)
            broadcaster.bind(asyncio.get_running_loop())
            client = _Client("test", 8)
            broadcaster._clients[client.id] = client
            prepare(broadcaster, client)

            receiver = asyncio.get_running_loop().create_future()
            try:
                await asyncio.wait_for(
                    broadcaster._send_loop(client, ends["writer"], receiver),
                    timeout=30,
                )
            finally:
                receiver.cancel()
            frames = []
            while True:
                frame = await asyncio.wait_for(read_frame(reader), timeout=30)
                frames.append(frame)
                if frame.opcode == OP_CLOSE:
                    break
            cwriter.close()
            server.close()
            await server.wait_closed()
            return frames

        return asyncio.run(run())

    def test_eviction_closes_1013_without_the_stale_tail(self):
        def prepare(broadcaster, client):
            client.queue.put_nowait(make_event(1))
            broadcaster._evict(client)

        frames = self.run_send_loop(prepare)
        assert [f.opcode for f in frames] == [OP_CLOSE]
        assert close_code(frames[0].payload) == 1013
        assert b"slow consumer" in frames[0].payload

    def test_shutdown_delivers_the_tail_then_closes_1001(self):
        def prepare(broadcaster, client):
            client.queue.put_nowait(make_event(1))
            client.queue.put_nowait(make_event(2))
            broadcaster._close_all()

        frames = self.run_send_loop(prepare)
        assert [f.opcode for f in frames] == [OP_TEXT, OP_TEXT, OP_CLOSE]
        assert [json.loads(f.payload)["seq"] for f in frames[:2]] == [1, 2]
        assert close_code(frames[2].payload) == 1001


class TestStreamHelper:
    def test_stream_events_honours_max_events(self, observed):
        _service, address, _record = observed
        host, port = address

        async def run():
            collected = []

            async def drain():
                async for event in stream_events(
                    host, port, max_events=3, duration=60
                ):
                    collected.append(event)

            drainer = asyncio.create_task(drain())
            await asyncio.sleep(0.1)
            await asyncio.to_thread(http_post_simulate, address, SMALL)
            await asyncio.wait_for(drainer, timeout=60)
            return collected

        events = asyncio.run(run())
        assert len(events) == 3
        assert all("type" in e for e in events)
