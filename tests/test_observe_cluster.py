"""Fleet observability: the router's merged /trace and event relays.

A replica's ``/observe`` stream is re-emitted by the router with a
``replica`` tag onto one totally ordered fleet feed, and ``GET /trace``
on the router fans out to every replica and merges spans by
``(trace_id, span_id)`` — all exercised here over loopback sockets
with in-process replicas, no subprocesses.
"""

import asyncio
import http.client
import json
import time

import pytest

from repro.cluster import ClusterRouter
from repro.observe.client import ObserveClient
from repro.observe.events import HUB, REQUEST_LIFECYCLE, EventHub
from repro.observe.service import ObserveState
from repro.runtime import run_jobs
from repro.serve.client import ServeClient
from repro.serve.server import ServerThread, SimulationService
from repro.telemetry import TRACER

SMALL = {"dataset": "cora", "scale": 0.1, "hidden": 8, "layers": 1}


@pytest.fixture(autouse=True)
def clean_global_hub():
    yield
    HUB.reset()
    TRACER.on_span = None


def make_runner():
    async def runner(jobs):
        return await asyncio.to_thread(lambda: run_jobs(jobs))

    return runner


def raw_get(address, path):
    conn = http.client.HTTPConnection(*address, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def router_observe_state():
    # Mirrors _cmd_cluster: a private hub, no tracer bridge — fleet
    # events arrive over the relayed WebSocket streams only.
    return ObserveState(hub=EventHub(), source="cluster", install_hook=False)


class TestFleetTrace:
    def test_trace_merges_replica_spans_by_identity(self):
        services = [
            SimulationService(replica_id=str(i), runner=make_runner())
            for i in range(2)
        ]
        with TRACER.session(enabled=True, sample_rate=1.0):
            threads = [ServerThread(s) for s in services]
            router = ClusterRouter()
            try:
                for i, thread in enumerate(threads):
                    thread.start()
                    router.replica_up(str(i), *thread.address)
                with ServerThread(router) as router_thread:
                    client = ServeClient(*router_thread.address, timeout=60.0)
                    client.simulate(SMALL)

                    status, single = raw_get(threads[0].address, "/trace")
                    assert status == 200
                    status, merged = raw_get(router_thread.address, "/trace")
                    assert status == 200
            finally:
                for thread in threads:
                    thread.stop()

        # In-process replicas share one tracer buffer, so every replica
        # reports the same spans — the merge must dedup them down to
        # exactly one copy per (trace_id, span_id).
        assert merged["count"] == single["count"] > 0
        identities = [
            (s["trace_id"], s["span_id"]) for s in merged["spans"]
        ]
        assert len(identities) == len(set(identities))
        assert set(merged["replicas"]) == {"0", "1"}
        assert all(
            r["count"] == single["count"] for r in merged["replicas"].values()
        )
        starts = [s["start_time"] for s in merged["spans"]]
        assert starts == sorted(starts)

    def test_trace_id_filter_round_trips_through_the_router(self):
        service = SimulationService(replica_id="0", runner=make_runner())
        with TRACER.session(enabled=True, sample_rate=1.0):
            with ServerThread(service) as replica:
                router = ClusterRouter()
                router.replica_up("0", *replica.address)
                with ServerThread(router) as router_thread:
                    ServeClient(*router_thread.address, timeout=60.0).simulate(
                        SMALL
                    )
                    _status, everything = raw_get(
                        router_thread.address, "/trace"
                    )
                    wanted = everything["spans"][0]["trace_id"]
                    _status, filtered = raw_get(
                        router_thread.address, f"/trace?trace_id={wanted}"
                    )
        assert filtered["trace_id"] == wanted
        assert filtered["count"] > 0
        assert all(s["trace_id"] == wanted for s in filtered["spans"])


class TestRelays:
    def test_replica_events_reach_the_fleet_feed_tagged(self):
        service = SimulationService(
            replica_id="0",
            runner=make_runner(),
            observe=ObserveState(flush_interval=0.0, tick_interval=0.0),
        )
        router = ClusterRouter(observe=router_observe_state())
        with ServerThread(service) as replica:
            router.replica_up("0", *replica.address)
            with ServerThread(router) as router_thread:
                # The relay is a WebSocket client of the replica; wait
                # until it is attached before producing events.
                deadline = time.monotonic() + 10
                while (
                    service.observe.broadcaster.snapshot()["clients"] < 1
                ):
                    assert time.monotonic() < deadline, "relay never attached"
                    time.sleep(0.02)

                host, port = router_thread.address

                async def run():
                    events = []
                    observer = ObserveClient(host, port)
                    await observer.connect()
                    request = asyncio.create_task(
                        asyncio.to_thread(
                            lambda: ServeClient(
                                host, port, timeout=60.0
                            ).simulate(SMALL)
                        )
                    )
                    try:
                        while True:
                            event = await asyncio.wait_for(
                                observer.next_event(), timeout=60
                            )
                            assert event is not None
                            events.append(event)
                            if event["type"] == "request.completed":
                                break
                    finally:
                        await observer.close()
                    return await request, events

                result, events = asyncio.run(run())

        assert result["result"]["accelerator"] == "aurora"
        types = [e["type"] for e in events]
        positions = [types.index(t) for t in REQUEST_LIFECYCLE]
        assert positions == sorted(positions), types
        # Every relayed event carries the replica tag and a fresh,
        # strictly increasing fleet sequence.
        assert all(e["data"]["replica"] == "0" for e in events)
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        assert router.events.labels(event="relay").get() >= len(events)

    def test_router_stats_and_dashboard(self):
        router = ClusterRouter(observe=router_observe_state())
        with ServerThread(router) as thread:
            status, stats = raw_get(thread.address, "/stats")
            assert status == 200
            observe = stats["router"]["observe"]
            assert observe["enabled"] is True
            assert observe["relays"] == []
            assert observe["relay_events"] == 0
            assert "relay_reconnects" in observe

            status, _body = raw_get(thread.address, "/observe")
            assert status == 400  # upgrade required, not 404: it's on

            conn = http.client.HTTPConnection(*thread.address, timeout=30)
            try:
                conn.request("GET", "/observer")
                response = conn.getresponse()
                assert response.status == 200
                assert response.read().startswith(b"<!")
            finally:
                conn.close()

    def test_observe_off_router_404s(self):
        router = ClusterRouter()
        with ServerThread(router) as thread:
            assert raw_get(thread.address, "/observe")[0] == 404
            assert raw_get(thread.address, "/observer")[0] == 404
            stats = raw_get(thread.address, "/stats")[1]
            assert stats["router"]["observe"] is None

    def test_replica_up_outside_a_loop_skips_the_relay(self):
        # Supervisor callbacks can fire before the router loop exists
        # (and tests register replicas synchronously): membership must
        # still update, with no relay task and no crash.
        router = ClusterRouter(observe=router_observe_state())
        router.replica_up("9", "127.0.0.1", 1)
        assert "9" in router.ring
        assert router._relays == {}
        router.replica_down("9")
        assert "9" not in router.ring
