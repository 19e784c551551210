"""``/stats`` and ``/metrics`` read the same children.

Each serve or router instance counts an event once, into its own
registry; ``/stats`` builds its counts from that registry's children and
``/metrics`` renders them.  After a mixed run (warm hits, cold misses,
two concurrent batches, a shed, a timeout, a handler error and bad
requests) every ``/stats`` count equals the ``/metrics`` children it is
read from, and two instances in one process keep separate counts.
"""

import asyncio
import re
import socket
import threading
import time
from collections import defaultdict

from repro.cluster import ClusterRouter
from repro.runtime import ResultCache, run_jobs
from repro.serve.client import ServeClient, ServiceUnavailable
from repro.serve.server import ServerThread, SimulationService
from repro.telemetry import METRICS

SMALL = {"dataset": "cora", "scale": 0.1, "hidden": 8, "layers": 1}
SLOW = {1, 2, 4}  # seeds whose batch sleeps first
FAIL = 13  # a seed whose batch raises

_SERIES = re.compile(r"^(\w+)(?:\{(.*)\})? (\S+)$")
_LABEL = re.compile(r'(\w+)="([^"]*)"')


def parse_metrics(text: str) -> dict:
    """``{family: {frozenset(label items): value}}`` of the sample lines."""
    out: dict = defaultdict(dict)
    for line in text.splitlines():
        match = _SERIES.match(line)
        if match:
            name, labels, value = match.groups()
            out[name][frozenset(_LABEL.findall(labels or ""))] = float(value)
    return out


def child(metrics: dict, family: str, **labels) -> int:
    """One child's value (0 when the series was never rendered)."""
    return int(metrics[family].get(frozenset(labels.items()), 0))


def total(metrics: dict, family: str, **labels) -> int:
    """The sum of a family's children matching ``labels``."""
    want = set(labels.items())
    return int(sum(v for key, v in metrics[family].items() if want <= key))


def make_runner(cache, active):
    """Run jobs for real, sleeping first on a slow seed and raising on
    the failing one; ``active`` records the peak of concurrent batches."""

    async def runner(jobs):
        active["now"] += 1
        active["peak"] = max(active["peak"], active["now"])
        try:
            if any(job.seed == FAIL for job in jobs):
                raise RuntimeError("scripted batch failure")
            if any(job.seed in SLOW for job in jobs):
                await asyncio.sleep(0.5)
            return await asyncio.to_thread(run_jobs, jobs, cache=cache)
        finally:
            active["now"] -= 1

    return runner


def send_garbage(address) -> bytes:
    """One malformed request line: a 400 from the connection loop."""
    with socket.create_connection(address, timeout=30.0) as sock:
        sock.sendall(b"GARBAGE\r\n\r\n")
        return sock.recv(65536)


def wait_for(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.01)


def mixed_run(address, active, settle):
    """Drive a front end through every request outcome; returns the
    statuses seen.  ``settle`` waits out the timed-out execution."""
    client = ServeClient(*address, retries=0, timeout=60.0)
    seen = []

    def simulate(seed, **kwargs):
        status, _ = client.call("POST", "/simulate", dict(SMALL, seed=seed), **kwargs)
        seen.append(status)

    def simulate_and_close(seed):
        simulate(seed)
        client.close()  # this thread's connection

    simulate(0)  # cold miss
    simulate(0)  # warm hit (disk)
    simulate(0)  # warm hit (memory)
    simulate(FAIL)  # a batch that raises: 500
    seen.append(client.call("POST", "/simulate", {"bogus": 1})[0])  # 400
    assert send_garbage(address).startswith(b"HTTP/1.1 400 ")
    # Two slow cold misses in flight at once, then one more is shed.
    threads = [
        threading.Thread(target=simulate_and_close, args=(seed,))
        for seed in (1, 2)
    ]
    for thread in threads:
        thread.start()
    wait_for(lambda: active["now"] == 2)
    try:
        simulate(3)
    except ServiceUnavailable:
        seen.append(429)
    for thread in threads:
        thread.join(60.0)
    simulate(4, headers={"X-Repro-Deadline": "0.1"})  # times out: 504
    settle()
    client.close()
    return seen


def test_service_stats_agree_with_metrics(tmp_path):
    cache = ResultCache(tmp_path)
    active = {"now": 0, "peak": 0}
    service = SimulationService(
        cache=cache,
        runner=make_runner(cache, active),
        batch_window=0.0,
        max_batch=1,
        queue_depth=2,
    )

    def settle():
        wait_for(lambda: not service.batcher.inflight_count)

    with ServerThread(service) as thread:
        seen = mixed_run(thread.address, active, settle)
        client = ServeClient(*thread.address, timeout=60.0)
        stats = client.stats()
        metrics = parse_metrics(client.metrics())
        client.close()

    assert sorted(seen) == [200, 200, 200, 200, 200, 400, 429, 500, 504]
    assert active["peak"] == 2  # the two slow batches ran at once
    requests, admission, batcher = (
        stats["requests"], stats["admission"], stats["batcher"]
    )
    status = "repro_requests_total"
    event = "repro_serve_events_total"
    assert requests["requests"] == total(metrics, status) == 9
    assert requests["completed"] == child(metrics, status, status="200") == 5
    assert requests["timeouts"] == child(metrics, status, status="504") == 1
    assert requests["errors"] == (
        child(metrics, status, status="500") + child(metrics, event, event="error")
    ) == 1
    assert requests["bad_requests"] == (
        child(metrics, status, status="400")
        + child(metrics, event, event="bad_request")
    ) == 2
    assert admission["admitted"] == child(metrics, event, event="admitted") == 8
    assert admission["shed"] == child(metrics, event, event="shed") == 1
    assert admission["rejected_draining"] == child(
        metrics, event, event="rejected_draining"
    ) == 0
    assert admission["completed"] == child(metrics, event, event="released") == 8
    assert batcher["batches_run"] == child(metrics, event, event="batch") == 5
    assert batcher["jobs_run"] == child(metrics, event, event="batch_job") == 5
    assert batcher["singleflight_joins"] == child(
        metrics, event, event="singleflight_join"
    ) == 0


def test_router_stats_agree_with_metrics(tmp_path):
    cache = ResultCache(tmp_path)
    active = {"now": 0, "peak": 0}
    service = SimulationService(
        cache=cache,
        runner=make_runner(cache, active),
        batch_window=0.0,
        max_batch=1,
    )
    router = ClusterRouter(max_inflight_per_replica=2, proxy_retries=0)
    router.add_shard("0", ResultCache(tmp_path))
    with ServerThread(service) as replica:
        router.replica_up("0", *replica.address)

        def settle():
            wait_for(lambda: not service.batcher.inflight_count)

        with ServerThread(router) as front:
            seen = mixed_run(front.address, active, settle)
            client = ServeClient(*front.address, timeout=60.0)
            # A /result lookup of each kind counts in the tiers too.
            key = client.simulate(dict(SMALL, seed=0))["key"]
            assert client.call("GET", f"/result/{key}")[0] == 200
            assert client.call("GET", "/result/" + "0" * 64)[0] == 404
            stats = client.stats()["router"]
            metrics = parse_metrics(client.metrics())
            client.close()

    assert sorted(seen) == [200, 200, 200, 200, 200, 400, 429, 500, 504]
    assert active["peak"] == 2
    requests, tiers = stats["requests"], stats["tiers"]
    status = "repro_cluster_requests_total"
    event = "repro_cluster_events_total"
    tier_hits = "repro_cluster_tier_hits_total"
    unanswered = child(metrics, event, event="unanswered")
    assert requests["requests"] == total(metrics, status) == 10
    assert requests["completed"] == child(metrics, status, status="200") == 6
    assert requests["tier_served"] == total(
        metrics, tier_hits, endpoint="simulate"
    ) == 3
    assert requests["proxied"] == total(metrics, "repro_cluster_routed_total") == 5
    assert requests["proxy_failovers"] == total(
        metrics, "repro_cluster_failovers_total"
    ) == 0
    assert requests["shed"] == child(metrics, event, event="shed") == 1
    assert requests["no_replica"] == (
        child(metrics, event, event="no_replica") + unanswered
    ) == 0
    assert requests["bad_requests"] == child(
        metrics, event, event="bad_request"
    ) == 2
    # The replica's 500 and 504 are relayed and counted as errors.
    assert requests["errors"] == (
        child(metrics, event, event="error") + unanswered
    ) == 2
    assert tiers["misses"] == child(metrics, event, event="tier_miss")
    for tier in ("memory", "disk"):
        assert tiers["tier_hits"][tier] == total(metrics, tier_hits, tier=tier)
    assert sum(tiers["tier_hits"].values()) == 4  # 3 /simulate, 1 /result
    # The in-process replica's families stay out of the router's view.
    assert "repro_requests_total" not in metrics


def test_two_services_in_one_process_keep_separate_counts():
    busy, idle = SimulationService(), SimulationService()
    with ServerThread(busy) as a, ServerThread(idle) as b:
        clients = {
            "busy": ServeClient(*a.address, timeout=60.0),
            "idle": ServeClient(*b.address, timeout=60.0),
        }
        clients["busy"].simulate(SMALL)
        clients["busy"].call("POST", "/simulate", {"bogus": 1})
        stats = {name: c.stats()["requests"] for name, c in clients.items()}
        metrics = {name: parse_metrics(c.metrics()) for name, c in clients.items()}
        for client in clients.values():
            client.close()
    assert stats["busy"]["requests"] == 2 and stats["busy"]["completed"] == 1
    assert stats["busy"]["bad_requests"] == 1
    assert set(stats["idle"].values()) == {0}
    assert total(metrics["busy"], "repro_requests_total") == 2
    assert total(metrics["idle"], "repro_requests_total") == 0
    # Both render the process-wide families.
    for view in metrics.values():
        assert "repro_stage_seconds_count" in view


def test_instance_families_never_shadow_the_global_ones():
    global_names = {family.name for family in METRICS.families()}
    for owner in (SimulationService(replica_id="0"), ClusterRouter()):
        names = {family.name for family in owner.metrics.families()}
        assert names and not names & global_names
