"""Router behaviour over real sockets, with in-process replicas.

The router duck-types the ``ServerThread`` service contract, so these
tests host it exactly like a single service and register replicas that
are themselves ``ServerThread``-hosted ``SimulationService`` instances
— the full proxy path runs over loopback TCP, no subprocesses.
"""

import http.client
import json
import threading
import time

import pytest

from repro.cluster import ClusterRouter
from repro.runtime import ResultCache, run_jobs
from repro.serve.client import ServeClient, ServeError, ServiceUnavailable
from repro.serve.server import ServerThread, SimulationService

SMALL = {"dataset": "cora", "scale": 0.1, "hidden": 8, "layers": 1}


def make_runner(*, delay=0.0, cache=None, release=None):
    """run_jobs wrapped with an optional fixed delay or a release event."""

    async def runner(jobs):
        import asyncio

        if release is not None:
            await asyncio.to_thread(release.wait, 10.0)
        if delay:
            await asyncio.sleep(delay)
        return await asyncio.to_thread(lambda: run_jobs(jobs, cache=cache))

    return runner


class Fleet:
    """A router plus N in-process replica servers, all socket-hosted."""

    def __init__(self, replicas=2, *, router=None, services=None):
        self.router = router or ClusterRouter()
        self.services = services or [
            SimulationService(replica_id=str(i)) for i in range(replicas)
        ]
        self.threads = []

    def __enter__(self):
        for i, service in enumerate(self.services):
            thread = ServerThread(service)
            thread.start()
            self.threads.append(thread)
            host, port = thread.address
            self.router.replica_up(str(i), host, port)
        self.router_thread = ServerThread(self.router)
        self.router_thread.start()
        self.address = self.router_thread.address
        return self

    def __exit__(self, *exc_info):
        self.router_thread.stop()
        for thread in self.threads:
            thread.stop()

    def client(self, **kwargs):
        kwargs.setdefault("timeout", 60.0)
        return ServeClient(*self.address, **kwargs)

    def raw(self, method, path, body=None):
        """One raw HTTP exchange; returns (status, headers, payload)."""
        conn = http.client.HTTPConnection(*self.address, timeout=30.0)
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


class TestRouting:
    def test_affinity_and_memory_tier(self, tmp_path):
        router = ClusterRouter()
        services = []
        for i in range(2):
            shard = tmp_path / f"shard-{i}"
            services.append(
                SimulationService(replica_id=str(i), cache=ResultCache(shard))
            )
            router.add_shard(str(i), ResultCache(shard))
        with Fleet(2, router=router, services=services) as fleet:
            client = fleet.client()
            first = client.simulate(SMALL)
            assert first["cached"] is False
            assert first["replica"] in ("0", "1")
            second = client.simulate(SMALL)
            assert second["cached"] is True
            assert second["tier"] == "disk"  # the owner's stored blob
            third = client.simulate(SMALL)
            assert third["tier"] == "memory"  # filled by that disk hit
            assert third["result"] == second["result"]
            assert fleet.router.counters["proxied"] == 1
            assert fleet.router.counters["tier_served"] == 2

    def test_distinct_jobs_reach_both_replicas(self):
        with Fleet(2) as fleet:
            client = fleet.client()
            replicas = {
                client.simulate({**SMALL, "seed": seed})["replica"]
                for seed in range(12)
            }
            assert replicas == {"0", "1"}

    def test_same_key_same_replica(self):
        with Fleet(2, router=ClusterRouter()) as fleet:
            client = fleet.client()
            owners = {
                client.simulate({**SMALL, "seed": 7}).get("replica")
                for _ in range(3)
            }
            owners.discard(None)
            assert len(owners) == 1

    def test_bad_request_is_400(self):
        with Fleet(1) as fleet:
            status, _, payload = fleet.raw(
                "POST", "/simulate", {**SMALL, "scale": -1}
            )
            assert status == 400
            assert "error" in payload

    def test_no_replicas_is_503_with_retry_after(self):
        with Fleet(0) as fleet:
            status, headers, payload = fleet.raw("POST", "/simulate", SMALL)
            assert status == 503
            assert "no routable replica" in payload["error"]
            assert float(headers["Retry-After"]) > 0


class TestFailover:
    def test_dead_replica_fails_over(self):
        """Killing a replica's socket reroutes its keys, invisibly."""
        with Fleet(2, router=ClusterRouter()) as fleet:
            client = fleet.client()
            probe = client.simulate({**SMALL, "seed": 3})
            owner = int(probe["replica"])
            fleet.threads[owner].stop()  # replica socket goes dark
            # Same key again: transport failure, then the next ring
            # candidate answers (its own cache is cold, so it computes).
            again = client.simulate({**SMALL, "seed": 3})
            assert int(again["replica"]) == 1 - owner
            assert fleet.router.counters["proxy_failovers"] >= 1

    def test_all_dead_is_503_with_attempts(self):
        with Fleet(1) as fleet:
            fleet.threads[0].stop()
            client = fleet.client(retries=0)
            with pytest.raises(ServiceUnavailable):
                client.simulate(SMALL)
            assert fleet.router.counters["no_replica"] == 1


class TestShedding:
    def test_saturated_owner_sheds_429_with_retry_after(self):
        release = threading.Event()
        service = SimulationService(runner=make_runner(release=release))
        router = ClusterRouter(max_inflight_per_replica=1)
        with Fleet(1, router=router, services=[service]) as fleet:
            blocker = threading.Thread(
                target=lambda: fleet.client().simulate(SMALL)
            )
            blocker.start()
            try:
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    if router._inflight.get("0"):
                        break
                    time.sleep(0.01)
                status, headers, payload = fleet.raw(
                    "POST", "/simulate", {**SMALL, "seed": 9}
                )
                assert status == 429
                assert "saturated" in payload["error"]
                assert float(headers["Retry-After"]) > 0
                assert router.counters["shed"] == 1
            finally:
                release.set()
                blocker.join(timeout=30.0)

    def test_draining_router_sheds_503(self):
        with Fleet(1) as fleet:
            fleet.router.begin_drain()
            status, headers, payload = fleet.raw("POST", "/simulate", SMALL)
            assert status == 503
            assert "draining" in payload["error"]
            assert "Retry-After" in headers


class TestResultEndpoint:
    def test_hit_miss_and_validation(self, tmp_path):
        router = ClusterRouter()
        router.add_shard("0", ResultCache(tmp_path))
        service = SimulationService(cache=ResultCache(tmp_path))
        with Fleet(1, router=router, services=[service]) as fleet:
            client = fleet.client()
            payload = client.simulate(SMALL)
            key = payload["key"]
            status, _, hit = fleet.raw("GET", f"/result/{key}")
            assert status == 200
            assert hit["cached"] is True
            assert hit["result"] == payload["result"]
            status, _, miss = fleet.raw("GET", "/result/" + "0" * 64)
            assert status == 404
            status, _, bad = fleet.raw("GET", "/result/not-hex!")
            assert status == 400


class TestShards:
    """The router reads its replicas' shards before proxying."""

    KEY = "ab" + "0" * 62

    def test_disk_hit_promotes_to_memory(self, tmp_path):
        ResultCache(tmp_path).store(self.KEY, {"v": 2})
        router = ClusterRouter()
        router.add_shard("0", ResultCache(tmp_path))
        with Fleet(0, router=router) as fleet:
            for tier in ("disk", "memory"):
                status, _, hit = fleet.raw("GET", f"/result/{self.KEY}")
                assert status == 200
                assert (hit["result"], hit["tier"]) == ({"v": 2}, tier)

    def test_memory_hit(self, tmp_path):
        ResultCache(tmp_path).store(self.KEY, {"v": 1})
        assert ResultCache(tmp_path).load(self.KEY) == {"v": 1}  # warms memory
        router = ClusterRouter()
        router.add_shard("0", ResultCache(tmp_path))
        with Fleet(0, router=router) as fleet:
            status, _, hit = fleet.raw("GET", f"/result/{self.KEY}")
            assert status == 200
            assert (hit["result"], hit["tier"]) == ({"v": 1}, "memory")
        assert router.tier_hits == {"memory": 1, "disk": 0}

    def test_add_shard(self, tmp_path):
        ResultCache(tmp_path).store(self.KEY, {"v": 5})
        router = ClusterRouter()
        with Fleet(0, router=router) as fleet:
            status, _, _ = fleet.raw("GET", f"/result/{self.KEY}")
            assert status == 404
            router.add_shard("0", ResultCache(tmp_path))
            status, _, hit = fleet.raw("GET", f"/result/{self.KEY}")
            assert status == 200
            assert (hit["result"], hit["tier"]) == ({"v": 5}, "disk")
        assert len(router.shards) == 1

    def test_later_shard_consulted(self, tmp_path):
        ResultCache(tmp_path / "b").store(self.KEY, {"v": 3})
        router = ClusterRouter()
        router.add_shard("a", ResultCache(tmp_path / "a"))
        router.add_shard("b", ResultCache(tmp_path / "b"))
        with Fleet(0, router=router) as fleet:
            status, _, hit = fleet.raw("GET", f"/result/{self.KEY}")
            assert status == 200
            assert (hit["result"], hit["tier"]) == ({"v": 3}, "disk")

    def test_owner_probed_first(self, tmp_path):
        """A key owned by the third replica is answered by its shard
        without a probe of the other two."""
        router = ClusterRouter()
        for name in ("0", "1", "2"):
            router.ring.add(name)
        key = next(
            k for k in (f"{i:064x}" for i in range(1000))
            if router.ring.preference(k)[0] == "2"
        )
        caches = {}
        for name in ("0", "1", "2"):
            caches[name] = ResultCache(tmp_path / name)
            router.add_shard(name, caches[name])
        ResultCache(tmp_path / "2").store(key, {"v": 7})
        assert router._lookup(key) == ({"v": 7}, "disk")
        assert [caches[n].stats.misses for n in ("0", "1", "2")] == [0, 0, 0]
        assert caches["2"].stats.hits == 1

    def test_shard_outside_ring_probed_last(self, tmp_path):
        router = ClusterRouter()
        router.ring.add("0")
        router.add_shard("gone", ResultCache(tmp_path / "gone"))
        router.add_shard("0", ResultCache(tmp_path / "0"))
        ResultCache(tmp_path / "gone").store(self.KEY, {"v": 4})
        assert router._lookup(self.KEY) == ({"v": 4}, "disk")
        assert router.shards["0"].stats.misses == 1

    def test_miss(self, tmp_path):
        router = ClusterRouter()
        router.add_shard("0", ResultCache(tmp_path))
        with Fleet(0, router=router) as fleet:
            status, _, miss = fleet.raw("GET", f"/result/{self.KEY}")
            assert status == 404
            assert miss["key"] == self.KEY

    def test_stats_shape(self, tmp_path):
        ResultCache(tmp_path).store(self.KEY, {"v": 1})
        router = ClusterRouter()
        router.add_shard("0", ResultCache(tmp_path))
        with Fleet(0, router=router) as fleet:
            fleet.raw("GET", f"/result/{self.KEY}")
            fleet.raw("GET", f"/result/{self.KEY}")
            fleet.raw("GET", "/result/" + "0" * 64)
            _, _, stats = fleet.raw("GET", "/stats")
        assert stats["router"]["tiers"] == {
            "misses": 1,
            "tier_hits": {"memory": 1, "disk": 1},
            "disk_shards": 1,
        }


class TestOps:
    def test_healthz_transitions(self):
        with Fleet(2) as fleet:
            _, _, health = fleet.raw("GET", "/healthz")
            assert health["status"] == "ok"
            assert health["replicas_up"] == 2
            fleet.router.replica_down("1")
            assert fleet.router.healthz()["status"] in ("degraded", "ok")
            fleet.router.replica_down("0")
            assert fleet.router.healthz()["status"] == "down"
            fleet.router.begin_drain()
            assert fleet.router.healthz()["status"] == "draining"

    def test_stats_aggregates_replicas(self):
        with Fleet(2) as fleet:
            client = fleet.client()
            client.simulate(SMALL)
            stats = client.stats()
            assert stats["role"] == "router"
            assert set(stats["replicas"]) == {"0", "1"}
            for replica_stats in stats["replicas"].values():
                assert "requests" in replica_stats
            router_section = stats["router"]
            assert router_section["requests"]["proxied"] == 1
            assert router_section["ring"]["nodes"] == ["0", "1"]
            assert router_section["tiers"]["disk_shards"] == 0

    def test_metrics_exported(self):
        with Fleet(1) as fleet:
            client = fleet.client()
            client.simulate(SMALL)
            text = client.metrics()
            assert "repro_cluster_requests_total" in text
            assert 'repro_cluster_routed_total{replica="0"}' in text
            assert "repro_cluster_replica_up" in text

    def test_replica_actions_require_supervisor(self):
        with Fleet(1) as fleet:
            status, _, payload = fleet.raw("POST", "/replicas/0/drain")
            assert status == 404
            assert "no supervisor" in payload["error"]

    def test_unknown_endpoint_404(self):
        with Fleet(1) as fleet:
            status, _, _ = fleet.raw("GET", "/nope")
            assert status == 404


class TestValidation:
    def test_constructor_bounds(self):
        with pytest.raises(ValueError):
            ClusterRouter(max_inflight_per_replica=0)
        with pytest.raises(ValueError):
            ClusterRouter(proxy_retries=-1)
