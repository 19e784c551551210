"""The cluster front end: consistent-hash routing over replica shards.

One asyncio process owns the client-facing socket and fans
``/simulate`` traffic out to N ``repro.serve`` replicas:

* **placement** — requests canonicalize to a :class:`SimJob` whose
  content hash lands on the :class:`~repro.cluster.ring.HashRing`;
  identical jobs always reach the same replica, so single-flight dedup
  and warm caches shard cleanly by job identity;
* **shards before compute** — the router reads the replicas' on-disk
  :class:`~repro.runtime.ResultCache` shards (same host) before
  proxying, through the caches' shared memory tier, so a re-hashed key
  whose result an old owner already computed never re-simulates;
* **admission** — per-replica bounded in-flight; a saturated owner
  sheds with 429 + ``Retry-After`` instead of queueing (spilling a job
  to a cache-cold replica would trade latency for locality);
* **resilience** — a replica that fails at the transport level mid-
  proxy is retried on the next distinct ring node, so killing a
  replica under load is invisible to (retrying) clients;
* **operations** — ``/healthz``/``/stats``/``/metrics`` aggregate the
  fleet through :mod:`repro.telemetry`; ``POST /replicas/<id>/drain``
  and ``/start`` remove and restore individual replicas without
  dropping the fleet.

The router counts into its own ``MetricsRegistry``, which ``/stats``
reads and ``/metrics`` renders after the process-global one.

The router duck-types :class:`repro.serve.server.ServerThread`'s
service contract (``handle``/``begin_drain``/``drain``), so tests and
benches host it exactly like a single service.
"""

from __future__ import annotations

import asyncio
import json
import signal
import time
from urllib.parse import parse_qs

from ..observe.service import ui_asset
from ..observe.websocket import (
    FrameAssembler,
    WebSocketError,
    client_handshake,
    encode_pong,
    read_frame,
)
from ..runtime.cache import ResultCache
from ..serve.http import (
    ConnectionLoop,
    HTTPError,
    HTTPRequest,
    RawResponse,
    ReplyError,
)
from ..serve.protocol import ProtocolError, parse_simulation_request
from ..serve.server import DEADLINE_HEADER, TRACE_HEADER, LatencyWindow
from ..telemetry import METRICS
from ..telemetry.metrics import MetricsRegistry, event_children
from ..telemetry.trace import valid_trace_id
from . import wire
from .replica import ReplicaSupervisor
from .ring import DEFAULT_VNODES, HashRing

__all__ = ["ClusterRouter", "cluster_forever"]

#: Key sanity bound for /result/<key> (sha256 hex is 64 chars).
_HEX = set("0123456789abcdef")
#: The router's own ``/simulate`` statuses (a replica's may be relayed).
ROUTER_STATUSES = (200, 400, 429, 503)
TIERS = ("memory", "disk")


class ClusterRouter:
    """Routes, supervises bookkeeping, and aggregates one replica fleet."""

    def __init__(
        self,
        *,
        vnodes: int = DEFAULT_VNODES,
        max_inflight_per_replica: int = 16,
        proxy_retries: int = 2,
        proxy_timeout: float = 300.0,
        retry_after_hint: float = 0.25,
        supervisor: ReplicaSupervisor | None = None,
        observe=None,
    ) -> None:
        if max_inflight_per_replica < 1:
            raise ValueError("max_inflight_per_replica must be >= 1")
        if proxy_retries < 0:
            raise ValueError("proxy_retries must be >= 0")
        self.ring = HashRing(vnodes=vnodes)
        self.max_inflight_per_replica = max_inflight_per_replica
        self.proxy_retries = proxy_retries
        self.proxy_timeout = proxy_timeout
        self.retry_after_hint = retry_after_hint
        self.supervisor = supervisor
        #: Replica result-cache shards read before proxying, by replica
        #: name (see :meth:`add_shard`).
        self.shards: dict[str, ResultCache] = {}
        #: Optional :class:`repro.observe.ObserveState` (built around a
        #: *private* hub, never the process-global one: in-process
        #: replica services must not leak events into the fleet feed
        #: except through their relayed WebSocket streams).
        self.observe = observe
        self._relays: dict[str, asyncio.Task] = {}
        self._addresses: dict[str, tuple[str, int]] = {}
        self._inflight: dict[str, int] = {}
        self._idle: asyncio.Event | None = None
        self.latency = LatencyWindow()
        self.metrics = MetricsRegistry()
        self.events = self.metrics.counter(
            "repro_cluster_events_total",
            help="Router events no other cluster family decides",
            labelnames=("event",),
        )
        (
            self._bad_request, self._error, self._shed, self._no_replica,
            self._unanswered, self._proxy_error, self._tier_miss,
            self._relayed, self._relay_reconnects,
        ) = event_children(
            self.events, "bad_request", "error", "shed", "no_replica",
            "unanswered", "proxy_error", "tier_miss", "relay", "relay_reconnect",
        )
        self._requests_total = self.metrics.counter(
            "repro_cluster_requests_total",
            help="Cluster requests by response status",
            labelnames=("status",),
        )
        self._by_status = {
            status: self._requests_total.labels(status=status)
            for status in ROUTER_STATUSES
        }
        tier_hits = self.metrics.counter(
            "repro_cluster_tier_hits_total",
            help="Results read from each shard tier before compute, by endpoint",
            labelnames=("endpoint", "tier"),
        )
        self._tier_hits = {
            (endpoint, tier): tier_hits.labels(endpoint=endpoint, tier=tier)
            for endpoint in ("simulate", "result")
            for tier in TIERS
        }
        self._routed_total = self.metrics.counter(
            "repro_cluster_routed_total",
            help="Requests proxied to each replica",
            labelnames=("replica",),
        )
        self._replica_up = self.metrics.gauge(
            "repro_cluster_replica_up",
            help="1 while a replica is routable, 0 otherwise",
            labelnames=("replica",),
        )
        self._failovers_total = self.metrics.counter(
            "repro_cluster_failovers_total",
            help="Proxy attempts re-routed after a replica transport failure",
            labelnames=("replica",),
        )
        self._request_seconds = self.metrics.histogram(
            "repro_cluster_request_seconds",
            help="End-to-end /simulate latency as observed by the router",
        )
        self.http = ConnectionLoop(
            self.dispatch,
            self.events,
            websocket=observe.broadcaster.handle_client if observe else None,
        )
        self._started = time.monotonic()

    def add_shard(self, name: str, cache: ResultCache) -> None:
        """Read ``cache`` before proxying: replica ``name``'s shard, same host."""
        self.shards[name] = cache

    def _lookup(
        self, key: str, endpoint: str = "result"
    ) -> tuple[dict | None, str | None]:
        """The first shard's cached result for ``key`` and its tier.

        Shards are probed in ring order from ``key``'s owner, which holds
        the result whenever the ring has not changed since it was
        computed, then the shards of replicas not in the ring.  The tier
        is ``memory`` when the shard's memory tier answered, ``disk``
        when the blob was read; ``(None, None)`` on a miss.  A hit
        counts under ``endpoint`` and its tier, a miss as ``tier_miss``.
        """
        ranked = self.ring.preference(key)
        order = [name for name in ranked if name in self.shards]
        order += [name for name in self.shards if name not in ranked]
        for name in order:
            result, tier = self.shards[name].lookup(key)
            if result is not None:
                self._tier_hits[endpoint, tier].inc()
                return result, tier
        self._tier_miss.inc()
        return None, None

    # -- membership (supervisor callbacks; sync, loop-thread only) ------
    def replica_up(self, replica_id: str, host: str, port: int) -> None:
        name = str(replica_id)
        self._addresses[name] = (host, port)
        self._inflight.setdefault(name, 0)
        if name not in self.ring:
            self.ring.add(name)
        self._replica_up.labels(replica=name).set(1)
        if self.observe is not None:
            self.observe.hub.emit(
                "replica.up", {"replica": name, "host": host, "port": port}
            )
            self._start_relay(name, host, port)

    def replica_down(self, replica_id: str) -> None:
        name = str(replica_id)
        self._addresses.pop(name, None)
        if name in self.ring:
            self.ring.remove(name)
        self._replica_up.labels(replica=name).set(0)
        if self.observe is not None:
            self.observe.hub.emit("replica.down", {"replica": name})
            task = self._relays.pop(name, None)
            if task is not None:
                task.cancel()

    # -- replica event relays -------------------------------------------
    def _start_relay(self, name: str, host: str, port: int) -> None:
        """Subscribe to one replica's /observe stream (loop thread only)."""
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            return  # registered outside the loop (tests); no relay
        old = self._relays.pop(name, None)
        if old is not None:
            old.cancel()
        self._relays[name] = loop.create_task(
            self._relay_replica(name, host, port)
        )

    async def _relay_replica(self, name: str, host: str, port: int) -> None:
        """Pump one replica's event stream into the fleet hub, forever.

        Events are re-emitted with a ``replica`` tag and their original
        wall-clock timestamp; the fleet hub assigns a fresh sequence so
        clients see one totally ordered feed.  Connection loss retries
        with backoff for as long as the replica stays registered — a
        replica booted without ``--observe`` simply keeps refusing the
        upgrade and the relay keeps (slowly) knocking.
        """
        backoff = 0.5
        while name in self._addresses:
            writer = None
            try:
                reader, writer = await asyncio.open_connection(host, port)
                await client_handshake(
                    reader, writer, f"{host}:{port}", "/observe"
                )
                backoff = 0.5
                assembler = FrameAssembler(require_mask=False)
                while True:
                    frame = await read_frame(reader)
                    if frame is None:
                        break
                    message = assembler.feed(frame)
                    if message is None:
                        continue
                    kind, payload = message
                    if kind == "ping":
                        writer.write(encode_pong(payload, mask=True))
                        await writer.drain()
                        continue
                    if kind == "close":
                        break
                    if kind != "text":
                        continue
                    try:
                        event = json.loads(payload)
                    except json.JSONDecodeError:
                        continue
                    if (
                        not isinstance(event, dict)
                        or event.get("type") in (None, "observe.hello")
                    ):
                        continue
                    data = dict(event.get("data") or {})
                    data.setdefault("replica", name)
                    self.observe.hub.emit(
                        event["type"], data, ts=event.get("ts")
                    )
                    self._relayed.inc()
            except asyncio.CancelledError:
                return
            except (OSError, WebSocketError, ConnectionError):
                pass
            finally:
                if writer is not None:
                    writer.close()
            if name not in self._addresses:
                return
            self._relay_reconnects.inc()
            try:
                await asyncio.sleep(backoff)
            except asyncio.CancelledError:
                return
            backoff = min(backoff * 2, 5.0)

    def attach_supervisor(self, supervisor: ReplicaSupervisor) -> None:
        """Wire a supervisor's callbacks into the ring."""
        self.supervisor = supervisor
        supervisor.on_up = self.replica_up
        supervisor.on_down = self.replica_down

    @property
    def routable(self) -> list[str]:
        return self.ring.nodes

    # -- connection handling (ServerThread-compatible) ------------------
    async def handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        await self.http.handle(reader, writer)

    async def dispatch(self, request: HTTPRequest) -> tuple:
        path, _, _query = request.path.partition("?")
        if path == "/healthz":
            if request.method != "GET":
                return 405, {"error": "healthz is GET-only"}
            return 200, self.healthz()
        if path == "/stats":
            if request.method != "GET":
                return 405, {"error": "stats is GET-only"}
            return 200, await self.stats()
        if path == "/metrics":
            if request.method != "GET":
                return 405, {"error": "metrics is GET-only"}
            return 200, METRICS.render_prometheus() + self.metrics.render_prometheus()
        if path == "/trace":
            if request.method != "GET":
                return 405, {"error": "trace is GET-only"}
            return 200, await self._trace(_query)
        if path.startswith("/result/"):
            if request.method != "GET":
                return 405, {"error": "result is GET-only"}
            return await self._result(path[len("/result/"):])
        if path == "/simulate":
            if request.method != "POST":
                return 405, {"error": "simulate is POST-only"}
            return await self._simulate(request)
        if path == "/replicas":
            if request.method != "GET":
                return 405, {"error": "replicas is GET-only"}
            return 200, self._replicas_view()
        if path.startswith("/replicas/"):
            return await self._replica_action(request, path)
        if path == "/observe":
            if self.observe is None:
                return 404, {"error": "observability is off (start with --observe)"}
            return 400, {"error": "GET /observe requires a websocket upgrade"}
        if path == "/observer" or path.startswith("/observer/"):
            if self.observe is None:
                return 404, {"error": "observability is off (start with --observe)"}
            if request.method != "GET":
                return 405, {"error": "observer is GET-only"}
            asset = ui_asset(path[len("/observer"):].lstrip("/"))
            if asset is None:
                return 404, {"error": "no such asset"}
            return 200, RawResponse(asset[0], asset[1])
        return 404, {"error": f"no such endpoint: {path}"}

    # -- endpoints ------------------------------------------------------
    def healthz(self) -> dict:
        up = self.ring.nodes
        total = (
            len(self.supervisor.states()) if self.supervisor is not None else len(up)
        )
        if self.http.draining:
            status = "draining"
        elif up and len(up) == total:
            status = "ok"
        elif up:
            status = "degraded"
        else:
            status = "down"
        return {
            "status": status,
            "role": "router",
            "replicas_up": len(up),
            "replicas_total": total,
            "inflight": sum(self._inflight.values()),
            "uptime_seconds": time.monotonic() - self._started,
        }

    def request_counts(self) -> dict[str, int]:
        """The ``router.requests`` section of ``/stats``, read from the
        children (``unanswered``: every candidate failed, so it is both
        a ``no_replica`` and an ``errors``)."""
        unanswered = int(self._unanswered.get())
        tier_served = sum(
            self._tier_hits["simulate", tier].get() for tier in TIERS
        )
        return {
            "requests": int(self._requests_total.total()),
            "completed": int(self._by_status[200].get()),
            "tier_served": int(tier_served),
            "proxied": int(self._routed_total.total()),
            "proxy_failovers": int(self._failovers_total.total()),
            "shed": int(self._shed.get()),
            "no_replica": int(self._no_replica.get()) + unanswered,
            "bad_requests": int(self._bad_request.get()),
            "errors": int(self._error.get()) + unanswered,
        }

    def tiers(self) -> dict:
        """The ``router.tiers`` section of ``/stats``: shard lookups from
        both endpoints."""
        hits = {tier: 0 for tier in TIERS}
        for (_, tier), child in self._tier_hits.items():
            hits[tier] += int(child.get())
        return {
            "misses": int(self._tier_miss.get()),
            "tier_hits": hits,
            "disk_shards": len(self.shards),
        }

    async def stats(self) -> dict:
        """Cluster aggregate: router view + every routable replica's /stats."""
        names = self.ring.nodes
        replica_stats = await asyncio.gather(
            *(self._fetch_replica_json(name, "/stats") for name in names)
        )
        aggregated = dict(zip(names, replica_stats))
        requests_by_replica = {
            name: stats.get("requests", {}).get("requests")
            for name, stats in aggregated.items()
            if isinstance(stats, dict) and "requests" in stats
        }
        return {
            "status": "draining" if self.http.draining else "ok",
            "role": "router",
            "uptime_seconds": time.monotonic() - self._started,
            "router": {
                "requests": self.request_counts(),
                "ring": self.ring.snapshot(),
                "tiers": self.tiers(),
                "inflight": dict(sorted(self._inflight.items())),
                "max_inflight_per_replica": self.max_inflight_per_replica,
                "latency": self.latency.snapshot(),
                "observe": self._observe_section(),
            },
            "supervisor": (
                self.supervisor.snapshot() if self.supervisor is not None else None
            ),
            "replicas": aggregated,
            "requests_by_replica": requests_by_replica,
        }

    async def _trace(self, query: str) -> dict:
        """Fleet-wide ``GET /trace``: fan out and merge by span identity.

        A request proxied through the router leaves spans on exactly one
        replica, but a trace tree can also span replicas (retried
        failovers), and replicas sharing a process (tests)
        share a buffer — so spans merge by ``(trace_id, span_id)``,
        first sighting wins, ordered by start time.  The same endpoint
        shape as a single replica's, so ``repro trace export`` works
        unchanged against a cluster.
        """
        params = parse_qs(query)
        trace_id = valid_trace_id((params.get("trace_id") or [None])[0])
        try:
            limit = int((params.get("limit") or ["0"])[0])
        except ValueError:
            limit = 0
        names = self.ring.nodes
        path = "/trace" + (f"?trace_id={trace_id}" if trace_id else "")
        fetched = await asyncio.gather(
            *(self._fetch_replica_json(name, path) for name in names)
        )
        merged: dict[tuple, dict] = {}
        replicas: dict[str, dict] = {}
        for name, payload in zip(names, fetched):
            if "error" in payload and "spans" not in payload:
                replicas[name] = payload
                continue
            spans = payload.get("spans") or []
            replicas[name] = {"count": len(spans)}
            for span in spans:
                if not isinstance(span, dict):
                    continue
                key = (span.get("trace_id"), span.get("span_id"))
                merged.setdefault(key, span)
        spans = sorted(
            merged.values(), key=lambda s: s.get("start_time") or 0.0
        )
        if limit > 0:
            spans = spans[-limit:]
        return {
            "trace_id": trace_id,
            "count": len(spans),
            "spans": spans,
            "replicas": replicas,
        }

    async def _fetch_replica_json(self, name: str, path: str) -> dict:
        address = self._addresses.get(name)
        if address is None:
            return {"error": "not routable"}
        try:
            status, payload, _ = await wire.request_json(
                address[0], address[1], "GET", path, timeout=5.0
            )
        except (OSError, asyncio.TimeoutError, ReplyError) as exc:
            return {"error": f"{type(exc).__name__}: {exc}"}
        if status != 200:
            return {"error": f"HTTP {status}"}
        return payload

    def _replicas_view(self) -> dict:
        if self.supervisor is not None:
            view = self.supervisor.snapshot()
        else:
            view = {"replicas": {}}
        view["routable"] = self.ring.nodes
        return view

    async def _replica_action(self, request: HTTPRequest, path: str) -> tuple:
        if self.supervisor is None:
            return 404, {"error": "no supervisor attached"}
        parts = path.strip("/").split("/")
        if len(parts) != 3 or parts[2] not in ("drain", "start"):
            return 404, {"error": f"no such endpoint: {path}"}
        if request.method != "POST":
            return 405, {"error": f"{parts[2]} is POST-only"}
        _, replica_id, action = parts
        try:
            if action == "drain":
                snapshot = await self.supervisor.drain_replica(replica_id)
            else:
                snapshot = await self.supervisor.start_replica(replica_id)
        except KeyError:
            return 404, {"error": f"no such replica: {replica_id}"}
        return 200, {"action": action, "replica": snapshot}

    async def _result(self, key: str) -> tuple:
        if not key or len(key) > 128 or not set(key) <= _HEX:
            return 400, {"error": f"malformed result key: {key[:80]!r}"}
        result, tier = self._lookup(key)
        if result is None:
            return 404, {"error": "result not cached", "key": key}
        return 200, {"key": key, "cached": True, "tier": tier, "result": result}

    # -- the hot path ---------------------------------------------------
    async def _simulate(self, request: HTTPRequest) -> tuple:
        start = time.perf_counter()
        reply = await self._simulate_inner(request, start)
        status = reply[0]
        (
            self._by_status.get(status)
            or self._requests_total.labels(status=status)
        ).inc()
        self._request_seconds.observe(time.perf_counter() - start)
        return reply

    async def _simulate_inner(self, request: HTTPRequest, start: float) -> tuple:
        if self.http.draining:
            return 503, {"error": "cluster is draining"}, self._retry_after()
        try:
            body = request.json()
            job = parse_simulation_request(body)
        except (HTTPError, ProtocolError) as exc:
            self._bad_request.inc()
            return 400, {"error": str(exc)}
        key = job.key

        result, tier = self._lookup(key, "simulate")
        if result is not None:
            latency = time.perf_counter() - start
            self.latency.add(latency)
            return 200, {
                "key": key,
                "cached": True,
                "tier": tier,
                "joined": False,
                "seconds": 0.0,
                "latency_seconds": latency,
                "result": result,
            }

        candidates = self.ring.preference(key, 1 + self.proxy_retries)
        if not candidates:
            self._no_replica.inc()
            return 503, {"error": "no routable replica"}, self._retry_after()

        forward_headers = {}
        deadline = request.headers.get(DEADLINE_HEADER)
        if deadline:
            forward_headers["X-Repro-Deadline"] = deadline
        trace_id = request.headers.get(TRACE_HEADER)
        if trace_id:
            forward_headers["X-Repro-Trace-Id"] = trace_id

        failures: list[str] = []
        for attempt, name in enumerate(candidates):
            address = self._addresses.get(name)
            if address is None:
                continue  # raced a concurrent removal; next candidate
            if self._inflight.get(name, 0) >= self.max_inflight_per_replica:
                # The owner is saturated: shed with backpressure rather
                # than spill the job to a replica whose caches are cold.
                self._shed.inc()
                return 429, {
                    "error": f"replica {name} is saturated, request shed",
                    "replica": name,
                    "max_inflight": self.max_inflight_per_replica,
                }, self._retry_after()
            if attempt > 0:
                self._failovers_total.labels(replica=name).inc()
            self._inflight[name] = self._inflight.get(name, 0) + 1
            try:
                status, payload, _headers = await wire.request_json(
                    address[0], address[1], "POST", "/simulate",
                    body=job.as_dict(),
                    headers=forward_headers,
                    timeout=self.proxy_timeout,
                )
            except (OSError, asyncio.TimeoutError, ReplyError) as exc:
                failures.append(f"{name}: {type(exc).__name__}: {exc}")
                self._proxy_error.inc()
                continue
            finally:
                self._inflight[name] = max(0, self._inflight.get(name, 1) - 1)
                self._note_idle()
            self._routed_total.labels(replica=name).inc()
            if isinstance(payload, dict):
                payload.setdefault("replica", name)
            if status == 200:
                latency = time.perf_counter() - start
                self.latency.add(latency)
                payload["latency_seconds"] = latency
                return 200, payload
            if status in (429, 503):
                # The replica's own admission shed it; relay the
                # backpressure (with our hint) instead of stampeding
                # a cache-cold neighbour.
                self._shed.inc()
                return status, payload, self._retry_after()
            self._error.inc()
            return status, payload
        self._unanswered.inc()
        return 503, {
            "error": "no replica answered",
            "attempts": failures,
        }, self._retry_after()

    def _retry_after(self) -> dict:
        return {"Retry-After": f"{self.retry_after_hint:.3f}"}

    def _observe_section(self) -> dict | None:
        if self.observe is None:
            return None
        section = self.observe.snapshot()
        section["relays"] = sorted(self._relays)
        section["relay_events"] = int(self._relayed.get())
        section["relay_reconnects"] = int(self._relay_reconnects.get())
        return section

    # -- lifecycle (ServerThread-compatible) -----------------------------
    def observe_startup(self) -> None:
        """Attach the fleet observe sinks on the router loop."""
        if self.observe is not None:
            self.observe.startup(
                asyncio.get_running_loop(), stats_fn=self._observe_stats
            )
            # Replicas that came up before the loop (or before observe
            # was attached) still need their relays.
            for name, (host, port) in list(self._addresses.items()):
                if name not in self._relays:
                    self._start_relay(name, host, port)

    async def observe_shutdown(self) -> None:
        if self.observe is None:
            return
        for task in self._relays.values():
            task.cancel()
        for task in list(self._relays.values()):
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        self._relays.clear()
        await self.observe.shutdown()

    def _observe_stats(self) -> dict:
        return {
            "admission": {
                "in_flight": sum(self._inflight.values()),
                "max_pending": self.max_inflight_per_replica
                * max(1, len(self._addresses)),
                "shed": int(self._shed.get()),
            },
            "batcher": {},
            "latency": self.latency.snapshot(),
            "replicas_up": len(self.ring.nodes),
        }

    def _note_idle(self) -> None:
        if self._idle is not None and sum(self._inflight.values()) == 0:
            self._idle.set()

    def begin_drain(self) -> None:
        self.http.begin_drain()

    async def drain(self, timeout: float | None = None) -> bool:
        """Wait for in-flight proxied requests to complete."""
        if sum(self._inflight.values()) == 0:
            return True
        self._idle = asyncio.Event()
        if sum(self._inflight.values()) == 0:
            return True
        try:
            await asyncio.wait_for(self._idle.wait(), timeout)
        except asyncio.TimeoutError:
            return False
        return True


async def cluster_forever(
    router: ClusterRouter,
    supervisor: ReplicaSupervisor,
    host: str = "127.0.0.1",
    port: int = 8765,
    *,
    drain_timeout: float = 30.0,
    install_signals: bool = True,
    ready: "asyncio.Event | None" = None,
) -> int:
    """Boot the fleet, serve until SIGTERM/SIGINT, drain, exit 0.

    Replicas launch first (the router only listens once all are up), and
    teardown runs in the reverse order: stop admitting, finish in-flight
    proxies, then SIGTERM-drain every replica.
    """
    router.attach_supervisor(supervisor)
    router.observe_startup()
    await supervisor.start(wait_ready=True)
    server = await asyncio.start_server(router.handle, host, port)
    bound_host, bound_port = server.sockets[0].getsockname()[:2]
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    if install_signals:
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):
                pass  # non-main thread or platform without signal support
    print(
        f"repro-cluster: {len(router.routable)} replica(s) up, "
        f"listening on {bound_host}:{bound_port}",
        flush=True,
    )
    if ready is not None:
        ready.set()
    await stop.wait()
    print("repro-cluster: draining", flush=True)
    router.begin_drain()
    server.close()
    await server.wait_closed()
    clean = await router.drain(timeout=drain_timeout)
    await router.observe_shutdown()
    await supervisor.stop(drain_timeout=drain_timeout)
    print(
        "repro-cluster: drained, exiting"
        if clean
        else "repro-cluster: drain timed out, exiting",
        flush=True,
    )
    return 0 if clean else 1

