"""The simulation service: asyncio HTTP front end over the job runtime.

Request path::

    client ──HTTP──► admission (bounded, sheds 429)
                        │
                        ▼
                 protocol.parse  (canonical SimJob, 400 on bad input)
                        │
                        ▼
                 JobBatcher.submit
                   1. single-flight join  (job already in flight)
                   2. ResultCache probe   (hit → answered now, no window)
                   3. micro-batch window  (misses only)
                        │
                        ▼
                 run_jobs on a worker thread (simulate, store)

Endpoints: ``POST /simulate``, ``GET /healthz``, ``GET /stats``,
``GET /metrics`` (Prometheus text), ``GET /trace`` (buffered spans),
``GET /result/<key>`` (cache-only lookup by job key).
Connections go through the shared :class:`~repro.serve.http.ConnectionLoop`:
one reply per request, and the connection stays open for the next
request only when the request sent ``Connection: keep-alive``.
Lifecycle: SIGTERM/SIGINT stop the listener, close idle kept-alive
connections, finish in-flight work (bounded by ``drain_timeout``, each
reply sent with ``Connection: close``), then exit 0.

Each service counts into its own ``MetricsRegistry``, which ``/stats``
reads and ``/metrics`` renders after the process-global one.

When run as a cluster replica (``repro serve --replica-id N``) the
service reports its identity in ``/healthz``/``/stats`` and as a
``repro_replica_info{replica="N"}`` gauge so the router's aggregated
telemetry can attribute every series to a shard.
"""

from __future__ import annotations

import asyncio
import itertools
import signal
import threading
import time
from collections import deque
from urllib.parse import parse_qs

from ..dse.service import DSEManager
from ..observe.events import HUB
from ..observe.service import ui_asset
from ..runtime.cache import ResultCache
from ..runtime.jobs import SimJob
from ..telemetry import METRICS, TRACER
from ..telemetry.metrics import MetricsRegistry, event_children
from ..telemetry.trace import valid_trace_id
from .admission import AdmissionController
from .batcher import JobBatcher
from .http import ConnectionLoop, HTTPError, HTTPRequest, RawResponse
from .protocol import ProtocolError, encode_outcome, parse_simulation_request

__all__ = ["LatencyWindow", "SimulationService", "ServerThread", "serve_forever"]

#: Header carrying the client's remaining deadline budget (seconds); the
#: server caps its per-request timeout to it so work the client already
#: gave up on is cancelled instead of computed.
DEADLINE_HEADER = "x-repro-deadline"
#: Request/response header carrying the trace id: clients may supply one
#: (hex, ≤32 chars) to adopt; the server always echoes the request's
#: trace id back so the client can fetch its tree from ``/trace``.
TRACE_HEADER = "x-repro-trace-id"
#: The statuses ``/simulate`` answers with, resolved when a service is built.
SIMULATE_STATUSES = (200, 400, 429, 500, 503, 504)


def _nearest_rank(ordered: list[float], q: float) -> float | None:
    if not ordered:
        return None
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[rank]


class LatencyWindow:
    """Sliding window of request latencies with percentile readout.

    Thread-safe: ``add`` runs on the event loop but ``snapshot`` may be
    called from any thread (benches, tests), and a torn read of
    ``(samples, count)`` would report more samples than the window has
    seen.  One lock, one consistent copy per readout.
    """

    def __init__(self, size: int = 512) -> None:
        self._samples: deque[float] = deque(maxlen=size)
        self._lock = threading.Lock()
        self.count = 0

    def add(self, seconds: float) -> None:
        with self._lock:
            self._samples.append(seconds)
            self.count += 1

    def percentile(self, q: float) -> float | None:
        """Nearest-rank percentile over the window, ``None`` when empty."""
        with self._lock:
            ordered = sorted(self._samples)
        return _nearest_rank(ordered, q)

    def snapshot(self) -> dict:
        with self._lock:
            window = list(self._samples)
            count = self.count
        ordered = sorted(window)
        return {
            "count": count,
            "window": len(window),
            "mean_seconds": sum(window) / len(window) if window else None,
            "p50_seconds": _nearest_rank(ordered, 0.50),
            "p95_seconds": _nearest_rank(ordered, 0.95),
        }


class SimulationService:
    """Routes, metrics, and lifecycle for one service instance."""

    def __init__(
        self,
        *,
        cache: ResultCache | None = None,
        queue_depth: int = 64,
        batch_window: float = 0.005,
        max_batch: int = 16,
        request_timeout: float | None = None,
        runner=None,
        replica_id: str | None = None,
        retry_after_hint: float = 0.1,
        tile_cache: ResultCache | None = None,
        dse_artifact_dir=None,
        max_dse_searches: int = 2,
        observe=None,
    ) -> None:
        self.cache = cache
        self.tile_cache = tile_cache
        #: Optional :class:`repro.observe.ObserveState`; when set, the
        #: service mounts ``GET /observe`` (WebSocket) + ``/observer``
        #: (dashboard) and publishes lifecycle events into its hub.
        self.observe = observe
        # Async design-space searches share this replica's result cache:
        # a search warms the serving path and vice versa.  Searches run
        # serially on their own daemon threads, never on the batch thread.
        self.dse = DSEManager(
            cache=cache,
            artifact_dir=dse_artifact_dir,
            max_active=max_dse_searches,
            replica_id=replica_id or "0",
        )
        self.request_timeout = request_timeout
        self.replica_id = replica_id
        self.retry_after_hint = retry_after_hint
        self.metrics = MetricsRegistry()
        self.events = self.metrics.counter(
            "repro_serve_events_total",
            help="Service events a response status does not decide",
            labelnames=("event",),
        )
        self._requests_total = self.metrics.counter(
            "repro_requests_total",
            help="Simulation requests by response status",
            labelnames=("status",),
        )
        self._by_status = {
            status: self._requests_total.labels(status=status)
            for status in SIMULATE_STATUSES
        }
        self._request_seconds = self.metrics.histogram(
            "repro_request_seconds",
            help="End-to-end /simulate latency as observed by the server",
        )
        # The connection loop counts bad framing and handler errors into
        # the same children; /simulate's 400s and 500s count by status.
        self._bad_request, self._error, self._reused, self._recomputed = (
            event_children(
                self.events, "bad_request", "error", "tile_reused",
                "tile_recomputed",
            )
        )
        if replica_id is not None:
            self.metrics.gauge(
                "repro_replica_info",
                help="Identity of this process as a cluster replica",
                labelnames=("replica",),
            ).labels(replica=replica_id).set(1)
        self.admission = AdmissionController(queue_depth, events=self.events)
        self.batcher = JobBatcher(
            cache=cache,
            batch_window=batch_window,
            max_batch=max_batch,
            runner=runner,
            events=self.events,
        )
        self.latency = LatencyWindow()
        self._request_ids = itertools.count(1)
        self.http = ConnectionLoop(
            self.dispatch,
            self.events,
            websocket=observe.broadcaster.handle_client if observe else None,
        )
        self._started = time.monotonic()

    # -- connection handling -------------------------------------------
    async def handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one connection through the shared :class:`ConnectionLoop`:
        one reply per request, kept open only for ``Connection: keep-alive``."""
        await self.http.handle(reader, writer)

    async def dispatch(self, request: HTTPRequest) -> tuple:
        """Route one request; returns ``(status, payload[, headers])``."""
        path, _, query = request.path.partition("?")
        if path == "/healthz":
            if request.method != "GET":
                return 405, {"error": "healthz is GET-only"}
            return 200, self._healthz()
        if path == "/stats":
            if request.method != "GET":
                return 405, {"error": "stats is GET-only"}
            return 200, self.stats()
        if path == "/metrics":
            if request.method != "GET":
                return 405, {"error": "metrics is GET-only"}
            return 200, METRICS.render_prometheus() + self.metrics.render_prometheus()
        if path == "/trace":
            if request.method != "GET":
                return 405, {"error": "trace is GET-only"}
            return self._trace(query)
        if path.startswith("/result/"):
            if request.method != "GET":
                return 405, {"error": "result is GET-only"}
            return self._result(path[len("/result/"):])
        if path == "/simulate":
            if request.method != "POST":
                return 405, {"error": "simulate is POST-only"}
            return await self._simulate(request)
        if path == "/dse":
            if request.method != "POST":
                return 405, {"error": "dse is POST-only"}
            return self._dse_start(request)
        if path.startswith("/dse/"):
            return self._dse_poll(request, path[len("/dse/"):])
        if path == "/observe":
            if self.observe is None:
                return 404, {"error": "observability is off (start with --observe)"}
            # Reaching dispatch means the loop saw no upgrade header.
            return 400, {"error": "GET /observe requires a websocket upgrade"}
        if path == "/observer" or path.startswith("/observer/"):
            if self.observe is None:
                return 404, {"error": "observability is off (start with --observe)"}
            return self._observer_asset(request, path)
        return 404, {"error": f"no such endpoint: {path}"}

    def _observer_asset(self, request: HTTPRequest, path: str) -> tuple:
        """Serve the static dashboard (whitelisted files only)."""
        if request.method != "GET":
            return 405, {"error": "observer is GET-only"}
        name = path[len("/observer"):].lstrip("/")
        asset = ui_asset(name)
        if asset is None:
            return 404, {"error": f"no such asset: {name}"}
        body, content_type = asset
        return 200, RawResponse(body, content_type)

    # -- endpoints ------------------------------------------------------
    def _healthz(self) -> dict:
        # ``inflight`` + ``uptime_seconds`` are the supervisor's health
        # contract: a *busy* replica answers with inflight > 0 and a
        # growing uptime, a *hung* one does not answer at all.
        payload = {
            "status": "draining" if self.admission.draining else "ok",
            "in_flight": self.admission.in_flight,
            "inflight": self.admission.in_flight,
            "uptime_seconds": time.monotonic() - self._started,
        }
        if self.replica_id is not None:
            payload["replica_id"] = self.replica_id
        return payload

    def _result(self, key: str) -> tuple[int, dict]:
        """Cache-only lookup by job content hash.

        Never computes: a miss is a 404, so a caller can probe for a
        warm result cheaply before asking for a real simulation.
        """
        if not key or len(key) > 128 or not all(
            c in "0123456789abcdef" for c in key
        ):
            return 400, {"error": f"malformed result key: {key[:80]!r}"}
        if self.cache is None:
            return 404, {"error": "no result cache configured", "key": key}
        result = self.cache.load(key)
        if result is None:
            return 404, {"error": "result not cached", "key": key}
        return 200, {"key": key, "cached": True, "result": result}

    def request_counts(self) -> dict[str, int]:
        """The ``requests`` section of ``/stats``, read from the children."""
        status = {code: int(c.get()) for code, c in self._by_status.items()}
        return {
            "requests": int(self._requests_total.total()),
            "completed": status[200],
            "errors": status[500] + int(self._error.get()),
            "timeouts": status[504],
            "bad_requests": status[400] + int(self._bad_request.get()),
        }

    def stats(self) -> dict:
        return {
            "status": "draining" if self.admission.draining else "ok",
            "replica_id": self.replica_id,
            "uptime_seconds": time.monotonic() - self._started,
            "requests": self.request_counts(),
            "admission": self.admission.snapshot(),
            "batcher": self.batcher.snapshot(),
            "cache": self.cache.stats.as_dict() if self.cache is not None else None,
            "tile_cache": self._tile_cache_stats(),
            "latency": self.latency.snapshot(),
            "telemetry": TRACER.snapshot(),
            "dse": self.dse.stats(),
            "observe": (
                self.observe.snapshot() if self.observe is not None else None
            ),
        }

    def _tile_cache_stats(self) -> dict | None:
        """Per-tile sub-key reuse section of ``/stats``.

        Combines the service-level reuse counters (summed from each
        response's exec meta) with the tile cache's own hit/miss and
        on-disk footprint, when one is configured.
        """
        payload: dict = {
            "tiles_reused": int(self._reused.get()),
            "tiles_recomputed": int(self._recomputed.get()),
        }
        if self.tile_cache is None and not any(payload.values()):
            return None
        if self.tile_cache is not None:
            payload["stats"] = self.tile_cache.stats.as_dict()
            disk = self.tile_cache.disk_stats()
            payload["entries"] = disk["entries"]
            payload["bytes"] = disk["bytes"]
        return payload

    def _dse_start(self, request: HTTPRequest) -> tuple:
        """``POST /dse``: accept a budgeted async search, return its id.

        202 + a pollable ``/dse/<id>`` handle on success; 400 for a
        malformed or over-budget spec; 429 (with Retry-After) when the
        replica is already running its maximum concurrent searches.
        """
        try:
            body = request.json()
        except HTTPError as exc:
            self._bad_request.inc()
            return 400, {"error": str(exc)}
        try:
            accepted = self.dse.start(body)
        except ValueError as exc:
            self._bad_request.inc()
            return 400, {"error": str(exc)}
        except (KeyError, TypeError) as exc:
            self._bad_request.inc()
            return 400, {"error": f"bad search spec: {exc}"}
        except RuntimeError as exc:
            return 429, {"error": str(exc)}, {
                "Retry-After": f"{self.retry_after_hint:.3f}"
            }
        return 202, accepted

    def _dse_poll(self, request: HTTPRequest, rest: str) -> tuple:
        """``GET /dse/<id>`` progress polling, ``POST /dse/<id>/cancel``."""
        if rest.endswith("/cancel"):
            if request.method != "POST":
                return 405, {"error": "cancel is POST-only"}
            search_id = rest[: -len("/cancel")]
            if self.dse.cancel(search_id):
                return 202, {"search_id": search_id, "status": "cancelling"}
            return 404, {"error": f"no such search: {search_id}"}
        if request.method != "GET":
            return 405, {"error": "dse status is GET-only"}
        payload = self.dse.status(rest)
        if payload is None:
            return 404, {"error": f"no such search: {rest}"}
        return 200, payload

    def _trace(self, query: str) -> tuple:
        """Buffered spans, optionally filtered to one trace id."""
        params = parse_qs(query)
        trace_id = valid_trace_id((params.get("trace_id") or [None])[0])
        spans = TRACER.buffer.spans(trace_id=trace_id)
        try:
            limit = int((params.get("limit") or ["0"])[0])
        except ValueError:
            limit = 0
        if limit > 0:
            spans = spans[-limit:]
        payload = {
            "trace_id": trace_id,
            "count": len(spans),
            "spans": [span.to_dict() for span in spans],
        }
        return 200, payload, {"X-Repro-Trace-Id": trace_id} if trace_id else None

    async def _simulate(self, request: HTTPRequest) -> tuple:
        trace_id = valid_trace_id(request.headers.get(TRACE_HEADER))
        start = time.perf_counter()
        with TRACER.span(
            "http", {"method": request.method, "path": "/simulate"},
            trace_id=trace_id,
        ) as span:
            # The request id correlates the lifecycle events of one
            # request; the trace id doubles as it when tracing is on.
            rid = span.trace_id or f"r{next(self._request_ids)}"
            if HUB.enabled:
                HUB.emit(
                    "request.received",
                    {"rid": rid, "path": "/simulate", "replica": self.replica_id},
                )
            reply = await self._simulate_admitted(request, rid)
            status, payload = reply[0], reply[1]
            span.set(status=status)
        (
            self._by_status.get(status)
            or self._requests_total.labels(status=status)
        ).inc()
        self._request_seconds.observe(time.perf_counter() - start)
        if span.trace_id is not None:
            payload.setdefault("trace_id", span.trace_id)
            headers = dict(reply[2]) if len(reply) > 2 else {}
            headers.setdefault("X-Repro-Trace-Id", str(payload["trace_id"]))
            reply = status, payload, headers
        return reply

    async def _simulate_admitted(self, request: HTTPRequest, rid: str) -> tuple:
        with TRACER.span("admission") as adm:
            admitted = self.admission.try_acquire()
            adm.set(admitted=admitted, in_flight=self.admission.in_flight)
        if not admitted:
            status = 503 if self.admission.draining else 429
            if HUB.enabled:
                HUB.emit(
                    "request.shed",
                    {
                        "rid": rid,
                        "status": status,
                        "reason": "draining" if status == 503 else "queue_full",
                    },
                )
            # Retry-After tells the resilient client exactly how long to
            # back off instead of guessing with exponential delays.
            retry_after = {"Retry-After": f"{self.retry_after_hint:.3f}"}
            if status == 503:
                return 503, {"error": "service is draining"}, retry_after
            return 429, {
                "error": "queue full, request shed",
                "queue_depth": self.admission.max_pending,
            }, retry_after
        if HUB.enabled:
            HUB.emit(
                "request.admitted",
                {"rid": rid, "in_flight": self.admission.in_flight},
            )
        try:
            try:
                body = request.json()
                job = parse_simulation_request(body)
            except (HTTPError, ProtocolError) as exc:
                if HUB.enabled:
                    HUB.emit(
                        "request.rejected",
                        {"rid": rid, "status": 400, "error": str(exc)},
                    )
                return 400, {"error": str(exc)}
            return await self._run(job, self._effective_timeout(request), rid)
        finally:
            self.admission.release()

    def _effective_timeout(self, request: HTTPRequest) -> float | None:
        """Per-request budget: server default capped by the client header."""
        budgets = []
        if self.request_timeout is not None:
            budgets.append(self.request_timeout)
        header = request.headers.get(DEADLINE_HEADER)
        if header:
            try:
                budgets.append(max(0.0, float(header)))
            except ValueError:
                pass
        return min(budgets) if budgets else None

    async def _run(
        self, job: SimJob, timeout: float | None, rid: str = ""
    ) -> tuple[int, dict]:
        start = time.perf_counter()
        try:
            with TRACER.span("serve.request"):
                # Shield: a timeout abandons *this* request, never the
                # shared execution other single-flight waiters joined.
                outcome, joined = await asyncio.wait_for(
                    asyncio.shield(self.batcher.submit(job)), timeout
                )
        except asyncio.TimeoutError:
            if HUB.enabled:
                HUB.emit(
                    "request.timeout",
                    {"rid": rid, "timeout_seconds": timeout, "key": job.key},
                )
            return 504, {
                "error": f"request exceeded its {timeout:g}s budget",
                "key": job.key,
            }
        latency = time.perf_counter() - start
        self.latency.add(latency)
        if not outcome.ok:
            if HUB.enabled:
                HUB.emit(
                    "request.error",
                    {"rid": rid, "error": outcome.error, "key": outcome.key},
                )
            return 500, {"error": outcome.error, "key": outcome.key}
        if HUB.enabled:
            HUB.emit(
                "request.completed",
                {
                    "rid": rid,
                    "status": 200,
                    "latency_seconds": latency,
                    "cached": outcome.cached,
                    "joined": joined,
                    "key": outcome.key,
                },
            )
        if outcome.exec_meta is not None:
            self._reused.inc(outcome.exec_meta.get("tiles_reused", 0))
            self._recomputed.inc(outcome.exec_meta.get("tiles_recomputed", 0))
        return 200, encode_outcome(outcome, joined=joined, latency_seconds=latency)

    # -- lifecycle ------------------------------------------------------
    def observe_startup(self) -> None:
        """Attach the observe sinks on the serving loop (if configured)."""
        if self.observe is not None:
            self.observe.startup(
                asyncio.get_running_loop(), stats_fn=self._observe_stats
            )

    async def observe_shutdown(self) -> None:
        if self.observe is not None:
            await self.observe.shutdown()

    def _observe_stats(self) -> dict:
        """The ``stats.tick`` payload: gauge state, not cumulative dumps."""
        return {
            "admission": self.admission.snapshot(),
            "batcher": self.batcher.snapshot(),
            "latency": self.latency.snapshot(),
        }

    def begin_drain(self) -> None:
        self.admission.begin_drain()
        self.http.begin_drain()

    async def drain(self, timeout: float | None = None) -> bool:
        """Finish in-flight work; ``False`` if ``timeout`` expired first."""
        deadline = None if timeout is None else time.monotonic() + timeout
        remaining = timeout
        drained = await self.admission.wait_drained(remaining)
        if not drained:
            return False
        if deadline is not None:
            remaining = max(0.0, deadline - time.monotonic())
        try:
            await asyncio.wait_for(self.batcher.drain(), remaining)
        except asyncio.TimeoutError:
            return False
        return True


async def serve_forever(
    service: SimulationService,
    host: str = "127.0.0.1",
    port: int = 8765,
    *,
    drain_timeout: float = 30.0,
    install_signals: bool = True,
    ready: "asyncio.Event | None" = None,
) -> int:
    """Run the service until SIGTERM/SIGINT, drain, and return exit 0.

    Prints one ``listening on host:port`` line so wrappers (the CI
    smoke script, the e2e tests) can discover an ephemeral port.
    """
    server = await asyncio.start_server(service.handle, host, port)
    service.observe_startup()
    bound_host, bound_port = server.sockets[0].getsockname()[:2]
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    if install_signals:
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):
                pass  # non-main thread or platform without signal support
    print(f"repro-serve: listening on {bound_host}:{bound_port}", flush=True)
    if ready is not None:
        ready.set()
    await stop.wait()
    print("repro-serve: draining", flush=True)
    service.begin_drain()
    server.close()
    await server.wait_closed()
    clean = await service.drain(timeout=drain_timeout)
    await service.observe_shutdown()
    print(
        "repro-serve: drained, exiting"
        if clean
        else "repro-serve: drain timed out, exiting",
        flush=True,
    )
    return 0 if clean else 1


def unwind_tasks(loop: asyncio.AbstractEventLoop) -> None:
    """Cancel the tasks a hosted server left behind and let them finish,
    as ``asyncio.run`` does: a connection handler still waiting on its
    client closes its socket instead of being destroyed pending."""
    pending = asyncio.all_tasks(loop)
    for task in pending:
        task.cancel()
    if pending:
        loop.run_until_complete(asyncio.gather(*pending, return_exceptions=True))


class ServerThread:
    """Host a service on a background thread (tests and benches).

    The thread runs its own event loop; :meth:`start` blocks until the
    listener is bound and returns ``(host, port)``, :meth:`stop`
    triggers the same drain path SIGTERM takes and joins the thread.
    """

    def __init__(
        self,
        service: SimulationService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        drain_timeout: float = 30.0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.drain_timeout = drain_timeout
        self.address: tuple[str, int] | None = None
        self.exit_code: int | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._started = threading.Event()
        self._thread: threading.Thread | None = None

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)

        async def main() -> int:
            self._stop = asyncio.Event()
            server = await asyncio.start_server(
                self.service.handle, self.host, self.port
            )
            self.service.observe_startup()
            self.address = server.sockets[0].getsockname()[:2]
            self._started.set()
            await self._stop.wait()
            self.service.begin_drain()
            server.close()
            await server.wait_closed()
            clean = await self.service.drain(timeout=self.drain_timeout)
            await self.service.observe_shutdown()
            return 0 if clean else 1

        try:
            self.exit_code = self._loop.run_until_complete(main())
        finally:
            self._started.set()  # unblock start() even on a crash
            unwind_tasks(self._loop)
            self._loop.close()

    def start(self, timeout: float = 10.0) -> tuple[str, int]:
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError("server thread failed to start in time")
        if self.address is None:
            raise RuntimeError("server thread crashed during startup")
        return self.address

    def stop(self, timeout: float = 30.0) -> int | None:
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(timeout)
        return self.exit_code

    def __enter__(self) -> "ServerThread":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
