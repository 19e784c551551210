"""Resilient synchronous client for the simulation service.

Retries are opt-out, not opt-in: transport failures and explicit
backpressure (429 shed, 503 draining) retry with capped exponential
backoff plus jitter, while deterministic failures (400 bad request,
500 simulation error) surface immediately — retrying a job that will
fail identically only adds load.  When the server (or the cluster
router) sends a ``Retry-After`` header with the shed, the client obeys
it verbatim instead of guessing with computed backoff — the server
knows its own queue.  A ``deadline`` bounds the *total* budget across
attempts and propagates to the server in the ``X-Repro-Deadline``
header so it can abandon work the client already gave up on; a
``Retry-After`` longer than the remaining budget is capped to it.

The default transport keeps one persistent connection per calling
thread (``Connection: keep-alive``), so a closed loop of requests pays
the TCP connect once.  Threads that share a client each get their own
connection.  When a *reused* connection fails before the reply's status
line (the server closed it while idle, e.g. on drain), the transport
dials again and resends once; that resend is not a retry attempt, so
``retries=0`` never turns a stale socket into a failed request.  A
``/simulate`` POST is content-addressed, so sending it twice is safe.
"""

from __future__ import annotations

import http.client
import json
import math
import random
import threading
import time
from typing import Callable

from ..runtime.jobs import SimJob

__all__ = [
    "ServeError",
    "RequestFailed",
    "DeadlineExceeded",
    "ServiceUnavailable",
    "ServeClient",
]

#: Statuses that signal transient backpressure worth retrying.
RETRYABLE_STATUSES = frozenset({429, 503})


def _parse_retry_after(headers: dict) -> float | None:
    """Seconds from a ``Retry-After`` header, ``None`` if absent/bad.

    Only the delta-seconds form is produced by this stack; an HTTP-date
    (or any other unparseable value) falls back to computed backoff
    rather than being misread as a huge delay.
    """
    value = headers.get("retry-after") if headers else None
    if value is None:
        return None
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return None
    if seconds < 0:
        return None
    return seconds


class ServeError(Exception):
    """Base class for client-side failures."""


class RequestFailed(ServeError):
    """The server answered with a non-retryable error status."""

    def __init__(self, status: int, payload: dict) -> None:
        super().__init__(f"HTTP {status}: {payload.get('error', payload)}")
        self.status = status
        self.payload = payload


class DeadlineExceeded(ServeError):
    """The total deadline budget ran out before a success."""


class ServiceUnavailable(ServeError):
    """Retries exhausted against transient failures."""


#: Transport signature: (method, path, body, headers, timeout) →
#: (status, payload) or (status, payload, response_headers).  Injectable
#: so tests script failure sequences without a socket; the two-tuple
#: form stays accepted for existing fakes.
Transport = Callable[[str, str, bytes | None, dict, float], tuple]


class ServeClient:
    """Thin blocking client with retries, backoff + jitter, deadlines."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8765,
        *,
        retries: int = 4,
        backoff: float = 0.05,
        backoff_cap: float = 2.0,
        jitter: float = 0.25,
        timeout: float = 30.0,
        transport: Transport | None = None,
        sleep: Callable[[float], None] = time.sleep,
        rng: random.Random | None = None,
    ) -> None:
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.host = host
        self.port = port
        self.retries = retries
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self.jitter = jitter
        self.timeout = timeout
        self._transport = transport or self._http_transport
        self._local = threading.local()
        self._sleep = sleep
        self._rng = rng or random.Random()

    # -- transport ------------------------------------------------------
    def _http_transport(
        self,
        method: str,
        path: str,
        body: bytes | None,
        headers: dict,
        timeout: float,
    ) -> tuple[int, dict]:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(self.host, self.port)
            self._local.conn = conn
        reused = conn.sock is not None
        conn.timeout = timeout
        if reused:
            conn.sock.settimeout(timeout)
        headers["Connection"] = "keep-alive"
        try:
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
            except (ConnectionResetError, BrokenPipeError):
                # RemoteDisconnected is a ConnectionResetError.
                if not reused:
                    raise
                conn.close()
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
            raw = response.read()
        except BaseException:
            conn.close()
            raise
        response_headers = {
            name.lower(): value for name, value in response.getheaders()
        }
        content_type = (response.getheader("Content-Type") or "").lower()
        if content_type.startswith("text/plain"):
            # Plaintext endpoints (/metrics): carry the body verbatim.
            return (
                response.status,
                {"text": raw.decode("utf-8", "replace")},
                response_headers,
            )
        try:
            payload = json.loads(raw) if raw else {}
        except json.JSONDecodeError:
            payload = {"error": f"undecodable response body: {raw[:200]!r}"}
        if not isinstance(payload, dict):
            payload = {"value": payload}
        return response.status, payload, response_headers

    def close(self) -> None:
        """Close the calling thread's persistent connection, if any."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()

    # -- core retry loop ------------------------------------------------
    def call(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        *,
        deadline: float | None = None,
        headers: dict | None = None,
    ) -> tuple[int, dict]:
        """One logical request with retries; returns (status, payload)."""
        encoded = None
        headers = dict(headers) if headers else {}
        if body is not None:
            encoded = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        start = time.monotonic()
        attempt = 0
        last_failure = "no attempt made"
        while True:
            remaining = math.inf
            if deadline is not None:
                remaining = deadline - (time.monotonic() - start)
                if remaining <= 0:
                    raise DeadlineExceeded(
                        f"deadline of {deadline:g}s exhausted after "
                        f"{attempt} attempt(s); last failure: {last_failure}"
                    )
                headers["X-Repro-Deadline"] = f"{remaining:.3f}"
            attempt_timeout = min(self.timeout, remaining)
            retry_after: float | None = None
            try:
                reply = self._transport(
                    method, path, encoded, dict(headers), attempt_timeout
                )
            except (OSError, http.client.HTTPException) as exc:
                last_failure = f"{type(exc).__name__}: {exc}"
            else:
                status, payload = reply[0], reply[1]
                if status not in RETRYABLE_STATUSES:
                    return status, payload
                if len(reply) > 2:
                    retry_after = _parse_retry_after(reply[2])
                last_failure = f"HTTP {status}: {payload.get('error', '')}"
            attempt += 1
            if attempt > self.retries:
                raise ServiceUnavailable(
                    f"gave up after {attempt} attempt(s); "
                    f"last failure: {last_failure}"
                )
            if retry_after is not None:
                # The server said exactly when to come back; obey it
                # (capped below at the remaining deadline budget).
                delay = retry_after
            else:
                delay = min(self.backoff_cap, self.backoff * 2 ** (attempt - 1))
                delay *= 1.0 + self.jitter * self._rng.random()
            if deadline is not None:
                budget = deadline - (time.monotonic() - start)
                if budget <= 0:
                    raise DeadlineExceeded(
                        f"deadline of {deadline:g}s exhausted after "
                        f"{attempt} attempt(s); last failure: {last_failure}"
                    )
                delay = min(delay, budget)
            self._sleep(delay)

    # -- endpoints ------------------------------------------------------
    def simulate(
        self,
        request: dict | SimJob,
        *,
        deadline: float | None = None,
        trace_id: str | None = None,
    ) -> dict:
        """Run one simulation request; returns the response payload.

        ``trace_id`` (hex, ≤32 chars) is sent in ``X-Repro-Trace-Id`` so
        the server adopts it for the request's trace; the server-chosen
        id comes back in the payload's ``trace_id`` field either way.
        """
        body = request.as_dict() if isinstance(request, SimJob) else dict(request)
        headers = {"X-Repro-Trace-Id": trace_id} if trace_id else None
        status, payload = self.call(
            "POST", "/simulate", body, deadline=deadline, headers=headers
        )
        if status != 200:
            raise RequestFailed(status, payload)
        return payload

    def healthz(self) -> dict:
        status, payload = self.call("GET", "/healthz")
        if status != 200:
            raise RequestFailed(status, payload)
        return payload

    def stats(self) -> dict:
        status, payload = self.call("GET", "/stats")
        if status != 200:
            raise RequestFailed(status, payload)
        return payload

    def metrics(self) -> str:
        """The Prometheus text exposition from ``/metrics``."""
        status, payload = self.call("GET", "/metrics")
        if status != 200:
            raise RequestFailed(status, payload)
        return payload.get("text", "")

    def dse_start(self, spec: dict, *, deadline: float | None = None) -> dict:
        """Submit a search to ``POST /dse``; returns the accept payload
        (``search_id`` + poll path).  Raises on 400/429."""
        status, payload = self.call("POST", "/dse", dict(spec), deadline=deadline)
        if status != 202:
            raise RequestFailed(status, payload)
        return payload

    def dse_poll(self, search_id: str, *, deadline: float | None = None) -> dict:
        """Poll ``GET /dse/<id>`` for search progress."""
        status, payload = self.call(
            "GET", f"/dse/{search_id}", deadline=deadline
        )
        if status != 200:
            raise RequestFailed(status, payload)
        return payload

    def dse_wait(
        self,
        search_id: str,
        *,
        timeout: float = 60.0,
        interval: float = 0.2,
    ) -> dict:
        """Poll until the search leaves the running state (or timeout)."""
        deadline = time.monotonic() + timeout
        while True:
            payload = self.dse_poll(search_id)
            if payload.get("state") not in ("pending", "running"):
                return payload
            if time.monotonic() >= deadline:
                raise DeadlineExceeded(
                    f"search {search_id} still running after {timeout:g}s"
                )
            time.sleep(interval)

    def trace(self, trace_id: str | None = None, *, limit: int = 0) -> dict:
        """Buffered spans from ``/trace``, optionally one trace only."""
        params = []
        if trace_id:
            params.append(f"trace_id={trace_id}")
        if limit:
            params.append(f"limit={limit}")
        path = "/trace" + ("?" + "&".join(params) if params else "")
        status, payload = self.call("GET", path)
        if status != 200:
            raise RequestFailed(status, payload)
        return payload
