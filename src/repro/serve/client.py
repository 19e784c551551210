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

The default transport keeps one ``TCP_NODELAY`` socket per calling
thread (``Connection: keep-alive``), so a closed loop of requests pays
the TCP connect once.  Threads that share a client each get their own
socket.  A request goes out as one ``sendall`` of head and body
(``serve.http.render_request``).  The reply head is read up to its
blank line and parsed by ``serve.http.parse_reply_head``, the parser
the router's peer hop uses too; then exactly ``Content-Length`` body
bytes are read, each socket read bounded by the attempt's timeout.  No
size cap applies beyond the head's 64 KiB: the largest reply (a full
``/trace`` buffer, ~16 MB at 65,536 spans) grows with ``repro serve
--trace-buffer``, and the body buffer grows only with bytes received.

A reply that cannot be framed (bad status line, header line or
``Content-Length``, an over-long head, bytes past the body, or EOF
mid-reply) raises :class:`~repro.serve.http.ReplyError`; like a socket
error it counts as a failed attempt, and the socket is closed, so the
next request dials afresh and never reads stale bytes.  The socket is
also closed after a ``Connection: close`` reply.  When a *reused*
socket fails before the reply's first byte (the server closed it while
idle, e.g. on drain), the transport dials again and resends once; that
resend is not a retry attempt, so ``retries=0`` never turns a stale
socket into a failed request.  A ``/simulate`` POST is
content-addressed, so sending it twice is safe.
"""

from __future__ import annotations

import json
import math
import random
import socket
import threading
import time
from typing import Callable

from ..runtime.jobs import SimJob
from .http import (
    MAX_REPLY_HEAD_BYTES,
    ReplyError,
    decode_reply_body,
    parse_reply_head,
    render_request,
)

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


def _exchange(sock: socket.socket, request: bytes) -> tuple[int, dict, bytes]:
    """Send one request and read its reply: ``(status, headers, body)``.

    A server that closes the socket before the reply's first byte raises
    ``ConnectionResetError`` (the resend case); a reply cut or malformed
    after that raises :class:`ReplyError`.
    """
    sock.sendall(request)
    data = b""
    while (end := data.find(b"\r\n\r\n")) < 0 and len(data) <= MAX_REPLY_HEAD_BYTES:
        chunk = sock.recv(65536)
        if not chunk:
            if data:
                raise ReplyError("connection closed mid-head")
            raise ConnectionResetError("server closed the connection unanswered")
        data += chunk
    if not 0 <= end <= MAX_REPLY_HEAD_BYTES:
        raise ReplyError("reply head exceeds the size limit")
    status, headers, length = parse_reply_head(data[:end])
    body = data[end + 4 :]
    if len(body) > length:
        raise ReplyError("bytes past the reply's Content-Length")
    chunks = [body]
    received = len(body)
    while received < length:
        chunk = sock.recv(min(length - received, 1 << 20))
        if not chunk:
            raise ReplyError("connection closed mid-body")
        chunks.append(chunk)
        received += len(chunk)
    return status, headers, b"".join(chunks)


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
    ) -> tuple[int, dict, dict]:
        headers["Connection"] = "keep-alive"
        request = render_request(
            method, path, headers, body, host=f"{self.host}:{self.port}"
        )
        sock = getattr(self._local, "sock", None)
        try:
            if sock is None:
                status, response_headers, raw = _exchange(
                    self._dial(timeout), request
                )
            else:
                sock.settimeout(timeout)
                try:
                    status, response_headers, raw = _exchange(sock, request)
                except (ConnectionResetError, BrokenPipeError):
                    # The server closed the idle socket (e.g. on drain).
                    sock.close()
                    status, response_headers, raw = _exchange(
                        self._dial(timeout), request
                    )
        except BaseException:
            self.close()
            raise
        if response_headers.get("connection", "").lower() == "close":
            self.close()
        try:
            payload = decode_reply_body(response_headers, raw)
        except ReplyError as exc:
            payload = {"error": str(exc)}
        return status, payload, response_headers

    def _dial(self, timeout: float) -> socket.socket:
        sock = socket.create_connection((self.host, self.port), timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._local.sock = sock
        return sock

    def close(self) -> None:
        """Close the calling thread's persistent connection, if any."""
        sock = getattr(self._local, "sock", None)
        if sock is not None:
            sock.close()
            self._local.sock = None

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
            except (OSError, ReplyError) as exc:
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
