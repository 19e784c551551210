"""Minimal HTTP/1.1 on asyncio streams — just enough for the service.

The service speaks a deliberately tiny dialect (one JSON request, one
JSON response, no chunked encoding) so the whole wire layer stays
stdlib-only and auditable.  :class:`ConnectionLoop` is the one
connection loop the service and the cluster router share: it reads a
request, dispatches it and writes the reply on the same stream, and
keeps the connection open for the next request only when the request
asked for ``Connection: keep-alive``.  Any other request gets a
``Connection: close`` reply and an EOF.  Anything the parser does not
understand raises :class:`HTTPError`, which the loop maps to a 400.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Awaitable, Callable

__all__ = [
    "ConnectionLoop",
    "HTTPError",
    "HTTPRequest",
    "RawResponse",
    "read_request",
    "render_reply",
    "render_response",
    "STATUS_REASONS",
]

#: Upper bound on a request body; a simulation spec is a few hundred
#: bytes, so anything near this is hostile or broken.
MAX_BODY_BYTES = 1 << 20
MAX_HEADER_BYTES = 16 << 10

STATUS_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class HTTPError(ValueError):
    """A request the wire layer refuses to parse (maps to 400)."""


@dataclass
class HTTPRequest:
    """One parsed request: line, lower-cased headers, raw body."""

    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> dict:
        """Decode the body as a JSON object (:class:`HTTPError` if not)."""
        if not self.body:
            raise HTTPError("request body is empty (expected a JSON object)")
        try:
            data = json.loads(self.body)
        except json.JSONDecodeError as exc:
            raise HTTPError(f"request body is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise HTTPError("request body must be a JSON object")
        return data


async def _readline(reader: asyncio.StreamReader) -> bytes:
    """``readline`` with over-long lines mapped to :class:`HTTPError`.

    ``StreamReader.readline`` reports a line exceeding the stream limit
    as a bare ``ValueError`` (it swallows the ``LimitOverrunError``), so
    without this wrapper a hostile request line escapes the 400 path.
    """
    try:
        return await reader.readline()
    except asyncio.LimitOverrunError:
        raise HTTPError("line exceeds the size limit") from None
    except HTTPError:
        raise
    except ValueError:
        raise HTTPError("line exceeds the size limit") from None


async def read_request(reader: asyncio.StreamReader) -> HTTPRequest | None:
    """Parse one request off ``reader``; ``None`` on a clean EOF."""
    try:
        raw_line = await _readline(reader)
    except ConnectionError:
        return None
    if not raw_line:
        return None
    parts = raw_line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise HTTPError(f"malformed request line: {raw_line!r}")
    method, path, version = parts
    if not version.startswith("HTTP/1."):
        raise HTTPError(f"unsupported protocol version: {version}")

    headers: dict[str, str] = {}
    header_bytes = 0
    while True:
        raw = await _readline(reader)
        if raw in (b"\r\n", b"\n"):
            break
        if not raw:
            raise HTTPError("connection closed mid-headers")
        header_bytes += len(raw)
        if header_bytes > MAX_HEADER_BYTES:
            raise HTTPError("headers exceed the size limit")
        name, sep, value = raw.decode("latin-1").partition(":")
        if not sep:
            raise HTTPError(f"malformed header line: {raw!r}")
        headers[name.strip().lower()] = value.strip()

    length_text = headers.get("content-length", "0") or "0"
    try:
        length = int(length_text)
    except ValueError:
        raise HTTPError(f"bad Content-Length: {length_text!r}") from None
    if length < 0 or length > MAX_BODY_BYTES:
        raise HTTPError(f"Content-Length out of range: {length}")
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise HTTPError("connection closed mid-body") from None
    return HTTPRequest(method.upper(), path, headers, body)


@dataclass
class RawResponse:
    """A handler payload served byte-for-byte with its content type.

    The dispatch convention maps dict payloads to JSON and str payloads
    to plaintext; static assets (the observer dashboard) need neither,
    so handlers wrap them in this instead.
    """

    body: bytes
    content_type: str = "application/octet-stream"


def render_reply(reply: tuple, *, keep_alive: bool = False) -> bytes:
    """Render a handler's ``(status, payload[, headers])`` reply.

    A dict payload is JSON, a str payload plaintext (the Prometheus
    exposition) and a :class:`RawResponse` its own bytes; the headers go
    on every kind.
    """
    status, payload = reply[0], reply[1]
    if isinstance(payload, RawResponse):
        body, content_type = payload.body, payload.content_type
    elif isinstance(payload, str):
        body = payload.encode("utf-8")
        content_type = "text/plain; version=0.0.4; charset=utf-8"
    else:
        body = (json.dumps(payload) + "\n").encode()
        content_type = "application/json"
    lines = [
        f"HTTP/1.1 {status} {STATUS_REASONS.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: keep-alive" if keep_alive else "Connection: close",
    ]
    if len(reply) > 2 and reply[2]:
        lines.extend(f"{name}: {value}" for name, value in reply[2].items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def render_response(
    status: int, payload: dict, *, headers: dict[str, str] | None = None
) -> bytes:
    """One complete ``Connection: close`` JSON response as bytes."""
    return render_reply((status, payload, headers))


def _wants_keep_alive(request: HTTPRequest) -> bool:
    tokens = request.headers.get("connection", "").lower().split(",")
    return any(token.strip() == "keep-alive" for token in tokens)


class ConnectionLoop:
    """The connection loop of the service, the cluster router and the
    ``observe replay`` server.

    ``dispatch`` maps a request to ``(status, payload[, headers])``;
    ``counters`` is the owner's counter dict (``bad_requests`` counts
    400s for bad framing, ``errors`` handler exceptions); ``websocket``,
    when given, takes over the streams of a ``GET /observe`` upgrade.

    A connection that asked for keep-alive waits for its next request
    after each reply.  :meth:`begin_drain` closes the connections that
    are waiting so, and a connection with a request in flight answers
    it with ``Connection: close``: a server draining on SIGTERM never
    waits on an idle client.
    """

    def __init__(
        self,
        dispatch: Callable[[HTTPRequest], Awaitable[tuple]],
        counters: dict,
        *,
        websocket: Callable[..., Awaitable[None]] | None = None,
    ) -> None:
        self._dispatch = dispatch
        self._counters = counters
        self._websocket = websocket
        #: Kept-alive connections waiting for their next request, each
        #: with the loop it runs on (drain may start on another thread).
        self._idle: dict[asyncio.StreamWriter, asyncio.AbstractEventLoop] = {}
        self.draining = False

    def begin_drain(self) -> None:
        """Answer in-flight requests with ``close``; close idle connections."""
        self.draining = True
        for writer, loop in list(self._idle.items()):
            try:
                loop.call_soon_threadsafe(self._close_if_idle, writer)
            except RuntimeError:
                pass  # loop already closed

    def _close_if_idle(self, writer: asyncio.StreamWriter) -> None:
        if writer in self._idle:
            writer.close()

    async def handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve requests off one connection until either side closes it."""
        try:
            while await self._serve_one(reader, writer):
                self._idle[writer] = asyncio.get_running_loop()
                if self.draining:  # drain began during the reply
                    return
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._idle.pop(writer, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_one(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """Read, dispatch and answer one request; ``True`` to keep going."""
        try:
            request = await read_request(reader)
        except HTTPError as exc:
            if writer.is_closing():  # drain closed it mid-request
                return False
            self._counters["bad_requests"] += 1
            writer.write(render_response(400, {"error": str(exc)}))
            await writer.drain()
            return False
        finally:
            self._idle.pop(writer, None)
        if request is None or writer.is_closing():
            return False
        if (
            self._websocket is not None
            and request.path.partition("?")[0] == "/observe"
            and "websocket" in request.headers.get("upgrade", "").lower()
        ):
            # The upgrade leaves HTTP: the broadcaster owns the streams.
            await self._websocket(request, reader, writer)
            return False
        try:
            reply = await self._dispatch(request)
        except Exception as exc:  # noqa: BLE001 — a handler bug must
            # not kill the connection loop silently
            self._counters["errors"] += 1
            reply = 500, {"error": f"{type(exc).__name__}: {exc}"}
        keep_alive = not self.draining and _wants_keep_alive(request)
        writer.write(render_reply(reply, keep_alive=keep_alive))
        await writer.drain()
        return keep_alive
