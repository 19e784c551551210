"""Async one-shot HTTP client for talking to replicas.

The replicas speak the deliberately tiny ``repro.serve`` dialect (one
JSON request, one JSON response), so the router-side client is equally
tiny: open a connection, write one ``Connection: close`` request, read
the response, close.  The replicas would keep the connection open if
asked for keep-alive; this hop does not ask.  Keep-alive paid for
itself on the client-facing hop, where a warm hit was mostly connection
setup, but no workload measures the router-to-replica hop (a proxied
request has already missed the replicas' shards, so it is usually a
simulation that dwarfs the connect), and one connection per request
keeps error handling exact: every failure is an :class:`OSError`,
:class:`asyncio.TimeoutError`, or :class:`PeerProtocolError`.
"""

from __future__ import annotations

import asyncio
import json

__all__ = ["PeerProtocolError", "request_json"]

#: Upper bound on a peer response body (a simulation result dict is a
#: few KiB; /stats aggregations stay well under this).
MAX_RESPONSE_BYTES = 8 << 20


class PeerProtocolError(Exception):
    """A peer response the wire layer could not parse."""


async def _read_response(
    reader: asyncio.StreamReader,
) -> tuple[int, dict, dict]:
    status_line = await reader.readline()
    if not status_line:
        raise PeerProtocolError("peer closed before sending a status line")
    parts = status_line.decode("latin-1").split(None, 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
        raise PeerProtocolError(f"malformed status line: {status_line!r}")
    try:
        status = int(parts[1])
    except ValueError:
        raise PeerProtocolError(f"malformed status code: {parts[1]!r}") from None

    headers: dict[str, str] = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n"):
            break
        if not raw:
            raise PeerProtocolError("peer closed mid-headers")
        name, sep, value = raw.decode("latin-1").partition(":")
        if not sep:
            raise PeerProtocolError(f"malformed header line: {raw!r}")
        headers[name.strip().lower()] = value.strip()

    length_text = headers.get("content-length", "0") or "0"
    try:
        length = int(length_text)
    except ValueError:
        raise PeerProtocolError(f"bad Content-Length: {length_text!r}") from None
    if length < 0 or length > MAX_RESPONSE_BYTES:
        raise PeerProtocolError(f"Content-Length out of range: {length}")
    body = await reader.readexactly(length) if length else b""

    content_type = headers.get("content-type", "").lower()
    if content_type.startswith("text/plain"):
        return status, {"text": body.decode("utf-8", "replace")}, headers
    try:
        payload = json.loads(body) if body else {}
    except json.JSONDecodeError:
        raise PeerProtocolError(
            f"undecodable response body: {body[:200]!r}"
        ) from None
    if not isinstance(payload, dict):
        payload = {"value": payload}
    return status, payload, headers


async def request_json(
    host: str,
    port: int,
    method: str,
    path: str,
    *,
    body: dict | None = None,
    headers: dict | None = None,
    timeout: float = 30.0,
) -> tuple[int, dict, dict]:
    """One request to a peer; returns ``(status, payload, headers)``.

    Raises :class:`OSError` on transport failure,
    :class:`asyncio.TimeoutError` when ``timeout`` expires, and
    :class:`PeerProtocolError` on an unparseable response — the router
    treats all three as "this replica did not answer".
    """

    async def _exchange() -> tuple[int, dict, dict]:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            encoded = b""
            lines = [f"{method} {path} HTTP/1.1", f"Host: {host}:{port}"]
            if body is not None:
                encoded = json.dumps(body).encode()
                lines.append("Content-Type: application/json")
            lines.append(f"Content-Length: {len(encoded)}")
            lines.append("Connection: close")
            for name, value in (headers or {}).items():
                lines.append(f"{name}: {value}")
            writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
            writer.write(encoded)
            await writer.drain()
            return await _read_response(reader)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    try:
        return await asyncio.wait_for(_exchange(), timeout)
    except asyncio.IncompleteReadError as exc:
        raise PeerProtocolError("peer closed mid-response") from exc
