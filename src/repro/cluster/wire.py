"""Async one-shot HTTP client for talking to replicas.

The replicas speak the deliberately tiny ``repro.serve`` dialect (one
JSON request, one JSON response), so the router-side client is equally
tiny: open a connection, write one ``Connection: close`` request, read
the response, close.  The replicas would keep the connection open if
asked for keep-alive; this hop does not ask.  Keep-alive paid for
itself on the client-facing hop, where a warm hit was mostly connection
setup, but no workload measures the router-to-replica hop (a proxied
request has already missed the replicas' shards, so it is usually a
simulation that dwarfs the connect).

Framing is ``ServeClient``'s: the request is one write
(``serve.http.render_request``), the reply head is read up to its blank
line (64 KiB at most) and parsed by ``serve.http.parse_reply_head``,
and the body is exactly ``Content-Length`` bytes, at most
:data:`MAX_RESPONSE_BYTES`.  A reply that is over-long, cut short,
malformed or not JSON raises :class:`~repro.serve.http.ReplyError`, so
every failure is an :class:`OSError`, :class:`asyncio.TimeoutError` or
:class:`ReplyError`, all three "this replica did not answer".
"""

from __future__ import annotations

import asyncio
import json

from ..serve.http import (
    MAX_REPLY_HEAD_BYTES,
    ReplyError,
    decode_reply_body,
    parse_reply_head,
    render_request,
)

__all__ = ["read_reply", "request_json"]

#: Upper bound on a peer response body (a simulation result dict is a
#: few KiB; /stats aggregations stay well under this).
MAX_RESPONSE_BYTES = 8 << 20


async def read_reply(reader: asyncio.StreamReader) -> tuple[int, dict, bytes]:
    """One reply off ``reader``: ``(status, headers, body)``.

    ``reader``'s limit bounds the head (:class:`ReplyError` past it).
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.LimitOverrunError:
        raise ReplyError("reply head exceeds the size limit") from None
    except asyncio.IncompleteReadError as exc:
        where = "mid-head" if exc.partial else "before sending a status line"
        raise ReplyError(f"peer closed {where}") from None
    status, headers, length = parse_reply_head(
        head[:-4], max_body=MAX_RESPONSE_BYTES
    )
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ReplyError("peer closed mid-body") from None
    return status, headers, body


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
    :class:`ReplyError` on an unparseable response — the router treats
    all three as "this replica did not answer".
    """
    request_headers = {"Connection": "close"}
    encoded = None
    if body is not None:
        encoded = json.dumps(body).encode()
        request_headers["Content-Type"] = "application/json"
    request_headers.update(headers or {})
    request = render_request(
        method, path, request_headers, encoded, host=f"{host}:{port}"
    )

    async def _exchange() -> tuple[int, dict, dict]:
        reader, writer = await asyncio.open_connection(
            host, port, limit=MAX_REPLY_HEAD_BYTES
        )
        try:
            writer.write(request)
            await writer.drain()
            status, reply_headers, raw = await read_reply(reader)
            return status, decode_reply_body(reply_headers, raw), reply_headers
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    return await asyncio.wait_for(_exchange(), timeout)
