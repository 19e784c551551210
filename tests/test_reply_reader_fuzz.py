"""Fuzz the one reply reader, on its blocking and its asyncio path.

``ServeClient`` reads replies off a blocking socket and the router's
peer hop (``cluster/wire.py``) off an asyncio stream; both frame the
reply with ``serve.http.parse_reply_head``.  Whatever bytes a server
sends, each path must return a reply, raise the one typed
:class:`ReplyError` (or, on the blocking path, the connection error of
a socket closed before any reply byte), or time out within its budget:
never another exception, never a hang.
"""

import asyncio
import json
import socket
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import wire
from repro.serve.client import ServeClient, ServiceUnavailable, _exchange
from repro.serve.http import ReplyError, parse_reply_head, render_reply

from ._peers import ScriptedPeer

REQUEST = b"GET /healthz HTTP/1.1\r\nContent-Length: 0\r\n\r\n"
VALID = render_reply((200, {"status": "ok", "pad": "x" * 40}), keep_alive=True)
SILENCE = 0.2  # seconds a silent peer is waited on
#: ``asyncio.wait_for`` raises ``asyncio.TimeoutError``, which is only
#: the builtin ``TimeoutError`` from Python 3.11 on.
TIMEOUTS = (TimeoutError, asyncio.TimeoutError)
FUZZ_SILENCE = 0.05  # the same, per example of a silence fuzz

FUZZ = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Bytes that look like a reply often enough to reach every branch.
reply_bytes = st.one_of(
    st.binary(max_size=512),
    st.builds(
        lambda status, headers, body: (
            f"HTTP/1.1 {status}\r\n{headers}\r\n\r\n".encode("latin-1") + body
        ),
        st.text(st.characters(max_codepoint=255), max_size=12),
        st.text(st.characters(max_codepoint=255), max_size=80),
        st.binary(max_size=64),
    ),
    st.builds(
        lambda cut, extra: VALID[:cut] + extra,
        st.integers(0, len(VALID)),
        st.binary(max_size=16),
    ),
)


def read_sync(data: bytes, *, eof: bool = True, timeout: float = SILENCE):
    """``data`` as a server's reply on a blocking socket."""
    client, server = socket.socketpair()
    with client, server:
        client.settimeout(timeout)
        server.sendall(data)
        if eof:
            server.shutdown(socket.SHUT_WR)
        return _exchange(client, REQUEST)


def read_async(data: bytes, *, eof: bool = True, timeout: float = SILENCE):
    """``data`` as a peer's reply on an asyncio stream."""

    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        if eof:
            reader.feed_eof()
        return await asyncio.wait_for(wire.read_reply(reader), timeout)

    return asyncio.run(run())


def assert_reply_or_typed_error(
    read, data: bytes, *, eof: bool = True, timeout: float = SILENCE
):
    """The reader's outcome: a reply tuple or ``None`` for a typed error."""
    start = time.monotonic()
    try:
        status, headers, body = read(data, eof=eof, timeout=timeout)
    except ReplyError:
        return None
    except ConnectionResetError:
        assert read is read_sync and data == b""  # closed before a byte
        return None
    except TIMEOUTS:
        assert not eof  # only a silent peer may time out
        return None
    finally:
        assert time.monotonic() - start < timeout + 2.0
    assert 100 <= status <= 999
    assert isinstance(headers, dict)
    assert len(body) == int(headers["content-length"])
    return status, headers, body


READERS = pytest.mark.parametrize("read", [read_sync, read_async])


@READERS
class TestReaders:
    @FUZZ
    @given(data=reply_bytes)
    def test_arbitrary_bytes(self, read, data):
        assert_reply_or_typed_error(read, data)

    @settings(FUZZ, max_examples=30)
    @given(data=reply_bytes)
    def test_arbitrary_bytes_then_silence(self, read, data):
        assert_reply_or_typed_error(read, data, eof=False, timeout=FUZZ_SILENCE)

    def test_valid_reply_cut_at_every_offset(self, read):
        for cut in range(len(VALID)):
            assert assert_reply_or_typed_error(read, VALID[:cut]) is None, cut
        status, _, body = assert_reply_or_typed_error(read, VALID)
        assert status == 200
        assert json.loads(body)["status"] == "ok"

    @FUZZ
    @given(length=st.one_of(st.integers(-(2**70), -1), st.integers(2**23, 10**30)))
    def test_oversized_or_negative_content_length(self, read, length):
        data = f"HTTP/1.1 200 OK\r\nContent-Length: {length}\r\n\r\n{{}}".encode()
        assert assert_reply_or_typed_error(read, data) is None

    def test_missing_blank_line(self, read):
        data = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n{}"
        assert assert_reply_or_typed_error(read, data) is None
        assert assert_reply_or_typed_error(read, data, eof=False) is None

    def test_silent_peer_times_out(self, read):
        with pytest.raises(TIMEOUTS):
            read(b"", eof=False)

    def test_overlong_header_line(self, read):
        data = b"HTTP/1.1 200 OK\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n"
        with pytest.raises(ReplyError, match="size limit"):
            read(data)


def test_bytes_past_the_body_on_a_kept_alive_socket():
    """Bytes no request asked for would be read as the next reply."""
    with pytest.raises(ReplyError, match="past"):
        read_sync(VALID + b"HTTP/1.1")


@FUZZ
@given(head=st.binary(max_size=256))
def test_parse_reply_head_on_arbitrary_bytes(head):
    try:
        status, headers, length = parse_reply_head(head)
    except ReplyError:
        return
    assert 0 <= status <= 999 and length >= 0


class TestServeClientOverTheReader:
    @pytest.mark.parametrize(
        "bad",
        [
            VALID + b"stale bytes",  # bytes past Content-Length
            b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n",
            None,  # silence: the attempt times out
        ],
    )
    def test_next_request_after_a_rejected_reply_dials_fresh(self, bad):
        peer = ScriptedPeer([bad, VALID])
        client = ServeClient(*peer.address, retries=0, timeout=SILENCE)
        start = time.monotonic()
        with pytest.raises(ServiceUnavailable):
            client.healthz()
        assert time.monotonic() - start < SILENCE + 2.0
        assert client.healthz()["status"] == "ok"
        assert peer.accepted == 2
        client.close()
        peer.join()

    def test_sixteen_megabyte_trace_reads_through(self):
        span = {
            "trace_id": "0" * 32, "span_id": "0" * 16, "parent_id": "0" * 16,
            "name": "executor.job", "start_time": 1.0, "end_time": 2.0,
            "attributes": {"pad": "x" * 60},
        }
        reply = render_reply((200, {"count": 65536, "spans": [span] * 65536}), keep_alive=True)
        assert len(reply) > 16 << 20
        peer = ScriptedPeer([reply])
        client = ServeClient(*peer.address, retries=0, timeout=30.0)
        payload = client.trace()
        assert payload["count"] == len(payload["spans"]) == 65536
        client.close()
        peer.join()

    def test_undecodable_body_is_an_error_payload_and_close_redials(self):
        bad = (
            b"HTTP/1.1 500 Internal Server Error\r\nContent-Length: 5\r\n"
            b"Connection: close\r\n\r\n{nope"
        )
        peer = ScriptedPeer([bad, VALID])
        client = ServeClient(*peer.address, retries=0, timeout=5.0)
        status, payload = client.call("GET", "/healthz")
        assert status == 500
        assert payload["error"] == "undecodable response body: b'{nope'"
        assert client.healthz()["status"] == "ok"
        assert peer.accepted == 2  # the close reply ended the first socket
        client.close()
        peer.join()
