"""Tests for the minimal HTTP/1.1 wire layer."""

import asyncio
import json

import pytest

from repro.serve.http import (
    HTTPError,
    HTTPRequest,
    RawResponse,
    ReplyError,
    decode_reply_body,
    parse_reply_head,
    read_request,
    render_reply,
    render_request,
    render_response,
)


def parse(raw: bytes) -> HTTPRequest | None:
    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(run())


class TestReadRequest:
    def test_get_without_body(self):
        req = parse(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        assert req.method == "GET"
        assert req.path == "/healthz"
        assert req.headers["host"] == "x"
        assert req.body == b""

    def test_post_with_json_body(self):
        body = b'{"dataset": "cora"}'
        raw = (
            b"POST /simulate HTTP/1.1\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        req = parse(raw)
        assert req.method == "POST"
        assert req.json() == {"dataset": "cora"}

    def test_header_names_lowercased(self):
        req = parse(b"GET / HTTP/1.1\r\nX-Repro-Deadline: 1.5\r\n\r\n")
        assert req.headers["x-repro-deadline"] == "1.5"

    def test_eof_returns_none(self):
        assert parse(b"") is None

    def test_malformed_request_line(self):
        with pytest.raises(HTTPError):
            parse(b"GARBAGE\r\n\r\n")

    def test_unsupported_version(self):
        with pytest.raises(HTTPError):
            parse(b"GET / SPDY/3\r\n\r\n")

    def test_bad_content_length(self):
        with pytest.raises(HTTPError):
            parse(b"POST / HTTP/1.1\r\nContent-Length: banana\r\n\r\nx")

    def test_oversized_content_length(self):
        with pytest.raises(HTTPError):
            parse(b"POST / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n")

    def test_truncated_body(self):
        with pytest.raises(HTTPError):
            parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")

    def test_malformed_header_line(self):
        with pytest.raises(HTTPError):
            parse(b"GET / HTTP/1.1\r\nnocolonhere\r\n\r\n")

    def test_overlong_request_line_is_http_error(self):
        """A request line past the stream limit maps to 400, not a crash.

        Regression: ``StreamReader.readline`` reports a limit overrun as
        a bare ``ValueError``, which used to escape ``read_request`` and
        kill the connection without a response.
        """

        async def run():
            reader = asyncio.StreamReader(limit=256)
            reader.feed_data(b"GET /" + b"a" * 1024 + b" HTTP/1.1\r\n\r\n")
            reader.feed_eof()
            return await read_request(reader)

        with pytest.raises(HTTPError):
            asyncio.run(run())

    def test_overlong_header_line_is_http_error(self):
        async def run():
            reader = asyncio.StreamReader(limit=256)
            reader.feed_data(
                b"GET / HTTP/1.1\r\nX-Big: " + b"a" * 1024 + b"\r\n\r\n"
            )
            reader.feed_eof()
            return await read_request(reader)

        with pytest.raises(HTTPError):
            asyncio.run(run())


class TestBodyJson:
    def test_empty_body_rejected(self):
        req = HTTPRequest("POST", "/simulate")
        with pytest.raises(HTTPError):
            req.json()

    def test_non_object_rejected(self):
        req = HTTPRequest("POST", "/simulate", body=b"[1, 2]")
        with pytest.raises(HTTPError):
            req.json()

    def test_invalid_json_rejected(self):
        req = HTTPRequest("POST", "/simulate", body=b"{nope")
        with pytest.raises(HTTPError):
            req.json()


class TestRenderResponse:
    def test_roundtrip_shape(self):
        raw = render_response(200, {"ok": True})
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Content-Type: application/json" in head
        assert b"Connection: close" in head
        assert json.loads(body) == {"ok": True}

    def test_content_length_matches_body(self):
        raw = render_response(429, {"error": "shed"})
        head, _, body = raw.partition(b"\r\n\r\n")
        for line in head.split(b"\r\n"):
            if line.lower().startswith(b"content-length:"):
                assert int(line.split(b":")[1]) == len(body)
                break
        else:  # pragma: no cover
            raise AssertionError("no Content-Length header")

    def test_extra_headers(self):
        raw = render_response(200, {}, headers={"X-Extra": "1"})
        assert b"X-Extra: 1" in raw


class TestRenderReply:
    """The connection loop's renderer: every payload kind, its headers."""

    @pytest.mark.parametrize(
        "payload, content_type",
        [
            ({"ok": True}, b"application/json"),
            ("up 1\n", b"text/plain; version=0.0.4; charset=utf-8"),
            (RawResponse(b"<html/>", "text/html"), b"text/html"),
        ],
    )
    def test_headers_go_on_every_payload_kind(self, payload, content_type):
        raw = render_reply((200, payload, {"X-Extra": "1"}))
        head = raw.partition(b"\r\n\r\n")[0]
        assert b"Content-Type: " + content_type in head
        assert b"X-Extra: 1" in head
        assert b"Connection: close" in head

    def test_keep_alive_changes_only_the_connection_header(self):
        close = render_reply((200, {"ok": True}, {"X-Extra": "1"}))
        kept = render_reply((200, {"ok": True}, {"X-Extra": "1"}), keep_alive=True)
        assert kept == close.replace(b"Connection: close", b"Connection: keep-alive")


class TestRenderRequest:
    def test_head_and_body_in_one_object_read_back_by_the_server(self):
        raw = render_request(
            "POST", "/simulate", {"Content-Type": "application/json"},
            b'{"dataset": "cora"}', host="h:1",
        )
        req = parse(raw)
        assert (req.method, req.path) == ("POST", "/simulate")
        assert req.headers["host"] == "h:1"
        assert req.json() == {"dataset": "cora"}

    def test_get_has_zero_length(self):
        raw = render_request("GET", "/healthz", {}, host="h:1")
        assert raw.endswith(b"Content-Length: 0\r\n\r\n")
        assert parse(raw).body == b""

    @pytest.mark.parametrize("value", ["a\r\nX-Injected: 1", "a\nb"])
    def test_line_break_in_a_header_is_refused(self, value):
        with pytest.raises(ValueError, match="line break"):
            render_request("GET", "/", {"X-Repro-Trace-Id": value}, host="h")

    @pytest.mark.parametrize("path", ["/trace?trace_id=a\r\nX: 1", "/a b", "/\x00"])
    def test_unsafe_path_is_refused(self, path):
        with pytest.raises(ValueError, match="unsafe character"):
            render_request("GET", path, {}, host="h")


class TestParseReplyHead:
    """The reply-head parser both clients share."""

    def head(self, raw: bytes) -> bytes:
        return raw.partition(b"\r\n\r\n")[0]

    def test_rendered_reply_round_trips(self):
        raw = render_reply((429, {"error": "shed"}, {"Retry-After": "0.5"}))
        status, headers, length = parse_reply_head(self.head(raw))
        assert status == 429
        assert headers["retry-after"] == "0.5"
        assert headers["connection"] == "close"
        assert length == len(raw.partition(b"\r\n\r\n")[2])

    @pytest.mark.parametrize(
        "head",
        [
            b"",
            b"HTTP/1.1 200",  # no Content-Length
            b"SPDY/3 200 OK\r\nContent-Length: 0",
            b"HTTP/1.1 20 OK\r\nContent-Length: 0",
            b"HTTP/1.1 2000 OK\r\nContent-Length: 0",
            b"HTTP/1.1 \xb200 OK\r\nContent-Length: 0",  # superscript two
            b"HTTP/1.1 200 OK\r\nnocolon\r\nContent-Length: 0",
            b"HTTP/1.1 200 OK\r\nContent-Length: -1",
            b"HTTP/1.1 200 OK\r\nContent-Length: 1_0",
            b"HTTP/1.1 200 OK\r\nContent-Length: " + b"9" * 5000,
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked",
        ],
    )
    def test_unframeable_head_is_reply_error(self, head):
        with pytest.raises(ReplyError):
            parse_reply_head(head)

    def test_max_body_caps_the_length(self):
        head = b"HTTP/1.1 200 OK\r\nContent-Length: 11"
        assert parse_reply_head(head, max_body=11)[2] == 11
        with pytest.raises(ReplyError, match="out of range"):
            parse_reply_head(head, max_body=10)


class TestDecodeReplyBody:
    def test_json_plaintext_and_other_values(self):
        assert decode_reply_body({}, b'{"a": 1}') == {"a": 1}
        assert decode_reply_body({}, b"") == {}
        assert decode_reply_body({}, b"[1]") == {"value": [1]}
        text = {"content-type": "text/plain; version=0.0.4"}
        assert decode_reply_body(text, b"up 1\n") == {"text": "up 1\n"}

    @pytest.mark.parametrize("body", [b"{nope", b"\xff\xfe\x00", b"[" * 100_000])
    def test_undecodable_body_is_reply_error(self, body):
        with pytest.raises(ReplyError, match="undecodable"):
            decode_reply_body({}, body)
