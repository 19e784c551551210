"""Keep-alive on the shared connection loop, through both front ends.

``repro serve`` and the cluster router serve their connections through
one :class:`repro.serve.http.ConnectionLoop`, so every test here runs
against each of them: a kept-alive client reuses one TCP connection, a
request without ``Connection: keep-alive`` gets today's
``Connection: close`` reply and an EOF, and a drain closes idle
connections instead of waiting on them.
"""

import asyncio
import contextlib
import json
import socket
import threading
import time

import pytest

from repro.cluster import ClusterRouter
from repro.runtime import run_jobs
from repro.serve.client import ServeClient
from repro.serve.server import ServerThread, SimulationService

SMALL = {"dataset": "cora", "scale": 0.1, "hidden": 8, "layers": 1}

FRONT_ENDS = ("service", "router")
HEALTHZ_KEEP_ALIVE = b"GET /healthz HTTP/1.1\r\nConnection: keep-alive\r\n\r\n"


def count_connections(owner) -> list:
    """Wrap ``owner.handle`` so each accepted connection is recorded."""
    accepted = []
    inner = owner.handle

    async def handle(reader, writer):
        accepted.append(writer.get_extra_info("peername"))
        await inner(reader, writer)

    owner.handle = handle
    return accepted


def delayed_runner(delay: float):
    async def runner(jobs):
        await asyncio.sleep(delay)
        return await asyncio.to_thread(run_jobs, jobs)

    return runner


@contextlib.contextmanager
def front_end(kind, *, port=0, runner=None, drain_timeout=5.0):
    """Host a service, or a router over one replica service.

    Yields ``(front thread, accepted connections)``; the front end is
    stopped (if a test has not already) and the replica after it.
    """
    service = SimulationService(runner=runner, batch_window=0.0)
    hosts = []
    if kind == "service":
        owner = service
    else:
        replica = ServerThread(service)
        replica.start()
        hosts.append(replica)
        owner = ClusterRouter()
        owner.replica_up("0", *replica.address)
    accepted = count_connections(owner)
    front = ServerThread(owner, port=port, drain_timeout=drain_timeout)
    front.start()
    try:
        yield front, accepted
    finally:
        front.stop()
        for host in hosts:
            host.stop()


def read_to_eof(sock: socket.socket) -> bytes:
    """Everything the server sends until it closes (a timeout fails)."""
    chunks = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def read_response(sock: socket.socket, buffered: bytes = b"") -> tuple:
    """One response off ``sock``: ``(head, body, bytes left over)``."""
    data = buffered
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        assert chunk, f"connection closed mid-head: {data!r}"
        data += chunk
    head, _, rest = data.partition(b"\r\n\r\n")
    length = next(
        int(line.split(b":")[1])
        for line in head.split(b"\r\n")
        if line.lower().startswith(b"content-length:")
    )
    while len(rest) < length:
        chunk = sock.recv(65536)
        assert chunk, "connection closed mid-body"
        rest += chunk
    return head, rest[:length], rest[length:]


def connect(address) -> socket.socket:
    return socket.create_connection(address, timeout=10.0)


@pytest.mark.parametrize("kind", FRONT_ENDS)
class TestKeepAlive:
    def test_sequential_calls_share_one_connection(self, kind):
        with front_end(kind) as (front, accepted):
            client = ServeClient(*front.address, timeout=60.0)
            first = client.simulate(SMALL)
            second = client.simulate(SMALL)
            assert first["key"] == second["key"]
            assert len(accepted) == 1
            # Another thread sharing the client dials its own connection.
            worker = threading.Thread(target=client.healthz)
            worker.start()
            worker.join(30.0)
            assert len(accepted) == 2
            client.close()

    def test_pipelined_requests_answered_in_order(self, kind):
        with front_end(kind) as (front, _):
            with connect(front.address) as sock:
                sock.sendall(
                    b"GET /nope-1 HTTP/1.1\r\nConnection: keep-alive\r\n\r\n"
                    b"GET /nope-2 HTTP/1.1\r\n\r\n"
                )
                head1, body1, rest = read_response(sock)
                head2, body2, rest = read_response(sock, rest)
                assert rest + read_to_eof(sock) == b""
        assert head1.startswith(b"HTTP/1.1 404 ")
        assert b"Connection: keep-alive" in head1
        assert json.loads(body1)["error"] == "no such endpoint: /nope-1"
        assert b"Connection: close" in head2
        assert json.loads(body2)["error"] == "no such endpoint: /nope-2"

    def test_request_without_keep_alive_gets_close_and_eof(self, kind):
        body = b'{"error": "no such endpoint: /nope"}\n'
        expected = (
            b"HTTP/1.1 404 Not Found\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: %d\r\n"
            b"Connection: close\r\n\r\n" % len(body)
        ) + body
        with front_end(kind) as (front, _):
            with connect(front.address) as sock:
                sock.sendall(b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n")
                assert read_to_eof(sock) == expected

    def test_client_redials_a_connection_the_server_closed(self, kind):
        with front_end(kind) as (front, _):
            address = front.address
            client = ServeClient(*address, retries=0, timeout=60.0)
            client.simulate(SMALL)
        # The drain closed the client's idle connection; a new server
        # on the same port must see the client dial again, not fail.
        with front_end(kind, port=address[1]) as (front, accepted):
            assert client.simulate(SMALL)["result"]["accelerator"] == "aurora"
            assert len(accepted) == 1
            client.close()

    def test_stop_closes_an_idle_kept_alive_connection(self, kind):
        with front_end(kind, drain_timeout=2.0) as (front, _):
            client = ServeClient(*front.address, timeout=60.0)
            client.healthz()  # an idle kept-alive connection from here on
            with connect(front.address) as sock:
                sock.sendall(HEALTHZ_KEEP_ALIVE)
                head, _, _ = read_response(sock)
                assert b"Connection: keep-alive" in head
                start = time.monotonic()
                exit_code = front.stop(timeout=10.0)
                elapsed = time.monotonic() - start
                assert read_to_eof(sock) == b""
        assert exit_code == 0
        assert elapsed < 2.0

    def test_drain_closes_idle_connections_before_in_flight_work_ends(
        self, kind
    ):
        with front_end(kind, runner=delayed_runner(1.0)) as (front, _):
            request = json.dumps(SMALL).encode()
            with connect(front.address) as idle, connect(front.address) as busy:
                idle.sendall(HEALTHZ_KEEP_ALIVE)
                read_response(idle)
                busy.sendall(
                    b"POST /simulate HTTP/1.1\r\nConnection: keep-alive\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: %d\r\n\r\n" % len(request) + request
                )
                time.sleep(0.2)  # the simulation is now in flight
                stopper = threading.Thread(target=front.stop)
                stopper.start()
                # The idle connection is closed at once; the drain is
                # still waiting for the in-flight request.
                assert read_to_eof(idle) == b""
                assert stopper.is_alive()
                head, body, rest = read_response(busy)
                assert rest + read_to_eof(busy) == b""
                stopper.join(30.0)
        assert head.startswith(b"HTTP/1.1 200 ")
        assert b"Connection: close" in head
        assert json.loads(body)["result"]["accelerator"] == "aurora"
        assert front.exit_code == 0
