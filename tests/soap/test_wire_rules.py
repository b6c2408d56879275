"""What the blocking client and the threaded server do on the socket.

Each message — request or reply — leaves in one ``sendall`` with its
head and body together, and no read asks for more than ``RECV_BYTES``
(64 KiB reads cost memory).  A reply the server starts
and then abandons is torn, whether it ends in a FIN or a reset: the
request ran, so it is not resent.
"""

from __future__ import annotations

import socket
import struct
import threading
import time

import pytest

from repro.soap.client import fetch_wsdl
from repro.soap.envelope import build_response
from repro.soap.errors import TransportError
from repro.soap.framing import RECV_BYTES
from repro.soap.server import _QUEUE_DEPTH, _WORKER_SATURATION, SoapServer
from repro.soap.transport import HttpTransport

BIG = "x" * (5 * RECV_BYTES)


def echo(method, args):
    return args


class RecordingSocket:
    """A socket stand-in that logs each ``sendall`` and each read size."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self.sends: list[bytes] = []
        self.reads: list[int] = []

    def sendall(self, data: bytes) -> None:
        self.sends.append(bytes(data))
        self._sock.sendall(data)

    def recv(self, size: int) -> bytes:
        self.reads.append(size)
        return self._sock.recv(size)

    def __getattr__(self, name: str):
        return getattr(self._sock, name)


def test_client_sends_each_request_once_and_reads_bounded():
    with SoapServer(echo) as server:
        transport = HttpTransport(*server.endpoint, timeout=5)
        try:
            assert transport.call("echo", {}) == {}
            recorder = RecordingSocket(transport._conn.sock)
            transport._conn.sock = recorder
            assert transport.call("echo", {"v": BIG}) == {"v": BIG}
            assert transport.call("echo", {"v": 1}) == {"v": 1}
        finally:
            transport.close()
    assert len(recorder.sends) == 2
    for wire in recorder.sends:
        head, _, body = wire.partition(b"\r\n\r\n")
        assert head.startswith(b"POST /soap HTTP/1.1\r\n")
        assert body.startswith(b"<Envelope") and body.endswith(b"</Envelope>")
    assert len(recorder.reads) > 5  # the big reply took several reads...
    assert max(recorder.reads) <= RECV_BYTES  # ...none of them unbounded


def test_server_answers_each_request_with_one_send_and_reads_bounded():
    recorders: list[RecordingSocket] = []
    with SoapServer(echo) as server:
        serve = server._tcp._serve

        def recording(conn, address):
            recorders.append(RecordingSocket(conn))
            serve(recorders[-1], address)

        server._tcp._serve = recording
        transport = HttpTransport(*server.endpoint, timeout=5)
        try:
            assert transport.call("echo", {"v": BIG}) == {"v": BIG}
            assert transport.call("echo", {"v": 1}) == {"v": 1}
        finally:
            transport.close()
    (recorder,) = recorders
    assert len(recorder.sends) == 2
    for wire in recorder.sends:
        assert wire.startswith(b"HTTP/1.1 200 OK\r\n")
        assert wire.endswith(b"</Envelope>")
    assert len(recorder.reads) > 5
    assert max(recorder.reads) <= RECV_BYTES


def test_nagle_is_off_at_both_ends_and_dispatch_sees_the_client_address():
    conns, clients = [], []
    with SoapServer(echo) as server:
        serve, dispatch = server._tcp._serve, server._dispatcher.dispatch

        def recording(conn, address):
            conns.append(conn)
            serve(conn, address)

        def spying(payload, client=None, start=None):
            clients.append(client)
            return dispatch(payload, client, start)

        server._tcp._serve = recording
        server._dispatcher.dispatch = spying
        transport = HttpTransport(*server.endpoint, timeout=5)
        try:
            assert transport.call("echo", {}) == {}
            nodelay = (socket.IPPROTO_TCP, socket.TCP_NODELAY)
            assert transport._conn.sock.getsockopt(*nodelay)
            assert conns[0].getsockopt(*nodelay)
        finally:
            transport.close()
    assert clients == ["127.0.0.1"]


def test_worker_slots_bound_concurrent_dispatches():
    lock = threading.Lock()
    running = [0, 0]  # now, most at once

    def slow(method, args):
        with lock:
            running[0] += 1
            running[1] = max(running)
        time.sleep(0.1)
        with lock:
            running[0] -= 1
        return args

    def call(endpoint):
        transport = HttpTransport(*endpoint, timeout=5)
        try:
            assert transport.call("slow", {}) == {}
        finally:
            transport.close()

    saturated, depth = _WORKER_SATURATION.value, _QUEUE_DEPTH.value
    with SoapServer(slow, max_workers=1) as server:
        callers = [
            threading.Thread(target=call, args=(server.endpoint,)) for _ in range(3)
        ]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(10)
    assert running[1] == 1
    assert _WORKER_SATURATION.value >= saturated + 1  # someone queued...
    assert _QUEUE_DEPTH.value == depth  # ...and left the queue


class OneShotServer:
    """Accepts connections and answers each request with ``reply(conn)``."""

    def __init__(self, *replies) -> None:
        self._replies = list(replies)
        self._sock = socket.create_server(("127.0.0.1", 0))
        self.endpoint = self._sock.getsockname()[:2]
        self.requests = 0
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        for reply in self._replies:
            conn, _ = self._sock.accept()
            with conn:
                while reply is not None:
                    if not conn.recv(65536):
                        break
                    self.requests += 1
                    reply = reply(conn)

    def close(self) -> None:
        self._sock.close()
        self._thread.join(5)


OK = build_response("ok")
OK_REPLY = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(OK) + OK


def answer(then=None):
    def reply(conn):
        conn.sendall(OK_REPLY)
        return then

    return reply


def reset_mid_reply(conn):
    conn.sendall(OK_REPLY[:40])
    conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    return None


def test_reset_mid_reply_on_a_reused_connection_is_torn_not_resent():
    server = OneShotServer(answer(then=reset_mid_reply), answer())
    transport = HttpTransport(*server.endpoint, timeout=5)
    try:
        assert transport.call("ping", {}) == "ok"
        with pytest.raises(TransportError):
            transport.call("ping", {})
        assert server.requests == 2  # the torn request was not sent again
        assert transport._conn is None  # ...and its socket was dropped
        assert transport.call("ping", {}) == "ok"
    finally:
        transport.close()
        server.close()


def test_connection_close_reply_is_not_pooled():
    closing = b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: %d\r\n\r\n"
    server = OneShotServer(
        lambda conn: conn.sendall(closing % len(OK) + OK), answer()
    )
    transport = HttpTransport(*server.endpoint, timeout=5)
    try:
        assert transport.call("ping", {}) == "ok"
        assert transport._conn is None
        assert transport.call("ping", {}) == "ok"
    finally:
        transport.close()
        server.close()


def test_fetch_wsdl_wraps_a_refused_connection():
    with SoapServer(echo) as server:
        endpoint = server.endpoint
    with pytest.raises(TransportError, match="WSDL fetch failed"):
        fetch_wsdl(*endpoint, timeout=2)
