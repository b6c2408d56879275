"""HTTP transport keep-alive pooling: reuse fast, invalidate safely.

A scripted raw-socket server misbehaves in precisely one way per test so
the resend rule is pinned: resend **only** on the stale keep-alive race
(reused connection torn down before the request ran); never after a
timeout or a torn reply, where the request may have executed and a
blind resend could double-apply a write.  Every failure invalidates the
pooled socket — its framing state is unknown.

The rule is one function shared by ``HttpTransport`` and
``AsyncHttpTransport``, so every test runs against both from one body.
"""

from __future__ import annotations

import socket
import threading

import pytest

from repro.obs.metrics import get_registry
from repro.soap.atransport import AsyncHttpTransport
from repro.soap.envelope import build_request, build_response, parse_response
from repro.soap.errors import SoapError, TransportError
from repro.soap.transport import HttpTransport

pytestmark = pytest.mark.aserve

OK_BODY = build_response("ok")


class ScriptedServer:
    """One scripted behavior list per accepted connection.

    Per-request actions: ``"reply"`` (valid 200), ``"close"`` (hang up
    without answering), ``"stall"`` (read the request, never answer),
    ``"torn"`` (declare a long body, send a few bytes, hang up),
    ``"reject"`` (close the connection before reading anything), or raw
    ``bytes``: send them as the whole (malformed) reply, half-close, and
    set ``client_hung_up`` once the client closes its end too.
    """

    def __init__(self, scripts: list[list]) -> None:
        self._scripts = scripts
        self._sock = socket.create_server(("127.0.0.1", 0))
        self.endpoint = self._sock.getsockname()[:2]
        self.requests_received = 0
        self.connections = 0
        self.client_hung_up = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        for script in self._scripts:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            self.connections += 1
            try:
                self._serve_connection(conn, script)
            finally:
                conn.close()

    def _serve_connection(self, conn: socket.socket, script: list) -> None:
        conn.settimeout(10)
        fh = conn.makefile("rb")
        for action in script:
            if action == "reject":
                return
            if not self._read_request(fh):
                return
            self.requests_received += 1
            if action == "reply":
                conn.sendall(
                    b"HTTP/1.1 200 OK\r\n"
                    b"Content-Type: text/xml; charset=utf-8\r\n"
                    b"Content-Length: %d\r\n\r\n" % len(OK_BODY) + OK_BODY
                )
            elif action == "torn":
                conn.sendall(
                    b"HTTP/1.1 200 OK\r\n"
                    b"Content-Type: text/xml; charset=utf-8\r\n"
                    b"Content-Length: 4096\r\n\r\n" + OK_BODY[:10]
                )
                return
            elif action == "stall":
                # Answer nothing; wait for the client to give up.
                try:
                    conn.recv(1)
                except OSError:
                    pass
                return
            elif action == "close":
                return
            else:
                conn.sendall(action)
                conn.shutdown(socket.SHUT_WR)
                try:
                    if conn.recv(1) == b"":
                        self.client_hung_up.set()
                except ConnectionError:
                    self.client_hung_up.set()
                except OSError:  # timed out: the client never let go
                    pass
                return

    @staticmethod
    def _read_request(fh) -> bool:
        length = 0
        saw_head = False
        while True:
            line = fh.readline()
            if not line:
                return False
            saw_head = True
            if line in (b"\r\n", b"\n"):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value.strip())
        fh.read(length)
        return saw_head

    def close(self) -> None:
        self._sock.close()
        self._thread.join(5)


@pytest.fixture
def connect(flavor):
    """``connect(server, **options)`` → the flavour's transport, driven."""
    opened = []

    def make(server: ScriptedServer, **options):
        cls = flavor.pick(HttpTransport, AsyncHttpTransport)
        transport = flavor.drive(cls(*server.endpoint, timeout=5, **options))
        opened.append((transport, server))
        return transport

    yield make
    for transport, server in opened:
        transport.close()
        server.close()


def call(transport) -> str:
    return transport.call("ping", {})


def pooled(transport) -> int:
    """Idle keep-alive connections the transport is holding."""
    if hasattr(transport, "_idle"):
        return len(transport._idle)
    return 0 if transport._conn is None else 1


def reconnects() -> float:
    series = get_registry().snapshot()["mcs_soap_client_reconnects_total"]["series"]
    return sum(entry["value"] for entry in series)


class TestStaleKeepAlive:
    def test_resends_once_on_recycled_idle_connection(self, connect):
        server = ScriptedServer([["reply", "close"], ["reply"]])
        transport = connect(server)
        assert call(transport) == "ok"
        before = reconnects()
        # The server recycled the idle connection; the retry must be
        # invisible to the caller.
        assert call(transport) == "ok"
        # The one meaning of the reconnect counter, in both flavours: a
        # request resent on a fresh socket because the pooled one was dead.
        assert reconnects() == before + 1
        assert server.connections == 2
        assert server.requests_received == 3  # aborted send counts once

    def test_fresh_connection_failure_does_not_resend(self, connect):
        server = ScriptedServer([["reject"], ["reply"]])
        transport = connect(server)
        before = reconnects()
        with pytest.raises(TransportError):
            call(transport)
        # ...but the transport recovered: next call dials fresh — which
        # is a first dial, not a reconnect.
        assert call(transport) == "ok"
        assert reconnects() == before


class TestUnsafeFailuresInvalidateWithoutResend:
    def test_timeout_raises_and_invalidates(self, connect):
        server = ScriptedServer([["reply", "stall"], ["reply"]])
        transport = connect(server, read_timeout=0.3)
        assert call(transport) == "ok"
        with pytest.raises(TransportError):
            call(transport)  # the server may still be executing
        assert pooled(transport) == 0  # framing state unknown: dropped
        assert call(transport) == "ok"  # fresh dial recovers
        # Exactly one wire attempt for the timed-out call: no resend.
        assert server.requests_received == 3

    def test_torn_reply_raises_and_invalidates(self, connect):
        server = ScriptedServer([["torn"], ["reply"]])
        transport = connect(server)
        with pytest.raises(TransportError):
            call(transport)
        assert pooled(transport) == 0
        assert call(transport) == "ok"
        assert server.requests_received == 2

    @pytest.mark.parametrize(
        "reply",
        [
            b"SOAP/9 what\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: 12",
            b"HTTP/1.1 200 OK\r\nContent-Length: lots\r\n\r\n",
        ],
        ids=["status-line", "mid-headers", "content-length"],
    )
    def test_malformed_reply_discards_the_socket(self, connect, reply):
        """Regression: the asyncio shell raised its parser's TransportError
        past the handler that discards the connection, so the socket was
        neither closed nor pooled — it stayed open for as long as anything
        (here: the caught exception's traceback) still referenced it."""
        server = ScriptedServer([["reply", reply], ["reply"]])
        transport = connect(server)
        assert call(transport) == "ok"
        # http.client reads an unparseable Content-Length as "until EOF",
        # so the blocking shell gets as far as the (empty) envelope.
        with pytest.raises(SoapError) as failure:
            call(transport)
        assert server.client_hung_up.wait(2), "connection left open"
        del failure
        assert call(transport) == "ok"
        assert server.requests_received == 3


class TestWireSanity:
    def test_request_payload_reaches_the_wire_intact(self, connect):
        # Belt-and-braces: the scripted server speaks enough HTTP that a
        # normal round trip through it parses cleanly end-to-end.
        payload = build_request("ping", {})
        assert b"<Call" in payload
        transport = connect(ScriptedServer([["reply"]]))
        assert parse_response(OK_BODY) == "ok"
        assert call(transport) == "ok"
