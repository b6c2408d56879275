"""The threaded and the asyncio front end answer alike, byte for byte.

Both servers frame HTTP through :mod:`repro.soap.framing` and dispatch
through one :class:`~repro.soap.server.SoapDispatcher`, so a client cannot
tell which one it reached.  A corpus of raw requests — well-formed,
pipelined, abusive, stalled mid-head — goes to each, and the reply bytes
must be equal.
The two servers listen on the same port in turn, so even the WSDL's
endpoint address matches.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

import repro.soap.server as soap_server
from repro.aserve import AsyncSoapServer
from repro.soap.envelope import build_request
from repro.soap.errors import TransportError
from repro.soap.framing import ResponseParser
from repro.soap.server import SoapServer
from repro.soap.transport import HttpTransport
from repro.soap.wsdl import ServiceDescription

pytestmark = pytest.mark.aserve

FRONT_ENDS = [SoapServer, AsyncSoapServer]


def echo(method, args):
    return args


def post(body: bytes, *fields: bytes, version: bytes = b"HTTP/1.1", target=b"/soap"):
    head = b"POST " + target + b" " + version + b"\r\nHost: test\r\n"
    head += b"Content-Type: text/xml; charset=utf-8\r\n"
    head += b"".join(field + b"\r\n" for field in fields)
    return head + b"Content-Length: %d\r\n\r\n" % len(body) + body


ENVELOPE = build_request("echo", {"value": 42}, "rid-1")

CORPUS = {
    "keep-alive": post(ENVELOPE),
    "connection-close": post(ENVELOPE, b"Connection: close"),
    "http-1.0": post(ENVELOPE, version=b"HTTP/1.0"),
    "pipelined-pair": post(ENVELOPE) + post(build_request("echo", {"n": [1, None]})),
    "length-abc": b"POST /soap HTTP/1.1\r\nHost: test\r\nContent-Length: abc\r\n\r\n",
    "length-negative": b"POST /soap HTTP/1.1\r\nHost: test\r\nContent-Length: -5\r\n\r\n",
    "chunked": (
        b"POST /soap HTTP/1.1\r\nHost: test\r\n"
        b"Transfer-Encoding: chunked\r\n\r\n0\r\n\r\n"
    ),
    "17k-header": (
        b"GET /wsdl HTTP/1.1\r\nHost: test\r\nX-Pad: " + b"a" * (17 * 1024) + b"\r\n\r\n"
    ),
    "oversized-body": (
        b"POST /soap HTTP/1.1\r\nHost: test\r\nContent-Length: 99999999999\r\n\r\n"
    ),
    "post-elsewhere": post(ENVELOPE, target=b"/nope"),
    "wsdl": b"GET /wsdl HTTP/1.1\r\nHost: test\r\n\r\n",
    "unknown-get": b"GET /nope HTTP/1.1\r\nHost: test\r\n\r\n",
}

#: Sent without a half-close: the head stops short and the client stays,
#: so only the server's head deadline can end the exchange.
STALLED = {"stalled-head": b"POST /soap HTTP/1.1\r\nHost: x\r\n"}

HEAD_TIMEOUT_S = 0.5


def exchange(endpoint, raw: bytes, half_close: bool = True) -> bytes:
    """Send *raw*, half-close, and return every byte until the server hangs up."""
    with socket.create_connection(endpoint, timeout=10) as sock:
        sock.sendall(raw)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    return reply


def replies(front_end, port: int) -> dict[str, bytes]:
    description = ServiceDescription("Echo")
    description.add("echo", ("value",))
    with front_end(
        echo, port=port, description=description, header_timeout_s=HEAD_TIMEOUT_S
    ) as server:
        got = {name: exchange(server.endpoint, raw) for name, raw in CORPUS.items()}
        for name, raw in STALLED.items():
            got[name] = exchange(server.endpoint, raw, half_close=False)
    return got


def test_both_front_ends_answer_the_corpus_with_the_same_bytes():
    threaded = SoapServer(echo)
    port = threaded.port
    threaded.stop()
    first = replies(SoapServer, port)
    second = replies(AsyncSoapServer, port)
    for name in (*CORPUS, *STALLED):
        assert first[name] == second[name], name
    # The corpus means what it says: spot-check the shared answers.
    status = {name: reply.split(b"\r\n", 1)[0] for name, reply in first.items()}
    assert status["pipelined-pair"] == b"HTTP/1.1 200 OK"
    assert first["pipelined-pair"].count(b"HTTP/1.1 200 OK\r\n") == 2
    assert status["length-abc"] == status["length-negative"] == b"HTTP/1.1 400 Bad Request"
    assert status["chunked"] == b"HTTP/1.1 501 Not Implemented"
    assert status["17k-header"] == b"HTTP/1.1 431 Request Header Fields Too Large"
    assert status["oversized-body"] == b"HTTP/1.1 413 Content Too Large"
    assert status["post-elsewhere"] == status["unknown-get"] == b"HTTP/1.1 404 Not Found"
    assert status["stalled-head"] == b"HTTP/1.1 408 Request Timeout"
    assert b"Connection: close\r\n" in first["stalled-head"]
    assert b"Connection: close\r\n" in first["http-1.0"]
    assert b"Connection: close\r\n" in first["connection-close"]
    assert b"Connection: keep-alive\r\n" in first["keep-alive"]
    assert b"http://127.0.0.1:%d/soap" % port in first["wsdl"]


def read_reply(sock: socket.socket):
    parser = ResponseParser()
    while (response := parser.next_response()) is None:
        parser.feed(sock.recv(8192))
    return response


@pytest.mark.parametrize("front_end", FRONT_ENDS)
def test_expect_100_continue_is_not_answered(front_end):
    """Neither server sends an interim ``100 Continue``; the client's
    own timer runs out and it sends the body, which is then answered."""
    raw = post(ENVELOPE, b"Expect: 100-continue")
    head, body = raw[: -len(ENVELOPE)], ENVELOPE
    with front_end(echo) as server:
        with socket.create_connection(server.endpoint, timeout=10) as sock:
            sock.sendall(head)
            sock.settimeout(0.3)
            with pytest.raises(socket.timeout):
                sock.recv(1)
            sock.settimeout(10)
            sock.sendall(body)
            response = read_reply(sock)
    assert response.status == 200


@pytest.mark.parametrize("front_end", FRONT_ENDS)
def test_the_head_deadline_spares_an_idle_keep_alive_connection(front_end):
    """The deadline runs only while a request is partly framed: a
    connection idle between requests for longer is still served."""
    with front_end(echo, header_timeout_s=0.2) as server:
        with socket.create_connection(server.endpoint, timeout=10) as sock:
            sock.sendall(post(ENVELOPE))
            assert read_reply(sock).status == 200
            time.sleep(0.5)
            sock.sendall(post(ENVELOPE))
            assert read_reply(sock).status == 200


@pytest.mark.parametrize("front_end", FRONT_ENDS)
def test_a_failing_get_is_a_500_that_keeps_the_connection(front_end, monkeypatch):
    """Regression: the 500 said ``Connection: close`` while both servers
    kept a keep-alive connection open; the framing is intact, so it stays."""

    def broken(*args):
        raise RuntimeError("collection route failed")

    monkeypatch.setattr(soap_server, "collection_get", broken)
    with front_end(echo) as server:
        with socket.create_connection(server.endpoint, timeout=10) as sock:
            sock.sendall(b"GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n")
            failed = read_reply(sock)
            assert (failed.status, failed.keep_alive) == (500, True)
            sock.sendall(post(ENVELOPE))
            assert read_reply(sock).status == 200


@pytest.mark.parametrize("front_end", FRONT_ENDS)
def test_stop_ends_open_keep_alive_connections(front_end):
    """Regression: a stopped ``SoapServer`` still answered on connections
    that were open before ``stop()``, dispatching onto whatever the
    caller had torn down after it."""
    calls = []

    def handler(method, args):
        calls.append(args["n"])
        return args

    server = front_end(handler).start()
    transport = HttpTransport(*server.endpoint, timeout=5)
    try:
        assert transport.call("echo", {"n": 1}) == {"n": 1}
        server.stop()
        with pytest.raises(TransportError):
            transport.call("echo", {"n": 2})
    finally:
        transport.close()
    assert calls == [1]


@pytest.mark.parametrize("front_end", FRONT_ENDS)
def test_stop_waits_for_a_dispatch_in_flight(front_end):
    running, done = threading.Event(), threading.Event()

    def slow(method, args):
        running.set()
        time.sleep(0.3)
        done.set()
        return "late"

    server = front_end(slow).start()
    transport = HttpTransport(*server.endpoint, timeout=5)
    caller = threading.Thread(
        target=lambda: pytest.raises(TransportError, transport.call, "slow", {})
    )
    caller.start()
    try:
        assert running.wait(5)
        server.stop()
        # Nothing runs on the server's behalf once stop() has returned.
        assert done.is_set()
    finally:
        caller.join(5)
        transport.close()
