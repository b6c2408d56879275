"""Integration tests for the HTTP SOAP server + client + WSDL."""

import socket
import struct
import threading
import time

import pytest

from repro.soap import (
    DirectTransport,
    LoopbackCodecTransport,
    SoapClient,
    SoapFault,
    SoapServer,
)
from repro.soap.client import fetch_wsdl, from_wsdl
from repro.soap.envelope import build_request
from repro.soap.server import _CLIENT_DISCONNECTS
from repro.soap.wsdl import (
    OperationDef,
    ServiceDescription,
    generate_client_stubs,
    generate_wsdl,
    parse_wsdl,
)


def echo_handler(method, args):
    if method == "echo":
        return args
    if method == "fail":
        raise SoapFault("Test.Fail", "requested failure", {"n": 1})
    if method == "crash":
        raise RuntimeError("unexpected")
    raise SoapFault("Test.NoMethod", f"no method {method}")


@pytest.fixture(scope="module")
def server():
    desc = ServiceDescription("Echo")
    desc.add("echo", ("value",), doc="echo the arguments")
    desc.add("fail", ())
    with SoapServer(echo_handler, description=desc) as srv:
        yield srv


class TestHttpRoundTrip:
    def test_call(self, server):
        client = SoapClient.connect_http(*server.endpoint)
        assert client.call("echo", value=42) == {"value": 42}
        client.close()

    def test_fault_propagates(self, server):
        with SoapClient.connect_http(*server.endpoint) as client:
            with pytest.raises(SoapFault) as excinfo:
                client.call("fail")
            assert excinfo.value.code == "Test.Fail"
            assert excinfo.value.detail == {"n": 1}

    def test_unhandled_exception_becomes_server_fault(self, server):
        with SoapClient.connect_http(*server.endpoint) as client:
            with pytest.raises(SoapFault) as excinfo:
                client.call("crash")
            assert excinfo.value.code == "Server"
            assert "RuntimeError" in excinfo.value.message

    def test_connection_reuse(self, server):
        before = server.requests_served
        with SoapClient.connect_http(*server.endpoint) as client:
            for i in range(20):
                client.call("echo", value=i)
        assert server.requests_served == before + 20

    def test_concurrent_clients(self, server):
        errors = []

        def worker(n):
            try:
                with SoapClient.connect_http(*server.endpoint) as client:
                    for i in range(10):
                        assert client.call("echo", value=n * 100 + i) == {
                            "value": n * 100 + i
                        }
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

    def test_404_on_wrong_path(self, server):
        import http.client

        conn = http.client.HTTPConnection(*server.endpoint)
        conn.request("POST", "/other", body=b"")
        assert conn.getresponse().status == 404
        conn.close()

    def test_client_hang_up_is_counted_not_printed(self, capsys):
        """A client that resets its connection while the handler runs
        costs the server a counter tick, not a traceback on stderr."""
        running = threading.Event()

        def slow(method, args):
            running.set()
            time.sleep(0.2)
            return "too late"

        before = _CLIENT_DISCONNECTS.value
        with SoapServer(slow) as srv:
            body = build_request("slow", {})
            sock = socket.create_connection(srv.endpoint, timeout=5)
            sock.sendall(
                b"POST /soap HTTP/1.1\r\nHost: test\r\n"
                b"Content-Type: text/xml; charset=utf-8\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body) + body
            )
            assert running.wait(5)
            # Linger 0: close() sends RST, so the server's write fails.
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            sock.close()
            deadline = time.monotonic() + 5
            while _CLIENT_DISCONNECTS.value == before and time.monotonic() < deadline:
                time.sleep(0.01)
        assert _CLIENT_DISCONNECTS.value == before + 1
        assert capsys.readouterr().err == ""

    def test_reset_mid_body_is_counted_not_printed(self, capsys):
        """A client that resets while its request body is still arriving
        costs a counter tick and a closed connection, nothing on stderr."""
        before = _CLIENT_DISCONNECTS.value
        with SoapServer(echo_handler) as srv:
            sock = socket.create_connection(srv.endpoint, timeout=5)
            sock.sendall(
                b"POST /soap HTTP/1.1\r\nHost: test\r\n"
                b"Content-Type: text/xml; charset=utf-8\r\n"
                b"Content-Length: 1000\r\n\r\n<?xml ver"
            )
            time.sleep(0.3)  # the handler is now blocked reading the body
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            sock.close()
            deadline = time.monotonic() + 5
            while _CLIENT_DISCONNECTS.value == before and time.monotonic() < deadline:
                time.sleep(0.01)
        assert _CLIENT_DISCONNECTS.value == before + 1
        assert capsys.readouterr().err == ""

    def test_malformed_content_length_is_a_400(self, capsys):
        with SoapServer(echo_handler) as srv:
            sock = socket.create_connection(srv.endpoint, timeout=5)
            sock.sendall(
                b"POST /soap HTTP/1.1\r\nHost: test\r\n"
                b"Content-Length: abc\r\n\r\n"
            )
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
            sock.close()
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert capsys.readouterr().err == ""


class TestTransports:
    def test_direct(self):
        client = SoapClient(DirectTransport(echo_handler))
        assert client.call("echo", a=1) == {"a": 1}

    def test_loopback_codec(self):
        client = SoapClient(LoopbackCodecTransport(echo_handler))
        assert client.call("echo", a=[1, None]) == {"a": [1, None]}

    def test_loopback_codec_fault(self):
        client = SoapClient(LoopbackCodecTransport(echo_handler))
        with pytest.raises(SoapFault):
            client.call("fail")


class TestWsdl:
    def test_generate_and_parse(self):
        desc = ServiceDescription("S")
        desc.add("op1", ("a", "b"), doc="does things")
        desc.add("op2", ())
        restored = parse_wsdl(generate_wsdl(desc, endpoint="http://x/soap"))
        assert restored.name == "S"
        assert restored.operation("op1").params == ("a", "b")
        assert restored.operation("op1").doc == "does things"

    def test_fetch_over_http(self, server):
        data = fetch_wsdl(*server.endpoint)
        desc = parse_wsdl(data)
        assert desc.name == "Echo"
        assert desc.operation("echo").params == ("value",)

    def test_generated_stub(self, server):
        stub = from_wsdl(*server.endpoint)
        assert stub.echo(value="hi") == {"value": "hi"}

    def test_stub_drives_the_real_service(self):
        """Regression: MCSService advertised one part named ``...`` per
        operation, so a stub rejected every real argument."""
        from repro.core import MCSService

        service = MCSService()
        service.catalog.define_attribute("run", "int")
        with SoapServer(
            service.handle,
            description=service.description(),
            fault_mapper=service.fault_mapper,
        ) as srv:
            assert b'"..."' not in fetch_wsdl(*srv.endpoint)
            stub = from_wsdl(*srv.endpoint)
            created = stub.create_logical_file(name="a", attributes={"run": 7})
            assert created["name"] == "a"
            assert stub.get_logical_file(name="a")["id"] == created["id"]
            query = {"conditions": [{"attribute": "run", "op": "=", "value": 7}]}
            assert stub.query(query=query) == ["a"]
            with pytest.raises(TypeError):
                stub.create_logical_file(caller="spoofed", name="b")

    def test_stub_validates_params(self):
        desc = ServiceDescription("S")
        desc.add("op", ("x",))
        stub = generate_client_stubs(desc, lambda m, a: a)
        assert stub.op(x=1) == {"x": 1}
        with pytest.raises(TypeError):
            stub.op(bogus=1)

    def test_unknown_operation_lookup(self):
        desc = ServiceDescription("S")
        with pytest.raises(KeyError):
            desc.operation("missing")
