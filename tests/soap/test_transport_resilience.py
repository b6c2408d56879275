"""Transport failure handling: reconnects, injected latency, server restart."""

import time

import pytest

from repro import faults
from repro.faults import FaultPlan
from repro.soap import SoapClient, SoapFault, SoapServer
from repro.soap.errors import TransportError
from repro.soap.transport import HttpTransport


def echo(method, args):
    if method == "echo":
        return args
    raise SoapFault("NoMethod", method)


class TestReconnect:
    def test_survives_server_restart(self):
        server = SoapServer(echo).start()
        host, port = server.endpoint
        transport = HttpTransport(host, port)
        assert transport.call("echo", {"n": 1}) == {"n": 1}
        # Kill the server; the client's keep-alive socket is now dead.
        server.stop()
        replacement = SoapServer(echo, host=host, port=port).start()
        try:
            # One reconnect attempt inside call() must recover.
            assert transport.call("echo", {"n": 2}) == {"n": 2}
        finally:
            transport.close()
            replacement.stop()

    def test_unreachable_server_raises_transport_error(self):
        server = SoapServer(echo).start()
        host, port = server.endpoint
        server.stop()
        transport = HttpTransport(host, port, timeout=0.5)
        with pytest.raises(TransportError):
            transport.call("echo", {"n": 1})
        transport.close()


def test_fault_plan_latency_slows_the_link_not_the_answer():
    """A slow link is a ``soap.http`` latency rule, end to end."""
    plan = FaultPlan.parse("seed=1;soap.http:*=latency,ms=50")
    with SoapServer(echo) as server, faults.active(plan):
        transport = HttpTransport(*server.endpoint)
        try:
            t0 = time.perf_counter()
            assert transport.call("echo", {"n": 7}) == {"n": 7}
            assert time.perf_counter() - t0 >= 0.05
        finally:
            transport.close()


class TestBulkResilience:
    """Hostile <BulkRequest> payloads must fault, never kill the server."""

    @staticmethod
    def _post_raw(host, port, payload: bytes):
        import http.client

        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request(
                "POST",
                "/soap",
                body=payload,
                headers={"Content-Type": "text/xml; charset=utf-8"},
            )
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    @pytest.mark.parametrize(
        "payload",
        [
            b"",
            b"<garbage",
            b"<Envelope><Body><BulkRequest>",
            b"<Envelope><Body><BulkRequest><Rogue/></BulkRequest></Body>"
            b"</Envelope>",
            b"<Envelope><Body><BulkRequest><Call/></BulkRequest></Body>"
            b"</Envelope>",
        ],
        ids=repr,
    )
    def test_malformed_bulk_yields_fault_and_server_survives(self, payload):
        from repro.soap.envelope import parse_response

        with SoapServer(echo) as server:
            host, port = server.endpoint
            status, body = self._post_raw(host, port, payload)
            assert status == 500
            with pytest.raises(SoapFault):  # structured fault, not a crash
                parse_response(body)
            # The server must still answer a well-formed request.
            transport = HttpTransport(host, port)
            try:
                assert transport.call("echo", {"n": 1}) == {"n": 1}
            finally:
                transport.close()

    def test_oversized_batch_rejected_as_batch_too_large(self):
        with SoapServer(echo, max_bulk_items=4) as server:
            transport = HttpTransport(*server.endpoint)
            try:
                with pytest.raises(SoapFault) as excinfo:
                    transport.call_bulk([("echo", {"n": i}) for i in range(6)])
                assert excinfo.value.code == "Client.BatchTooLarge"
                # An in-limit batch still works on the same connection.
                items = transport.call_bulk(
                    [("echo", {"n": i}) for i in range(4)]
                )
                assert [item.unwrap() for item in items] == [
                    {"n": i} for i in range(4)
                ]
            finally:
                transport.close()

    def test_bulk_item_fault_does_not_poison_batch(self):
        with SoapServer(echo) as server:
            transport = HttpTransport(*server.endpoint)
            try:
                items = transport.call_bulk(
                    [("echo", {"n": 1}), ("bogus", {}), ("echo", {"n": 2})]
                )
                assert [item.ok for item in items] == [True, False, True]
                assert items[0].unwrap() == {"n": 1}
                assert items[2].unwrap() == {"n": 2}
                with pytest.raises(SoapFault):
                    items[1].unwrap()
            finally:
                transport.close()


class TestCounterExactness:
    def test_concurrent_posts_count_exactly(self):
        """Regression: requests_served lost updates under concurrent POSTs
        when it was a plain int behind the GIL-unsafe += pattern."""
        import threading

        per_thread = 25
        threads_n = 8
        with SoapServer(echo, max_workers=8) as server:
            before = server.requests_served

            def hammer():
                transport = HttpTransport(*server.endpoint)
                try:
                    for i in range(per_thread):
                        transport.call("echo", {"i": i})
                finally:
                    transport.close()

            threads = [
                threading.Thread(target=hammer) for _ in range(threads_n)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert (
                server.requests_served == before + per_thread * threads_n
            )
            assert server.faults_served == 0


class TestWorkerPool:
    def test_max_workers_bounds_concurrency(self):
        import threading

        active = []
        peak = [0]
        lock = threading.Lock()

        def slow_handler(method, args):
            with lock:
                active.append(1)
                peak[0] = max(peak[0], len(active))
            time.sleep(0.05)
            with lock:
                active.pop()
            return None

        with SoapServer(slow_handler, max_workers=2) as server:
            clients = [SoapClient.connect_http(*server.endpoint) for _ in range(6)]
            threads = [
                threading.Thread(target=c.call, args=("op",)) for c in clients
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for c in clients:
                c.close()
        assert peak[0] <= 2


class TestTimeoutSplit:
    """Regression: ``timeout`` used to arm *both* the TCP connect and every
    socket read, so a slow response inherited the generous connect budget
    (or a tight connect budget strangled legitimate slow responses)."""

    def test_read_timeout_bounds_a_slow_response(self, fault_plan):
        fault_plan("soap.server:slow=latency,ms=600")
        with SoapServer(echo) as server:
            transport = HttpTransport(
                *server.endpoint, connect_timeout=5.0, read_timeout=0.15
            )
            t0 = time.perf_counter()
            with pytest.raises(TransportError):
                transport.call("slow", {})
            elapsed = time.perf_counter() - t0
            transport.close()
        # Gave up on the read deadline (plus one reconnect attempt), far
        # inside the 5 s connect budget the old conflated code would use.
        assert elapsed < 2.0

    def test_tight_connect_timeout_does_not_strangle_slow_reads(self, fault_plan):
        fault_plan("soap.server:echo=latency,ms=300")
        with SoapServer(echo) as server:
            transport = HttpTransport(
                *server.endpoint, connect_timeout=0.1, read_timeout=5.0
            )
            # Loopback connect is instant; the 300 ms response must ride
            # the read deadline, not the 100 ms connect deadline.
            assert transport.call("echo", {"n": 3}) == {"n": 3}
            transport.close()

    def test_both_default_to_the_legacy_timeout(self):
        transport = HttpTransport("localhost", 1, timeout=7.5)
        assert transport.connect_timeout == 7.5
        assert transport.read_timeout == 7.5
        transport.close()

    def test_split_reaches_transport_through_connect_http(self):
        with SoapServer(echo) as server:
            client = SoapClient.connect_http(
                *server.endpoint, connect_timeout=1.0, read_timeout=9.0
            )
            assert client._transport.connect_timeout == 1.0
            assert client._transport.read_timeout == 9.0
            assert client.call("echo", n=1) == {"n": 1}
            client.close()
