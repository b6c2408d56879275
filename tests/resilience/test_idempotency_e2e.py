"""End-to-end write deduplication over a real SOAP server.

The canonical duplicate-write hazard: the server executes a write but
the reply is lost, the client retries, and without deduplication the
write lands twice.  Here a ``lost_reply`` fault is injected into the
HTTP transport and the server's idempotency cache must collapse the
retry into a replay of the original response.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

import pytest

from repro.core import ClientConfig, MCSClient, MCSService
from repro.faults import FaultPlan, FaultRule
from repro.resilience import RetryPolicy
from repro.soap.envelope import (
    ENVELOPE_NS,
    SoapFault,
    build_request,
    parse_response,
)
from repro.soap.errors import TransportError
from repro.soap.server import _IDEM_REPLAYS, SoapServer
from repro.soap.transport import HttpTransport


@pytest.fixture()
def service():
    service = MCSService()
    service.catalog.define_attribute("tag", "string")
    return service


@pytest.fixture()
def server(service):
    with SoapServer(service.handle, fault_mapper=service.fault_mapper) as srv:
        yield srv


def counting_handler(counts):
    """An echo service that tallies how many times each method *executed*."""

    def handler(method, args):
        counts[method] = counts.get(method, 0) + 1
        return {"method": method, "args": args}

    return handler


class TestLostReplyDeduplication:
    def test_write_applies_exactly_once(self, service, server, fault_plan):
        fault_plan(FaultPlan([
            FaultRule("soap.http", op="create_logical_file",
                      kind="lost_reply", times=1),
        ]))
        replays_before = _IDEM_REPLAYS.value
        client = MCSClient.connect(*server.endpoint, ClientConfig(
            caller="/O=Grid/CN=chaos",
            retry_policy=RetryPolicy(base_delay_s=0.001, jitter=0.0),
        ))
        try:
            # The first attempt executes server-side but the reply is
            # dropped; the retry carries the same token and must succeed
            # without a second application.
            client.create_logical_file("f1", attributes={"tag": "x"})
        finally:
            client.close()
        assert service.catalog.list_versions("f1") == [1]
        assert _IDEM_REPLAYS.value == replays_before + 1

    def test_tokenless_client_sees_the_hazard(self, service, server, fault_plan):
        """The control: without the resilient wrapper there is no token
        and no retry — the client sees the lost reply as a hard error
        even though the write landed, which is exactly why bare writes
        must never be blindly retried."""
        fault_plan(FaultPlan([
            FaultRule("soap.http", op="create_logical_file",
                      kind="lost_reply", times=1),
        ]))
        client = MCSClient.connect(*server.endpoint, caller="/O=Grid/CN=chaos")
        try:
            with pytest.raises(TransportError):
                client.create_logical_file("f2", attributes={"tag": "x"})
        finally:
            client.close()
        # ...and the write *did* land server-side: the hazard is real.
        assert service.catalog.list_versions("f2") == [1]


class TestHeaderEchoAndReplay:
    def test_server_echoes_the_idempotency_key(self):
        counts = {}
        with SoapServer(counting_handler(counts)) as srv:
            transport = HttpTransport(*srv.endpoint)
            try:
                payload = build_request(
                    "ping", {}, "rid-1", {"IdempotencyKey": "tok-123"}
                )
                body = transport._post(payload, "ping")
                assert parse_response(body)["method"] == "ping"
                echo = ET.fromstring(body).find(
                    f"{{{ENVELOPE_NS}}}Header/{{{ENVELOPE_NS}}}IdempotencyKey"
                )
                assert echo is not None and echo.text == "tok-123"
            finally:
                transport.close()

    def test_replay_returns_identical_bytes_without_rerunning(self):
        counts = {}
        with SoapServer(counting_handler(counts)) as srv:
            transport = HttpTransport(*srv.endpoint)
            try:
                payload = build_request(
                    "touch", {"n": 1}, "rid-2", {"IdempotencyKey": "tok-replay"}
                )
                first = transport._post(payload, "touch")
                second = transport._post(payload, "touch")
            finally:
                transport.close()
        assert first == second  # replayed bytes, byte-for-byte
        assert counts["touch"] == 1  # the handler ran exactly once

    def test_requests_without_a_token_are_never_deduplicated(self):
        counts = {}
        with SoapServer(counting_handler(counts)) as srv:
            transport = HttpTransport(*srv.endpoint)
            try:
                payload = build_request("touch", {"n": 1}, "rid-3", None)
                transport._post(payload, "touch")
                transport._post(payload, "touch")
            finally:
                transport.close()
        assert counts["touch"] == 2

    def test_failed_requests_are_not_cached(self):
        """Only 200 responses are cached: a transient fault must not
        become sticky for the token's lifetime."""
        attempts = {"n": 0}

        def flaky(method, args):
            attempts["n"] += 1
            if attempts["n"] == 1:
                raise SoapFault("Server.Unavailable", "warming up")
            return "ready"

        with SoapServer(flaky) as srv:
            transport = HttpTransport(*srv.endpoint)
            try:
                payload = build_request(
                    "warm", {}, "rid-4", {"IdempotencyKey": "tok-f"}
                )
                with pytest.raises(SoapFault):
                    parse_response(transport._post(payload, "warm"))
                result = parse_response(transport._post(payload, "warm"))
                assert result == "ready"  # retried for real, not replayed
            finally:
                transport.close()


class TestIdempotencyCacheEviction:
    def test_lru_eviction_bounds_the_cache(self):
        counts = {}
        with SoapServer(
            counting_handler(counts), idempotency_cache_size=2
        ) as srv:
            transport = HttpTransport(*srv.endpoint)
            try:
                for token in ("t1", "t2", "t3"):
                    payload = build_request(
                        "ping", {}, token, {"IdempotencyKey": token}
                    )
                    transport._post(payload, "ping")
                assert len(srv._dispatcher._idem_cache) == 2
                assert "t1" not in srv._dispatcher._idem_cache  # oldest evicted
                assert {"t2", "t3"} <= set(srv._dispatcher._idem_cache)
            finally:
                transport.close()
