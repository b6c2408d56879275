"""Tests for SOAP envelopes and faults."""

import pytest

from repro.soap.envelope import (
    SoapFault,
    build_fault,
    build_request,
    build_response,
    parse_any_request,
    parse_response,
)
from repro.soap.errors import EncodingError


class TestRequests:
    def test_round_trip(self):
        data = build_request("create", {"name": "f1", "count": 3, "flags": [1, 2]})
        parsed = parse_any_request(data)
        assert parsed.calls == [
            ("create", {"name": "f1", "count": 3, "flags": [1, 2]})
        ]
        assert not parsed.bulk

    def test_no_args(self):
        parsed = parse_any_request(build_request("ping", {}))
        assert parsed.calls == [("ping", {})]

    def test_malformed_request(self):
        with pytest.raises(EncodingError):
            parse_any_request(b"not xml at all")

    def test_missing_method(self):
        with pytest.raises(EncodingError):
            parse_any_request(
                b'<Envelope xmlns="http://schemas.xmlsoap.org/soap/envelope/">'
                b"<Body><Call/></Body></Envelope>"
            )

    def test_missing_body(self):
        with pytest.raises(EncodingError):
            parse_any_request(
                b'<Envelope xmlns="http://schemas.xmlsoap.org/soap/envelope/">'
                b"</Envelope>"
            )


class TestResponses:
    def test_round_trip(self):
        assert parse_response(build_response({"ok": True})) == {"ok": True}
        assert parse_response(build_response(None)) is None
        assert parse_response(build_response([1, "two"])) == [1, "two"]

    def test_fault_raised_on_parse(self):
        fault = SoapFault("MCS.NotFound", "no such file", {"name": "f1"})
        data = build_fault(fault)
        with pytest.raises(SoapFault) as excinfo:
            parse_response(data)
        assert excinfo.value.code == "MCS.NotFound"
        assert excinfo.value.message == "no such file"
        assert excinfo.value.detail == {"name": "f1"}

    def test_neither_response_nor_fault(self):
        with pytest.raises(EncodingError):
            parse_response(
                b'<Envelope xmlns="http://schemas.xmlsoap.org/soap/envelope/">'
                b"<Body/></Envelope>"
            )

    def test_malformed_response(self):
        with pytest.raises(EncodingError):
            parse_response(b"<garbage")


class TestFault:
    def test_repr(self):
        fault = SoapFault("Code", "msg")
        assert "Code" in repr(fault)

    def test_default_detail(self):
        assert SoapFault("c", "m").detail == {}
