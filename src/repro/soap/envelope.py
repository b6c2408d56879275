"""SOAP envelopes: request/response framing, headers, faults, and batches.

Requests may carry a ``<Header><RequestId>`` element: the client stamps
its current trace request id there and the server restores it into its
own context, so spans and log lines on both sides of the socket share
one correlation id (see :mod:`repro.obs.trace`).

Besides the one-call ``<Call>`` form, a request body may be a
``<BulkRequest>`` carrying N ``<Call>`` elements — N operations in one
HTTP round trip.  The matching ``<BulkResponse>`` carries one ``<Item>``
per operation, each either a result or an inline fault, so one bad item
never poisons the rest of the batch.

Every build/parse function feeds the ``mcs_soap_codec_seconds`` timing
histogram — the codec share of the paper's "web service overhead" — and
is measured identically whether reached through a real socket
(:class:`~repro.soap.transport.HttpTransport`) or the loopback codec
ablation transport.

This module and :mod:`repro.soap.xmlcodec` are the one place the wire
format is written down: the client transports, the threaded server and
the asyncio front end all build envelopes with the ``build_*``
functions here (string building, byte-identical to ElementTree's
serialization except for ``\\r`` in text) and read them with the
``parse_*`` functions (expat's element tree).
"""

from __future__ import annotations

import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.obs.metrics import OBS, histogram as _obs_histogram
from repro.soap.errors import EncodingError
from repro.soap.xmlcodec import (
    decode_value,
    encode_value,
    escape_attr,
    escape_text,
)

ENVELOPE_NS = "http://schemas.xmlsoap.org/soap/envelope/"
_ENVELOPE_OPEN = f'<Envelope xmlns="{ENVELOPE_NS}">'

_CODEC_SECONDS = _obs_histogram(
    "mcs_soap_codec_seconds",
    "SOAP XML encode/decode time per envelope",
    labels=("op",),
)
_ENCODE_REQUEST = _CODEC_SECONDS.labels("encode_request")
_DECODE_REQUEST = _CODEC_SECONDS.labels("decode_request")
_ENCODE_RESPONSE = _CODEC_SECONDS.labels("encode_response")
_DECODE_RESPONSE = _CODEC_SECONDS.labels("decode_response")
_ENCODE_FAULT = _CODEC_SECONDS.labels("encode_fault")
_ENCODE_BULK_REQUEST = _CODEC_SECONDS.labels("encode_bulk_request")
_DECODE_BULK_REQUEST = _CODEC_SECONDS.labels("decode_bulk_request")
_ENCODE_BULK_RESPONSE = _CODEC_SECONDS.labels("encode_bulk_response")
_DECODE_BULK_RESPONSE = _CODEC_SECONDS.labels("decode_bulk_response")


class SoapFault(Exception):
    """A SOAP fault: carries a machine-readable code and detail struct."""

    def __init__(self, code: str, message: str, detail: Optional[dict] = None) -> None:
        super().__init__(message)
        self.code = code
        self.message = message
        self.detail = detail or {}

    def __repr__(self) -> str:
        return f"SoapFault({self.code!r}, {self.message!r})"


# The pieces below are joined with ``+``, not formatted: a str subclass
# (an enum) must contribute its characters, never its ``__format__``.


def _text_element(out: list[str], tag: str, text: Optional[str]) -> None:
    if text:
        out.append("<" + tag + ">" + escape_text(text) + "</" + tag + ">")
    else:
        out.append("<" + tag + " />")


def _open_envelope(
    request_id: Optional[str],
    header_fields: Optional[dict[str, str]],
) -> list[str]:
    """The envelope's opening pieces, with a ``<Header>`` when there is
    anything to carry, up to and including ``<Body>``.

    ``header_fields`` carries out-of-band per-request metadata — today
    the resilience layer's ``Deadline`` (remaining seconds budget) and
    ``IdempotencyKey`` (write-deduplication token) elements.
    """
    out = [_ENVELOPE_OPEN]
    if request_id is not None or header_fields:
        out.append("<Header>")
        if request_id is not None:
            _text_element(out, "RequestId", request_id)
        for name, value in (header_fields or {}).items():
            _text_element(out, name, value)
        out.append("</Header>")
    out.append("<Body>")
    return out


def _close_envelope(out: list[str]) -> bytes:
    out.append("</Body></Envelope>")
    # As ElementTree writes: a lone surrogate becomes a character reference.
    return "".join(out).encode("utf-8", "xmlcharrefreplace")


def _encode_call(out: list[str], method: str, args: dict[str, Any]) -> None:
    if not args:
        out.append('<Call method="' + escape_attr(method) + '" />')
        return
    out.append('<Call method="' + escape_attr(method) + '">')
    for name, value in args.items():
        out.append('<arg name="' + escape_attr(name) + '">')
        encode_value(out, value)
        out.append("</arg>")
    out.append("</Call>")


def _encode_fault(
    out: list[str], tag: str, fault: SoapFault, attrs: str = ""
) -> None:
    """``<tag{attrs} code=...><message/><detail/></tag>``."""
    out.append("<" + tag + attrs + ' code="' + escape_attr(fault.code) + '">')
    _text_element(out, "message", fault.message)
    encode_value(out, fault.detail, "detail")
    out.append("</" + tag + ">")


def build_request(
    method: str,
    args: dict[str, Any],
    request_id: Optional[str] = None,
    header_fields: Optional[dict[str, str]] = None,
) -> bytes:
    """Serialize a method call to a SOAP request document.

    ``request_id``, when given, travels in a ``<Header><RequestId>``
    element for end-to-end trace correlation; ``header_fields`` adds
    further header elements (see :func:`_open_envelope`).
    """
    start = time.perf_counter() if OBS.enabled else 0.0
    out = _open_envelope(request_id, header_fields)
    _encode_call(out, method, args)
    data = _close_envelope(out)
    if OBS.enabled:
        _ENCODE_REQUEST.observe(time.perf_counter() - start)
    return data


# --------------------------------------------------------------------------
# Bulk (multi-call) envelopes
# --------------------------------------------------------------------------


@dataclass
class BulkItem:
    """Per-operation outcome inside a bulk exchange.

    Exactly one of ``result`` (when ``ok``) or ``fault`` (when not) is
    meaningful; a failed item carries a full :class:`SoapFault` so the
    caller can surface the same typed error a single call would raise.
    """

    ok: bool
    result: Any = None
    fault: Optional[SoapFault] = None

    def unwrap(self) -> Any:
        """The result, or raise the carried fault."""
        if self.ok:
            return self.result
        assert self.fault is not None
        raise self.fault


@dataclass
class ParsedRequest:
    """A decoded request body: one call, or a batch of them."""

    calls: list[tuple[str, dict[str, Any]]] = field(default_factory=list)
    bulk: bool = False
    request_id: Optional[str] = None
    headers: dict[str, str] = field(default_factory=dict)


def build_bulk_request(
    operations: Sequence[tuple[str, dict[str, Any]]],
    request_id: Optional[str] = None,
    header_fields: Optional[dict[str, str]] = None,
) -> bytes:
    """Serialize N method calls into one ``<BulkRequest>`` document."""
    start = time.perf_counter() if OBS.enabled else 0.0
    out = _open_envelope(request_id, header_fields)
    if operations:
        out.append("<BulkRequest>")
        for method, args in operations:
            _encode_call(out, method, args)
        out.append("</BulkRequest>")
    else:
        out.append("<BulkRequest />")
    data = _close_envelope(out)
    if OBS.enabled:
        _ENCODE_BULK_REQUEST.observe(time.perf_counter() - start)
    return data


def _parse_call(call: ET.Element) -> tuple[str, dict[str, Any]]:
    method = call.get("method")
    if not method:
        raise EncodingError("request missing method name")
    args: dict[str, Any] = {}
    for arg in call:
        name = arg.get("name")
        if name is None or len(arg) != 1:
            raise EncodingError("malformed request argument")
        args[name] = decode_value(arg[0])
    return method, args


def parse_any_request(data: bytes) -> ParsedRequest:
    """Parse a request that may be a single ``<Call>`` or a ``<BulkRequest>``."""
    start = time.perf_counter() if OBS.enabled else 0.0
    try:
        envelope = ET.fromstring(data)
    except ET.ParseError as exc:
        raise EncodingError(f"malformed request envelope: {exc}") from exc
    body = _body(envelope)
    request_id = _header_request_id(envelope)
    headers = _header_fields(envelope)
    for child in body:
        tag = _local(child.tag)
        if tag == "Call":
            parsed = ParsedRequest(
                calls=[_parse_call(child)],
                bulk=False,
                request_id=request_id,
                headers=headers,
            )
            if OBS.enabled:
                _DECODE_REQUEST.observe(time.perf_counter() - start)
            return parsed
        if tag == "BulkRequest":
            calls = []
            for sub in child:
                if _local(sub.tag) != "Call":
                    raise EncodingError(
                        f"BulkRequest carries unexpected element {_local(sub.tag)!r}"
                    )
                calls.append(_parse_call(sub))
            parsed = ParsedRequest(
                calls=calls, bulk=True, request_id=request_id, headers=headers
            )
            if OBS.enabled:
                _DECODE_BULK_REQUEST.observe(time.perf_counter() - start)
            return parsed
    raise EncodingError("Body missing Call")


def build_bulk_response(
    items: Sequence[BulkItem],
    header_fields: Optional[dict[str, str]] = None,
) -> bytes:
    """Serialize per-operation outcomes into one ``<BulkResponse>``."""
    start = time.perf_counter() if OBS.enabled else 0.0
    out = _open_envelope(None, header_fields)
    if items:
        out.append("<BulkResponse>")
        for item in items:
            if item.ok:
                out.append('<Item ok="1">')
                encode_value(out, item.result, "result")
                out.append("</Item>")
            else:
                fault = item.fault if item.fault is not None else SoapFault("Server", "")
                _encode_fault(out, "Item", fault, ' ok="0"')
        out.append("</BulkResponse>")
    else:
        out.append("<BulkResponse />")
    data = _close_envelope(out)
    if OBS.enabled:
        _ENCODE_BULK_RESPONSE.observe(time.perf_counter() - start)
    return data


def parse_bulk_response(data: bytes) -> list[BulkItem]:
    """Parse a ``<BulkResponse>``; envelope-level faults are raised,
    per-item faults are returned inline (never raised)."""
    start = time.perf_counter() if OBS.enabled else 0.0
    try:
        envelope = ET.fromstring(data)
    except ET.ParseError as exc:
        raise EncodingError(f"malformed response envelope: {exc}") from exc
    body = _body(envelope)
    for child in body:
        tag = _local(child.tag)
        if tag == "BulkResponse":
            items = [_parse_bulk_item(sub) for sub in child]
            if OBS.enabled:
                _DECODE_BULK_RESPONSE.observe(time.perf_counter() - start)
            return items
        if tag == "Fault":
            raise _fault_from_element(child)
    raise EncodingError("response carries neither BulkResponse nor Fault")


def _parse_bulk_item(element: ET.Element) -> BulkItem:
    if _local(element.tag) != "Item":
        raise EncodingError(
            f"BulkResponse carries unexpected element {_local(element.tag)!r}"
        )
    ok = element.get("ok")
    if ok == "1":
        if len(element) != 1:
            raise EncodingError("malformed bulk item payload")
        return BulkItem(ok=True, result=decode_value(element[0]))
    if ok == "0":
        message = ""
        detail: dict = {}
        for sub in element:
            if _local(sub.tag) == "message":
                message = sub.text or ""
            elif _local(sub.tag) == "detail":
                detail = decode_value(sub)
        fault = SoapFault(element.get("code", "Server"), message, detail)
        return BulkItem(ok=False, fault=fault)
    raise EncodingError("bulk item missing ok flag")


def build_response(
    result: Any, header_fields: Optional[dict[str, str]] = None
) -> bytes:
    """Serialize a successful method result.

    ``header_fields`` lets the server echo per-request metadata back —
    notably the ``IdempotencyKey`` it deduplicated on.
    """
    start = time.perf_counter() if OBS.enabled else 0.0
    out = _open_envelope(None, header_fields)
    out.append("<Response>")
    encode_value(out, result, "result")
    out.append("</Response>")
    data = _close_envelope(out)
    if OBS.enabled:
        _ENCODE_RESPONSE.observe(time.perf_counter() - start)
    return data


def build_fault(fault: SoapFault) -> bytes:
    """Serialize a fault response."""
    start = time.perf_counter() if OBS.enabled else 0.0
    out = _open_envelope(None, None)
    _encode_fault(out, "Fault", fault)
    data = _close_envelope(out)
    if OBS.enabled:
        _ENCODE_FAULT.observe(time.perf_counter() - start)
    return data


def parse_response(data: bytes) -> Any:
    """Parse a response; returns the result or raises the carried fault."""
    if not OBS.enabled:
        return _parse_response(data)
    start = time.perf_counter()
    try:
        return _parse_response(data)
    finally:
        _DECODE_RESPONSE.observe(time.perf_counter() - start)


def _parse_response(data: bytes) -> Any:
    try:
        envelope = ET.fromstring(data)
    except ET.ParseError as exc:
        raise EncodingError(f"malformed response envelope: {exc}") from exc
    body = _body(envelope)
    for child in body:
        tag = _local(child.tag)
        if tag == "Response":
            if len(child) != 1:
                raise EncodingError("malformed response payload")
            return decode_value(child[0])
        if tag == "Fault":
            raise _fault_from_element(child)
    raise EncodingError("response carries neither Response nor Fault")


def _fault_from_element(element: ET.Element) -> SoapFault:
    message = ""
    detail: dict = {}
    for sub in element:
        if _local(sub.tag) == "message":
            message = sub.text or ""
        elif _local(sub.tag) == "detail":
            detail = decode_value(sub)
    return SoapFault(element.get("code", "Server"), message, detail)


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _header_request_id(envelope: ET.Element) -> Optional[str]:
    for child in envelope:
        if _local(child.tag) == "Header":
            for sub in child:
                if _local(sub.tag) == "RequestId":
                    # <RequestId /> is an empty id, not an absent one.
                    return sub.text or ""
    return None


def _header_fields(envelope: ET.Element) -> dict[str, str]:
    """All header elements except RequestId, as ``{localname: text}``."""
    fields: dict[str, str] = {}
    for child in envelope:
        if _local(child.tag) == "Header":
            for sub in child:
                name = _local(sub.tag)
                if name != "RequestId":
                    fields[name] = sub.text or ""
    return fields


def _body(envelope: ET.Element) -> ET.Element:
    for child in envelope:
        if _local(child.tag) == "Body":
            return child
    raise EncodingError("envelope missing Body")
