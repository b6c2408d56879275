"""The one envelope encoder against an ElementTree reference.

``repro.soap.envelope`` writes every envelope — request, bulk request,
response, bulk response, fault — by string building, for the client
and both servers.  The reference below builds the same envelopes as
element trees and serializes them with ``ET.tostring``; the encoder's
bytes must equal the reference's, except that a ``\\r`` in text is
written ``&#13;`` (ElementTree leaves it bare and the parser would read
it back as ``\\n``).  Decoding the bytes must return what was encoded.
"""

from __future__ import annotations

import datetime as dt
import enum
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.soap.envelope import (
    ENVELOPE_NS,
    BulkItem,
    SoapFault,
    build_bulk_request,
    build_bulk_response,
    build_fault,
    build_request,
    build_response,
    parse_any_request,
    parse_bulk_response,
    parse_response,
)
from repro.soap.errors import EncodingError
from tests.soap.test_xmlcodec import _xml_chars, _xml_text, json_like

# --------------------------------------------------------------------------
# The reference: element trees, serialized by ElementTree
# --------------------------------------------------------------------------


def _ref_value(parent, value, tag="value"):
    element = ET.SubElement(parent, tag)
    if value is None:
        element.set("t", "null")
    elif isinstance(value, bool):
        element.set("t", "boolean")
        element.text = "1" if value else "0"
    elif isinstance(value, int):
        element.set("t", "int")
        element.text = str(value)
    elif isinstance(value, float):
        element.set("t", "double")
        element.text = repr(value)
    elif isinstance(value, str):
        element.set("t", "string")
        element.text = value
    elif isinstance(value, dt.datetime):
        element.set("t", "dateTime")
        element.text = value.strftime("%Y-%m-%dT%H:%M:%S.%f")
    elif isinstance(value, dt.date):
        element.set("t", "date")
        element.text = value.strftime("%Y-%m-%d")
    elif isinstance(value, dt.time):
        element.set("t", "time")
        element.text = value.strftime("%H:%M:%S.%f")
    elif isinstance(value, (list, tuple)):
        element.set("t", "array")
        for item in value:
            _ref_value(element, item, "item")
    else:
        element.set("t", "struct")
        for key, item in value.items():
            member = ET.SubElement(element, "member", {"name": key})
            _ref_value(member, item)


def _ref_envelope(request_id=None, header_fields=None):
    envelope = ET.Element("Envelope", {"xmlns": ENVELOPE_NS})
    if request_id is not None or header_fields:
        header = ET.SubElement(envelope, "Header")
        if request_id is not None:
            ET.SubElement(header, "RequestId").text = request_id
        for name, text in (header_fields or {}).items():
            ET.SubElement(header, name).text = text
    return envelope, ET.SubElement(envelope, "Body")


def _ref_call(parent, method, args):
    call = ET.SubElement(parent, "Call", {"method": method})
    for name, value in args.items():
        _ref_value(ET.SubElement(call, "arg", {"name": name}), value)


def _ref_fault(element, fault):
    element.set("code", fault.code)
    ET.SubElement(element, "message").text = fault.message
    _ref_value(element, fault.detail, "detail")


def _serialize(envelope):
    # The one intended difference: \r in text travels as a reference.
    # ElementTree already writes it that way inside attribute values, so
    # every bare \r in its output is text.
    return ET.tostring(envelope, encoding="utf-8").replace(b"\r", b"&#13;")


def ref_request(method, args, request_id=None, header_fields=None):
    envelope, body = _ref_envelope(request_id, header_fields)
    _ref_call(body, method, args)
    return _serialize(envelope)


def ref_bulk_request(operations, request_id=None, header_fields=None):
    envelope, body = _ref_envelope(request_id, header_fields)
    bulk = ET.SubElement(body, "BulkRequest")
    for method, args in operations:
        _ref_call(bulk, method, args)
    return _serialize(envelope)


def ref_response(result, header_fields=None):
    envelope, body = _ref_envelope(None, header_fields)
    _ref_value(ET.SubElement(body, "Response"), result, "result")
    return _serialize(envelope)


def ref_bulk_response(items, header_fields=None):
    envelope, body = _ref_envelope(None, header_fields)
    bulk = ET.SubElement(body, "BulkResponse")
    for item in items:
        element = ET.SubElement(bulk, "Item")
        if item.ok:
            element.set("ok", "1")
            _ref_value(element, item.result, "result")
        else:
            element.set("ok", "0")
            _ref_fault(element, item.fault)
    return _serialize(envelope)


def ref_fault(fault):
    envelope, body = _ref_envelope()
    _ref_fault(ET.SubElement(body, "Fault"), fault)
    return _serialize(envelope)


def _echo(data):
    """The response's ``IdempotencyKey`` header, read with ElementTree."""
    element = ET.fromstring(data).find(
        f"{{{ENVELOPE_NS}}}Header/{{{ENVELOPE_NS}}}IdempotencyKey"
    )
    return None if element is None else element.text or ""


def _same_fault(got, want):
    return (got.code, got.message, got.detail) == (want.code, want.message, want.detail)


# --------------------------------------------------------------------------
# Explicit corpora
# --------------------------------------------------------------------------

#: (method, args) shapes covering every scalar type our clients emit, and
#: arguments that need escaping or nest.
CALL_CORPUS = [
    ("ping", {}),
    ("get_logical_file", {"name": "f-001"}),
    ("create_logical_file", {"name": "f", "collection": None}),
    ("set_flag", {"value": True}),
    ("clear_flag", {"value": False}),
    ("count", {"n": 0}),
    ("count", {"n": -12345}),
    ("scale", {"x": 1.5}),
    ("scale", {"x": -0.25}),
    ("note", {"text": ""}),
    ("note", {"text": "plain words with spaces"}),
    ("note", {"text": "unicode: éü☃"}),
    ("note", {"text": "tabs\tand\nnewlines"}),
    ("many", {"a": 1, "b": "two", "c": None, "d": 2.5, "e": False}),
    ("op", {"text": "an & entity"}),
    ("op", {"text": "a < bracket"}),
    ("op", {"text": "carriage\rreturn"}),
    ("op", {"items": ["a", "b"]}),
    ("op", {"mapping": {"k": "v"}}),
    ('odd "method" <&>', {'arg "name"\t<&>\r\n': "x"}),
]

#: (request_id, header_fields) pairs.  An empty RequestId is written as
#: ``<RequestId />`` and reads back as ``""``, like every other header field.
HEADER_CORPUS = [
    (None, None),
    ("rid-123", None),
    ("", None),
    (None, {"TraceParent": "00-abc-def-01"}),
    ("rid", {"TraceParent": "00-abc-def-01", "DeadlineMs": "1500"}),
]

#: Result shapes, from the scalars and name lists hot operations return
#: to the ones that need escaping or nest.
RESULT_CORPUS = [
    None,
    True,
    False,
    0,
    42,
    -7,
    10**15,
    "",
    "logical-file-0001",
    "unicode é☃",
    [],
    ["a"],
    ["f-1", "f-2", "f-3"],
    1.5,
    {"k": "v"},
    "has & entity",
    "has < bracket",
    "has\rreturn",
    ["ok", ""],
    ["ok", "bad & item"],
    ["ok", 3],
    [True],
    (1, 2),
]


class TestCorpora:
    @pytest.mark.parametrize("method,args", CALL_CORPUS)
    @pytest.mark.parametrize("request_id,header_fields", HEADER_CORPUS)
    def test_request(self, method, args, request_id, header_fields):
        data = build_request(method, args, request_id, header_fields)
        assert data == ref_request(method, args, request_id, header_fields)
        parsed = parse_any_request(data)
        assert not parsed.bulk
        assert parsed.calls == [(method, args)]
        assert parsed.request_id == request_id
        assert parsed.headers == (header_fields or {})

    @pytest.mark.parametrize("request_id,header_fields", HEADER_CORPUS)
    def test_bulk_request(self, request_id, header_fields):
        data = build_bulk_request(CALL_CORPUS, request_id, header_fields)
        assert data == ref_bulk_request(CALL_CORPUS, request_id, header_fields)
        parsed = parse_any_request(data)
        assert parsed.bulk and parsed.calls == CALL_CORPUS
        assert parsed.request_id == request_id

    @pytest.mark.parametrize("result", RESULT_CORPUS, ids=repr)
    def test_response(self, result):
        want = list(result) if isinstance(result, tuple) else result
        for echo in (None, {"IdempotencyKey": "tok & <1>"}):
            data = build_response(result, echo)
            assert data == ref_response(result, echo)
            assert parse_response(data) == want
            assert _echo(data) == (echo or {}).get("IdempotencyKey")

    def test_types_keep_their_tags(self):
        # bool subclasses int and datetime subclasses date: order matters.
        assert b'<result t="boolean">1</result>' in build_response(True)
        assert b'<result t="int">1</result>' in build_response(1)
        stamp = dt.datetime(2003, 11, 15, 12, 30)
        assert b't="dateTime"' in build_response(stamp)
        assert parse_response(build_response(stamp)) == stamp

    def test_enum_values_serialize_as_their_base_type(self):
        class Kind(str, enum.Enum):
            FILE = "file"

        class Level(enum.IntEnum):
            HIGH = 3

        args = {"kind": Kind.FILE, "level": Level.HIGH, "keys": {"k": Kind.FILE}}
        assert build_request("op", args) == ref_request("op", args)
        assert parse_any_request(build_request("op", args)).calls == [
            ("op", {"kind": "file", "level": 3, "keys": {"k": "file"}})
        ]

    def test_bulk_response_and_fault(self):
        fault = SoapFault("MCS.NotFound", "no <such> file\r\n", {"name": "f&1"})
        items = [
            BulkItem(ok=True, result=["a", 1]),
            BulkItem(ok=False, fault=fault),
            BulkItem(ok=False, fault=SoapFault("Server", "")),
        ]
        data = build_bulk_response(items, {"IdempotencyKey": "tok"})
        assert data == ref_bulk_response(items, {"IdempotencyKey": "tok"})
        parsed = parse_bulk_response(data)
        assert parsed[0].ok and parsed[0].result == ["a", 1]
        assert all(_same_fault(p.fault, i.fault) for p, i in zip(parsed[1:], items[1:]))
        assert build_fault(fault) == ref_fault(fault)
        with pytest.raises(SoapFault) as excinfo:
            parse_response(build_fault(fault))
        assert _same_fault(excinfo.value, fault)

    def test_empty_batches(self):
        assert build_bulk_request([]) == ref_bulk_request([])
        assert parse_any_request(build_bulk_request([])).calls == []
        assert build_bulk_response([]) == ref_bulk_response([])
        assert parse_bulk_response(build_bulk_response([])) == []

    def test_unencodable_values_raise(self):
        for bad in (object(), {1: "x"}, [{"ok": 1, 2: "no"}]):
            with pytest.raises(EncodingError):
                build_response(bad)
            with pytest.raises(EncodingError):
                build_request("op", {"arg": bad})

    @pytest.mark.parametrize(
        "payload",
        [
            b"",
            b"not xml at all",
            b"<Envelope>wrong ns</Envelope>",
            b'<Envelope xmlns="http://schemas.xmlsoap.org/soap/envelope/">'
            b"<Body><Call method=\"x\"><junk /></Call></Body></Envelope>",
            b'<Envelope xmlns="http://schemas.xmlsoap.org/soap/envelope/">'
            b"<Body></Body></Envelope>trailing",
        ],
    )
    def test_junk_is_a_structured_error(self, payload):
        with pytest.raises(EncodingError):
            parse_any_request(payload)


# --------------------------------------------------------------------------
# Every envelope kind, over generated values
# --------------------------------------------------------------------------

_special = st.sampled_from(["", "&", "<", ">", '"', "a&b", "<k>", '"q"', "\r", "\r\n"])
_keys = st.one_of(_special.filter(bool), st.text(alphabet=_xml_chars, min_size=1, max_size=8))
_scalars = st.one_of(
    _special,
    st.dates(min_value=dt.date(1900, 1, 1), max_value=dt.date(2100, 1, 1)),
    st.times(),
    st.datetimes(
        min_value=dt.datetime(1900, 1, 1), max_value=dt.datetime(2100, 1, 1)
    ),
)
values = st.recursive(
    st.one_of(json_like, _scalars, st.just([]), st.just({})),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(_keys, children, max_size=3),
    ),
    max_leaves=12,
)
_names = st.one_of(_special.filter(bool), st.text(alphabet=_xml_chars, min_size=1, max_size=10))
_calls = st.tuples(_names, st.dictionaries(_names, values, max_size=3))
_header_fields = st.none() | st.dictionaries(
    st.from_regex(r"[A-Z][A-Za-z0-9]{0,8}", fullmatch=True).filter(
        lambda name: name != "RequestId"
    ),
    _xml_text,
    max_size=3,
)
_request_ids = st.none() | _xml_text
_faults = st.builds(
    SoapFault, _names, _xml_text, st.dictionaries(_keys, values, max_size=2)
)


@settings(max_examples=60, deadline=None)
@given(_calls, _request_ids, _header_fields)
def test_request_matches_the_reference(call, request_id, header_fields):
    method, args = call
    data = build_request(method, args, request_id, header_fields)
    assert data == ref_request(method, args, request_id, header_fields)
    parsed = parse_any_request(data)
    assert parsed.calls == [(method, args)]
    assert parsed.request_id == request_id
    assert parsed.headers == (header_fields or {})


@settings(max_examples=40, deadline=None)
@given(st.lists(_calls, max_size=3), _request_ids, _header_fields)
def test_bulk_request_matches_the_reference(operations, request_id, header_fields):
    data = build_bulk_request(operations, request_id, header_fields)
    assert data == ref_bulk_request(operations, request_id, header_fields)
    parsed = parse_any_request(data)
    assert parsed.bulk and parsed.calls == operations
    assert parsed.request_id == request_id


@settings(max_examples=60, deadline=None)
@given(values, st.none() | _xml_text.map(lambda key: {"IdempotencyKey": key}))
def test_response_matches_the_reference(result, echo):
    data = build_response(result, echo)
    assert data == ref_response(result, echo)
    assert parse_response(data) == result
    assert _echo(data) == (echo or {}).get("IdempotencyKey")


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.one_of(
            values.map(lambda v: BulkItem(ok=True, result=v)),
            _faults.map(lambda f: BulkItem(ok=False, fault=f)),
        ),
        max_size=4,
    ),
    st.none() | _xml_text.map(lambda key: {"IdempotencyKey": key}),
)
def test_bulk_response_matches_the_reference(items, echo):
    data = build_bulk_response(items, echo)
    assert data == ref_bulk_response(items, echo)
    parsed = parse_bulk_response(data)
    assert [p.ok for p in parsed] == [i.ok for i in items]
    for got, want in zip(parsed, items):
        if want.ok:
            assert got.result == want.result
        else:
            assert _same_fault(got.fault, want.fault)
    assert _echo(data) == (echo or {}).get("IdempotencyKey")


@settings(max_examples=40, deadline=None)
@given(_faults)
def test_fault_matches_the_reference(fault):
    data = build_fault(fault)
    assert data == ref_fault(fault)
    with pytest.raises(SoapFault) as excinfo:
        parse_response(data)
    assert _same_fault(excinfo.value, fault)
