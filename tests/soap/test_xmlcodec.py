"""Tests for the typed XML value codec, through the envelope it rides in."""

import datetime as dt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.soap.envelope import (
    BulkItem,
    SoapFault,
    build_bulk_request,
    build_bulk_response,
    build_request,
    build_response,
    parse_any_request,
    parse_bulk_response,
    parse_response,
)
from repro.soap.errors import EncodingError


def round_trip(value):
    return parse_response(build_response(value))


ROUND_TRIP_VALUES = [
    None,
    True,
    False,
    0,
    -42,
    10**15,
    3.14,
    -0.0001,
    "",
    "hello",
    "unicode ✓ ümläut",
    "<tag> & 'quotes' \"here\"",
    dt.date(2003, 11, 15),
    dt.time(23, 59, 59),
    dt.datetime(2003, 11, 15, 12, 30, 45, 123456),
    [],
    [1, 2, 3],
    ["mixed", 1, None, 2.5],
    {},
    {"a": 1, "b": [True, None]},
    {"nested": {"deep": {"deeper": "x"}}},
    [{"list": ["of", {"dicts": 1}]}],
    "tab\tnewline\ncarriage\rreturn",
    "crlf\r\nstays two characters",
]


class TestRoundTrip:
    @pytest.mark.parametrize("value", ROUND_TRIP_VALUES, ids=repr)
    def test_round_trip(self, value):
        assert round_trip(value) == value

    def test_bool_not_confused_with_int(self):
        assert round_trip(True) is True
        assert round_trip(1) == 1
        assert not isinstance(round_trip(1), bool)

    def test_tuple_becomes_list(self):
        assert round_trip((1, 2)) == [1, 2]


class TestErrors:
    def test_unencodable_type(self):
        with pytest.raises(EncodingError):
            build_response(object())

    def test_non_string_dict_key(self):
        with pytest.raises(EncodingError):
            build_response({1: "x"})

    def test_malformed_xml(self):
        with pytest.raises(EncodingError):
            parse_response(b"<unclosed")

    def test_unknown_type_tag(self):
        with pytest.raises(EncodingError):
            parse_response(
                b'<Envelope xmlns="http://schemas.xmlsoap.org/soap/envelope/">'
                b'<Body><Response><result t="quux">x</result></Response></Body>'
                b"</Envelope>"
            )


# XML 1.0 cannot carry the other control characters, surrogates, or the
# noncharacters U+FFFE/U+FFFF (they are outside the Char production even
# when escaped).  \t, \n and \r are XML characters and must survive.
_xml_chars = st.characters(
    blacklist_categories=("Cs", "Cc"),
    blacklist_characters="\ufffe\uffff",
    whitelist_characters="\t\n\r",
)
_xml_text = st.text(alphabet=_xml_chars, max_size=40)

json_like = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(10**12), max_value=10**12),
        st.floats(allow_nan=False, allow_infinity=False),
        _xml_text,
        st.dates(min_value=dt.date(1900, 1, 1), max_value=dt.date(2100, 1, 1)),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(
            st.text(alphabet=_xml_chars, min_size=1, max_size=10),
            children,
            max_size=4,
        ),
    ),
    max_leaves=20,
)


@settings(max_examples=80, deadline=None)
@given(json_like)
def test_property_round_trip(value):
    assert round_trip(value) == value


# --------------------------------------------------------------------------
# <BulkRequest> / <BulkResponse> codec fuzzing
# --------------------------------------------------------------------------

_method_name = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
    min_size=1,
    max_size=12,
)
_arg_name = st.text(
    alphabet=st.characters(whitelist_categories=("Ll",)), min_size=1, max_size=8
)
_operations = st.lists(
    st.tuples(_method_name, st.dictionaries(_arg_name, json_like, max_size=3)),
    min_size=1,
    max_size=5,
)


class TestBulkCodec:
    @settings(max_examples=40, deadline=None)
    @given(_operations)
    def test_bulk_request_round_trip(self, operations):
        data = build_bulk_request(operations, request_id="rid-1")
        parsed = parse_any_request(data)
        assert parsed.bulk
        assert parsed.request_id == "rid-1"
        assert parsed.calls == [(m, a) for m, a in operations]

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.one_of(
                json_like.map(lambda v: BulkItem(ok=True, result=v)),
                st.tuples(_method_name, _xml_text).map(
                    lambda cm: BulkItem(
                        ok=False, fault=SoapFault(cm[0], cm[1])
                    )
                ),
            ),
            max_size=5,
        )
    )
    def test_bulk_response_round_trip(self, items):
        parsed = parse_bulk_response(build_bulk_response(items))
        assert len(parsed) == len(items)
        for got, want in zip(parsed, items):
            assert got.ok == want.ok
            if want.ok:
                assert got.result == want.result
            else:
                assert got.fault.code == want.fault.code
                assert got.fault.message == want.fault.message

    def test_parse_any_request_dispatches_single_and_bulk(self):
        single = parse_any_request(build_request("ping", {}, "rid-9"))
        assert not single.bulk
        assert single.calls == [("ping", {})]
        assert single.request_id == "rid-9"
        bulk = parse_any_request(build_bulk_request([("ping", {})] * 3))
        assert bulk.bulk
        assert len(bulk.calls) == 3

    @pytest.mark.parametrize(
        "payload",
        [
            b"",
            b"not xml at all",
            b"<Envelope><Body><BulkRequest>",  # truncated mid-envelope
            b"<Envelope><Body/></Envelope>",  # no Call, no BulkRequest
            b"<Envelope><Body><BulkRequest/></Envelope>",  # truncated close
            b"<Envelope><Body><BulkRequest><Rogue/></BulkRequest></Body>"
            b"</Envelope>",  # non-Call child
            b"<Envelope><Body><BulkRequest><Call/></BulkRequest></Body>"
            b"</Envelope>",  # Call without method
        ],
        ids=repr,
    )
    def test_malformed_bulk_request_is_structured_error(self, payload):
        with pytest.raises(EncodingError):
            parse_any_request(payload)

    @settings(max_examples=60, deadline=None)
    @given(st.binary(max_size=200))
    def test_random_bytes_never_crash_bulk_parsers(self, data):
        for parser in (parse_any_request, parse_bulk_response):
            try:
                parser(data)
            except (EncodingError, SoapFault):
                pass  # structured outcomes only — anything else propagates

    @settings(max_examples=40, deadline=None)
    @given(_operations, st.integers(min_value=0, max_value=60))
    def test_truncated_bulk_request_never_crashes(self, operations, cut):
        data = build_bulk_request(operations)
        truncated = data[: max(0, len(data) - cut)]
        try:
            parsed = parse_any_request(truncated)
        except EncodingError:
            return
        # Only intact payloads parse.
        assert parsed.bulk and len(parsed.calls) == len(operations)
