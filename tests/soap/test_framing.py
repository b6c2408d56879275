"""Byte-level tests of the client half of the sans-IO HTTP framing.

:class:`ResponseParser` is how both client shells read a reply, and the
resend rule rests on it: EOF before any byte of a reply is a stale
connection (``RemoteClosed``, resendable), EOF after some is a torn reply
(``TransportError``, never resent).  So, like the request parser's tests
in ``tests/soap/test_httpproto.py``, every reply is cut at every byte.
"""

from __future__ import annotations

import pytest

from repro.soap.errors import TransportError
from repro.soap.framing import (
    DEFAULT_MAX_HEADER_BYTES,
    HttpProtocolError,
    HttpResponse,
    RemoteClosed,
    RequestParser,
    ResponseParser,
    render_request,
    render_response,
)
from repro.soap.transport import STALE_ERRORS, WIRE_ERRORS

BODY = b"<Envelope>ok</Envelope>"
REPLY = render_response(200, "OK", "text/xml; charset=utf-8", BODY, True)


def drain(parser: ResponseParser) -> list[HttpResponse]:
    out = []
    while (response := parser.next_response()) is not None:
        out.append(response)
    return out


class TestSplitFuzz:
    def test_split_at_every_byte(self):
        # feed(b"") means EOF, so the cuts stop one byte short of either end.
        for cut in range(1, len(REPLY)):
            parser = ResponseParser()
            parser.feed(REPLY[:cut])
            got = drain(parser)
            parser.feed(REPLY[cut:])
            got += drain(parser)
            assert len(got) == 1, f"split at {cut} yielded {len(got)} replies"
            assert (got[0].status, got[0].body, got[0].keep_alive) == (200, BODY, True)
            assert got[0].headers["content-type"] == "text/xml; charset=utf-8"

    def test_fed_one_byte_at_a_time(self):
        parser = ResponseParser()
        got = []
        for i in range(len(REPLY)):
            parser.feed(REPLY[i : i + 1])
            got += drain(parser)
        assert [r.body for r in got] == [BODY]

    def test_back_to_back_replies_yield_in_order(self):
        second = render_response(500, "Internal Server Error", "text/xml", b"<F/>", False)
        parser = ResponseParser()
        parser.feed(REPLY + second)
        got = drain(parser)
        assert [(r.status, r.body, r.keep_alive) for r in got] == [
            (200, BODY, True),
            (500, b"<F/>", False),
        ]


class TestEndOfStream:
    def test_eof_before_any_byte_is_stale(self):
        parser = ResponseParser()
        parser.feed(b"")
        with pytest.raises(RemoteClosed) as failure:
            parser.next_response()
        # The shells resend this one, once, on a reused connection.
        assert isinstance(failure.value, STALE_ERRORS)

    def test_eof_after_a_whole_reply_is_stale_for_the_next(self):
        parser = ResponseParser()
        parser.feed(REPLY)
        assert drain(parser)[0].body == BODY
        parser.feed(b"")
        with pytest.raises(RemoteClosed):
            parser.next_response()

    def test_eof_at_every_byte_inside_a_reply_is_torn(self):
        for cut in range(1, len(REPLY)):
            parser = ResponseParser()
            parser.feed(REPLY[:cut])
            assert parser.next_response() is None
            parser.feed(b"")
            with pytest.raises(TransportError) as failure:
                parser.next_response()
            # Torn: the request ran, so it must never look resendable.
            assert not isinstance(failure.value, STALE_ERRORS), cut
            assert isinstance(failure.value, WIRE_ERRORS)


class TestFailClosed:
    @pytest.mark.parametrize(
        "head",
        [
            b"SOAP/9 what",
            b"HTTP/1.1 2000 OK",
            b"HTTP/1.1 OK",
            b"HTTP/2 200 OK",
            b"HTTP/1.1 20x OK",
            b"HTTP/1.1 200OK",
        ],
        ids=repr,
    )
    def test_malformed_status_line(self, head):
        parser = ResponseParser()
        parser.feed(head + b"\r\nContent-Length: 0\r\n\r\n")
        with pytest.raises(TransportError, match="status line"):
            parser.next_response()

    def test_status_without_a_reason_phrase(self):
        parser = ResponseParser()
        parser.feed(b"HTTP/1.1 204\r\nContent-Length: 0\r\n\r\n")
        assert parser.next_response().status == 204

    @pytest.mark.parametrize(
        "field",
        [
            b"Content-Length: lots",
            b"Content-Length: -1",
            b"Content-Length: \xb2",  # a latin-1 digit that int() refuses
            b"Content-Length: 4\r\nTransfer-Encoding: chunked",
            b"X-Other: 1",  # no length at all: a reply is never read to EOF
        ],
        ids=repr,
    )
    def test_bad_content_length(self, field):
        parser = ResponseParser()
        parser.feed(b"HTTP/1.1 200 OK\r\n" + field + b"\r\n\r\nbody")
        with pytest.raises(TransportError, match="Content-Length"):
            parser.next_response()

    def test_malformed_header_line(self):
        parser = ResponseParser()
        parser.feed(b"HTTP/1.1 200 OK\r\nno colon here\r\n\r\n")
        with pytest.raises(TransportError, match="header line"):
            parser.next_response()

    def test_oversized_head_without_terminator(self):
        parser = ResponseParser()
        parser.feed(b"HTTP/1.1 200 OK\r\nX-Pad: " + b"a" * DEFAULT_MAX_HEADER_BYTES)
        with pytest.raises(TransportError, match="header section exceeds"):
            parser.next_response()

    def test_oversized_complete_head(self):
        parser = ResponseParser()
        pad = b"a" * DEFAULT_MAX_HEADER_BYTES
        parser.feed(b"HTTP/1.1 200 OK\r\nX-Pad: " + pad + b"\r\n\r\n")
        with pytest.raises(TransportError, match="header section exceeds"):
            parser.next_response()

    def test_head_at_the_cap_is_accepted(self):
        head = b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\nX-Pad: "
        head += b"a" * (DEFAULT_MAX_HEADER_BYTES - len(head))
        parser = ResponseParser()
        parser.feed(head + b"\r\n\r\n")
        assert parser.next_response().status == 200


class TestKeepAlive:
    @pytest.mark.parametrize(
        ("version", "connection", "keep"),
        [
            (b"HTTP/1.1", b"", True),
            (b"HTTP/1.1", b"Connection: close\r\n", False),
            (b"HTTP/1.0", b"", False),
            (b"HTTP/1.0", b"Connection: keep-alive\r\n", True),
        ],
    )
    def test_keep_alive(self, version, connection, keep):
        parser = ResponseParser()
        parser.feed(version + b" 200 OK\r\n" + connection + b"Content-Length: 0\r\n\r\n")
        assert parser.next_response().keep_alive is keep


class TestRenderRequest:
    def test_post_is_one_buffer_the_request_parser_reads_back(self):
        wire = render_request("h:1", "/soap", BODY, "ping")
        assert wire.endswith(b"\r\n\r\n" + BODY)
        parser = RequestParser()
        parser.feed(wire)
        request = parser.next_request()
        assert (request.method, request.target, request.body) == ("POST", "/soap", BODY)
        assert request.headers["soapaction"] == "ping"
        assert request.headers["host"] == "h:1"
        assert request.keep_alive is True

    def test_get_has_no_body(self):
        wire = render_request("h:1", "/wsdl")
        assert wire == b"GET /wsdl HTTP/1.1\r\nHost: h:1\r\n\r\n"

    def test_header_injection_is_refused(self):
        with pytest.raises(ValueError):
            render_request("h:1", "/soap", BODY, "ping\r\nX-Evil: 1")


def test_request_parser_refuses_a_non_ascii_digit_length():
    """Regression: ``"²".isdigit()`` is true, so the length reached
    ``int()`` and a ValueError escaped the parser instead of a 400."""
    parser = RequestParser()
    parser.feed(b"POST /soap HTTP/1.1\r\nContent-Length: \xb2\r\n\r\n")
    with pytest.raises(HttpProtocolError) as failure:
        parser.next_request()
    assert failure.value.status == 400
