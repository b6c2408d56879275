"""Byte-level tests of the sans-IO HTTP request parser.

The framing logic is both front ends' exposure to the network, so it is
exercised the brutal way: every message split at every byte
boundary, pipelined pairs, and the abusive shapes (oversized, slowloris,
malformed) that must fail closed with the right status.
"""

from __future__ import annotations

import pytest

from repro.soap.framing import (
    HttpProtocolError,
    HttpRequest,
    RequestParser,
    reason_for,
    render_response,
)

pytestmark = pytest.mark.aserve

BODY = b"<Envelope>x</Envelope>"
REQUEST = (
    b"POST /soap HTTP/1.1\r\n"
    b"Host: test\r\n"
    b"Content-Type: text/xml; charset=utf-8\r\n"
    b"Content-Length: %d\r\n"
    b"\r\n" % len(BODY)
) + BODY


def drain(parser: RequestParser) -> list[HttpRequest]:
    out = []
    while (request := parser.next_request()) is not None:
        out.append(request)
    return out


def assert_is_canonical(request: HttpRequest) -> None:
    assert request.method == "POST"
    assert request.target == "/soap"
    assert request.version == "HTTP/1.1"
    assert request.headers["host"] == "test"
    assert request.body == BODY
    assert request.keep_alive is True


class TestSplitFuzz:
    def test_split_at_every_byte(self):
        for cut in range(len(REQUEST) + 1):
            parser = RequestParser()
            parser.feed(REQUEST[:cut])
            got = drain(parser)
            parser.feed(REQUEST[cut:])
            got += drain(parser)
            assert len(got) == 1, f"split at {cut} yielded {len(got)} requests"
            assert_is_canonical(got[0])
            assert parser.mid_request is False

    def test_fed_one_byte_at_a_time(self):
        parser = RequestParser()
        got: list[HttpRequest] = []
        for i, byte in enumerate(REQUEST):
            parser.feed(bytes([byte]))
            got += drain(parser)
            if i < len(REQUEST) - 1:
                assert got == [], f"request completed early at byte {i}"
        assert len(got) == 1
        assert_is_canonical(got[0])

    def test_pipelined_pair_split_at_every_byte(self):
        stream = REQUEST + REQUEST
        for cut in range(len(stream) + 1):
            parser = RequestParser()
            parser.feed(stream[:cut])
            got = drain(parser)
            parser.feed(stream[cut:])
            got += drain(parser)
            assert len(got) == 2, f"split at {cut} yielded {len(got)} requests"
            for request in got:
                assert_is_canonical(request)

    def test_pipelined_burst_yields_in_order(self):
        parser = RequestParser()
        bodies = [b"one", b"two!", b"three"]
        stream = b"".join(
            b"POST /soap HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(b) + b
            for b in bodies
        )
        parser.feed(stream)
        assert [r.body for r in drain(parser)] == bodies

    def test_bare_lf_line_endings(self):
        parser = RequestParser()
        parser.feed(b"POST /soap HTTP/1.1\nContent-Length: 2\n\nok")
        (request,) = drain(parser)
        assert request.body == b"ok"
        assert request.keep_alive is True

    def test_inter_request_crlf_padding_tolerated(self):
        parser = RequestParser()
        parser.feed(REQUEST + b"\r\n\r\n" + REQUEST)
        assert len(drain(parser)) == 2


class TestStateTracking:
    def test_mid_request_distinguishes_idle_from_stalled(self):
        parser = RequestParser()
        assert parser.mid_request is False  # fresh: idle
        parser.feed(REQUEST[:10])
        assert parser.mid_request is True  # partial head: stalled
        parser.feed(REQUEST[10:])
        drain(parser)
        assert parser.mid_request is False  # between requests: idle again

    def test_mid_request_true_while_body_pending(self):
        head_len = REQUEST.index(b"\r\n\r\n") + 4
        parser = RequestParser()
        parser.feed(REQUEST[: head_len + 3])
        assert parser.next_request() is None
        assert parser.mid_request is True

    def test_buffered_bytes(self):
        parser = RequestParser()
        assert parser.buffered_bytes == 0
        parser.feed(b"POST")
        assert parser.buffered_bytes == 4


class TestKeepAliveSemantics:
    def test_http11_defaults_to_keep_alive(self):
        parser = RequestParser()
        parser.feed(b"GET / HTTP/1.1\r\n\r\n")
        assert drain(parser)[0].keep_alive is True

    def test_http11_connection_close(self):
        parser = RequestParser()
        parser.feed(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert drain(parser)[0].keep_alive is False

    def test_http10_defaults_to_close(self):
        parser = RequestParser()
        parser.feed(b"GET / HTTP/1.0\r\n\r\n")
        assert drain(parser)[0].keep_alive is False

    def test_http10_opt_in_keep_alive(self):
        parser = RequestParser()
        parser.feed(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
        assert drain(parser)[0].keep_alive is True


def expect_error(parser: RequestParser, status: int) -> HttpProtocolError:
    with pytest.raises(HttpProtocolError) as excinfo:
        parser.next_request()
    assert excinfo.value.status == status
    return excinfo.value


class TestFailClosed:
    def test_declared_body_over_cap_is_413(self):
        parser = RequestParser(max_body_bytes=64)
        parser.feed(b"POST /soap HTTP/1.1\r\nContent-Length: 65\r\n\r\n")
        expect_error(parser, 413)

    def test_complete_header_section_over_cap_is_431(self):
        parser = RequestParser(max_header_bytes=64)
        parser.feed(
            b"GET / HTTP/1.1\r\nX-Pad: " + b"a" * 80 + b"\r\n\r\n"
        )
        expect_error(parser, 431)

    def test_slowloris_header_drip_bounded_at_431(self):
        # No terminator ever arrives; the buffer must not grow past the
        # cap before the parser slams the door.
        parser = RequestParser(max_header_bytes=64)
        parser.feed(b"GET / HTTP/1.1\r\n")
        for _ in range(40):
            try:
                parser.feed(b"X: y\r\n")
                assert parser.next_request() is None
            except HttpProtocolError as err:
                assert err.status == 431
                assert parser.buffered_bytes <= 64 + len(b"X: y\r\n")
                break
        else:
            pytest.fail("header drip never hit the 431 bound")

    def test_transfer_encoding_is_501(self):
        parser = RequestParser()
        parser.feed(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
        expect_error(parser, 501)

    def test_unknown_version_is_505(self):
        parser = RequestParser()
        parser.feed(b"GET / HTTP/2.0\r\n\r\n")
        expect_error(parser, 505)

    @pytest.mark.parametrize(
        "head",
        [
            b"GARBAGE\r\n\r\n",
            b"GET /\r\n\r\n",
            b"get / HTTP/1.1\r\n\r\n",
            b"G3T / HTTP/1.1\r\n\r\n",
            b"GET / HTTP/1.1\r\nBad Header Line\r\n\r\n",
            b"GET / HTTP/1.1\r\nName : spaced\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
        ],
    )
    def test_malformed_framing_is_400(self, head):
        parser = RequestParser()
        parser.feed(head)
        expect_error(parser, 400)

    def test_parser_is_single_use_after_error(self):
        parser = RequestParser()
        parser.feed(b"GARBAGE\r\n\r\n")
        expect_error(parser, 400)
        with pytest.raises(HttpProtocolError):
            parser.feed(REQUEST)


class TestResponseRendering:
    def test_frames_content_length_and_connection(self):
        raw = render_response(200, "OK", "text/plain", b"hi", keep_alive=True)
        head, _, body = raw.partition(b"\r\n\r\n")
        assert body == b"hi"
        assert b"HTTP/1.1 200 OK" in head
        assert b"Content-Length: 2" in head
        assert b"Connection: keep-alive" in head

    def test_close_marks_connection(self):
        raw = render_response(500, "Internal Server Error", "text/plain", b"", False)
        assert b"Connection: close" in raw

    def test_reason_for_known_and_unknown(self):
        assert reason_for(404) == "Not Found"
        assert reason_for(418) == "Unknown"
