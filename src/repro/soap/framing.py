"""HTTP/1.1 framing for both SOAP servers and both clients, sans-IO.

Nothing here owns a socket.  A server feeds the bytes it received to a
:class:`RequestParser` and writes each answer as one
:func:`render_response` buffer; a client writes each request as one
:func:`render_request` buffer and feeds the reply to a
:class:`ResponseParser`.  The threaded :class:`~repro.soap.server.
SoapServer`, the asyncio :class:`~repro.aserve.AsyncSoapServer`,
:class:`~repro.soap.transport.HttpTransport` and
:class:`~repro.soap.atransport.AsyncHttpTransport` all frame through
this module, so the four differ only in how bytes reach a socket, and
the framing is testable byte by byte without one (see
``tests/aserve/test_httpproto.py`` and ``tests/soap/test_framing.py``).

Properties the front ends rest on:

* **Bounded buffers.**  A header section larger than
  ``max_header_bytes`` or a declared body larger than
  ``max_body_bytes`` raises :class:`HttpProtocolError` (431/413) the
  moment the bound is crossed — a slowloris drip or an oversized upload
  can never grow the buffer past the caps.
* **Pipelining.**  Bytes beyond the current request stay buffered;
  :meth:`RequestParser.next_request` yields back-to-back requests
  without further ``feed`` calls, in arrival order.
* **Fail-closed.**  Any malformed framing raises; the connection is
  answered with the carried status code and closed.  The parser is
  single-use after an error.
* **No interim responses.**  ``Expect: 100-continue`` is not answered;
  a client that sent it waits out its own timer and then sends the body
  (RFC 9110 §10.1.1 allows the server to stay silent).

What the clients rest on: a reply is framed by ``Content-Length`` alone,
and :class:`ResponseParser` tells the two ways a connection can end
early apart — before any byte of the reply (:class:`RemoteClosed`, the
stale keep-alive race) or after some (a torn reply,
:class:`~repro.soap.errors.TransportError`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.soap.errors import TransportError

#: Conservative default caps; generous for SOAP envelopes, small enough
#: that an abusive connection cannot balloon server memory.
DEFAULT_MAX_HEADER_BYTES = 16 * 1024
DEFAULT_MAX_BODY_BYTES = 8 * 1024 * 1024

#: Most bytes one ``recv`` asks for, on every connection of either end.
#: 64 KiB reads cost memory (``perf`` ``ws_mixed`` ``peak_rss_mb`` +2-5 %),
#: and an envelope rarely needs more than one 8 KiB read.
RECV_BYTES = 8 * 1024


class HttpProtocolError(Exception):
    """Malformed or abusive framing; carries the HTTP status to answer."""

    def __init__(self, status: int, reason: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.reason = reason


@dataclass
class HttpRequest:
    """One fully-framed request, ready for routing."""

    method: str
    target: str
    version: str
    headers: dict[str, str]
    body: bytes
    keep_alive: bool


def _is_length(raw: str) -> bool:
    """A ``Content-Length`` value: ASCII digits only (``"²".isdigit()``)."""
    return raw.isascii() and raw.isdigit()


def _decode_latin1(raw: bytes, what: str) -> str:
    try:
        return raw.decode("latin-1")
    except UnicodeDecodeError as exc:  # pragma: no cover - latin-1 is total
        raise HttpProtocolError(400, "Bad Request", f"undecodable {what}") from exc


class RequestParser:
    """Incremental request framing over a byte stream.

    Usage::

        parser.feed(chunk)
        while (request := parser.next_request()) is not None:
            ...handle...

    ``next_request`` returns ``None`` when more bytes are needed and
    raises :class:`HttpProtocolError` on malformed input.
    """

    def __init__(
        self,
        max_header_bytes: int = DEFAULT_MAX_HEADER_BYTES,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    ) -> None:
        self.max_header_bytes = max_header_bytes
        self.max_body_bytes = max_body_bytes
        self._buf = bytearray()
        #: Parsed head waiting for its body: (request-sans-body, length).
        self._pending: Optional[tuple[HttpRequest, int]] = None
        self._broken = False

    # -- feeding -------------------------------------------------------------

    def feed(self, data: bytes) -> None:
        if self._broken:
            raise HttpProtocolError(
                400, "Bad Request", "parser already failed; connection must close"
            )
        self._buf.extend(data)

    @property
    def buffered_bytes(self) -> int:
        """Bytes held for requests not yet yielded (pipelining depth proxy)."""
        return len(self._buf)

    @property
    def mid_request(self) -> bool:
        """True when a request's framing has started but not completed.

        The idle-vs-slowloris distinction: an empty buffer between
        requests is a healthy keep-alive connection, while a partial
        request that stops progressing deserves a read deadline.
        """
        return bool(self._buf) or self._pending is not None

    # -- extraction ----------------------------------------------------------

    def next_request(self) -> Optional[HttpRequest]:
        try:
            return self._next_request()
        except HttpProtocolError:
            self._broken = True
            raise

    def _next_request(self) -> Optional[HttpRequest]:
        if self._pending is not None:
            return self._finish_body()
        # Tolerate inter-request CRLF padding (RFC 9112 §2.2).
        while self._buf[:2] == b"\r\n":
            del self._buf[:2]
        while self._buf[:1] == b"\n":
            del self._buf[:1]
        if not self._buf:
            return None
        end, body_at = self._find_header_end()
        if end < 0:
            if len(self._buf) > self.max_header_bytes:
                raise HttpProtocolError(
                    431,
                    "Request Header Fields Too Large",
                    f"header section exceeds {self.max_header_bytes} bytes",
                )
            return None
        if end > self.max_header_bytes:
            raise HttpProtocolError(
                431,
                "Request Header Fields Too Large",
                f"header section exceeds {self.max_header_bytes} bytes",
            )
        head = bytes(self._buf[:end])
        del self._buf[:body_at]
        request, length = self._parse_head(head)
        self._pending = (request, length)
        return self._finish_body()

    def _finish_body(self) -> Optional[HttpRequest]:
        assert self._pending is not None
        request, length = self._pending
        if len(self._buf) < length:
            return None
        request.body = bytes(self._buf[:length])
        del self._buf[:length]
        self._pending = None
        return request

    def _find_header_end(self) -> tuple[int, int]:
        """Locate the head/body boundary: ``(head_end, body_start)``.

        Accepts both CRLF and bare-LF line endings (curl and test
        harnesses produce either); returns ``(-1, -1)`` when the
        terminator has not arrived yet.
        """
        crlf = self._buf.find(b"\r\n\r\n")
        lf = self._buf.find(b"\n\n")
        candidates = []
        if crlf >= 0:
            candidates.append((crlf, crlf + 4))
        if lf >= 0:
            candidates.append((lf + 1, lf + 2))
        if not candidates:
            return -1, -1
        return min(candidates, key=lambda pair: pair[1])

    def _parse_head(self, head: bytes) -> tuple[HttpRequest, int]:
        lines = head.replace(b"\r\n", b"\n").split(b"\n")
        request_line = _decode_latin1(lines[0], "request line")
        parts = request_line.split(" ")
        if len(parts) != 3:
            raise HttpProtocolError(
                400, "Bad Request", f"malformed request line {request_line!r}"
            )
        method, target, version = parts
        if not method.isalpha() or not method.isupper():
            raise HttpProtocolError(
                400, "Bad Request", f"malformed method {method!r}"
            )
        if version not in ("HTTP/1.1", "HTTP/1.0"):
            raise HttpProtocolError(
                505, "HTTP Version Not Supported", f"unsupported {version!r}"
            )
        headers: dict[str, str] = {}
        for raw in lines[1:]:
            if not raw:
                continue
            line = _decode_latin1(raw, "header line")
            name, sep, value = line.partition(":")
            if not sep or not name or name != name.strip() or " " in name:
                raise HttpProtocolError(
                    400, "Bad Request", f"malformed header line {line!r}"
                )
            headers[name.lower()] = value.strip()
        if "transfer-encoding" in headers:
            # Our clients always frame with Content-Length; a chunked
            # request is answered 501 rather than mis-framed.
            raise HttpProtocolError(
                501, "Not Implemented", "Transfer-Encoding is not supported"
            )
        raw_length = headers.get("content-length", "0")
        if not _is_length(raw_length):
            raise HttpProtocolError(
                400, "Bad Request", f"malformed Content-Length {raw_length!r}"
            )
        length = int(raw_length)
        if length > self.max_body_bytes:
            raise HttpProtocolError(
                413,
                "Content Too Large",
                f"declared body of {length} bytes exceeds {self.max_body_bytes}",
            )
        connection = headers.get("connection", "").lower()
        if version == "HTTP/1.1":
            keep_alive = connection != "close"
        else:
            keep_alive = connection == "keep-alive"
        request = HttpRequest(
            method=method,
            target=target,
            version=version,
            headers=headers,
            body=b"",
            keep_alive=keep_alive,
        )
        return request, length


class RemoteClosed(ConnectionResetError):
    """The server closed the connection before any byte of the reply.

    On a reused keep-alive connection this is the stale race — the server
    recycled the idle socket before the request ran — so it is a
    ``ConnectionResetError``, one of the errors a client may resend once
    (:data:`repro.soap.transport.STALE_ERRORS`).
    """


@dataclass
class HttpResponse:
    """One fully-framed response."""

    status: int
    headers: dict[str, str]
    body: bytes
    keep_alive: bool


class ResponseParser:
    """Incremental response framing over one client connection.

    Usage::

        while (response := parser.next_response()) is None:
            parser.feed(sock.recv(RECV_BYTES))

    ``feed(b"")`` reports EOF.  ``next_response`` returns ``None`` while
    more bytes are needed; it raises :class:`RemoteClosed` on EOF before
    any byte of a reply, and :class:`~repro.soap.errors.TransportError`
    on EOF after some (a torn reply) or on malformed framing.  After an
    error the connection's framing state is unknown and it must be
    dropped.  A reply is framed by ``Content-Length`` alone: both servers
    always send one, so a reply without it is malformed.
    """

    def __init__(self) -> None:
        self._buf = bytearray()
        #: Parsed head waiting for its body: (response-sans-body, length).
        self._pending: Optional[tuple[HttpResponse, int]] = None
        self._eof = False

    def feed(self, data: bytes) -> None:
        if data:
            self._buf += data
        else:
            self._eof = True

    def next_response(self) -> Optional[HttpResponse]:
        if self._pending is None:
            end = self._buf.find(b"\r\n\r\n")
            if end < 0 and len(self._buf) <= DEFAULT_MAX_HEADER_BYTES:
                return self._starved()
            if not 0 <= end <= DEFAULT_MAX_HEADER_BYTES:
                raise TransportError(
                    f"response header section exceeds {DEFAULT_MAX_HEADER_BYTES} bytes"
                )
            head = self._buf[:end].decode("latin-1")
            del self._buf[: end + 4]
            self._pending = _parse_response_head(head)
        response, length = self._pending
        if len(self._buf) < length:
            return self._starved()
        response.body = bytes(self._buf[:length])
        del self._buf[:length]
        self._pending = None
        return response

    def _starved(self) -> None:
        """More bytes are needed: fine, unless the connection has ended."""
        if not self._eof:
            return None
        if self._buf or self._pending is not None:
            raise TransportError("connection closed mid-reply")
        raise RemoteClosed("server closed the connection before replying")


def _parse_response_head(head: str) -> tuple[HttpResponse, int]:
    status_line, *lines = head.split("\r\n")
    version, _, rest = status_line.partition(" ")
    code = rest[:3]
    if (
        version not in ("HTTP/1.1", "HTTP/1.0")
        or not (len(code) == 3 and _is_length(code))
        or rest[3:4] not in ("", " ")
    ):
        raise TransportError(f"malformed status line {status_line!r}")
    headers: dict[str, str] = {}
    for line in lines:
        name, sep, value = line.partition(":")
        if not sep:
            raise TransportError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    raw_length = headers.get("content-length", "")
    if "transfer-encoding" in headers or not _is_length(raw_length):
        raise TransportError(f"malformed Content-Length {raw_length!r}")
    connection = headers.get("connection", "").lower()
    if version == "HTTP/1.1":
        keep_alive = connection != "close"
    else:
        keep_alive = connection == "keep-alive"
    response = HttpResponse(int(code), headers, b"", keep_alive)
    return response, int(raw_length)


def render_request(
    host: str, target: str, body: Optional[bytes] = None, soap_action: str = ""
) -> bytes:
    """Frame one HTTP/1.1 request: a GET, or a POST of *body* (an envelope).

    Head and body come back as one buffer, so a request is one send.
    """
    if body is None:
        return f"GET {target} HTTP/1.1\r\nHost: {host}\r\n\r\n".encode("latin-1")
    if not soap_action.isprintable():
        raise ValueError(f"invalid SOAPAction {soap_action!r}")
    head = (
        f"POST {target} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        "Content-Type: text/xml; charset=utf-8\r\n"
        f"SOAPAction: {soap_action}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body


def render_response(
    status: int,
    reason: str,
    content_type: str,
    body: bytes,
    keep_alive: bool,
) -> bytes:
    """Frame one HTTP/1.1 response (always with Content-Length).

    Head and body come back as one buffer, so an answer is one send.
    """
    connection = "keep-alive" if keep_alive else "close"
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {connection}\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body


#: Reason phrases for the statuses the front end emits.
REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    413: "Content Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    505: "HTTP Version Not Supported",
}


def reason_for(status: int) -> str:
    return REASONS.get(status, "Unknown")
