"""Asyncio pipelined SOAP front end (stdlib-only).

One event loop multiplexes thousands of keep-alive connections; decoded
envelopes run on a bounded thread pool through the same
:class:`~repro.soap.server.SoapDispatcher` pipeline as the threaded
server, so chaos and observability semantics — and the envelope bytes,
read and written by :mod:`repro.soap.envelope` — are identical under
either front end.  See :mod:`repro.aserve.server` for the architecture
notes.
"""

from repro.soap.framing import (
    DEFAULT_MAX_BODY_BYTES,
    DEFAULT_MAX_HEADER_BYTES,
    HttpProtocolError,
    HttpRequest,
    RequestParser,
    render_response,
)
from repro.aserve.server import AsyncSoapServer

__all__ = [
    "AsyncSoapServer",
    "DEFAULT_MAX_BODY_BYTES",
    "DEFAULT_MAX_HEADER_BYTES",
    "HttpProtocolError",
    "HttpRequest",
    "RequestParser",
    "render_response",
]
