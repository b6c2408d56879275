"""Re-export of :mod:`repro.soap.framing`, which both servers now share.

``perf/trace.py`` imports :class:`RequestParser` from here; the name
stays until the benchmark moves to the new module.
"""

from repro.soap.framing import (
    DEFAULT_MAX_BODY_BYTES,
    DEFAULT_MAX_HEADER_BYTES,
    HttpProtocolError,
    HttpRequest,
    RequestParser,
    reason_for,
    render_response,
)

__all__ = [
    "DEFAULT_MAX_BODY_BYTES",
    "DEFAULT_MAX_HEADER_BYTES",
    "HttpProtocolError",
    "HttpRequest",
    "RequestParser",
    "reason_for",
    "render_response",
]
