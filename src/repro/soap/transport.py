"""Pluggable call transports.

Three transports share the ``call(method, args) -> result`` interface so
the MCS client can run over any of them.  This is what reproduces the
paper's "MySQL without web service" vs "MCS with web service"
comparison, and separates the codec's share of the web-service penalty:

================  =====================================================
DirectTransport   in-process function call; no XML, no socket — the
                  paper's "MySQL (no web service)" baseline
LoopbackCodec     full SOAP encode/decode, no socket — isolates the
                  serialization share of the penalty (ablation)
HttpTransport     SOAP over a real TCP connection — the paper's
                  "MCS with web service" configuration
================  =====================================================
"""

from __future__ import annotations

import http.client
import socket
from typing import Any, Callable, Optional, Protocol, Sequence

from repro import faults as _faults
from repro.obs import trace as _trace
from repro.obs.metrics import counter as _obs_counter
from repro.resilience import context as _rctx
from repro.soap.envelope import (
    BulkItem,
    SoapFault,
    build_bulk_request,
    build_bulk_response,
    build_request,
    build_response,
    build_fault,
    parse_any_request,
    parse_bulk_response,
    parse_response,
)
from repro.soap.errors import TransportError

Handler = Callable[[str, dict[str, Any]], Any]
FaultMapperFn = Callable[[Exception], Optional[SoapFault]]
Operations = Sequence[tuple[str, dict[str, Any]]]
Codec = Callable[..., Any]  # build_*request / parse_*response


def execute_bulk(
    handler: Handler,
    operations: Operations,
    fault_mapper: Optional[FaultMapperFn] = None,
) -> list[BulkItem]:
    """Dispatch a batch of operations with per-item fault isolation.

    This is the one implementation of generic bulk semantics: every
    transport (and the SOAP server) funnels batches through it, so a
    batch behaves identically in-process and over the wire — each item
    runs in order, and a failing item becomes an inline fault instead of
    aborting its successors.

    Reply item *i* always describes operation *i* of the request — the
    submission-order contract.  Layers that split a batch into
    sub-batches (the shard router fans a ``BulkRequest`` out per shard)
    must reassemble their per-item results back into the caller's
    positions so this invariant survives end to end;
    ``tests/shard/test_bulk_reassembly.py`` pins it.
    """
    items: list[BulkItem] = []
    for method, args in operations:
        if _rctx.expired():
            # The caller's deadline lapsed mid-batch: stop doing work on
            # its behalf; remaining items fail fast with a typed fault.
            items.append(
                BulkItem(
                    ok=False,
                    fault=SoapFault(
                        "Server.DeadlineExceeded",
                        f"deadline expired before {method!r} ran",
                    ),
                )
            )
            continue
        try:
            items.append(BulkItem(ok=True, result=handler(method, args)))
        except SoapFault as fault:
            items.append(BulkItem(ok=False, fault=fault))
        except Exception as exc:  # noqa: BLE001 - per-item fault boundary
            mapped = fault_mapper(exc) if fault_mapper is not None else None
            if mapped is None:
                mapped = SoapFault("Server", f"{type(exc).__name__}: {exc}")
            items.append(BulkItem(ok=False, fault=mapped))
    return items


def _wire_header_fields() -> Optional[dict[str, str]]:
    """Resilience and trace metadata to stamp on an outgoing envelope.

    Only the *remaining* deadline budget (a duration) crosses the wire,
    so the server never needs the client's clock.  ``TraceParent``
    carries the caller's trace context (``trace_id;span_id``) so the
    server-side dispatch span parents onto the in-flight client span.
    """
    fields: dict[str, str] = {}
    rem = _rctx.remaining()
    if rem is not None:
        fields["Deadline"] = f"{max(rem, 0.0):.6f}"
    key = _rctx.current_idempotency_key()
    if key is not None:
        fields["IdempotencyKey"] = key
    traceparent = _trace.current_traceparent()
    if traceparent is not None:
        fields["TraceParent"] = traceparent
    return fields or None


_CLIENT_REQUESTS = _obs_counter(
    "mcs_soap_client_requests_total", "Requests issued by HttpTransport"
)
_CLIENT_REUSE = _obs_counter(
    "mcs_soap_client_keepalive_reuse_total",
    "Requests that reused an existing keep-alive connection",
)
_CLIENT_RECONNECTS = _obs_counter(
    "mcs_soap_client_reconnects_total",
    "Requests resent on a fresh connection after a dead keep-alive socket",
)

#: Everything a wire round trip can fail with, in either I/O flavour:
#: socket errors and timeouts (``OSError``), a reply cut short
#: (``EOFError``, ``http.client.IncompleteRead``) and a reply that is not
#: HTTP (``HTTPException``, or :class:`TransportError` from the asyncio
#: shell's own parser).  After any of them the connection's framing
#: state is unknown — a late response could be misread as the answer to
#: the next request — so the socket is discarded on *every* one.
WIRE_ERRORS = (OSError, EOFError, http.client.HTTPException, TransportError)

#: How the stale keep-alive race looks: the server recycled an idle
#: persistent connection, so the request was torn down *before it
#: executed* (clean close → ``RemoteDisconnected``, a
#: ``ConnectionResetError``; racing RST → reset/abort/broken-pipe
#: during the send).
STALE_ERRORS = (ConnectionResetError, ConnectionAbortedError, BrokenPipeError)


class PostState:
    """One HTTP POST's walk over connections — every rule, no I/O.

    The I/O shell loops: it dials when :attr:`conn` is ``None`` and runs
    one round trip under ``with state:``, breaking out on success.  On
    any of :data:`WIRE_ERRORS` the ``with`` closes the socket, then
    either swallows the error — the loop resends on a fresh connection —
    or raises :class:`TransportError`.

    Only :data:`STALE_ERRORS` on a *reused* connection are resent; a
    fresh connection cannot be stale, which also bounds the resend to
    one.  Never after a **timeout** (the server may still be executing;
    a resend would run a non-idempotent write twice) and never after a
    **torn reply** (the request already executed, only the answer was
    lost).  Those are for the resilience layer, whose retry policy knows
    which methods are idempotent and stamps ``IdempotencyKey`` on the
    rest.
    """

    __slots__ = ("conn", "reused")

    def __init__(self, idle: Any) -> None:
        """*idle* is the pooled keep-alive connection, or ``None``."""
        _CLIENT_REQUESTS.inc()
        self.conn = idle
        self.reused = idle is not None

    def __enter__(self) -> None:
        pass

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        if not isinstance(exc, WIRE_ERRORS):
            return False
        self.conn.close()
        if not (self.reused and isinstance(exc, STALE_ERRORS)):
            raise TransportError(f"HTTP request failed: {exc}") from exc
        _CLIENT_RECONNECTS.inc()
        self.conn, self.reused = None, False
        return True

    def answered(self, status: int, body: bytes) -> bytes:
        """Account the reply; it must be a 200 or a fault-carrying 500."""
        if self.reused:
            _CLIENT_REUSE.inc()
        if status not in (200, 500):
            raise TransportError(f"unexpected HTTP status {status}")
        return body


class Transport(Protocol):
    """Anything that can invoke a remote (or local) method."""

    def call(self, method: str, args: dict[str, Any]) -> Any: ...

    def call_bulk(self, operations: Operations) -> list[BulkItem]: ...

    def close(self) -> None: ...


class DirectTransport:
    """Dispatch straight to the handler — zero protocol overhead."""

    def __init__(self, handler: Handler) -> None:
        self._handler = handler

    def call(self, method: str, args: dict[str, Any]) -> Any:
        return self._exchange(method, self._handler, method, args)

    def call_bulk(self, operations: Operations) -> list[BulkItem]:
        return self._exchange("__bulk__", execute_bulk, self._handler, operations)

    def _exchange(self, label: str, work: Callable[..., Any], *args: Any) -> Any:
        inj = _faults.check("soap.direct", label)
        if inj is not None:
            inj.pre()
        result = work(*args)
        if inj is not None:
            inj.post(None)
        return result

    def close(self) -> None:  # pragma: no cover - nothing to release
        pass


class EnvelopeTransport:
    """One request cycle for every transport that speaks SOAP envelopes.

    ``call``/``call_bulk`` name the codec pair; the cycle is fault-site
    check → injected wait → :meth:`_encode` → ``_post`` (the transport's
    way of getting request bytes answered) → :meth:`_decode`.  The two
    waits are the I/O shell: :meth:`_exchange` here blocks, the asyncio
    transport's awaits (so ``call`` returns an awaitable there).
    """

    site: str

    def call(self, method: str, args: dict[str, Any]) -> Any:
        return self._exchange(method, build_request, parse_response, method, args)

    def call_bulk(self, operations: Operations) -> list[BulkItem]:
        """Issue N operations in one round trip via ``<BulkRequest>``."""
        return self._exchange(
            "__bulk__", build_bulk_request, parse_bulk_response, operations
        )

    def _exchange(self, label: str, build: Codec, parse: Codec, *what: Any) -> Any:
        inj = _faults.check(self.site, label)
        if inj is not None:
            inj.pre()
        return self._decode(inj, parse, self._post(self._encode(build, what), label))

    @staticmethod
    def _encode(build: Codec, what: tuple[Any, ...]) -> bytes:
        """The envelope, stamped now: an injected wait has spent deadline."""
        return build(*what, _trace.current_request_id(), _wire_header_fields())

    @staticmethod
    def _decode(inj: Any, parse: Codec, body: bytes) -> Any:
        """Post-call injection (lost reply, torn bytes), then the codec."""
        if inj is not None:
            body = inj.post(body)
        return parse(body)

    def _post(self, payload: bytes, label: str) -> Any:
        raise NotImplementedError

    def close(self) -> None:
        """Nothing to release, unless the subclass holds a connection."""


class LoopbackCodecTransport(EnvelopeTransport):
    """Full SOAP encode/decode round trip without any socket.

    The request is serialized to bytes, parsed server-side, the result
    serialized, and parsed client-side — exactly the codec work of
    :class:`HttpTransport` minus the TCP round trip.
    """

    site = "soap.loopback"

    def __init__(self, handler: Handler) -> None:
        self._handler = handler

    def _post(self, payload: bytes, label: str) -> bytes:
        request = parse_any_request(payload)
        if request.bulk:
            return build_bulk_response(execute_bulk(self._handler, request.calls))
        method, args = request.calls[0]
        try:
            return build_response(self._handler(method, args))
        except SoapFault as fault:
            return build_fault(fault)


class _NoDelayConnection(http.client.HTTPConnection):
    """``timeout`` bounds the TCP handshake, ``read_timeout`` each read."""

    def __init__(
        self, host: str, port: int, timeout: float, read_timeout: float
    ) -> None:
        super().__init__(host, port, timeout=timeout)
        self._read_timeout = read_timeout

    def connect(self) -> None:  # disable Nagle on the client side too
        super().connect()
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.settimeout(self._read_timeout)


class HttpTransport(EnvelopeTransport):
    """SOAP over HTTP with a persistent connection per transport.

    A slower network link is a fault-plan rule, not an option:
    ``soap.http:*=latency,ms=N`` (see :mod:`repro.faults`) delays every
    request by *N* ms.

    ``timeout`` historically bounded *both* the TCP connect and every
    subsequent socket read with one value, so a slow response got the
    generous connect budget.  ``connect_timeout`` / ``read_timeout``
    split the two deadlines; either defaults to ``timeout``.
    """

    site = "soap.http"

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        connect_timeout: Optional[float] = None,
        read_timeout: Optional[float] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.connect_timeout = timeout if connect_timeout is None else connect_timeout
        self.read_timeout = timeout if read_timeout is None else read_timeout
        # The idle keep-alive connection, once one exchange completed on
        # it; None before the first call and after any failure.
        self._conn: Optional[_NoDelayConnection] = None

    def _post(self, payload: bytes, label: str) -> bytes:
        headers = {"Content-Type": "text/xml; charset=utf-8", "SOAPAction": label}
        state, self._conn = PostState(self._conn), None
        while True:
            if state.conn is None:
                state.conn = _NoDelayConnection(
                    self.host, self.port, self.connect_timeout, self.read_timeout
                )
            with state:
                state.conn.request("POST", "/soap", body=payload, headers=headers)
                response = state.conn.getresponse()
                body = response.read()
                break
        self._conn = state.conn
        return state.answered(response.status, body)

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
