"""SOAP endpoint hosting: the shared dispatch path and the threaded server.

:class:`SoapDispatcher` is the transport-independent POST ``/soap``
pipeline — envelope parsing, idempotency replay, deadline restoration,
TraceParent adoption, fault mapping, SLO accounting — shared verbatim by
the thread-per-connection :class:`SoapServer` here and the asyncio front
end (:class:`repro.aserve.AsyncSoapServer`).  Hosting semantics (chaos
injection sites, obs metrics, span parenting) therefore hold unchanged
whichever front end terminates the connection.  Both also frame HTTP
with the same sans-IO :mod:`repro.soap.framing`, so they answer every
request with the same bytes.

:class:`SoapServer` keeps the servlet-container shape the paper measured:
one handler thread per connection (a ``socketserver.ThreadingTCPServer``
accept loop) with a bounded worker pool.  Each connection thread feeds
received bytes to a :class:`~repro.soap.framing.RequestParser` and
writes each answer with one ``sendall``.  Application exceptions are
mapped to SOAP faults; registered fault mappers let services expose
typed errors.

Observability: ``GET /metrics`` renders the process metrics registry in
Prometheus text format, every request feeds the ``mcs_soap_*`` metric
families, and each dispatch is logged as DEBUG-level structured JSON
(see :mod:`repro.obs.log`).
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
import time
import urllib.parse
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro import faults as _faults
from repro.obs import slo as _slo
from repro.obs import trace as _trace
from repro.resilience import context as _rctx
from repro.obs.log import get_logger
from repro.obs.metrics import (
    OBS,
    Counter,
    counter as _obs_counter,
    gauge as _obs_gauge,
    histogram as _obs_histogram,
    render_prometheus,
)
from repro.soap.envelope import (
    SoapFault,
    build_bulk_response,
    build_fault,
    build_response,
    parse_any_request,
)
from repro.soap.framing import (
    RECV_BYTES,
    HttpProtocolError,
    HttpRequest,
    RequestParser,
    reason_for,
    render_response,
)
from repro.soap.transport import execute_bulk
from repro.soap.wsdl import ServiceDescription, generate_wsdl

Handler = Callable[[str, dict[str, Any]], Any]
FaultMapper = Callable[[Exception], Optional[SoapFault]]


def _parse_budget(raw: Optional[str]) -> Optional[float]:
    """Decode the ``Deadline`` header (remaining seconds, as text)."""
    if raw is None:
        return None
    try:
        return max(float(raw), 0.0)
    except ValueError:
        return None

_log = get_logger("soap.server")

_REQUEST_SECONDS = _obs_histogram(
    "mcs_soap_request_seconds",
    "Server-side request latency (read to response write), per operation",
    labels=("operation",),
)
_SERVER_REQUESTS = _obs_counter(
    "mcs_soap_requests_total",
    "Requests handled by the SOAP server, including faults",
)
_SERVER_FAULTS = _obs_counter(
    "mcs_soap_faults_total", "Requests answered with a SOAP fault"
)
_QUEUE_DEPTH = _obs_gauge(
    "mcs_soap_queue_depth",
    "Requests currently waiting for a worker-pool slot",
)
_QUEUE_WAIT_SECONDS = _obs_histogram(
    "mcs_soap_queue_wait_seconds",
    "Time a request waited for a worker-pool slot (saturated pool only)",
)
_WORKER_SATURATION = _obs_counter(
    "mcs_soap_worker_saturation_total",
    "Requests that arrived while every worker-pool slot was busy",
)
# Count-scale buckets: a batch-size distribution, not a latency one.
_BULK_BATCH_SIZE = _obs_histogram(
    "mcs_soap_bulk_batch_size",
    "Operations carried per <BulkRequest> envelope",
    buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
)
_BULK_ITEMS = _obs_counter(
    "mcs_soap_bulk_items_total",
    "Per-item outcomes inside <BulkRequest> batches",
    labels=("status",),
)
_IDEM_REPLAYS = _obs_counter(
    "mcs_soap_idempotent_replays_total",
    "Requests answered from the idempotency cache (duplicate suppressed)",
)
_CLIENT_DISCONNECTS = _obs_counter(
    "mcs_soap_client_disconnects_total",
    "Replies the threaded server could not write: the client had hung up",
)


@dataclass
class DispatchResult:
    """Outcome of one POST ``/soap`` dispatch, ready for HTTP framing."""

    status: int
    body: bytes
    method: str
    is_fault: bool
    request_id: Optional[str] = None


def collection_get(
    path: str,
    query: dict[str, list[str]],
    description: Optional[ServiceDescription] = None,
    endpoint: Optional[tuple[str, int]] = None,
) -> Optional[tuple[int, str, bytes]]:
    """Route the shared GET endpoints; returns ``(status, ctype, body)``.

    Both front ends expose the same collection surface — ``/metrics``,
    ``/spans``, ``/slo``, ``/healthz``, ``/readyz``, ``/profile`` and
    ``/wsdl`` — through this one router, so operators' scrape configs do
    not care which server terminates the socket.  Returns ``None`` for
    unknown paths (the caller answers 404).  May block (``/profile``
    samples for up to 30 s): run it on a worker thread, never an event
    loop.
    """
    if path == "/metrics":
        return (
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            render_prometheus().encode("utf-8"),
        )
    if path == "/spans":
        # The trace collection endpoint: this process's span ring,
        # filtered — what `mcs trace` scrapes from each process to
        # assemble the cross-process waterfall.
        spans = _trace.recent_spans(
            request_id=query.get("request_id", [None])[0],
            trace_id=query.get("trace_id", [None])[0],
            name=query.get("name", [None])[0],
        )
        return (
            200,
            "application/json; charset=utf-8",
            json.dumps(spans, default=str).encode("utf-8"),
        )
    if path == "/slo":
        return (
            200,
            "application/json; charset=utf-8",
            json.dumps(_slo.SLO.snapshot()).encode("utf-8"),
        )
    if path == "/healthz":
        # Liveness: answering at all is the check.
        return (200, "text/plain; charset=utf-8", b"ok\n")
    if path == "/readyz":
        ready = _slo.SLO.healthy()
        return (
            200 if ready else 503,
            "text/plain; charset=utf-8",
            b"ready\n" if ready else b"burn-rate breach\n",
        )
    if path == "/profile":
        try:
            seconds = float(query.get("seconds", ["0.5"])[0])
            interval = float(query.get("interval", ["0.005"])[0])
        except ValueError:
            return (400, "text/plain; charset=utf-8", b"bad query\n")
        from repro.obs.profiler import capture

        # Bounded: this worker thread blocks for the capture, so cap the
        # request at something a curl won't regret.
        profiler = capture(min(max(seconds, 0.0), 30.0), interval)
        return (
            200,
            "text/plain; charset=utf-8",
            (profiler.report() + "\n").encode("utf-8"),
        )
    if path == "/wsdl" and description is not None and endpoint is not None:
        host, port = endpoint
        body = generate_wsdl(
            description, endpoint=f"http://{host}:{port}/soap"
        )
        return (200, "text/xml; charset=utf-8", body)
    return None


class SoapDispatcher:
    """The transport-independent POST ``/soap`` pipeline.

    Owns everything about handling one request body that does not depend
    on how the bytes arrived: envelope decoding, trace/deadline context
    restoration, idempotency replay, bulk fan-out, fault mapping, and
    the request/SLO accounting.  The threaded and asyncio front ends both
    call :meth:`dispatch` from worker threads, so chaos and obs semantics
    are identical under either server.

    Envelopes are read and written by :mod:`repro.soap.envelope` alone
    (``parse_any_request``, ``build_response``, ``build_bulk_response``,
    ``build_fault``), so both front ends put the same bytes on the wire.
    They are looked up in this module's globals at call time, where
    ``perf/trace.py`` wraps them.
    """

    def __init__(
        self,
        handler: Handler,
        fault_mapper: Optional[FaultMapper] = None,
        max_bulk_items: int = 1024,
        idempotency_cache_size: int = 1024,
    ) -> None:
        self._handler = handler
        self._fault_mapper = fault_mapper
        self.max_bulk_items = max_bulk_items
        # Sharded counters (lock-free increments merged on read) so
        # concurrent handler threads never race a shared int.
        self._requests_served = Counter()
        self._faults_served = Counter()
        # Idempotency-token → successful response bytes, LRU-bounded.
        # Only 200 responses are cached: a fault must not replay on
        # retry, or transient failures would become sticky.
        self._idem_cache: OrderedDict[str, bytes] = OrderedDict()
        self._idem_cache_size = idempotency_cache_size
        self._idem_lock = threading.Lock()

    # -- accounting ----------------------------------------------------------

    def count_request(self, fault: bool) -> None:
        _SERVER_REQUESTS.inc()
        self._requests_served.inc()
        if fault:
            _SERVER_FAULTS.inc()
            self._faults_served.inc()

    @property
    def requests_served(self) -> int:
        return self._requests_served.value

    @property
    def faults_served(self) -> int:
        return self._faults_served.value

    # -- idempotency cache ---------------------------------------------------

    def _idem_get(self, key: str) -> Optional[bytes]:
        with self._idem_lock:
            body = self._idem_cache.get(key)
            if body is not None:
                self._idem_cache.move_to_end(key)
            return body

    def _idem_put(self, key: str, body: bytes) -> None:
        with self._idem_lock:
            self._idem_cache[key] = body
            self._idem_cache.move_to_end(key)
            while len(self._idem_cache) > self._idem_cache_size:
                self._idem_cache.popitem(last=False)

    # -- the dispatch path ---------------------------------------------------

    def dispatch(
        self,
        payload: bytes,
        client: Optional[str] = None,
        start: Optional[float] = None,
    ) -> DispatchResult:
        """Run one request body through the full dispatch path.

        ``start`` lets the caller charge connection-level time (payload
        read, worker-pool queueing) to the request's latency histogram;
        when omitted the clock starts here.
        """
        if start is None:
            start = time.perf_counter() if OBS.enabled else 0.0
        method = "<malformed>"
        request_id: Optional[str] = None
        rid_token = None
        tp_token = None
        deadline_token = None
        is_fault = False
        slo_bad = False
        try:
            try:
                parsed = parse_any_request(payload)
                request_id = parsed.request_id
                if request_id is not None:
                    rid_token = _trace.set_request_id(request_id)
                # Adopt the caller's trace context so the dispatch span
                # below parents onto the client's call span — one
                # cross-process trace, not two disjoint trees.
                traceparent = parsed.headers.get("TraceParent")
                if traceparent is not None:
                    tp_token = _trace.set_remote_context(traceparent)
                method = "<bulk>" if parsed.bulk else parsed.calls[0][0]
                # Restore the caller's remaining budget into this
                # thread's context so dispatch (and execute_bulk between
                # items) can stop working once it lapses.
                budget = _parse_budget(parsed.headers.get("Deadline"))
                if budget is not None:
                    deadline_token = _rctx.push_budget(budget)
                with _trace.span("soap.server", method=method):
                    inj = _faults.check("soap.server", method)
                    if inj is not None:
                        inj.raise_as_fault()
                    idem_key = parsed.headers.get("IdempotencyKey")
                    replay = (
                        self._idem_get(idem_key)
                        if idem_key is not None
                        else None
                    )
                    if replay is not None:
                        _IDEM_REPLAYS.inc()
                        _trace.annotate("idempotent-replay")
                        body = replay
                    else:
                        if _rctx.expired():
                            raise SoapFault(
                                "Server.DeadlineExceeded",
                                f"deadline expired before {method!r} ran",
                            )
                        echo = (
                            {"IdempotencyKey": idem_key}
                            if idem_key is not None
                            else None
                        )
                        if parsed.bulk:
                            body = self._handle_bulk(parsed.calls, echo)
                        else:
                            ((method, args),) = parsed.calls
                            result = self._handler(method, args)
                            body = build_response(result, echo)
                        if idem_key is not None:
                            self._idem_put(idem_key, body)
                status = 200
            except SoapFault as fault:
                body = build_fault(fault)
                status = 500
                is_fault = True
                # Application faults (MCS.*: not-found, duplicate,
                # permission...) are the caller's problem, not the
                # service failing — they spend no error budget.
                slo_bad = not fault.code.startswith("MCS.")
            except Exception as exc:  # noqa: BLE001 - fault boundary
                fault = self.map_fault(exc)
                body = build_fault(fault)
                status = 500
                is_fault = True
                slo_bad = not fault.code.startswith("MCS.")
        finally:
            if deadline_token is not None:
                _rctx.reset_deadline(deadline_token)
            if tp_token is not None:
                _trace.reset_remote_context(tp_token)
            if rid_token is not None:
                _trace.reset_request_id(rid_token)
        self.count_request(fault=is_fault)
        if OBS.enabled:
            elapsed = time.perf_counter() - start
            _REQUEST_SECONDS.labels(method).observe(elapsed)
            _slo.SLO.record(method, elapsed, ok=not slo_bad)
            if _log.isEnabledFor(10):  # logging.DEBUG
                _log.debug(
                    "soap.request",
                    extra={
                        "operation": method,
                        "status": status,
                        "duration_ms": round(elapsed * 1000, 3),
                        "rid": request_id,
                        "client": client,
                    },
                )
        return DispatchResult(
            status=status,
            body=body,
            method=method,
            is_fault=is_fault,
            request_id=request_id,
        )

    def _handle_bulk(
        self,
        calls: list[tuple[str, dict[str, Any]]],
        header_fields: Optional[dict[str, str]] = None,
    ) -> bytes:
        """Run a ``<BulkRequest>`` batch; per-item faults stay inline.

        Raises :class:`SoapFault` (an envelope-level fault, HTTP 500) only
        for batch-shape problems — an oversized batch — never for an
        individual operation failing.
        """
        if len(calls) > self.max_bulk_items:
            raise SoapFault(
                "Client.BatchTooLarge",
                f"batch of {len(calls)} operations exceeds "
                f"max_bulk_items={self.max_bulk_items}",
            )
        if OBS.enabled:
            _BULK_BATCH_SIZE.observe(len(calls))
        items = execute_bulk(self._handler, calls, self.map_fault)
        if OBS.enabled:
            ok = sum(1 for item in items if item.ok)
            if ok:
                _BULK_ITEMS.labels("ok").inc(ok)
            if len(items) - ok:
                _BULK_ITEMS.labels("fault").inc(len(items) - ok)
        return build_bulk_response(items, header_fields)

    def map_fault(self, exc: Exception) -> SoapFault:
        if self._fault_mapper is not None:
            mapped = self._fault_mapper(exc)
            if mapped is not None:
                return mapped
        # Shared fault table (lazy: the soap layer must import without
        # repro.core so the packages initialise in either order).
        from repro.core.errors import fault_code_for

        code = fault_code_for(exc)
        if code is not None:
            return SoapFault(code, str(exc))
        return SoapFault("Server", f"{type(exc).__name__}: {exc}")


_TEXT = "text/plain; charset=utf-8"
_XML = "text/xml; charset=utf-8"


def get_reply(
    target: str,
    description: Optional[ServiceDescription],
    endpoint: tuple[str, int],
    keep_alive: bool,
) -> bytes:
    """Both servers' answer to a GET: a collection endpoint, or 404.

    May block (``/profile``): run it on a worker thread, never an event
    loop.
    """
    parts = urllib.parse.urlsplit(target)
    try:
        routed = collection_get(
            parts.path, urllib.parse.parse_qs(parts.query), description, endpoint
        )
    except Exception:
        _log.exception("collection GET raised")
        return render_response(
            500, "Internal Server Error", _TEXT, b"internal error\n", keep_alive
        )
    if routed is None:
        return render_response(404, "Not Found", _TEXT, b"not found\n", keep_alive)
    status, ctype, body = routed
    return render_response(status, reason_for(status), ctype, body, keep_alive)


def protocol_error_reply(err: HttpProtocolError) -> bytes:
    """Both servers' answer to malformed framing; the connection closes."""
    body = (str(err) + "\n").encode("utf-8", "replace")
    return render_response(err.status, err.reason, _TEXT, body, False)


class _ConnectionServer(socketserver.ThreadingTCPServer):
    """Accept loop: one daemon thread per connection, running
    ``serve(sock, addr)``; :class:`SoapServer` tracks and joins them."""

    daemon_threads = True
    allow_reuse_address = True  # a restarted server rebinds its port
    request_queue_size = 128  # many client hosts connect at once

    def __init__(
        self,
        address: tuple[str, int],
        serve: Callable[[socket.socket, Any], None],
    ) -> None:
        super().__init__(address, socketserver.BaseRequestHandler)
        self._serve = serve

    def finish_request(self, request: Any, client_address: Any) -> None:
        self._serve(request, client_address)


class SoapServer:
    """Hosts one dispatch handler at ``POST /soap`` (WSDL at ``GET /wsdl``,
    metrics at ``GET /metrics``)."""

    def __init__(
        self,
        handler: Handler,
        host: str = "127.0.0.1",
        port: int = 0,
        description: Optional[ServiceDescription] = None,
        fault_mapper: Optional[FaultMapper] = None,
        max_workers: int = 4,
        max_bulk_items: int = 1024,
        idempotency_cache_size: int = 1024,
    ) -> None:
        self._description = description
        self._dispatcher = SoapDispatcher(
            handler,
            fault_mapper=fault_mapper,
            max_bulk_items=max_bulk_items,
            idempotency_cache_size=idempotency_cache_size,
        )
        # Bounded worker pool, like a servlet container's maxThreads: one
        # thread per connection still reads the request, but at most
        # max_workers requests are *processed* concurrently.  (Unbounded
        # concurrency degrades badly under the GIL on multicore hosts.)
        self._worker_slots = threading.Semaphore(max_workers)
        # Open connections and their threads, so stop() can end them:
        # after it returns no request is read or dispatched.
        self._conns: dict[socket.socket, threading.Thread] = {}
        self._conns_lock = threading.Lock()
        self._stopping = False
        self._tcp = _ConnectionServer((host, port), self._serve)
        self.host, self.port = self._tcp.server_address[:2]
        self._thread: Optional[threading.Thread] = None

    # -- per-connection protocol --------------------------------------------

    def _serve(self, conn: socket.socket, address: Any) -> None:
        with self._conns_lock:
            if self._stopping:
                return
            self._conns[conn] = threading.current_thread()
        try:
            # Small request/response pairs suffer the Nagle + delayed-ACK
            # interaction (~40 ms/request) unless TCP_NODELAY is set.
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._converse(conn, address[0])
        finally:
            with self._conns_lock:
                del self._conns[conn]

    def _converse(self, conn: socket.socket, peer: str) -> None:
        """Read, answer and write requests in order until the connection ends.

        Each answer goes out in one ``sendall``.  A client that hangs up
        mid-request or before its answer costs a counter tick, nothing on
        stderr.
        """
        parser = RequestParser()
        while True:
            try:
                request = parser.next_request()
            except HttpProtocolError as err:
                self._send(conn, protocol_error_reply(err))
                return
            if request is None:
                try:
                    data = conn.recv(RECV_BYTES)
                except OSError:
                    data = b""
                if not data:
                    if parser.mid_request:
                        _CLIENT_DISCONNECTS.inc()
                    return
                parser.feed(data)
                continue
            if not self._send(conn, self._answer(request, peer)):
                return
            if not request.keep_alive:
                return

    @staticmethod
    def _send(conn: socket.socket, reply: bytes) -> bool:
        try:
            conn.sendall(reply)
        except OSError:
            _CLIENT_DISCONNECTS.inc()
            return False
        return True

    def _answer(self, request: HttpRequest, peer: str) -> bytes:
        """Route one framed request; the same answers as ``AsyncSoapServer``."""
        keep = request.keep_alive
        if request.method == "POST":
            if request.target.split("?", 1)[0] != "/soap":
                self._dispatcher.count_request(fault=False)
                return render_response(404, "Not Found", _TEXT, b"not found\n", keep)
            start = time.perf_counter() if OBS.enabled else 0.0
            if not self._worker_slots.acquire(blocking=False):
                _WORKER_SATURATION.inc()
                _QUEUE_DEPTH.inc()
                wait_start = time.perf_counter() if OBS.enabled else 0.0
                self._worker_slots.acquire()
                _QUEUE_DEPTH.dec()
                if OBS.enabled:
                    _QUEUE_WAIT_SECONDS.observe(time.perf_counter() - wait_start)
            try:
                result = self._dispatcher.dispatch(request.body, peer, start)
            finally:
                self._worker_slots.release()
            return render_response(
                result.status, reason_for(result.status), _XML, result.body, keep
            )
        if request.method == "GET":
            return get_reply(
                request.target, self._description, (self.host, self.port), keep
            )
        return render_response(
            501, "Not Implemented", _TEXT, b"method not implemented\n", keep
        )

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "SoapServer":
        self._thread = threading.Thread(
            target=self._tcp.serve_forever, kwargs={"poll_interval": 0.05}
        )
        self._thread.daemon = True
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, end every open connection, wait for its thread.

        A request already being dispatched finishes, but its answer is
        lost, as on ``AsyncSoapServer``; nothing is read or dispatched once
        this returns.
        """
        if self._thread is not None:
            self._tcp.shutdown()
            self._thread.join(5)
            self._thread = None
        with self._conns_lock:
            self._stopping = True
            conns = list(self._conns.items())
        for conn, _ in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)  # a blocked recv returns EOF
            except OSError:
                pass
        for _, thread in conns:
            if thread is not threading.current_thread():  # stop() from a handler
                thread.join()
        self._tcp.server_close()

    def __enter__(self) -> "SoapServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    @property
    def requests_served(self) -> int:
        """Every request handled, successes and faults alike."""
        return self._dispatcher.requests_served

    @property
    def faults_served(self) -> int:
        """Requests answered with a SOAP fault (mapped or explicit)."""
        return self._dispatcher.faults_served

    @property
    def endpoint(self) -> tuple[str, int]:
        return self.host, self.port
