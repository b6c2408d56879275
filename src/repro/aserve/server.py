"""Asyncio pipelined SOAP front end.

``AsyncSoapServer`` terminates sockets on a selector event loop and runs
the *same* dispatch pipeline as the threaded :class:`~repro.soap.server.
SoapServer` — one :class:`~repro.soap.server.SoapDispatcher` carries the
envelope codec (:mod:`repro.soap.envelope`, the one encoder and decoder
of the wire format), trace/deadline adoption, idempotency replay, fault
mapping and SLO accounting for both front ends, so swapping servers
changes connection mechanics and nothing else.

The division of labor per connection:

* the **event loop** owns every socket: it feeds arriving bytes to a
  sans-IO :class:`~repro.soap.framing.RequestParser`, frames
  responses, and enforces read deadlines.  An idle keep-alive connection
  costs one parser buffer and no thread, which is what lets one process
  hold thousands of mostly-idle clients;
* a **bounded thread pool** runs the dispatch path (handler code is
  synchronous and may block on locks, the DB engine, or injected
  faults).  ``loop.run_in_executor`` bridges the two worlds; the
  executor's queue is the same backpressure point the threaded server's
  worker semaphore provides.

Pipelining: a client may write several requests back-to-back without
waiting.  Each parsed request is submitted to the pool immediately, and
a per-connection writer task emits responses strictly in request order
(HTTP/1.1 requires it).  At most ``max_pipeline`` responses may be in
flight per connection — beyond that the reader stops consuming the
socket and TCP pushes back on the client.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time
from typing import Any, Optional, Union

from repro.obs.log import get_logger
from repro.obs.metrics import (
    OBS,
    counter as _obs_counter,
    gauge as _obs_gauge,
)
from repro.soap.server import (
    HEAD_TIMEOUT_REPLY,
    FaultMapper,
    Handler,
    SoapDispatcher,
    get_reply,
    protocol_error_reply,
)
from repro.soap.framing import (
    DEFAULT_MAX_BODY_BYTES,
    DEFAULT_MAX_HEADER_BYTES,
    RECV_BYTES,
    HttpProtocolError,
    HttpRequest,
    RequestParser,
    reason_for,
    render_response,
)
from repro.soap.wsdl import ServiceDescription

_log = get_logger("repro.aserve")

_CONNS_OPEN = _obs_gauge(
    "mcs_aserve_connections_open", "Currently open async front-end connections"
)
_CONNS_TOTAL = _obs_counter(
    "mcs_aserve_connections_total", "Async front-end connections accepted"
)
_INFLIGHT = _obs_gauge(
    "mcs_aserve_inflight_requests",
    "Requests handed to the worker pool and not yet answered",
)
_PIPELINE_DEPTH = _obs_gauge(
    "mcs_aserve_pipeline_depth",
    "Responses pending in per-connection pipeline queues",
)
_PARSE_ERRORS = _obs_counter(
    "mcs_aserve_parse_errors_total",
    "Connections failed on malformed or abusive HTTP framing",
)

_TEXT = "text/plain; charset=utf-8"
_XML = "text/xml; charset=utf-8"

#: Queue items: (response, close_after).  The response is either final
#: bytes or an awaitable producing them; ``None`` ends the writer.
_Payload = Union[bytes, "asyncio.Future[bytes]", Any]
_QueueItem = Optional[tuple[_Payload, bool]]


class AsyncSoapServer:
    """Event-loop front end over the shared SOAP dispatch pipeline.

    Public surface mirrors :class:`repro.soap.server.SoapServer` —
    ``start``/``stop``, context-manager lifecycle, ``host``/``port``/
    ``endpoint``, ``requests_served``/``faults_served`` — so service and
    shard wiring can substitute one for the other without caring which
    front end terminates the socket.  The loop runs on a daemon thread;
    callers stay synchronous.
    """

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
        max_pipeline: int = 8,
        header_timeout_s: float = 10.0,
        idle_timeout_s: Optional[float] = None,
        max_header_bytes: int = DEFAULT_MAX_HEADER_BYTES,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    ) -> None:
        self._description = description
        self._dispatcher = SoapDispatcher(
            handler,
            fault_mapper=fault_mapper,
            max_bulk_items=max_bulk_items,
            idempotency_cache_size=idempotency_cache_size,
        )
        self._max_workers = max_workers
        self.max_pipeline = max(1, max_pipeline)
        self._header_timeout_s = header_timeout_s
        self._idle_timeout_s = idle_timeout_s
        self._max_header_bytes = max_header_bytes
        self._max_body_bytes = max_body_bytes
        # Bind in the constructor (like SoapServer) so the endpoint is
        # known before start() — tests and shard wiring rely on it.
        self._sock = socket.create_server((host, port), backlog=128)
        self.host, self.port = self._sock.getsockname()[:2]
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._executor: Optional[Any] = None
        self._thread: Optional[threading.Thread] = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._startup_error: Optional[BaseException] = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "AsyncSoapServer":
        from concurrent.futures import ThreadPoolExecutor

        if self._thread is not None:
            return self
        self._executor = ThreadPoolExecutor(
            max_workers=self._max_workers, thread_name_prefix="aserve-worker"
        )
        self._loop = asyncio.new_event_loop()
        started = threading.Event()
        self._thread = threading.Thread(
            target=self._run_loop, args=(started,), daemon=True
        )
        self._thread.start()
        started.wait(5)
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run_loop(self, started: threading.Event) -> None:
        loop = self._loop
        assert loop is not None
        asyncio.set_event_loop(loop)
        try:
            self._server = loop.run_until_complete(
                asyncio.start_server(self._serve_connection, sock=self._sock)
            )
        except BaseException as exc:  # surface bind/start failures to start()
            self._startup_error = exc
            started.set()
            return
        started.set()
        try:
            loop.run_forever()
        finally:
            # Drain whatever stop() left behind, then tear the loop down.
            pending = [t for t in asyncio.all_tasks(loop) if not t.done()]
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    async def _shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        tasks = [t for t in self._conn_tasks if not t.done()]
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    def stop(self) -> None:
        loop = self._loop
        if loop is None or self._thread is None:
            # Never started: just release the listening socket.
            self._sock.close()
            return
        try:
            asyncio.run_coroutine_threadsafe(self._shutdown(), loop).result(5)
        except Exception:  # pragma: no cover - best-effort teardown
            pass
        loop.call_soon_threadsafe(loop.stop)
        self._thread.join(5)
        self._thread = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "AsyncSoapServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    @property
    def requests_served(self) -> int:
        return self._dispatcher.requests_served

    @property
    def faults_served(self) -> int:
        return self._dispatcher.faults_served

    @property
    def endpoint(self) -> tuple[str, int]:
        return self.host, self.port

    # -- per-connection protocol --------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        _CONNS_TOTAL.inc()
        _CONNS_OPEN.inc()
        peername = writer.get_extra_info("peername")
        peer = peername[0] if peername else "<unknown>"
        parser = RequestParser(
            max_header_bytes=self._max_header_bytes,
            max_body_bytes=self._max_body_bytes,
        )
        queue: asyncio.Queue[_QueueItem] = asyncio.Queue(
            maxsize=self.max_pipeline
        )
        writer_task = asyncio.ensure_future(self._write_loop(queue, writer))
        try:
            closing = await self._read_loop(reader, parser, queue, peer)
            if not closing:
                await queue.put(None)
            await writer_task
        except asyncio.CancelledError:
            # Shutdown cancellation is this task's normal teardown path;
            # ending cancelled would make asyncio.streams' done-callback
            # log a spurious traceback, so absorb it and exit cleanly.
            writer_task.cancel()
        finally:
            writer.close()
            _CONNS_OPEN.dec()

    async def _read_loop(
        self,
        reader: asyncio.StreamReader,
        parser: RequestParser,
        queue: "asyncio.Queue[_QueueItem]",
        peer: str,
    ) -> bool:
        """Parse and submit requests until EOF/close.

        Returns True when a close-after item was enqueued (the writer
        ends on it; no sentinel needed).
        """
        while True:
            try:
                request = parser.next_request()
            except HttpProtocolError as err:
                _PARSE_ERRORS.inc()
                _log.debug(
                    "protocol error from %s: %s", peer, err,
                    extra={"client": peer, "status": err.status},
                )
                await queue.put((protocol_error_reply(err), True))
                return True
            if request is not None:
                item = self._start_request(request, peer)
                await queue.put(item)
                _PIPELINE_DEPTH.inc()
                if item[1]:
                    return True
                continue
            timeout = (
                self._header_timeout_s
                if parser.mid_request
                else self._idle_timeout_s
            )
            try:
                chunk = await asyncio.wait_for(reader.read(RECV_BYTES), timeout)
            except asyncio.TimeoutError:
                if parser.mid_request:
                    # Slowloris: a request that started framing and then
                    # stalled. Answer and hang up; an *idle* keep-alive
                    # connection never lands here unless idle_timeout_s
                    # is configured.
                    _PARSE_ERRORS.inc()
                    await queue.put((HEAD_TIMEOUT_REPLY, True))
                    return True
                return False
            except (ConnectionError, OSError):
                return False
            if not chunk:
                return False
            parser.feed(chunk)

    async def _write_loop(
        self, queue: "asyncio.Queue[_QueueItem]", writer: asyncio.StreamWriter
    ) -> None:
        """Emit responses in request order; one writer per connection.

        After a transport error the loop keeps *consuming* (so producer
        puts never deadlock and executor results are retrieved) but
        stops writing.
        """
        broken = False
        while True:
            item = await queue.get()
            if item is None:
                return
            payload, close_after = item
            if isinstance(payload, (bytes, bytearray)):
                data = bytes(payload)
            else:
                data = await payload
            _PIPELINE_DEPTH.dec()
            if not broken:
                try:
                    writer.write(data)
                    await writer.drain()
                except (ConnectionError, OSError):
                    broken = True
            if close_after:
                return

    # -- request routing ----------------------------------------------------

    def _start_request(
        self, request: HttpRequest, peer: str
    ) -> tuple[_Payload, bool]:
        """Route one framed request; dispatch work starts immediately.

        Returns ``(payload, close_after)`` for the writer queue.  POST
        and GET submit to the worker pool *now* (pipelined requests
        overlap in the pool) and hand the writer an awaitable; cheap
        error answers are plain bytes.
        """
        keep = request.keep_alive
        loop = asyncio.get_event_loop()
        if request.method == "POST":
            if request.target.split("?", 1)[0] != "/soap":
                self._dispatcher.count_request(fault=False)
                return (
                    render_response(404, "Not Found", _TEXT, b"not found\n", keep),
                    not keep,
                )
            start = time.perf_counter() if OBS.enabled else 0.0
            _INFLIGHT.inc()
            assert self._executor is not None
            future = loop.run_in_executor(
                self._executor,
                self._dispatcher.dispatch,
                request.body,
                peer,
                start,
            )
            return self._frame_dispatch(future, keep), not keep
        if request.method == "GET":
            assert self._executor is not None
            # A GET may block (/profile samples the process), so it runs
            # on a worker thread like everything else that might.
            future = loop.run_in_executor(
                self._executor,
                get_reply,
                request.target,
                self._description,
                (self.host, self.port),
                keep,
            )
            return future, not keep
        return (
            render_response(
                501, "Not Implemented", _TEXT, b"method not implemented\n", keep
            ),
            not keep,
        )

    async def _frame_dispatch(
        self, future: "asyncio.Future[Any]", keep: bool
    ) -> bytes:
        try:
            result = await future
        except Exception:
            _log.exception("dispatch raised past the fault mapper")
            return render_response(
                500, "Internal Server Error", _TEXT, b"internal error\n", keep
            )
        finally:
            _INFLIGHT.dec()
        return render_response(
            result.status, reason_for(result.status), _XML, result.body, keep
        )
