"""Asyncio call transports — the awaiting I/O shells of ``soap.transport``.

Same wire format, same fault-injection sites (``soap.http``,
``soap.direct``), same client metrics, so a chaos plan or a dashboard
cannot tell which client flavor produced the traffic.  The request
cycle's steps and every connection rule — which failures discard a
socket, when a request is resent, the status check
(:class:`~repro.soap.transport.PostState`) — are the sync module's;
what differs here is only I/O:

* :class:`AsyncHttpTransport` multiplexes over a small pool of
  keep-alive connections (``pool_size``) instead of one socket per
  transport — one async client object can carry many concurrent tasks;
* blocking waits become awaits: injected latency parks the task
  (``Injection.pre_async``), dials and network reads yield the loop.
"""

from __future__ import annotations

import asyncio
import contextvars
import http.client
from typing import Any, Callable, NamedTuple, Optional

from repro import faults as _faults
from repro.soap.errors import TransportError
from repro.soap.transport import Codec, DirectTransport, EnvelopeTransport, PostState


class _Conn(NamedTuple):
    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter

    def close(self) -> None:
        self.writer.close()


class AsyncDirectTransport(DirectTransport):
    """In-process dispatch for the async client.

    The handler is synchronous and may block (locks, the DB engine,
    injected faults), so it runs on the loop's default executor — with
    the caller's :mod:`contextvars` context copied across, which is how
    deadline budgets and trace spans survive the thread hop.
    """

    async def _exchange(self, label: str, work: Callable[..., Any], *args: Any) -> Any:
        inj = _faults.check("soap.direct", label)
        if inj is not None:
            await inj.pre_async()
        ctx = contextvars.copy_context()
        result = await asyncio.get_event_loop().run_in_executor(
            None, lambda: ctx.run(work, *args)
        )
        if inj is not None:
            inj.post(None)
        return result

    async def close(self) -> None:  # pragma: no cover - nothing to release
        pass


class AsyncHttpTransport(EnvelopeTransport):
    """SOAP over asyncio streams with a keep-alive connection pool."""

    site = "soap.http"

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        connect_timeout: Optional[float] = None,
        read_timeout: Optional[float] = None,
        pool_size: int = 2,
    ) -> None:
        self.host = host
        self.port = port
        self.connect_timeout = timeout if connect_timeout is None else connect_timeout
        self.read_timeout = timeout if read_timeout is None else read_timeout
        self.pool_size = max(1, pool_size)
        self._idle: list[_Conn] = []
        # Created lazily so the transport can be constructed outside any
        # event loop and used inside one.
        self._sem: Optional[asyncio.Semaphore] = None
        self._closed = False

    async def close(self) -> None:
        self._closed = True
        while self._idle:
            self._idle.pop().close()

    async def _exchange(
        self, label: str, build: Codec, parse: Codec, *what: Any
    ) -> Any:
        inj = _faults.check(self.site, label)
        if inj is not None:
            await inj.pre_async()
        return self._decode(
            inj, parse, await self._post(self._encode(build, what), label)
        )

    async def _post(self, payload: bytes, label: str) -> bytes:
        request = (
            f"POST /soap HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Type: text/xml; charset=utf-8\r\n"
            f"SOAPAction: {label}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"\r\n"
        ).encode("latin-1") + payload
        if self._sem is None:
            self._sem = asyncio.Semaphore(self.pool_size)
        async with self._sem:
            state = PostState(self._idle.pop() if self._idle else None)
            while True:
                if state.conn is None:
                    state.conn = await self._dial()
                with state:
                    status, body, keep = await self._roundtrip(state.conn, request)
                    break
            if keep and not self._closed and len(self._idle) < self.pool_size:
                self._idle.append(state.conn)
            else:
                state.conn.close()
        return state.answered(status, body)

    async def _dial(self) -> _Conn:
        try:
            return _Conn(
                *await asyncio.wait_for(
                    asyncio.open_connection(self.host, self.port), self.connect_timeout
                )
            )
        except (OSError, asyncio.TimeoutError) as exc:
            raise TransportError(f"connect failed: {exc}") from exc

    async def _roundtrip(self, conn: _Conn, request: bytes) -> tuple[int, bytes, bool]:
        reader, writer = conn

        def timed(awaitable: Any) -> Any:
            return asyncio.wait_for(awaitable, self.read_timeout)

        writer.write(request)
        await timed(writer.drain())
        status_line = await timed(reader.readline())
        if not status_line:
            # EOF before any response byte: the keep-alive race, spelled
            # the way http.client spells it for the sync shell.
            raise http.client.RemoteDisconnected("server closed the connection")
        parts = status_line.decode("latin-1").split(None, 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise TransportError(f"malformed status line {status_line!r}")
        status = int(parts[1])
        headers: dict[str, str] = {}
        while True:
            line = await timed(reader.readline())
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                raise TransportError("connection closed mid-headers")
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length_raw = headers.get("content-length", "0")
        if not length_raw.isdigit():
            raise TransportError(f"malformed Content-Length {length_raw!r}")
        body = await timed(reader.readexactly(int(length_raw)))
        keep = headers.get("connection", "").lower() != "close"
        return status, body, keep
