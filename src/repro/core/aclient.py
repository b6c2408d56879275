"""AsyncMCSClient: the asyncio I/O shell of the client API.

The operations themselves are declared once, on
:class:`repro.core.client.ClientOperations`; this module only adds how
the async flavour carries a call out: a coroutine ``_call`` over the
asyncio transports, an ``async with`` lifecycle, and a bulk context
flushed with one ``await``.  Every operation therefore returns an
awaitable of what the same method returns on
:class:`~repro.core.client.MCSClient`, and construction consumes the
same :class:`~repro.core.client.ClientConfig`::

    config = ClientConfig(caller="/O=Grid/CN=Bob", deadline_s=2.0)
    async with AsyncMCSClient.connect(host, port, config) as client:
        names = await client.query(ObjectQuery().where("run", "=", 7))

The transport stack underneath is fully asynchronous
(:class:`~repro.soap.atransport.AsyncHttpTransport` pooling keep-alive
connections, :class:`~repro.resilience.atransport.AsyncResilientTransport`
for retries), so many concurrent tasks can share one client object
without a thread each.
"""

from __future__ import annotations

from typing import Any, Awaitable, Callable

from repro.core.client import (
    BulkQueue,
    BulkResult,
    ClientConfig,
    ClientOperations,
    _typed,
)
from repro.obs.trace import span as _span
from repro.resilience.atransport import AsyncResilientTransport
from repro.soap.atransport import AsyncDirectTransport, AsyncHttpTransport
from repro.soap.envelope import SoapFault


class AsyncBulkContext(BulkQueue):
    """The pipelined-batch pipeline, flushed with one ``await``.

    Usage::

        async with client.bulk() as batch:
            handles = [batch.call("create_logical_file", name=n)
                       for n in names]
        ids = [h.result["id"] for h in handles]
    """

    async def flush(self) -> list[BulkResult]:
        """Send queued operations in one round trip; resolve handles."""
        ops, handles = self._drain()
        if not ops:
            return []
        with _span("client.call_bulk", n=str(len(ops))):
            items = await self._client._transport.call_bulk(ops)
        return self._settle(handles, items)

    async def __aenter__(self) -> "AsyncBulkContext":
        return self

    async def __aexit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if exc_type is None:
            await self.flush()


class AsyncMCSClient(ClientOperations):
    """Asynchronous MCS client over a pluggable async transport."""

    _direct_transport = AsyncDirectTransport
    _resilient_transport = AsyncResilientTransport
    _bulk_context = AsyncBulkContext

    @staticmethod
    def _http_transport(
        host: str, port: int, config: ClientConfig
    ) -> AsyncHttpTransport:
        return AsyncHttpTransport(
            host,
            port,
            timeout=config.timeout_s,
            pool_size=config.pool_size,
        )

    async def close(self) -> None:
        await self._transport.close()

    async def __aenter__(self) -> "AsyncMCSClient":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    async def _call(self, method: str, **args: Any) -> Any:
        args = self._stamp(method, args)
        # Root span, as in MCSClient._call; its context is task-local, so
        # concurrent tasks on one client do not interleave their traces.
        with _span("client.call", method=method):
            try:
                return await self._transport.call(method, args)
            except SoapFault as fault:
                raise _typed(fault) from None

    @staticmethod
    async def _then(outcome: Awaitable[Any], fn: Callable[[Any], Any]) -> Any:
        return fn(await outcome)
