"""AsyncResilientTransport: the asyncio I/O shell of the retry layer.

Every decision — deadline pinning, breaker admission, idempotency-token
minting, retryable-fault classification, retry accounting (the shared
``mcs_retry_*`` metrics) — is
:class:`~repro.resilience.transport.RetryState`'s, shared with the
blocking shell.  This one awaits the inner coroutine transport and
spends backoff in ``asyncio.sleep``, so a retrying call parks its task
instead of a thread.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable

from repro.resilience.transport import (
    ATTEMPT_FAILURES,
    ResilientTransport,
    RetryState,
)


class AsyncResilientTransport(ResilientTransport):
    """Retry/deadline/breaker wrapper for coroutine transports."""

    _default_sleep = staticmethod(asyncio.sleep)

    async def _invoke(
        self,
        label: str,
        idempotent: bool,
        inner: Callable[..., Awaitable[Any]],
        *args: Any,
    ) -> Any:
        state = RetryState(self, label, idempotent)
        while True:
            with state:
                try:
                    return state.succeeded(await inner(*args))
                except ATTEMPT_FAILURES as exc:
                    delay = state.failed(exc)
            await self._sleep(delay)
