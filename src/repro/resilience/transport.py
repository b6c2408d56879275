"""ResilientTransport: retry + deadline + circuit breaker over any transport.

Wraps a :class:`repro.soap.transport.Transport` and implements the same
protocol, so :class:`~repro.core.client.MCSClient` and federation
members can layer resilience over direct, loopback or HTTP transports
without touching call sites.

Per logical call (:class:`RetryState`, which does no I/O — the transport
classes are thin shells that run the attempts and sleep the backoffs):

1. If a deadline budget is configured, pin the absolute deadline now —
   retries and backoff all spend the *same* budget.
2. Ask the endpoint's circuit breaker for admission; rejected calls
   raise :class:`CircuitOpenError` without touching the endpoint.
3. For non-idempotent (write) calls, mint one idempotency token — the
   same token rides every retry, so the server's dedup cache collapses
   duplicates (see the ``lost_reply`` hazard).
4. On a retryable failure (transport error, torn response, or a fault
   code in :data:`RETRYABLE_FAULT_CODES`) sleep the policy's backoff and
   try again, unless the budget or attempt count is exhausted.

Typed application faults (``MCS.*``) are *successes* from the breaker's
point of view: the endpoint answered; the application said no.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Optional

from repro.obs import trace as _trace
from repro.obs.metrics import OBS
from repro.resilience import context as _rctx
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.retry import RETRY_ATTEMPTS, RETRY_BACKOFF_SECONDS, RetryPolicy
from repro.soap.envelope import SoapFault
from repro.soap.errors import (
    CircuitOpenError,
    DeadlineExceeded,
    EncodingError,
    TransportError,
)
from repro.soap.transport import Operations

#: Fault codes that signal a transient server-side condition worth
#: retrying.  ``Server.Unavailable`` is what the fault-injection engine
#: raises for the ``fault`` kind; ``Server.DeadlineExceeded`` is *not*
#: here (the budget is spent) and ``MCS.*`` codes are application
#: answers, not failures.
RETRYABLE_FAULT_CODES = frozenset({"Server.Unavailable", "Server.Busy"})


class RetryState:
    """One logical call's deadline, breaker, token and retry budget — no I/O.

    The I/O shell loops: ``with state:`` admits one attempt and makes the
    deadline and idempotency token ambient for the inner transport; the
    attempt's outcome goes to :meth:`succeeded` or :meth:`failed`, and
    ``failed`` answers with the backoff to sleep before the next attempt
    — or raises when retrying is over.
    """

    def __init__(
        self, transport: "ResilientTransport", label: str, idempotent: bool
    ) -> None:
        self.transport = transport
        self.label = label
        policy = transport.policy
        self.deadline_at = _rctx.deadline_at()
        if transport.deadline_s is not None:
            mine = time.monotonic() + transport.deadline_s
            inherited = self.deadline_at
            self.deadline_at = mine if inherited is None else min(inherited, mine)
        self.token = None
        if not idempotent and policy.retry_writes:
            self.token = _rctx.new_idempotency_key()
        self.can_retry = policy.can_retry(idempotent, self.token is not None)
        self.attempt = 0
        self._ambient: Any = None

    def __enter__(self) -> "RetryState":
        transport, label = self.transport, self.label
        self.attempt += 1
        if self.deadline_at is not None and time.monotonic() >= self.deadline_at:
            transport._count(label, "deadline")
            raise DeadlineExceeded(
                f"deadline exhausted before attempt {self.attempt} of {label!r} "
                f"to {transport.endpoint}"
            )
        if not transport.breaker.allow():
            transport._count(label, "rejected")
            _trace.annotate(f"breaker open endpoint={transport.endpoint} op={label}")
            raise CircuitOpenError(
                f"circuit open for {transport.endpoint}; {label!r} not attempted"
            )
        self._ambient = (
            _rctx.set_deadline_at(self.deadline_at),
            _rctx.set_idempotency_key(self.token),
        )
        return self

    def __exit__(self, *exc_info: Any) -> None:
        dl_token, idem_token = self._ambient
        _rctx.reset_idempotency_key(idem_token)
        _rctx.reset_deadline(dl_token)

    def succeeded(self, result: Any) -> Any:
        self.transport.breaker.record_success()
        if self.attempt > 1:
            self.transport._count(self.label, "recovered")
        return result

    def failed(self, exc: Exception) -> float:
        """Seconds to back off before the next attempt, or re-raise *exc*."""
        transport, label = self.transport, self.label
        if isinstance(exc, SoapFault):
            if exc.code == "Server.DeadlineExceeded":
                # The server refused because *our* budget ran out en
                # route; fold it into the client-side deadline family.
                transport.breaker.record_success()
                transport._count(label, "deadline")
                raise DeadlineExceeded(exc.message) from exc
            if exc.code not in RETRYABLE_FAULT_CODES:
                # The server answered; the *application* refused.  That
                # is endpoint health, not endpoint failure.
                transport.breaker.record_success()
                raise exc
        # A transport error, a retryable fault, or a torn/truncated
        # response (EncodingError: the bytes are gone but the endpoint is
        # reachable; retry like a transport error).
        transport.breaker.record_failure()
        if not self.can_retry:
            transport._count(label, "not_retryable")
            raise exc
        if self.attempt >= transport.policy.max_attempts:
            transport._count(label, "exhausted")
            raise exc
        delay = transport.policy.backoff(self.attempt)
        deadline_at = self.deadline_at
        if deadline_at is not None and time.monotonic() + delay >= deadline_at:
            transport._count(label, "deadline")
            raise DeadlineExceeded(
                f"deadline leaves no room to retry {label!r} to {transport.endpoint}"
            ) from exc
        transport._count(label, "retried")
        _trace.annotate(
            f"retry attempt={self.attempt} op={label} "
            f"breaker={transport.breaker.state} cause={type(exc).__name__}"
        )
        if OBS.enabled:
            RETRY_BACKOFF_SECONDS.observe(delay)
        return delay


#: What one attempt can fail with and still be this layer's business.
ATTEMPT_FAILURES = (SoapFault, TransportError, EncodingError)


class ResilientTransport:
    """Retry/deadline/breaker wrapper implementing the Transport protocol.

    This class is the blocking I/O shell; the asyncio one
    (:class:`repro.resilience.atransport.AsyncResilientTransport`)
    overrides only :meth:`_invoke` and the default ``sleep``, so there
    ``call``/``call_bulk``/``close`` return awaitables.
    """

    _default_sleep: Callable[[float], Any] = staticmethod(time.sleep)

    def __init__(
        self,
        inner: Any,
        policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        endpoint: str = "inproc",
        is_idempotent: Optional[Callable[[str], bool]] = None,
        deadline_s: Optional[float] = None,
        sleep: Optional[Callable[[float], Any]] = None,
    ) -> None:
        self.inner = inner
        self.policy = policy if policy is not None else RetryPolicy()
        self.breaker = breaker if breaker is not None else CircuitBreaker(endpoint)
        self.endpoint = endpoint
        # Conservative default: treat every method as a write unless told
        # otherwise (writes still retry safely thanks to the token).
        self._is_idempotent = is_idempotent or (lambda method: False)
        self.deadline_s = deadline_s
        self._sleep = sleep if sleep is not None else self._default_sleep

    # -- Transport protocol --------------------------------------------------

    def call(self, method: str, args: dict[str, Any]) -> Any:
        return self._invoke(
            method, self._is_idempotent(method), self.inner.call, method, args
        )

    def call_bulk(self, operations: Operations) -> Any:
        idempotent = all(self._is_idempotent(m) for m, _ in operations)
        return self._invoke("__bulk__", idempotent, self.inner.call_bulk, operations)

    def close(self) -> Any:
        return self.inner.close()

    # -- the I/O shell -------------------------------------------------------

    def _invoke(
        self, label: str, idempotent: bool, inner: Callable[..., Any], *args: Any
    ) -> Any:
        state = RetryState(self, label, idempotent)
        while True:
            with state:
                try:
                    return state.succeeded(inner(*args))
                except ATTEMPT_FAILURES as exc:
                    delay = state.failed(exc)
            self._sleep(delay)

    def _count(self, label: str, outcome: str) -> None:
        RETRY_ATTEMPTS.labels(f"{self.endpoint}:{label}", outcome).inc()
