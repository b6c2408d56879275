"""ResilientTransport: the retry loop, token minting, deadlines, breaker.

All tests use a scripted in-memory inner transport and a recorded
``sleep`` — no wall-clock waits, no server.  Every test runs against
both I/O shells (``ResilientTransport`` and ``AsyncResilientTransport``)
from one body: the decisions live in the shared ``RetryState``, so the
two must be indistinguishable from here.
"""

from __future__ import annotations

import pytest

from repro.resilience import CircuitBreaker, ResilientTransport, RetryPolicy
from repro.resilience import context as rctx
from repro.resilience.atransport import AsyncResilientTransport
from repro.soap.envelope import SoapFault
from repro.soap.errors import (
    CircuitOpenError,
    DeadlineExceeded,
    EncodingError,
    TransportError,
)


class ScriptedTransport:
    """Raises the scripted exceptions in order, then succeeds forever.

    Records every attempt plus the ambient idempotency key it arrived
    with — which is exactly what the real wire transports forward.
    """

    def __init__(self, failures=()):
        self.failures = list(failures)
        self.calls = []
        self.keys = []

    def call(self, method, args):
        self.calls.append((method, args))
        self.keys.append(rctx.current_idempotency_key())
        if self.failures:
            raise self.failures.pop(0)
        return {"ok": method}

    def call_bulk(self, operations):
        self.calls.append(("__bulk__", list(operations)))
        self.keys.append(rctx.current_idempotency_key())
        if self.failures:
            raise self.failures.pop(0)
        return []

    def close(self):
        self.calls.append(("close", None))


class AsyncScriptedTransport(ScriptedTransport):
    """The same script behind coroutine methods."""

    async def call(self, method, args):
        return super().call(method, args)

    async def call_bulk(self, operations):
        return super().call_bulk(operations)

    async def close(self):
        super().close()


class Shell:
    """One I/O flavour: its scripted inner transport and its wrapper."""

    def __init__(self, flavor) -> None:
        self.flavor = flavor
        self.ScriptedTransport = flavor.pick(ScriptedTransport, AsyncScriptedTransport)

    def wrap(self, inner, **kwargs):
        sleeps = []
        kwargs.setdefault("policy", RetryPolicy(max_attempts=4, base_delay_s=0.001,
                                                max_delay_s=0.01, jitter=0.0))

        async def async_sleep(delay):
            sleeps.append(delay)

        transport = self.flavor.pick(ResilientTransport, AsyncResilientTransport)(
            inner, sleep=self.flavor.pick(sleeps.append, async_sleep), **kwargs
        )
        return self.flavor.drive(transport), sleeps


@pytest.fixture
def shell(flavor) -> Shell:
    return Shell(flavor)


class TestRetryLoop:
    def test_flaky_read_recovers(self, shell):
        inner = shell.ScriptedTransport([TransportError("net"), TransportError("net")])
        transport, sleeps = shell.wrap(inner, is_idempotent=lambda m: True)
        assert transport.call("query", {}) == {"ok": "query"}
        assert len(inner.calls) == 3
        assert len(sleeps) == 2
        assert sleeps[0] <= sleeps[1]  # the policy's monotone ladder

    def test_exhausted_reraises_the_last_error(self, shell):
        inner = shell.ScriptedTransport([TransportError(f"n{i}") for i in range(9)])
        transport, _ = shell.wrap(inner, is_idempotent=lambda m: True)
        with pytest.raises(TransportError, match="n3"):
            transport.call("query", {})
        assert len(inner.calls) == 4  # max_attempts

    def test_torn_response_retries_like_transport_error(self, shell):
        inner = shell.ScriptedTransport([EncodingError("truncated envelope")])
        transport, _ = shell.wrap(inner, is_idempotent=lambda m: True)
        assert transport.call("query", {}) == {"ok": "query"}

    def test_retryable_fault_code_retries(self, shell):
        inner = shell.ScriptedTransport([SoapFault("Server.Unavailable", "injected")])
        transport, _ = shell.wrap(inner, is_idempotent=lambda m: True)
        assert transport.call("query", {}) == {"ok": "query"}

    def test_application_fault_is_not_retried(self, shell):
        inner = shell.ScriptedTransport([SoapFault("MCS.NoSuchObject", "nope")])
        transport, _ = shell.wrap(inner, is_idempotent=lambda m: True)
        with pytest.raises(SoapFault, match="nope"):
            transport.call("query", {})
        assert len(inner.calls) == 1


class TestIdempotencyTokens:
    def test_write_mints_one_token_reused_across_retries(self, shell):
        inner = shell.ScriptedTransport([TransportError("a"), TransportError("b")])
        transport, _ = shell.wrap(inner)  # default: every method is a write
        transport.call("create_logical_file", {"name": "f"})
        assert len(inner.keys) == 3
        assert inner.keys[0] is not None
        assert len(set(inner.keys)) == 1  # same token on every attempt

    def test_distinct_logical_calls_get_distinct_tokens(self, shell):
        inner = shell.ScriptedTransport()
        transport, _ = shell.wrap(inner)
        transport.call("create_logical_file", {"name": "a"})
        transport.call("create_logical_file", {"name": "b"})
        assert inner.keys[0] != inner.keys[1]

    def test_reads_carry_no_token(self, shell):
        inner = shell.ScriptedTransport()
        transport, _ = shell.wrap(inner, is_idempotent=lambda m: True)
        transport.call("query", {})
        assert inner.keys == [None]

    def test_retry_writes_false_means_single_attempt_no_token(self, shell):
        inner = shell.ScriptedTransport([TransportError("net")])
        transport, _ = shell.wrap(
            inner,
            policy=RetryPolicy(max_attempts=4, retry_writes=False, jitter=0.0),
        )
        with pytest.raises(TransportError):
            transport.call("create_logical_file", {"name": "f"})
        assert len(inner.calls) == 1
        assert inner.keys == [None]

    def test_bulk_of_reads_is_idempotent_mixed_is_not(self, shell):
        reads = {"query", "stats"}
        inner = shell.ScriptedTransport()
        transport, _ = shell.wrap(inner, is_idempotent=lambda m: m in reads)
        transport.call_bulk([("query", {}), ("stats", {})])
        transport.call_bulk([("query", {}), ("delete_logical_file", {})])
        assert inner.keys[0] is None       # all-read bulk: no token
        assert inner.keys[1] is not None   # any write in the batch: token

    def test_ambient_key_restored_after_the_call(self, shell):
        inner = shell.ScriptedTransport()
        transport, _ = shell.wrap(inner)
        transport.call("create_logical_file", {"name": "f"})
        assert rctx.current_idempotency_key() is None


class TestDeadlines:
    def test_expired_budget_raises_before_touching_the_endpoint(self, shell):
        inner = shell.ScriptedTransport()
        transport, _ = shell.wrap(inner, deadline_s=-1.0, is_idempotent=lambda m: True)
        with pytest.raises(DeadlineExceeded):
            transport.call("query", {})
        assert inner.calls == []

    def test_no_retry_when_backoff_would_overrun_the_deadline(self, shell):
        inner = shell.ScriptedTransport([TransportError("net")])
        transport, _ = shell.wrap(
            inner,
            policy=RetryPolicy(max_attempts=4, base_delay_s=30.0,
                               max_delay_s=60.0, jitter=0.0),
            deadline_s=5.0,
            is_idempotent=lambda m: True,
        )
        with pytest.raises(DeadlineExceeded):
            transport.call("query", {})
        assert len(inner.calls) == 1

    def test_ambient_deadline_tightens_the_configured_one(self, shell):
        inner = shell.ScriptedTransport()
        transport, _ = shell.wrap(inner, deadline_s=60.0, is_idempotent=lambda m: True)
        with rctx.deadline(-1.0):  # ambient budget already spent
            with pytest.raises(DeadlineExceeded):
                transport.call("query", {})
        assert inner.calls == []

    def test_server_side_deadline_fault_maps_to_deadline_exceeded(self, shell):
        """A ``Server.DeadlineExceeded`` fault is the server enforcing *our*
        budget; it surfaces as DeadlineExceeded, unretried, breaker intact."""
        breaker = CircuitBreaker("ep", failure_threshold=1, reset_timeout_s=999.0)
        inner = shell.ScriptedTransport(
            [SoapFault("Server.DeadlineExceeded", "deadline expired")]
        )
        transport, sleeps = shell.wrap(
            inner, breaker=breaker, is_idempotent=lambda m: True
        )
        with pytest.raises(DeadlineExceeded, match="deadline expired"):
            transport.call("query", {})
        assert len(inner.calls) == 1
        assert sleeps == []
        assert breaker.state == "closed"  # the server answered: healthy

    def test_deadline_exceeded_is_never_retried(self, shell):
        """DeadlineExceeded subclasses TransportError, but the loop raises
        it past the retry machinery — a spent budget can't recover."""
        inner = shell.ScriptedTransport([TransportError("x")] * 3)
        transport, sleeps = shell.wrap(
            inner, deadline_s=-1.0, is_idempotent=lambda m: True
        )
        with pytest.raises(DeadlineExceeded):
            transport.call("query", {})
        assert sleeps == []


class TestBreakerIntegration:
    def test_failures_trip_the_breaker_and_reject_fast(self, shell):
        breaker = CircuitBreaker("ep", failure_threshold=2, reset_timeout_s=999.0)
        inner = shell.ScriptedTransport([TransportError("a"), TransportError("b")])
        transport, _ = shell.wrap(
            inner,
            policy=RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter=0.0),
            breaker=breaker,
            is_idempotent=lambda m: True,
        )
        with pytest.raises(TransportError):
            transport.call("query", {})
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            transport.call("query", {})
        assert len(inner.calls) == 2  # the rejection never reached the inner

    def test_application_fault_counts_as_breaker_success(self, shell):
        breaker = CircuitBreaker("ep", failure_threshold=1)
        inner = shell.ScriptedTransport([SoapFault("MCS.NoSuchObject", "nope")])
        transport, _ = shell.wrap(inner, breaker=breaker, is_idempotent=lambda m: True)
        with pytest.raises(SoapFault):
            transport.call("query", {})
        assert breaker.state == "closed"

    def test_half_open_probe_recovery_closes_the_breaker(self, shell):
        clock = [0.0]
        breaker = CircuitBreaker(
            "ep", failure_threshold=1, reset_timeout_s=1.0,
            clock=lambda: clock[0],
        )
        inner = shell.ScriptedTransport([TransportError("down")])
        transport, _ = shell.wrap(
            inner,
            policy=RetryPolicy(max_attempts=1),
            breaker=breaker,
            is_idempotent=lambda m: True,
        )
        with pytest.raises(TransportError):
            transport.call("query", {})
        assert breaker.state == "open"
        clock[0] = 2.0  # reset timeout elapses; next call is the probe
        assert transport.call("query", {}) == {"ok": "query"}
        assert breaker.state == "closed"


class TestProtocolPlumbing:
    def test_close_passes_through(self, shell):
        inner = shell.ScriptedTransport()
        transport, _ = shell.wrap(inner)
        transport.close()
        assert inner.calls == [("close", None)]

    def test_success_path_is_transparent(self, shell):
        inner = shell.ScriptedTransport()
        transport, sleeps = shell.wrap(inner, is_idempotent=lambda m: True)
        assert transport.call("ping", {"a": 1}) == {"ok": "ping"}
        assert inner.calls == [("ping", {"a": 1})]
        assert sleeps == []
