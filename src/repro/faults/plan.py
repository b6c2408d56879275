"""Deterministic, seedable fault injection.

A :class:`FaultPlan` is an ordered list of :class:`FaultRule` s; each
rule matches injection sites by ``(layer, op)`` fnmatch patterns and
injects one fault *kind* at a given rate.  Sites threaded through the
tree call :func:`check` with their layer/op; when a plan is active and a
rule fires, the returned :class:`Injection` tells the site what to do.

Layers wired in this tree:

==============  ==========================================  ==========
layer           site                                        op
==============  ==========================================  ==========
soap.direct     DirectTransport.call / call_bulk            method
soap.loopback   LoopbackCodecTransport.call / call_bulk     method
soap.http       HttpTransport.call / call_bulk              method
soap.server     SoapServer dispatch                         method
repl.ship       Replica batch apply (before any row lands)  replica
rls.update      PeriodicUpdater.tick                        updater
fed.query       FederatedMCS per-member subquery            catalog id
==============  ==========================================  ==========

Kinds: ``error`` (TransportError), ``timeout`` (TransportError after the
rule's latency), ``latency`` (sleep, then proceed), ``torn`` (truncate
the response bytes → client-side EncodingError), ``lost_reply`` (the
operation executes but the reply is dropped — the canonical duplicate-
write hazard), and ``fault`` (a SOAP fault envelope with the rule's
code).

Determinism: every rule draws from its own :class:`random.Random` seeded
from ``(plan.seed, rule index)``, and draws happen under the plan lock in
call order — a single-threaded workload replays the exact same fault
sequence for a given seed.

Activation: :func:`install` / the :func:`active` context manager /
``REPRO_FAULTS=<spec>`` in the environment (parsed at import; see
:meth:`FaultPlan.parse` for the grammar).
"""

from __future__ import annotations

import fnmatch
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from random import Random
from typing import Iterator, Optional, Sequence

from repro.obs import trace as _trace
from repro.obs.metrics import counter as _obs_counter

KINDS = ("error", "timeout", "latency", "torn", "lost_reply", "fault")

_FAULTS_INJECTED = _obs_counter(
    "mcs_faults_injected_total",
    "Faults injected by the repro.faults engine",
    labels=("layer", "kind"),
)


@dataclass
class FaultRule:
    """One injection rule: where (layer/op patterns), what (kind), how often."""

    layer: str
    op: str = "*"
    kind: str = "error"
    rate: float = 1.0
    latency_ms: float = 10.0
    code: str = "Server.Unavailable"
    times: Optional[int] = None  # stop after this many injections
    after: int = 0  # skip the first N matching calls

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; one of {KINDS}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be within [0, 1]")
        if self.times is not None and self.times < 0:
            raise ValueError("times must be >= 0")
        if self.after < 0:
            raise ValueError("after must be >= 0")

    def matches(self, layer: str, op: str) -> bool:
        return fnmatch.fnmatchcase(layer, self.layer) and fnmatch.fnmatchcase(
            op, self.op
        )


class Injection:
    """A fault decision handed to an injection site."""

    __slots__ = ("kind", "rule", "layer", "op")

    def __init__(self, kind: str, rule: FaultRule, layer: str, op: str) -> None:
        self.kind = kind
        self.rule = rule
        self.layer = layer
        self.op = op

    def _message(self) -> str:
        return f"injected {self.kind} at {self.layer}:{self.op}"

    def pre(self) -> None:
        """Apply before the call runs: raise, sleep, or arm a post effect.

        ``torn`` and ``lost_reply`` are post-call effects (the operation
        must execute first); the site applies them via :meth:`tear` or by
        raising after the call.
        """
        # Lazy import: repro.faults must be importable before repro.soap
        # finishes initialising (transports import this module).
        from repro.soap.envelope import SoapFault
        from repro.soap.errors import TransportError

        if self.kind == "latency":
            time.sleep(self.rule.latency_ms / 1000.0)
        elif self.kind == "error":
            raise TransportError(self._message())
        elif self.kind == "timeout":
            time.sleep(self.rule.latency_ms / 1000.0)
            raise TransportError(self._message())
        elif self.kind == "fault":
            raise SoapFault(self.rule.code, self._message())

    async def pre_async(self) -> None:
        """:meth:`pre` for coroutine injection sites.

        Identical semantics, but latency is spent in ``asyncio.sleep``
        so an injected delay parks one task instead of stalling the
        event loop (and every other connection on it).
        """
        import asyncio

        from repro.soap.envelope import SoapFault
        from repro.soap.errors import TransportError

        if self.kind == "latency":
            await asyncio.sleep(self.rule.latency_ms / 1000.0)
        elif self.kind == "error":
            raise TransportError(self._message())
        elif self.kind == "timeout":
            await asyncio.sleep(self.rule.latency_ms / 1000.0)
            raise TransportError(self._message())
        elif self.kind == "fault":
            raise SoapFault(self.rule.code, self._message())

    def fail(self) -> None:
        """Apply at a non-envelope site (replication, RLS, federation):
        every failing kind degrades to an exception, latency to a sleep."""
        from repro.soap.envelope import SoapFault
        from repro.soap.errors import TransportError

        if self.kind == "latency":
            time.sleep(self.rule.latency_ms / 1000.0)
        elif self.kind == "fault":
            raise SoapFault(self.rule.code, self._message())
        elif self.kind == "timeout":
            time.sleep(self.rule.latency_ms / 1000.0)
            raise TransportError(self._message())
        else:  # error, torn, lost_reply
            raise TransportError(self._message())

    def raise_as_fault(self) -> None:
        """Apply inside server dispatch: surface as a SOAP fault envelope
        (``Server.Unavailable`` by default, which clients may retry)."""
        from repro.soap.envelope import SoapFault

        if self.kind == "latency":
            time.sleep(self.rule.latency_ms / 1000.0)
            return
        if self.kind == "timeout":
            time.sleep(self.rule.latency_ms / 1000.0)
        raise SoapFault(self.rule.code, self._message())

    def tear(self, body: bytes) -> bytes:
        """Truncate a response body (the ``torn`` kind)."""
        return body[: max(1, len(body) // 2)]

    def post(self, body: Optional[bytes]) -> Optional[bytes]:
        """Apply after the call ran: the post-call half of :meth:`pre`.

        ``lost_reply``: the caller never learns the outcome.  ``torn``:
        half the reply bytes arrive — or, at an in-process site where
        there are no bytes to tear (*body* is ``None``), the same as a
        lost reply.  Every other kind passes *body* through.
        """
        if self.kind == "lost_reply" or (self.kind == "torn" and body is None):
            from repro.soap.errors import TransportError

            raise TransportError(f"{self._message()} (request executed)")
        return self.tear(body) if self.kind == "torn" else body


class FaultPlan:
    """An activatable set of rules with deterministic per-rule randomness."""

    def __init__(self, rules: Sequence[FaultRule], seed: int = 0) -> None:
        self.rules = list(rules)
        self.seed = seed
        self._lock = threading.Lock()
        self._rngs = [Random(hash((seed, i))) for i in range(len(self.rules))]
        self._seen = [0] * len(self.rules)
        self._hits = [0] * len(self.rules)
        self._events: list[str] = []

    def decide(self, layer: str, op: str) -> Optional[Injection]:
        """First matching rule that fires wins; None means run clean."""
        for i, rule in enumerate(self.rules):
            if not rule.matches(layer, op):
                continue
            with self._lock:
                self._seen[i] += 1
                if self._seen[i] <= rule.after:
                    continue
                if rule.times is not None and self._hits[i] >= rule.times:
                    continue
                if rule.rate < 1.0 and self._rngs[i].random() >= rule.rate:
                    continue
                self._hits[i] += 1
                fid = f"{layer}:{op}#{self._hits[i]}"
                self._events.append(fid)
            _FAULTS_INJECTED.labels(layer, rule.kind).inc()
            _trace.annotate(f"fault {fid} kind={rule.kind}")
            return Injection(rule.kind, rule, layer, op)
        return None

    @property
    def injected(self) -> int:
        """Total injections so far, across all rules."""
        with self._lock:
            return sum(self._hits)

    @property
    def events(self) -> list[str]:
        """Every fault id injected so far, in injection order.

        The ids are the same strings stamped onto span annotations
        (``fault <id> kind=<kind>``), so a chaos test can assert that
        each injected fault is visible in the assembled trace.
        """
        with self._lock:
            return list(self._events)

    def reset(self) -> None:
        """Rewind counters and RNG streams to the freshly-parsed state."""
        with self._lock:
            self._rngs = [Random(hash((self.seed, i))) for i in range(len(self.rules))]
            self._seen = [0] * len(self.rules)
            self._hits = [0] * len(self.rules)
            self._events = []

    def active(self):
        """Context manager installing this plan for the dynamic extent."""
        return active(self)

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse the ``REPRO_FAULTS`` spec grammar::

            spec   := clause (";" clause)*
            clause := "seed=" int
                    | site "=" kind ["@" rate] ("," key "=" value)*
            site   := layer-pattern [":" op-pattern]

        Keys: ``ms`` (latency/timeout milliseconds), ``code`` (fault
        code), ``times``, ``after``.  Example::

            seed=7;soap.http:*=error@0.05;repl.ship=latency,ms=2
        """
        seed = 0
        rules: list[FaultRule] = []
        for clause in spec.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            site, _, rhs = clause.partition("=")
            site = site.strip()
            rhs = rhs.strip()
            if not rhs:
                raise ValueError(f"malformed fault clause {clause!r}")
            if site == "seed":
                seed = int(rhs)
                continue
            layer, _, op = site.partition(":")
            kind_part, *options = rhs.split(",")
            kind, _, rate_part = kind_part.partition("@")
            kwargs: dict = {
                "layer": layer.strip(),
                "op": op.strip() or "*",
                "kind": kind.strip(),
            }
            if rate_part:
                kwargs["rate"] = float(rate_part)
            for option in options:
                key, _, value = option.partition("=")
                key = key.strip()
                value = value.strip()
                if key == "ms":
                    kwargs["latency_ms"] = float(value)
                elif key == "code":
                    kwargs["code"] = value
                elif key == "times":
                    kwargs["times"] = int(value)
                elif key == "after":
                    kwargs["after"] = int(value)
                else:
                    raise ValueError(f"unknown fault option {key!r} in {clause!r}")
            rules.append(FaultRule(**kwargs))
        return cls(rules, seed=seed)


# -- activation --------------------------------------------------------------

_ACTIVE: Optional[FaultPlan] = None


def install(plan: Optional[FaultPlan]) -> None:
    """Make *plan* the process-wide active plan (None deactivates)."""
    global _ACTIVE
    _ACTIVE = plan


def uninstall() -> None:
    install(None)


def get_active() -> Optional[FaultPlan]:
    return _ACTIVE


def check(layer: str, op: str) -> Optional[Injection]:
    """The one call every injection site makes; near-free when inactive."""
    plan = _ACTIVE
    if plan is None:
        return None
    return plan.decide(layer, op)


@contextmanager
def active(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Activate *plan* for a ``with`` block, restoring the previous plan."""
    previous = _ACTIVE
    install(plan)
    try:
        yield plan
    finally:
        install(previous)


def install_from_env(environ=None) -> Optional[FaultPlan]:
    """Activate a plan from ``REPRO_FAULTS``, if set; returns it."""
    import os

    spec = (environ if environ is not None else os.environ).get("REPRO_FAULTS")
    if not spec:
        return None
    plan = FaultPlan.parse(spec)
    install(plan)
    return plan
