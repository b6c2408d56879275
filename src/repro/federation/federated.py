"""The federated query client: index scatter + local-catalog subqueries."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

from repro import faults as _faults
from repro.core.query import ObjectQuery
from repro.obs import trace as _trace
from repro.federation.indexnode import MCSIndexNode
from repro.federation.localcatalog import LocalMCS
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.retry import RETRY_ATTEMPTS, RetryPolicy
from repro.soap.envelope import SoapFault
from repro.soap.errors import CircuitOpenError, EncodingError, TransportError


@dataclass
class FederationResult:
    """Outcome of a federated query that may have degraded gracefully.

    ``results`` maps catalog id → matching names; ``skipped`` maps
    catalog id → the reason it contributed nothing (open circuit,
    transport failure after retries, ...).  ``partial`` is True whenever
    any candidate catalog was skipped — the caller knows the answer may
    be an undercount.
    """

    results: dict[str, list[str]] = field(default_factory=dict)
    skipped: dict[str, str] = field(default_factory=dict)

    @property
    def partial(self) -> bool:
        return bool(self.skipped)


class FederatedMCS:
    """Queries a federation of local catalogs through an index node.

    The client (1) asks the index node which catalogs might match, then
    (2) issues the full query only to those catalogs, merging the name
    lists with catalog provenance attached.

    Each member is guarded by its own circuit breaker; with a
    ``retry_policy`` the per-member subquery retries transient failures
    with the policy's backoff.  :meth:`query` keeps the historical strict
    semantics (a failing member raises); :meth:`query_detailed` degrades
    gracefully instead, skipping broken or open-circuit members and
    flagging the result as partial.
    """

    def __init__(
        self,
        index: MCSIndexNode,
        catalogs: Mapping[str, LocalMCS],
        retry_policy: Optional[RetryPolicy] = None,
        breaker_factory: Optional[Callable[[str], CircuitBreaker]] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.index = index
        self.catalogs = dict(catalogs)
        self.subqueries_issued = 0
        self.retry_policy = retry_policy
        self._breaker_factory = breaker_factory or (
            lambda catalog_id: CircuitBreaker(f"fed:{catalog_id}")
        )
        self._breakers: dict[str, CircuitBreaker] = {}
        self._sleep = sleep

    def breaker(self, catalog_id: str) -> CircuitBreaker:
        """The member's circuit breaker (created on first use)."""
        guard = self._breakers.get(catalog_id)
        if guard is None:
            guard = self._breaker_factory(catalog_id)
            self._breakers[catalog_id] = guard
        return guard

    def refresh_all(self) -> None:
        """Push fresh summaries from every catalog (the soft-state tick)."""
        for member in self.catalogs.values():
            self.index.receive_summary(member.make_summary())

    def query(self, query: ObjectQuery) -> dict[str, list[str]]:
        """Full ObjectQuery across the federation; member failures raise."""
        return self.query_detailed(query, strict=True).results

    def query_detailed(
        self, query: ObjectQuery, strict: bool = False
    ) -> FederationResult:
        """Federated query with graceful degradation.

        A member whose breaker is open, or that keeps failing after the
        retry budget, is recorded in ``skipped`` instead of sinking the
        whole scatter (unless ``strict``).
        """
        cond_list = [(c.attribute, c.op, c.value) for c in query.conditions]
        result = FederationResult()
        for catalog_id in self.index.candidate_catalogs(cond_list):
            member = self.catalogs.get(catalog_id)
            if member is None:
                continue
            try:
                names = self._subquery(catalog_id, member, query)
            except CircuitOpenError:
                if strict:
                    raise
                result.skipped[catalog_id] = "circuit-open"
                continue
            except (TransportError, EncodingError, SoapFault) as exc:
                if strict:
                    raise
                result.skipped[catalog_id] = f"{type(exc).__name__}: {exc}"
                continue
            if names:
                result.results[catalog_id] = names
        return result

    def flat_query(self, conditions: dict[str, Any]) -> list[str]:
        """Merged, de-duplicated name list across all catalogs."""
        merged: set[str] = set()
        for names in self.query(ObjectQuery().where_equal(conditions)).values():
            merged.update(names)
        return sorted(merged)

    def _subquery(
        self, catalog_id: str, member: LocalMCS, query: ObjectQuery
    ) -> list[str]:
        """One member subquery: breaker admission, injection, retries."""
        from repro.resilience.transport import RETRYABLE_FAULT_CODES

        policy = self.retry_policy
        guard = self.breaker(catalog_id)
        attempt = 0
        with _trace.span("fed.subquery", member=catalog_id):
            while True:
                attempt += 1
                if not guard.allow():
                    _trace.annotate(f"breaker open member={catalog_id}")
                    raise CircuitOpenError(
                        f"circuit open for federation member {catalog_id!r}"
                    )
                self.subqueries_issued += 1
                try:
                    inj = _faults.check("fed.query", catalog_id)
                    if inj is not None:
                        inj.fail()
                    names = member.client.query(query)
                except SoapFault as fault:
                    if fault.code not in RETRYABLE_FAULT_CODES:
                        guard.record_success()  # the member answered
                        raise
                    guard.record_failure()
                    if policy is None or attempt >= policy.max_attempts:
                        raise
                    RETRY_ATTEMPTS.labels(f"fed:{catalog_id}", "retried").inc()
                    _trace.annotate(
                        f"retry attempt={attempt} member={catalog_id}"
                    )
                    self._sleep(policy.backoff(attempt))
                    continue
                except (TransportError, EncodingError):
                    guard.record_failure()
                    if policy is None or attempt >= policy.max_attempts:
                        RETRY_ATTEMPTS.labels(
                            f"fed:{catalog_id}", "exhausted"
                        ).inc()
                        raise
                    RETRY_ATTEMPTS.labels(f"fed:{catalog_id}", "retried").inc()
                    _trace.annotate(
                        f"retry attempt={attempt} member={catalog_id}"
                    )
                    self._sleep(policy.backoff(attempt))
                    continue
                guard.record_success()
                return names

