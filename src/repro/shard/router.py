"""ShardedCatalog: one logical catalog over N engine shards.

Drop-in for :class:`repro.core.catalog.MetadataCatalog` in front of
:class:`repro.core.service.MCSService` — every public catalog method is
implemented by routing:

* **Partitioned state** (``logical_file`` and its dependent attribute /
  annotation / transformation / view-membership / ACL rows) lives on
  exactly one shard, chosen by :class:`repro.shard.map.ShardMap`
  (collection affinity: a collection's files co-locate).
* **Replicated state** (collections, views, attribute definitions,
  users, external catalogs, service/collection/view ACLs) is broadcast
  to every shard, so any shard can answer structural reads and each
  shard can run collection joins and cycle checks locally.

The 31 methods that only need a destination are not written out: the
``_FORWARDED`` table assigns each a routing class (``_route_*``, one
method per class) and generates it with ``MetadataCatalog``'s signature.
What has logic of its own is hand-written: scatter queries
gather every shard's ``(sort key, name)`` pairs per compiled leaf and
finish with the single engine's own dedup / sort / slice
(:func:`repro.mql.executor.execute_compiled`); bulk batches split per
shard and reassemble per-item results in submission order; cross-shard
writes (file moves, multi-shard atomic bulks, broadcasts) run two-phase
commit (:mod:`repro.shard.twopc`).  Every shard call passes a per-shard
circuit breaker with read retries (``repro.resilience``), a
``shard.call`` fault-injection point, and ``shard.route`` tracing.

Known divergences from a single engine, by design:

* database ids are shard-local, which is why ``record_audit`` places a
  record by the object's name; a cross-shard move assigns a new id and
  leaves the file's audit trail behind;
* cross-shard uniqueness of ``(name, version)`` is checked by a scatter
  read before insert, not by a global lock — two racing creates of the
  same name routed to *different* shards can both land;
* replicated rows carry per-shard timestamps.
"""

from __future__ import annotations

import functools
import inspect
import time
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional
from typing import Sequence, TypeVar

from repro import faults as _faults
from repro.cache.lru import LRUCache
from repro.core.catalog import MetadataCatalog
from repro.core.errors import (
    DuplicateObjectError,
    InvalidAttributeError,
    ObjectNotFoundError,
    QueryError,
)
from repro.core.model import LogicalFile, ObjectType, ViewMember
from repro.core.query import ObjectQuery
from repro.mql import compiler as mql_compiler
from repro.mql import executor as mql_executor
from repro.mql.compiler import CompiledStatement, Leaf
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.retry import RetryPolicy
from repro.shard.map import ShardMap
from repro.shard.twopc import ShardOp, TwoPhaseCoordinator
from repro.soap.envelope import SoapFault
from repro.soap.errors import TransportError

T = TypeVar("T")


class _Forwarded(NamedTuple):
    """One call of a generated forwarder, as its routing class sees it."""

    op: str
    fn: Callable[[MetadataCatalog], Any]  # the call, closed over its arguments
    write: bool
    # What can decide the shard; None where the method has no such parameter.
    kind: Optional[ObjectType]
    name: Optional[str]
    version: Optional[int]


_OPS_TOTAL = _metrics.counter(
    "mcs_shard_ops_total",
    "Catalog operations by routing kind",
    labels=("kind", "status"),
)
_MERGE_SECONDS = _metrics.histogram(
    "mcs_shard_merge_seconds",
    "Scatter/gather query merge latency",
)


class ShardUnavailableError(TransportError):
    """A shard's circuit breaker rejected the call."""


class _ShardedCacheView:
    """Aggregated view over the per-shard strict-consistency caches."""

    def __init__(self, shards: Sequence[MetadataCatalog]) -> None:
        self._shards = shards

    @property
    def enabled(self) -> bool:
        return all(s.cache.enabled for s in self._shards)

    @enabled.setter
    def enabled(self, flag: bool) -> None:
        for shard in self._shards:
            shard.cache.enabled = flag

    def clear(self) -> None:
        for shard in self._shards:
            shard.cache.clear()

    def stats(self) -> dict[str, Any]:
        out: dict[str, Any] = {"enabled": self.enabled, "shards": len(self._shards)}
        per_shard = [s.cache.stats() for s in self._shards]
        for cache_name in ("attr_def", "object", "query", "authz"):
            totals: dict[str, float] = {}
            for stats in per_shard:
                for key, value in stats.get(cache_name, {}).items():
                    if isinstance(value, (int, float)):
                        totals[key] = totals.get(key, 0) + value
            hits, misses = totals.get("hits", 0), totals.get("misses", 0)
            if hits or misses:
                totals["hit_ratio"] = round(hits / (hits + misses), 4)
            out[cache_name] = totals
        return out


class ShardedCatalog:
    """Routes the MetadataCatalog API across independent engine shards."""

    def __init__(
        self,
        shards: Sequence[MetadataCatalog],
        directory: Optional[str] = None,
        retry_policy: Optional[RetryPolicy] = None,
        breaker_threshold: int = 5,
        breaker_reset_s: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not shards:
            raise ValueError("at least one shard is required")
        self.shards = list(shards)
        self.map = ShardMap(len(self.shards))
        self.coordinator = TwoPhaseCoordinator(self.shards, directory)
        self.recovery_stats = self.coordinator.recover()
        self.retry_policy = retry_policy or RetryPolicy(
            max_attempts=2, base_delay_s=0.001, max_delay_s=0.01
        )
        self.breakers = [
            CircuitBreaker(
                f"shard-{idx}",
                failure_threshold=breaker_threshold,
                reset_timeout_s=breaker_reset_s,
                clock=clock,
            )
            for idx in range(len(self.shards))
        ]
        # Owning-shard hints (name → shard index) to short-circuit the
        # scatter locate; purely advisory, verified before use.
        self._hints: LRUCache[str, int] = LRUCache(capacity=4096)
        self.cache = _ShardedCacheView(self.shards)

    # -- lifecycle ---------------------------------------------------------

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    @property
    def db(self) -> Any:
        """First shard's engine (compatibility accessor for callers that
        inspect ``catalog.db``; per-shard engines via ``shards[i].db``)."""
        return self.shards[0].db

    def checkpoint(self) -> None:
        for shard in self.shards:
            shard.db.checkpoint()

    def close(self) -> None:
        for shard in self.shards:
            shard.db.close()

    # -- guarded per-shard calls -------------------------------------------

    def _call(
        self,
        idx: int,
        op: str,
        fn: Callable[[MetadataCatalog], T],
        kind: str = "single",
        idempotent: bool = False,
    ) -> T:
        """Run one operation against one shard behind its breaker.

        Transport-level failures (injected or real) trip the breaker and
        are retried for idempotent reads; catalog-domain errors (not
        found, duplicate, ...) are successful calls that raised.
        """
        breaker = self.breakers[idx]
        attempt = 0
        while True:
            attempt += 1
            if not breaker.allow():
                _OPS_TOTAL.labels(kind, "rejected").inc()
                raise ShardUnavailableError(
                    f"shard {idx} unavailable (circuit open) for {op!r}"
                )
            try:
                with _trace.span("shard.route", op=op, shard=str(idx), kind=kind):
                    injection = _faults.check("shard.call", f"{op}@{idx}")
                    if injection is not None:
                        injection.fail()
                    result = fn(self.shards[idx])
            except (TransportError, SoapFault):
                breaker.record_failure()
                _OPS_TOTAL.labels(kind, "error").inc()
                if idempotent and attempt < self.retry_policy.max_attempts:
                    time.sleep(self.retry_policy.backoff(attempt))
                    continue
                raise
            except Exception:
                # Domain error: the shard answered; don't punish it.
                breaker.record_success()
                _OPS_TOTAL.labels(kind, "ok").inc()
                raise
            breaker.record_success()
            _OPS_TOTAL.labels(kind, "ok").inc()
            return result

    def _replicated_read(self, op: str, fn: Callable[[MetadataCatalog], T]) -> T:
        """Read replicated state from the first shard whose breaker admits."""
        last_error: Optional[Exception] = None
        for idx in self.map.all_shards():
            try:
                return self._call(idx, op, fn, kind="replicated", idempotent=True)
            except (ShardUnavailableError, TransportError, SoapFault) as exc:
                last_error = exc
        raise last_error if last_error is not None else ShardUnavailableError(op)

    def _broadcast(
        self, op: str, fn: Callable[[MetadataCatalog], T], primary: int = 0
    ) -> T:
        """Apply a replicated-state write to every shard, primary first.

        The primary (the shard whose answer the caller sees) validates;
        if it raises, no replica has been touched.  Replica failures
        after a primary success indicate replica divergence and
        propagate — deterministic ops on replicated state cannot
        normally disagree.
        """
        result = self._call(primary, op, fn, kind="broadcast")
        for idx in self.map.all_shards():
            if idx != primary:
                self._call(idx, op, fn, kind="broadcast")
        return result

    # -- routing classes ---------------------------------------------------
    #
    # Where a pure forwarder runs, written once each; ``_FORWARDED`` below
    # assigns one to every catalog method that needs nothing more.

    def _route_replica(self, call: _Forwarded) -> Any:
        """Replicated state, read from any shard whose breaker admits."""
        return self._replicated_read(call.op, call.fn)

    def _route_everywhere(self, call: _Forwarded) -> Any:
        """Replicated state without a home (definitions, users, the service
        ACL), written on every shard; shard 0 validates and answers."""
        return self._broadcast(call.op, call.fn)

    def _route_everywhere_by_name(self, call: _Forwarded) -> Any:
        """A replicated object written on every shard; the shard its name
        hashes to validates and answers."""
        primary = self.map.shard_for_name(call.name)
        return self._broadcast(call.op, call.fn, primary=primary)

    def _route_everywhere_by_collection(self, call: _Forwarded) -> Any:
        """A collection written on every shard.  The shard holding its files
        goes first: it alone can veto deleting a non-empty collection."""
        primary = self.map.shard_for_collection(call.name)
        return self._broadcast(call.op, call.fn, primary=primary)

    def _route_collection_shard(self, call: _Forwarded) -> Any:
        """The one shard holding a collection's files."""
        idx = self.map.shard_for_collection(call.name)
        return self._call(idx, call.op, call.fn, idempotent=not call.write)

    def _route_file_owner(self, call: _Forwarded) -> Any:
        """The shard that owns a file and its dependent rows."""
        idx, _file = self._locate_file(call.name, call.version)
        return self._call(idx, call.op, call.fn, idempotent=not call.write)

    def _route_by_object_type(self, call: _Forwarded) -> Any:
        """Chosen by the ``object_type`` argument: a file's rows live with
        the file; a collection's, a view's and the service's are replicated."""
        if call.kind is ObjectType.FILE:
            return self._route_file_owner(call)
        if not call.write:
            return self._route_replica(call)
        if call.name is None:
            return self._route_everywhere(call)
        return self._route_everywhere_by_name(call)

    # -- file location -----------------------------------------------------

    def _locate_file(
        self, name: str, version: Optional[int] = None
    ) -> tuple[int, LogicalFile]:
        """Owning shard of a file (scatter with an advisory hint)."""
        hinted = self._hints.get(name)
        if hinted is not None:
            try:
                file = self._call(
                    hinted,
                    "get_file",
                    lambda s: s.get_file(name, version),
                    idempotent=True,
                )
            except (ObjectNotFoundError, InvalidAttributeError):
                self._hints.discard(name)
            else:
                if version is not None or len(self.list_versions(name)) == 1:
                    return hinted, file
                self._hints.discard(name)
        found: list[tuple[int, LogicalFile]] = []
        ambiguous = False
        for idx in self.map.all_shards():
            try:
                file = self._call(
                    idx,
                    "get_file",
                    lambda s: s.get_file(name, version),
                    kind="scatter",
                    idempotent=True,
                )
                found.append((idx, file))
            except ObjectNotFoundError:
                continue
            except InvalidAttributeError:
                ambiguous = True
        if ambiguous or len(found) > 1:
            total = sum(
                len(self.shards[idx].list_versions(name))
                for idx in self.map.all_shards()
            )
            raise InvalidAttributeError(
                f"logical file {name!r} has {total} versions; "
                "specify one explicitly"
            )
        if not found:
            raise ObjectNotFoundError(f"no logical file {name!r}")
        idx, file = found[0]
        self._hints.put(name, idx)
        return idx, file

    def _exists_elsewhere(
        self, name: str, version: int, home: int
    ) -> bool:
        """Cross-shard (name, version) uniqueness probe before a create.

        This runs on every create, so it deliberately skips the
        per-call span/metric/retry ceremony of :meth:`_call` — the
        probe is a point read against an in-process engine.  Breakers
        and the ``shard.call`` fault layer still apply so chaos plans
        and open circuits behave exactly as for a routed read.
        """
        for idx in self.map.all_shards():
            if idx == home:
                continue
            breaker = self.breakers[idx]
            if not breaker.allow():
                raise ShardUnavailableError(
                    f"shard {idx} unavailable (circuit open) for 'file_exists'"
                )
            # wp-ok: MCS016 hot-path probe skips span ceremony by design (see docstring)
            injection = _faults.check("shard.call", f"file_exists@{idx}")
            try:
                if injection is not None:
                    injection.fail()
                hit = self.shards[idx].file_exists(name, version)
            except (TransportError, SoapFault):
                breaker.record_failure()
                raise
            breaker.record_success()
            if hit:
                return True
        return False

    # ======================================================================
    # Logical files
    # ======================================================================

    def create_file(
        self,
        name: str,
        version: int = 1,
        data_type: Optional[str] = None,
        collection: Optional[str] = None,
        container_id: Optional[str] = None,
        container_service: Optional[str] = None,
        master_copy: Optional[str] = None,
        creator: Optional[str] = None,
        audit_enabled: bool = False,
        attributes: Optional[dict[str, Any]] = None,
    ) -> int:
        idx = self.map.shard_for_file(name, collection)
        if self._exists_elsewhere(name, version, idx):
            raise DuplicateObjectError(
                f"logical file {name!r} version {version} already exists"
            )
        file_id = self._call(
            idx,
            "create_file",
            lambda s: s.create_file(
                name,
                version=version,
                data_type=data_type,
                collection=collection,
                container_id=container_id,
                container_service=container_service,
                master_copy=master_copy,
                creator=creator,
                audit_enabled=audit_enabled,
                attributes=attributes,
            ),
        )
        self._hints.put(name, idx)
        return file_id

    def get_file(self, name: str, version: Optional[int] = None) -> LogicalFile:
        _idx, file = self._locate_file(name, version)
        return file

    def file_exists(self, name: str, version: Optional[int] = None) -> bool:
        try:
            self.get_file(name, version)
            return True
        except ObjectNotFoundError:
            return False

    def list_versions(self, name: str) -> list[int]:
        versions: list[int] = []
        for idx in self.map.all_shards():
            versions.extend(
                self._call(
                    idx,
                    "list_versions",
                    lambda s: s.list_versions(name),
                    kind="scatter",
                    idempotent=True,
                )
            )
        return sorted(versions)

    def move_file_to_collection(
        self,
        name: str,
        collection: Optional[str],
        version: Optional[int] = None,
        modifier: Optional[str] = None,
    ) -> None:
        source, file = self._locate_file(name, version)
        if collection is not None:
            # Validate up front, as the single engine does before writing.
            self.get_collection(collection)
        target = self.map.shard_for_file(name, collection)
        if target == source:
            self._call(
                source,
                "move_file_to_collection",
                lambda s: s.move_file_to_collection(
                    name, collection, version=file.version, modifier=modifier
                ),
            )
            return
        state = self._call(
            source,
            "export_file_state",
            lambda s: s.export_file_state(name, version=file.version),
            idempotent=True,
        )
        state["file"]["collection"] = collection
        self.coordinator.run(
            {
                source: [
                    ShardOp(
                        "delete_file", {"name": name, "version": file.version}
                    )
                ],
                target: [
                    ShardOp(
                        "import_file_state",
                        {"state": state, "modifier": modifier},
                    )
                ],
            }
        )
        self._hints.put(name, target)

    def delete_file(self, name: str, version: Optional[int] = None) -> None:
        idx, file = self._locate_file(name, version)
        # The hint stays: it is how a post-delete audit finds this shard.
        self._call(
            idx, "delete_file", lambda s: s.delete_file(name, file.version)
        )

    # ======================================================================
    # Views (structure replicated, file members partitioned)
    # ======================================================================

    def add_to_view(
        self,
        view: str,
        files: Iterable[str] = (),
        collections: Iterable[str] = (),
        views: Iterable[str] = (),
    ) -> None:
        files = tuple(files)
        collections = tuple(collections)
        views = tuple(views)
        self.get_view(view)  # single-engine validation order: view first
        if collections or views:
            self._broadcast(
                "add_to_view",
                lambda s: s.add_to_view(
                    view, collections=collections, views=views
                ),
                primary=self.map.shard_for_name(view),
            )
        for file_name in files:
            idx, _file = self._locate_file(file_name)
            self._call(
                idx,
                "add_to_view",
                lambda s, f=file_name: s.add_to_view(view, files=(f,)),
            )

    def remove_from_view(
        self,
        view: str,
        files: Iterable[str] = (),
        collections: Iterable[str] = (),
        views: Iterable[str] = (),
    ) -> None:
        files = tuple(files)
        collections = tuple(collections)
        views = tuple(views)
        self.get_view(view)
        if collections or views:
            self._broadcast(
                "remove_from_view",
                lambda s: s.remove_from_view(
                    view, collections=collections, views=views
                ),
                primary=self.map.shard_for_name(view),
            )
        for file_name in files:
            idx, _file = self._locate_file(file_name)
            self._call(
                idx,
                "remove_from_view",
                lambda s, f=file_name: s.remove_from_view(view, files=(f,)),
            )

    def list_view(self, name: str) -> list[ViewMember]:
        primary = self.map.shard_for_name(name)
        members: list[ViewMember] = []
        for member in self._call(
            primary, "list_view", lambda s: s.list_view(name), idempotent=True
        ):
            if member.member_type is not ObjectType.FILE:
                members.append(member)
        for idx in self.map.all_shards():
            for member in self._call(
                idx,
                "list_view",
                lambda s: s.list_view(name),
                kind="scatter",
                idempotent=True,
            ):
                if member.member_type is ObjectType.FILE:
                    members.append(member)
        return sorted(members, key=lambda m: (m.member_type.value, m.name))

    # ======================================================================
    # Query (scatter/gather)
    # ======================================================================

    def query(self, query: ObjectQuery) -> list[str]:
        if query.object_type is not ObjectType.FILE:
            return self._replicated_read("query", lambda s: s.query(query))
        if query.collection is not None:
            # Collection affinity: all of the collection's files live on
            # one shard, so the query runs there unchanged.
            return self._call(
                self.map.shard_for_collection(query.collection),
                "query",
                lambda s: s.query(query),
                idempotent=True,
            )
        return self._scatter(mql_compiler.compile_object_query(query))

    def explain_query(self, query: ObjectQuery) -> list[str]:
        if query.object_type is ObjectType.FILE and query.collection is None:
            return self._explain_scatter(
                "explain_query",
                lambda s: s.explain_query(query),
                mql_compiler.compile_object_query(query).order_field,
            )
        return self._replicated_read(
            "explain_query", lambda s: s.explain_query(query)
        )

    def _scatter(self, compiled: CompiledStatement) -> list[str]:
        """The one scatter/gather: every shard answers each leaf of
        *compiled* with its own planner choice (``mql_leaf_rows``; the
        strategies are answer-equivalent, so heterogeneous
        per-shard choices cannot skew the result), and the router runs
        the dataset algebra, dedup, ordering and pagination over the
        concatenated ``(sort key, name)`` streams."""

        def leaf_runner(leaf: Leaf) -> list[tuple]:
            rows: list[tuple] = []
            for idx in self.map.all_shards():
                rows.extend(
                    self._call(
                        idx,
                        "mql_leaf_rows",
                        lambda s: s.mql_leaf_rows(leaf),
                        kind="scatter",
                        idempotent=True,
                    )
                )
            return rows

        started = time.perf_counter()
        names = mql_executor.execute_compiled(compiled, leaf_runner)
        _MERGE_SECONDS.observe(time.perf_counter() - started)
        return names

    def _explain_scatter(
        self, op: str, fn: Callable[[MetadataCatalog], list[str]], order_field: str
    ) -> list[str]:
        """Fleet plan: a scatter header plus shard 0's physical plan
        (replicas share schema and statistics shape; per-shard row counts
        may of course differ)."""
        header = (
            f"Scatter [shards={self.shard_count}, merge on {order_field}, per-leaf]"
        )
        return [header] + self._call(0, op, fn, idempotent=True)

    # -- MQL (scatter/gather over compiled leaves) -------------------------

    @property
    def mql_strategy(self) -> Optional[str]:
        """Forced per-leaf strategy (None / "index" / "scan": one index
        strategy plus the scan oracle),
        forwarded to every shard so equivalence harnesses can pin the
        whole fleet to one execution strategy at once."""
        return self.shards[0].mql_strategy

    @mql_strategy.setter
    def mql_strategy(self, value: Optional[str]) -> None:
        for shard in self.shards:
            shard.mql_strategy = value

    def _compile_mql(self, text: str) -> CompiledStatement:
        """Compile through shard 0's shape cache (compilation is purely
        syntactic, so any shard's serves the fleet); each shard plans
        each leaf against its own statistics.  Mixed object types cannot
        scatter coherently (files are partitioned, collections/views
        replicated) and are rejected the way a single engine rejects
        unknown fields: as a QueryError.
        """
        compiled = self.shards[0]._mql_shapes.compile(text)
        if len(compiled.object_types) > 1:
            names = ", ".join(sorted(t.value for t in compiled.object_types))
            raise QueryError(
                f"sharded MQL statements must stay within one object type; "
                f"this one mixes {names}"
            )
        return compiled

    def query_mql(self, text: str) -> list[str]:
        """Run one MQL statement across the fleet: FILE statements
        scatter per compiled leaf, collection/view statements run whole
        on any replica."""
        compiled = self._compile_mql(text)
        if ObjectType.FILE not in compiled.object_types:
            return self._replicated_read(
                "query_mql", lambda s: s.query_compiled(compiled)
            )
        return self._scatter(compiled)

    def explain_mql(self, text: str) -> list[str]:
        compiled = self._compile_mql(text)
        if ObjectType.FILE not in compiled.object_types:
            return self._replicated_read(
                "explain_mql", lambda s: s.explain_compiled(compiled)
            )
        return self._explain_scatter(
            "explain_mql", lambda s: s.explain_compiled(compiled), compiled.order_field
        )

    # ======================================================================
    # Bulk operations (split per shard, reassemble in submission order)
    # ======================================================================

    def bulk_create_files(
        self,
        entries: Sequence[dict[str, Any]],
        creator: Optional[str] = None,
        atomic: bool = True,
    ) -> list[tuple[bool, Any]]:
        if not entries:
            return []
        results: list[Optional[tuple[bool, Any]]] = [None] * len(entries)
        groups: dict[int, list[tuple[int, dict[str, Any]]]] = {}
        batch_homes: dict[tuple[str, int], int] = {}
        for position, entry in enumerate(entries):
            name = entry.get("name")
            if not isinstance(name, str):
                # Let a shard produce the canonical validation error.
                groups.setdefault(0, []).append((position, entry))
                continue
            version = int(entry.get("version", 1))
            idx = self.map.shard_for_file(name, entry.get("collection"))
            duplicate = batch_homes.get((name, version), idx) != idx or (
                self._exists_elsewhere(name, version, idx)
            )
            if duplicate:
                error = DuplicateObjectError(
                    f"logical file {name!r} version {version} already exists"
                )
                if atomic:
                    raise error
                results[position] = (False, error)
                continue
            batch_homes.setdefault((name, version), idx)
            groups.setdefault(idx, []).append((position, entry))
        if atomic and len(groups) > 1:
            self._bulk_create_2pc(groups, creator, results)
        else:
            for idx, group in groups.items():
                sub_entries = [entry for _pos, entry in group]
                sub_results = self._call(
                    idx,
                    "bulk_create_files",
                    lambda s, e=sub_entries: s.bulk_create_files(
                        e, creator=creator, atomic=atomic
                    ),
                    kind="bulk",
                )
                for (position, entry), item in zip(group, sub_results):
                    results[position] = item
                    if item[0] and isinstance(entry.get("name"), str):
                        self._hints.put(entry["name"], idx)
        return [item if item is not None else (False, RuntimeError("unrouted"))
                for item in results]

    def _bulk_create_2pc(
        self,
        groups: dict[int, list[tuple[int, dict[str, Any]]]],
        creator: Optional[str],
        results: list[Optional[tuple[bool, Any]]],
    ) -> None:
        """Atomic multi-shard create: validate, then two-phase commit."""

        def validate() -> None:
            ordered = sorted(
                (position, idx, entry)
                for idx, group in groups.items()
                for position, entry in group
            )
            for _position, idx, entry in ordered:
                self._validate_create_entry(self.shards[idx], entry)

        ops = {
            idx: [
                ShardOp(
                    "bulk_create_files",
                    {
                        "entries": [entry for _pos, entry in group],
                        "creator": creator,
                        "atomic": True,
                    },
                )
            ]
            for idx, group in groups.items()
        }
        shard_results = self.coordinator.run(ops, validate=validate)
        for idx, group in groups.items():
            for (position, entry), item in zip(group, shard_results[idx][0]):
                results[position] = item
                if item[0]:
                    self._hints.put(entry["name"], idx)

    @staticmethod
    def _validate_create_entry(shard: MetadataCatalog, entry: dict[str, Any]) -> None:
        """Re-create the failure modes of a shard-local create without
        writing, so a doomed atomic batch aborts before prepare."""
        from repro.core.catalog import _coerce_attr_value

        kwargs = MetadataCatalog._file_entry_kwargs(entry)
        if kwargs["collection"] is not None:
            shard.get_collection(kwargs["collection"])
        if shard.file_exists(kwargs["name"], kwargs["version"]):
            raise DuplicateObjectError(
                f"logical file {kwargs['name']!r} version "
                f"{kwargs['version']} already exists"
            )
        for attr_name, value in (kwargs["attributes"] or {}).items():
            definition = shard.get_attribute_def(attr_name)
            if ObjectType.FILE not in definition.object_types:
                raise InvalidAttributeError(
                    f"attribute {attr_name!r} does not apply to files"
                )
            _coerce_attr_value(definition, value)

    def bulk_set_attributes(
        self,
        items: Sequence[dict[str, Any]],
        atomic: bool = True,
    ) -> list[tuple[bool, Any]]:
        if not items:
            return []
        results: list[Optional[tuple[bool, Any]]] = [None] * len(items)
        # Per-shard groups; a replicated-object item appears in every
        # group but reports the outcome from its primary shard.
        groups: dict[int, list[tuple[int, dict[str, Any], bool]]] = {}
        for position, item in enumerate(items):
            try:
                idx, broadcast = self._route_attr_item(item)
            except Exception as exc:  # noqa: BLE001 - per-item boundary
                if atomic:
                    raise
                results[position] = (False, exc)
                continue
            if broadcast:
                for shard_idx in self.map.all_shards():
                    groups.setdefault(shard_idx, []).append(
                        (position, item, shard_idx == idx)
                    )
            else:
                groups.setdefault(idx, []).append((position, item, True))
        if atomic and len(groups) > 1:
            self._bulk_set_attributes_2pc(groups, results)
        else:
            for idx, group in groups.items():
                sub_items = [item for _pos, item, _primary in group]
                sub_results = self._call(
                    idx,
                    "bulk_set_attributes",
                    lambda s, i=sub_items: s.bulk_set_attributes(i, atomic=atomic),
                    kind="bulk",
                )
                for (position, _item, primary), outcome in zip(group, sub_results):
                    if primary:
                        results[position] = outcome
        return [item if item is not None else (False, RuntimeError("unrouted"))
                for item in results]

    def _route_attr_item(self, item: dict[str, Any]) -> tuple[int, bool]:
        """(shard, is_replicated) for one bulk-attribute item; raises the
        same error a single engine would for an unroutable item."""
        raw_type = item.get("object_type", ObjectType.FILE)
        otype = raw_type if isinstance(raw_type, ObjectType) else ObjectType(raw_type)
        if "name" not in item:
            raise InvalidAttributeError("bulk attribute item missing 'name'")
        name = item["name"]
        if otype is not ObjectType.FILE:
            return self.map.shard_for_name(name), True
        idx, _file = self._locate_file(name, item.get("version"))
        return idx, False

    def _bulk_set_attributes_2pc(
        self,
        groups: dict[int, list[tuple[int, dict[str, Any], bool]]],
        results: list[Optional[tuple[bool, Any]]],
    ) -> None:
        def validate() -> None:
            seen: set[int] = set()
            ordered = sorted(
                (position, idx, item)
                for idx, group in groups.items()
                for position, item, primary in group
                if primary
            )
            for position, idx, item in ordered:
                if position in seen:
                    continue
                seen.add(position)
                self._validate_attr_item(self.shards[idx], item)

        ops = {
            idx: [
                ShardOp(
                    "bulk_set_attributes",
                    {
                        "items": [item for _pos, item, _primary in group],
                        "atomic": True,
                    },
                )
            ]
            for idx, group in groups.items()
        }
        shard_results = self.coordinator.run(ops, validate=validate)
        for idx, group in groups.items():
            for (position, _item, primary), outcome in zip(
                group, shard_results[idx][0]
            ):
                if primary:
                    results[position] = outcome

    @staticmethod
    def _validate_attr_item(shard: MetadataCatalog, item: dict[str, Any]) -> None:
        from repro.core.catalog import _coerce_attr_value

        raw_type = item.get("object_type", ObjectType.FILE)
        otype = raw_type if isinstance(raw_type, ObjectType) else ObjectType(raw_type)
        name, version = item["name"], item.get("version")
        if otype is ObjectType.FILE:
            shard.get_file(name, version)
        elif otype is ObjectType.COLLECTION:
            shard.get_collection(name)
        else:
            shard.get_view(name)
        for attr_name, value in (item.get("attributes") or {}).items():
            definition = shard.get_attribute_def(attr_name)
            if otype not in definition.object_types:
                raise InvalidAttributeError(
                    f"attribute {attr_name!r} does not apply to {otype.value}s"
                )
            _coerce_attr_value(definition, value)

    def bulk_query(self, queries: Sequence[ObjectQuery]) -> list[tuple[bool, Any]]:
        results: list[tuple[bool, Any]] = []
        for query in queries:
            try:
                results.append((True, self.query(query)))
            except Exception as exc:  # noqa: BLE001 - per-item boundary
                results.append((False, exc))
        return results

    # ======================================================================
    # Audit
    # ======================================================================

    def record_audit(
        self,
        object_type: ObjectType,
        object_id: int,
        action: str,
        detail: str,
        actor: str,
        name: Optional[str] = None,
        version: Optional[int] = None,
    ) -> None:
        """Database ids are shard-local, so the record is placed by *name*:
        on a file's owning shard, on every replica of a collection or view."""
        if name is None:
            raise InvalidAttributeError("a sharded audit needs the object's name")
        if object_type is ObjectType.FILE:
            # Read first: a failed locate drops the hint, and once the file
            # is deleted the hint is the only trace of where it lived.
            hinted = self._hints.get(name)
            try:
                idx, _file = self._locate_file(name, version)
            except (ObjectNotFoundError, InvalidAttributeError):
                idx = hinted if hinted is not None else self.map.shard_for_name(name)
            self._call(
                idx,
                "record_audit",
                lambda s: s.record_audit(object_type, object_id, action, detail, actor),
            )
        else:
            # Each replica keys the row by its own id for audit_log to find it.
            def _record(shard: MetadataCatalog) -> None:
                if object_type is ObjectType.COLLECTION:
                    local_id = shard.get_collection(name).id
                else:
                    local_id = shard.get_view(name).id
                shard.record_audit(object_type, local_id, action, detail, actor)

            self._broadcast("record_audit", _record)

    # ======================================================================
    # Statistics
    # ======================================================================

    def stats(self) -> dict[str, int]:
        """Logical totals: partitioned counts summed, replicated counts
        taken once (file attribute rows live on one shard; collection and
        view attribute rows are replicated on every shard)."""
        primary = self.shards[0].stats()
        files = 0
        file_attr_values = 0
        for idx in self.map.all_shards():
            shard = self.shards[idx]
            files += shard.stats()["files"]
            file_attr_values += (
                shard._conn.execute(
                    "SELECT COUNT(*) FROM attribute_value WHERE object_type = 'file'"
                ).scalar()
                or 0
            )
        replicated_attr_values = (
            self.shards[0]._conn.execute(
                "SELECT COUNT(*) FROM attribute_value WHERE object_type != 'file'"
            ).scalar()
            or 0
        )
        return {
            "files": files,
            "collections": primary["collections"],
            "views": primary["views"],
            "attributes": primary["attributes"],
            "attribute_values": file_attr_values + replicated_attr_values,
            "shards": self.shard_count,
        }


def _forwarder(
    method: str, route: Callable[[Any, _Forwarded], Any], write: bool
) -> Callable[..., Any]:
    """A ``ShardedCatalog`` method that sends ``MetadataCatalog.<method>``,
    arguments untouched, where *route* says."""
    target = vars(MetadataCatalog)[method]
    names = list(inspect.signature(target).parameters)[1:]
    name_key = "file_name" if "file_name" in names else "name"

    @functools.wraps(target)
    def forward(self: ShardedCatalog, *args: Any, **kwargs: Any) -> Any:
        if write:
            # Every replica must see the same arguments: a one-shot iterator
            # would be spent on the first.
            args = tuple(tuple(a) if isinstance(a, Iterator) else a for a in args)
        given = {**dict(zip(names, args)), **kwargs}
        # The method is looked up per call, so a tracer that wraps
        # MetadataCatalog's methods by attribute sees forwarded calls too.
        fn = lambda shard: getattr(shard, method)(*args, **kwargs)  # noqa: E731
        where = given.get("object_type"), given.get(name_key), given.get("version")
        return route(self, _Forwarded(method, fn, write, *where))

    forward.__qualname__ = f"ShardedCatalog.{method}"
    return forward


#: The catalog methods that need nothing but a destination: method →
#: (routing class, writes?).  Everything with logic of its own is written
#: out on the class; ``tests/shard/test_routing_table.py`` checks that
#: each public ``MetadataCatalog`` method is in exactly one of the two
#: places and keeps its signature.
_FORWARDED: dict[str, tuple[Callable[..., Any], bool]] = {
    "update_file": (ShardedCatalog._route_file_owner, True),
    "invalidate_file": (ShardedCatalog._route_file_owner, True),
    "file_collection_chain": (ShardedCatalog._route_file_owner, False),
    "add_transformation": (ShardedCatalog._route_file_owner, True),
    "transformations": (ShardedCatalog._route_file_owner, False),
    "create_collection": (ShardedCatalog._route_everywhere_by_collection, True),
    "set_collection_parent": (ShardedCatalog._route_everywhere_by_collection, True),
    "delete_collection": (ShardedCatalog._route_everywhere_by_collection, True),
    "list_collection": (ShardedCatalog._route_collection_shard, False),
    "get_collection": (ShardedCatalog._route_replica, False),
    "list_subcollections": (ShardedCatalog._route_replica, False),
    "collection_chain": (ShardedCatalog._route_replica, False),
    "create_view": (ShardedCatalog._route_everywhere_by_name, True),
    "delete_view": (ShardedCatalog._route_everywhere_by_name, True),
    "get_view": (ShardedCatalog._route_replica, False),
    "define_attribute": (ShardedCatalog._route_everywhere, True),
    "get_attribute_def": (ShardedCatalog._route_replica, False),
    "list_attribute_defs": (ShardedCatalog._route_replica, False),
    "register_user": (ShardedCatalog._route_everywhere, True),
    "get_user": (ShardedCatalog._route_replica, False),
    "register_external_catalog": (ShardedCatalog._route_everywhere, True),
    "list_external_catalogs": (ShardedCatalog._route_replica, False),
    "set_attributes": (ShardedCatalog._route_by_object_type, True),
    "get_attributes": (ShardedCatalog._route_by_object_type, False),
    "remove_attribute": (ShardedCatalog._route_by_object_type, True),
    "annotate": (ShardedCatalog._route_by_object_type, True),
    "annotations": (ShardedCatalog._route_by_object_type, False),
    "audit_log": (ShardedCatalog._route_by_object_type, False),
    "set_permissions": (ShardedCatalog._route_by_object_type, True),
    "get_acl": (ShardedCatalog._route_by_object_type, False),
    "acl_chain": (ShardedCatalog._route_by_object_type, False),
}
for _method, (_route, _write) in _FORWARDED.items():
    setattr(ShardedCatalog, _method, _forwarder(_method, _route, _write))


def build_sharded_catalog(
    n_shards: int,
    directory: Optional[str] = None,
    durable_sync: bool = False,
    cache: bool = True,
    **kwargs: Any,
) -> ShardedCatalog:
    """Build an N-shard catalog (in-memory, or one subdirectory per shard
    under ``directory`` plus the coordinator's decision log)."""
    import os

    from repro.db import Database

    shards: list[MetadataCatalog] = []
    for idx in range(n_shards):
        if directory is not None:
            shard_dir = os.path.join(directory, f"shard-{idx:03d}")
            os.makedirs(shard_dir, exist_ok=True)
            db = Database(shard_dir, durable_sync=durable_sync)
        else:
            db = Database()
        shards.append(MetadataCatalog(db, cache=cache))
    return ShardedCatalog(shards, directory=directory, **kwargs)
