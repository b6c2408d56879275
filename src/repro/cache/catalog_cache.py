"""Catalog-facing cache facade: generation-stamped lookups.

Four caches ride the catalog hot path:

* **attr_def** — attribute-definition lookups (every ``set_attributes``
  and every user-attribute query touches ``attribute_def``);
* **object** — logical name → database id resolution (a file's entry
  also carries its collection id, the first step up for authorization);
* **query** — the rows of one query-pipeline leaf, keyed by
  :func:`repro.mql.executor._leaf_key` in a bounded LRU;
* **authz** — the steps of an authorization walk by id: a collection's
  parent id and an object's ACL rows (an immutable
  :class:`repro.security.acl.FrozenACL`).

Every entry is stamped with a snapshot of the generations of the tables
the result depends on, taken *before* the underlying read executes.  A
lookup hits only while that snapshot is still current, so a committed
write to any dependent table invalidates the entry atomically (the
engine bumps generations before releasing write locks — see
:mod:`repro.cache.generations` for the strictness argument).

Two kinds of entry are keyed by rows instead (:mod:`repro.cache.keyed`):
name resolutions, and query leaves with user-attribute conditions.  They
carry a :class:`~repro.cache.keyed.KeyedDependency` that a commit's
published row images invalidate only when they can change the entry, and
stamp only the counters of the changes no row image explains.

Mid-transaction rule: a connection inside an explicit transaction that
has already written table T must neither hit nor populate the shared
cache for results depending on T — its own uncommitted writes are
visible to it but to nobody else.  Reads of tables the transaction has
*not* written stay cacheable (e.g. ``attribute_def`` inside a bulk
attribute load), which keeps bulk ingest fast.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Callable, Hashable, Optional, Tuple

from repro.cache.generations import GenerationMap
from repro.cache.keyed import OBJECT_TYPES, KeyedDependency, KeyedRegistry, rows_counter
from repro.cache.lru import LRUCache
from repro.obs.metrics import counter as _obs_counter, gauge as _obs_gauge

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.engine import Connection, Database

_REQUESTS = _obs_counter(
    "mcs_cache_requests_total",
    "Cache lookups by cache and outcome (hit / miss / bypass)",
    labels=("cache", "outcome"),
)
_ENTRY_INVALIDATIONS = _obs_counter(
    "mcs_cache_entry_invalidations_total",
    "Lookups that found their entry invalidated, by cache and cause "
    "(row: a committed row the entry is keyed on; table: a table-level "
    "generation bump)",
    labels=("cache", "cause"),
)
_HIT_RATIO = _obs_gauge(
    "mcs_cache_hit_ratio",
    "hits / (hits + misses) since process start, per cache",
    labels=("cache",),
)

_GAUGE_REFRESH_MASK = 1023  # refresh the ratio gauge every 1024 lookups

#: What a name resolution stamps: only the changes to its object table
#: that published no row images.
_NAME_COUNTERS = {table: (rows_counter(table),) for table in OBJECT_TYPES}


class _Entry:
    """One cached value plus the generation snapshot it was read under.

    ``generations`` snapshots the generation counters named by
    ``counters``; a row-keyed entry also holds its ``dependency``.
    """

    __slots__ = ("counters", "generations", "value", "dependency")

    def __init__(
        self,
        counters: Tuple[str, ...],
        generations: Tuple[int, ...],
        value: Any,
        dependency: Optional[KeyedDependency] = None,
    ) -> None:
        self.counters = counters
        self.generations = generations
        self.value = value
        self.dependency = dependency


class LookupToken:
    """Result of a cache lookup.

    ``hit`` carries the value; a miss carries everything needed to
    publish the freshly-read value with the pre-read snapshot (call
    :meth:`store`).  A bypassed lookup stores nothing.
    """

    __slots__ = ("hit", "value", "_store", "_key", "_entry", "_registry", "_since")

    def __init__(
        self,
        hit: bool,
        value: Any = None,
        store: Optional[LRUCache[Any, _Entry]] = None,
        key: Optional[Hashable] = None,
        entry: Optional[_Entry] = None,
        registry: Optional[KeyedRegistry] = None,
        since: int = 0,
    ) -> None:
        self.hit = hit
        self.value = value
        self._store = store
        self._key = key
        self._entry = entry
        self._registry = registry
        self._since = since

    def store(self, value: Any) -> None:
        """Publish *value* under the snapshot taken before the read.

        A row-keyed entry is stored only if no row published since that
        snapshot changes it (:meth:`KeyedRegistry.register`).
        """
        entry, store, registry = self._entry, self._store, self._registry
        if entry is None or store is None or registry is None:
            return
        entry.value = value
        if entry.dependency is not None and not registry.register(
            entry.dependency, self._since
        ):
            return
        for displaced in store.put(self._key, entry):
            if displaced.dependency is not None:
                registry.unregister(displaced.dependency)


class _CacheStats:
    """Racy per-cache counters — lost updates only skew the ratio gauge."""

    __slots__ = ("hits", "misses", "bypasses", "row_invalidations",
                 "table_invalidations", "_hit_child", "_miss_child",
                 "_bypass_child", "_row_child", "_table_child", "_ratio_child")

    def __init__(self, name: str) -> None:
        self.hits = 0
        self.misses = 0
        self.bypasses = 0
        self.row_invalidations = 0
        self.table_invalidations = 0
        self._hit_child = _REQUESTS.labels(name, "hit")
        self._miss_child = _REQUESTS.labels(name, "miss")
        self._bypass_child = _REQUESTS.labels(name, "bypass")
        self._row_child = _ENTRY_INVALIDATIONS.labels(name, "row")
        self._table_child = _ENTRY_INVALIDATIONS.labels(name, "table")
        self._ratio_child = _HIT_RATIO.labels(name)

    def hit(self) -> None:
        self.hits += 1
        self._hit_child.inc()
        self._maybe_refresh_gauge()

    def miss(self) -> None:
        self.misses += 1
        self._miss_child.inc()
        self._maybe_refresh_gauge()

    def bypass(self) -> None:
        self.bypasses += 1
        self._bypass_child.inc()

    def invalidated(self, by_row: bool) -> None:
        if by_row:
            self.row_invalidations += 1
            self._row_child.inc()
        else:
            self.table_invalidations += 1
            self._table_child.inc()

    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return (self.hits / total) if total else 0.0

    def refresh_gauge(self) -> None:
        self._ratio_child.set(self.hit_ratio())

    def _maybe_refresh_gauge(self) -> None:
        if (self.hits + self.misses) & _GAUGE_REFRESH_MASK == 0:
            self.refresh_gauge()


class CatalogCache:
    """Generation-stamped read caches for one :class:`MetadataCatalog`.

    The cache shares its :class:`GenerationMap` with the catalog's
    :class:`~repro.db.engine.Database`, so commits on *any* connection
    of that database (including replication apply) invalidate entries.
    ``enabled`` may be flipped at runtime (the cached-vs-uncached lane);
    disabling bypasses lookups and stores but keeps entries, which
    revalidate against current generations when re-enabled.
    """

    def __init__(
        self,
        database: "Database",
        enabled: bool = True,
        query_capacity: int = 1024,
        object_capacity: int = 4096,
        attr_capacity: int = 1024,
    ) -> None:
        self.enabled = enabled
        self.generations: GenerationMap = database.generations
        self._attr_defs: LRUCache[Any, _Entry] = LRUCache(attr_capacity)
        self._objects: LRUCache[Any, _Entry] = LRUCache(object_capacity)
        self._queries: LRUCache[Any, _Entry] = LRUCache(query_capacity)
        self._authz: LRUCache[Any, _Entry] = LRUCache(object_capacity)
        self._stats = {
            "attr_def": _CacheStats("attr_def"),
            "object": _CacheStats("object"),
            "query": _CacheStats("query"),
            "authz": _CacheStats("authz"),
        }
        self._stats_guard = threading.Lock()

    # -- generic lookup machinery -------------------------------------------

    def _lookup(
        self,
        cache_name: str,
        store: LRUCache[Any, _Entry],
        conn: Optional["Connection"],
        key: Hashable,
        tables: Tuple[str, ...],
        generations: Optional[Tuple[int, ...]] = None,
        counters: Optional[Tuple[str, ...]] = None,
        dependency: Optional[Callable[[], KeyedDependency]] = None,
    ) -> LookupToken:
        """Look *key* up; *tables* decide the mid-transaction bypass.

        The entry is stamped with the generations of *counters* (default:
        *tables*); a row-keyed entry passes the counters of what its rows
        cannot explain and a *dependency* factory, called on a miss.
        """
        stats = self._stats[cache_name]
        if not self.enabled or self._must_bypass(conn, tables):
            stats.bypass()
            return LookupToken(hit=False)
        if counters is None:
            counters = tables
        if generations is None:
            generations = self.generations.snapshot(counters)
        try:
            entry = store.get(key)
        except TypeError:  # unhashable key component
            stats.bypass()
            return LookupToken(hit=False)
        if entry is not None and entry.counters == counters:
            if entry.generations != generations:
                stats.invalidated(by_row=False)
            elif entry.dependency is not None and not entry.dependency.valid:
                stats.invalidated(by_row=True)
            else:
                stats.hit()
                return LookupToken(hit=True, value=entry.value)
        stats.miss()
        registry = self.generations.keyed
        keyed = None if dependency is None else dependency()
        return LookupToken(
            hit=False,
            store=store,
            key=key,
            entry=_Entry(counters, generations, None, keyed),
            registry=registry,
            # Before the read, like the generations: a commit after this
            # point is replayed against the dependency when it is stored.
            since=0 if keyed is None else registry.seq,
        )

    @staticmethod
    def _must_bypass(conn: Optional["Connection"], tables: Tuple[str, ...]) -> bool:
        """True when *conn* is mid-transaction with writes to *tables*.

        Its uncommitted rows are visible to it (same connection) but must
        not leak into — or be shadowed by — the shared cache.
        """
        if conn is None or not conn.in_transaction:
            return False
        written = conn.transaction_written_tables
        if not written:
            return False
        return any(t in written for t in tables)

    # -- the four caches -----------------------------------------------------

    def lookup_attr_def(self, conn: Optional["Connection"], name: str) -> LookupToken:
        return self._lookup("attr_def", self._attr_defs, conn, name, ("attribute_def",))

    def lookup_object_id(
        self,
        conn: Optional["Connection"],
        table: str,
        name: str,
        version: Optional[int],
    ) -> LookupToken:
        """Name resolution, keyed by name: only a committed change to an
        object row named *name* (any version) invalidates it."""
        return self._lookup(
            "object",
            self._objects,
            conn,
            (table, name, version),
            (table,),
            counters=_NAME_COUNTERS[table],
            dependency=lambda: KeyedDependency(names=((table, name),)),
        )

    def lookup_query(
        self,
        conn: Optional["Connection"],
        key: Hashable,
        tables: Tuple[str, ...],
        generations: Optional[Tuple[int, ...]] = None,
        counters: Optional[Tuple[str, ...]] = None,
        dependency: Optional[Callable[[], KeyedDependency]] = None,
    ) -> LookupToken:
        """Query-result lookup.

        Pass ``generations`` (of ``counters``, default ``tables``)
        captured *before* preparing the query when preparation itself
        reads the catalog (it resolves attribute and collection ids): a
        snapshot taken afterwards could stamp a result computed from
        pre-commit state with post-commit generations.  A leaf keyed by
        its rows passes its ``dependency`` factory.
        """
        return self._lookup(
            "query",
            self._queries,
            conn,
            key,
            tables,
            generations=generations,
            counters=counters,
            dependency=dependency,
        )

    def lookup_collection_parent(
        self, conn: Optional["Connection"], collection_id: int
    ) -> LookupToken:
        """A collection's parent id (``None`` at a root), by collection id."""
        return self._lookup(
            "authz", self._authz, conn, collection_id, ("logical_collection",)
        )

    def lookup_acl(
        self, conn: Optional["Connection"], object_type: str, object_id: int
    ) -> LookupToken:
        """An object's ACL rows, by ``(object_type, object id)``."""
        return self._lookup(
            "authz", self._authz, conn, (object_type, object_id), ("acl_entry",)
        )

    # -- management ----------------------------------------------------------

    def clear(self) -> None:
        registry = self.generations.keyed
        for store in (self._attr_defs, self._objects, self._queries, self._authz):
            for entry in store.clear():
                if entry.dependency is not None:
                    registry.unregister(entry.dependency)

    def stats(self) -> dict[str, Any]:
        """Per-cache counters for ``mcs stats`` and ``op_stats``."""
        out: dict[str, Any] = {"enabled": self.enabled}
        sizes = {
            "attr_def": self._attr_defs,
            "object": self._objects,
            "query": self._queries,
            "authz": self._authz,
        }
        for name, stats in self._stats.items():
            stats.refresh_gauge()
            store = sizes[name]
            out[name] = {
                "hits": stats.hits,
                "misses": stats.misses,
                "bypasses": stats.bypasses,
                "hit_ratio": round(stats.hit_ratio(), 4),
                "entries": len(store),
                "evictions": store.evictions,
                "invalidated_by_row": stats.row_invalidations,
                "invalidated_by_table": stats.table_invalidations,
            }
        return out
