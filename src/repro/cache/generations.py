"""Per-table generation counters: the cache invalidation primitive.

Every table has a monotonically increasing generation.  Readers snapshot
the generations of the tables a result depends on *before* executing the
read and stamp the cached entry with that snapshot; a lookup only hits
while the stamped snapshot still equals the current one.  The engine
bumps generations at commit time, while the committing transaction still
holds its write locks, so:

* a write that committed can never be shadowed by a hit (the bump
  precedes the lock release that makes the new data readable);
* a writer racing a reader costs at most one spurious miss (the entry
  is stored with a pre-write snapshot and never hits afterwards) —
  never a stale hit.

Commits to the keyed tables publish their row images as well
(:meth:`GenerationMap.publish`); entries keyed by rows
(:mod:`repro.cache.keyed`) stamp the counters of what the images cannot
explain instead of the tables' plain generations.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Iterable

from repro.cache.keyed import (
    KEYED_TABLES,
    KeyedRegistry,
    RowImages,
    leaves_counter,
    row_events,
    rows_counter,
)
from repro.obs.metrics import counter as _obs_counter

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.storage import Catalog

_INVALIDATIONS = _obs_counter(
    "mcs_cache_invalidations_total",
    "Generation bumps published at commit time, per table",
    labels=("table",),
)


class GenerationMap:
    """Thread-safe map of table name → generation counter.

    Unknown tables implicitly have generation 0, so snapshots taken
    before a table's first committed write validate correctly against
    it.
    """

    #: Tables whose commits hand :meth:`publish` their row images.
    keyed_tables = KEYED_TABLES

    def __init__(self) -> None:
        self._guard = threading.Lock()
        self._generations: dict[str, int] = {}
        self.keyed = KeyedRegistry()

    def get(self, table: str) -> int:
        with self._guard:
            return self._generations.get(table, 0)

    def snapshot(self, tables: Iterable[str]) -> tuple[int, ...]:
        """Current generations of *tables*, in iteration order."""
        with self._guard:
            generations = self._generations
            return tuple(generations.get(t, 0) for t in tables)

    def bump(self, tables: Iterable[str]) -> None:
        """Invalidate every entry that depends on *tables*, keyed or not.

        The path for changes that publish no row images: DDL and
        replication apply, before their locks are released.
        """
        tables = list(tables)
        self._advance(tables, [rows_counter(t) for t in tables if t in KEYED_TABLES])

    def publish(self, tables: Iterable[str], images: RowImages, catalog: "Catalog") -> None:
        """Commit-time invalidation for a commit that wrote *tables*.

        Every table's generation advances (table-level entries); keyed
        entries are dropped only by the rows in *images* that can change
        them, or by a keyed table's changes that came without images.
        Called by the engine after the commit is durable but before its
        write locks are released (see ``Connection._commit_txn``).
        """
        tables = list(tables)
        events, leaves, unread = row_events(images, catalog)
        counters = [leaves_counter(t) for t in leaves]
        counters += [
            rows_counter(t)
            for t in tables
            if t in KEYED_TABLES and (t not in images or t in unread)
        ]
        self._advance(tables, counters)
        self.keyed.publish(events)

    def _advance(self, tables: list[str], counters: Iterable[str]) -> None:
        with self._guard:
            generations = self._generations
            for table in tables:
                generations[table] = generations.get(table, 0) + 1
            for name in counters:
                generations[name] = generations.get(name, 0) + 1
        for table in tables:
            _INVALIDATIONS.labels(table).inc()

    def as_dict(self) -> dict[str, int]:
        with self._guard:
            return dict(self._generations)
