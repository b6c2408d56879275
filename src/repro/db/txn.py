"""Concurrency control and rollback.

Locking model (close to MySQL 4.x table locks):

* one reader-writer lock per table;
* an autocommit statement acquires every lock it needs up front, in sorted
  table-name order (no incremental acquisition → no intra-statement
  deadlock), and releases at statement end;
* an explicit transaction (BEGIN ... COMMIT/ROLLBACK) accumulates locks
  across statements and releases at commit/rollback (strict two-phase
  locking);
* cross-transaction deadlocks are broken by lock timeouts
  (:class:`~repro.db.errors.LockTimeoutError`), after which the
  application rolls back.

Rollback uses a logical undo log: each row mutation appends the inverse
operation, applied in reverse order on ROLLBACK.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Optional

from repro.db.errors import LockTimeoutError, TransactionError
from repro.db.storage import Catalog, Table
from repro.obs.metrics import OBS, counter as _obs_counter, histogram as _obs_histogram

_LOCK_WAIT_SECONDS = _obs_histogram(
    "mcs_db_lock_wait_seconds",
    "Time spent blocked waiting for a table lock (contended acquisitions only)",
    labels=("table",),
)
_LOCK_TIMEOUTS = _obs_counter(
    "mcs_db_lock_timeouts_total",
    "Lock acquisitions abandoned after the timeout",
    labels=("table",),
)


class RWLock:
    """Reentrant reader-writer lock keyed by owner token.

    Supports read→write upgrade for the sole reader; concurrent upgrade
    attempts are resolved by timeout.

    Fairness is arrival-ordered: a fresh reader is gated only by writers
    that started waiting *before* it, and a waiting writer only admits
    readers that arrived before it.  Overlapping readers therefore
    cannot starve a writer, and a stream of back-to-back writers cannot
    starve readers — each waiter outwaits a finite set.  Owners already
    holding a read re-enter freely (an upgrade could otherwise deadlock
    against its own gated peers).
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._cond = threading.Condition()
        self._readers: dict[Any, int] = {}
        self._writer: Any = None
        self._writer_depth = 0
        self._ticket = itertools.count()
        self._waiting_writers: set[int] = set()
        self._waiting_readers: set[int] = set()

    def _read_admissible(self, owner: Any, ticket: Optional[int]) -> bool:
        if self._writer == owner:
            return True
        if self._writer is not None:
            return False
        if owner in self._readers:
            return True  # reentrant read is never gated
        barrier = min(self._waiting_writers, default=None)
        return barrier is None or (ticket is not None and ticket < barrier)

    def _write_admissible(self, owner: Any, ticket: int) -> bool:
        if self._writer == owner:
            return True  # reentrant write is never gated
        if self._writer is not None:
            return False
        if any(o != owner for o in self._readers):
            return False
        barrier = min(self._waiting_readers, default=None)
        return barrier is None or ticket < barrier

    def acquire_read(self, owner: Any, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        waited_from = 0.0
        with self._cond:
            ticket: Optional[int] = None
            try:
                while True:
                    if self._read_admissible(owner, ticket):
                        self._readers[owner] = self._readers.get(owner, 0) + 1
                        break
                    if ticket is None:
                        ticket = next(self._ticket)
                        self._waiting_readers.add(ticket)
                    if not waited_from and OBS.enabled:
                        waited_from = time.perf_counter()
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._cond.wait(remaining):
                        _LOCK_TIMEOUTS.labels(self.name).inc()
                        raise LockTimeoutError(
                            f"timeout acquiring read lock on {self.name!r}"
                        )
            finally:
                if ticket is not None:
                    self._waiting_readers.discard(ticket)
                    # Writers deferring to this reader must re-check
                    # (granted or timed out either way).
                    self._cond.notify_all()
        if waited_from:
            _LOCK_WAIT_SECONDS.labels(self.name).observe(
                time.perf_counter() - waited_from
            )

    def acquire_write(self, owner: Any, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        waited_from = 0.0
        with self._cond:
            ticket = next(self._ticket)
            self._waiting_writers.add(ticket)
            try:
                while True:
                    if self._write_admissible(owner, ticket):
                        self._writer = owner
                        self._writer_depth += 1
                        break
                    if not waited_from and OBS.enabled:
                        waited_from = time.perf_counter()
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._cond.wait(remaining):
                        _LOCK_TIMEOUTS.labels(self.name).inc()
                        raise LockTimeoutError(
                            f"timeout acquiring write lock on {self.name!r}"
                        )
            finally:
                self._waiting_writers.discard(ticket)
                # Readers gated behind this writer must re-check whether
                # the gate is open (acquired or timed out either way).
                self._cond.notify_all()
        if waited_from:
            _LOCK_WAIT_SECONDS.labels(self.name).observe(
                time.perf_counter() - waited_from
            )

    def release(self, owner: Any, write: bool) -> None:
        with self._cond:
            if write:
                if self._writer != owner:
                    raise TransactionError(
                        f"release of write lock on {self.name!r} not held by owner"
                    )
                self._writer_depth -= 1
                if self._writer_depth == 0:
                    self._writer = None
            else:
                count = self._readers.get(owner, 0)
                if count <= 0:
                    raise TransactionError(
                        f"release of read lock on {self.name!r} not held by owner"
                    )
                if count == 1:
                    del self._readers[owner]
                else:
                    self._readers[owner] = count - 1
            self._cond.notify_all()

    def held_by(self, owner: Any) -> tuple[int, int]:
        """(read depth, write depth) held by *owner* — test/debug helper."""
        with self._cond:
            return (
                self._readers.get(owner, 0),
                self._writer_depth if self._writer == owner else 0,
            )


class LockManager:
    """Per-table RW locks plus a schema lock for DDL."""

    def __init__(self, timeout: float = 5.0) -> None:
        self.timeout = timeout
        self._registry_guard = threading.Lock()
        self._locks: dict[str, RWLock] = {}
        self.schema_lock = RWLock("__schema__")

    def lock_for(self, table: str) -> RWLock:
        with self._registry_guard:
            lock = self._locks.get(table)
            if lock is None:
                lock = RWLock(table)
                self._locks[table] = lock
            return lock

    def acquire(
        self,
        owner: Any,
        read_tables: set[str],
        write_tables: set[str],
        timeout: Optional[float] = None,
    ) -> list[tuple[RWLock, bool]]:
        """Acquire all requested locks in sorted order; returns the holds.

        On failure every lock already taken by this call is released, so a
        timeout leaves the owner exactly as before.
        """
        timeout = self.timeout if timeout is None else timeout
        plan: list[tuple[str, bool]] = []
        for name in sorted(read_tables | write_tables):
            plan.append((name, name in write_tables))
        held: list[tuple[RWLock, bool]] = []
        try:
            for name, write in plan:
                lock = self.lock_for(name)
                if write:
                    lock.acquire_write(owner, timeout)
                else:
                    lock.acquire_read(owner, timeout)
                held.append((lock, write))
        except LockTimeoutError:
            for lock, write in reversed(held):
                lock.release(owner, write)
            raise
        return held

    @staticmethod
    def release(owner: Any, held: list[tuple[RWLock, bool]]) -> None:
        for lock, write in reversed(held):
            lock.release(owner, write)


class UndoLog:
    """Logical undo records for one transaction."""

    def __init__(self) -> None:
        self._entries: list[tuple] = []

    def __len__(self) -> int:
        return len(self._entries)

    def record_insert(self, table: str, rowid: int, explicit: bool = False) -> None:
        """*explicit*: the caller supplied the auto-increment column."""
        self._entries.append(("insert", table, rowid, explicit))

    def record_update(self, table: str, rowid: int, old_row: tuple) -> None:
        self._entries.append(("update", table, rowid, old_row))

    def record_delete(self, table: str, rowid: int, old_row: tuple) -> None:
        self._entries.append(("delete", table, rowid, old_row))

    def mark(self) -> int:
        """Current length, for statement-scoped partial rollback."""
        return len(self._entries)

    def rollback(self, catalog: Catalog) -> None:
        """Apply inverse operations in reverse order, then clear."""
        self.rollback_to(catalog, 0)

    def rollback_to(self, catalog: Catalog, mark: int) -> None:
        """Revert every entry recorded after *mark* and truncate to it."""
        for entry in reversed(self._entries[mark:]):
            kind = entry[0]
            table = catalog.table(entry[1])
            if kind == "insert":
                table.delete(entry[2])
            elif kind == "update":
                _raw_replace(table, entry[2], entry[3])
            elif kind == "delete":
                table.insert_row_with_id(entry[2], entry[3])
        del self._entries[mark:]

    def clear(self) -> None:
        self._entries.clear()

    def changed_rows(
        self, tables: frozenset[str], catalog: Catalog
    ) -> dict[str, tuple[tuple[str, ...], list[tuple[Any, Any, bool]]]]:
        """The net change of every row of *tables* this log covers.

        Per table: its column names and, per row, ``(image before the
        transaction or None, image now or None, inserted with an explicit
        auto-column value)``.  A row inserted and deleted again is left
        out.
        """
        first: dict[tuple[str, int], tuple] = {}
        for entry in self._entries:
            if entry[1] in tables:
                first.setdefault((entry[1], entry[2]), entry)
        out: dict[str, tuple[tuple[str, ...], list[tuple[Any, Any, bool]]]] = {}
        for (name, rowid), entry in first.items():
            table = catalog.table(name)
            inserted = entry[0] == "insert"
            old = None if inserted else entry[3]
            new = table.rows.get(rowid)
            if old is None and new is None:
                continue
            change = out.get(name)
            if change is None:
                change = out[name] = (table.definition.column_names, [])
            change[1].append((old, new, inserted and entry[3]))
        return out


def _raw_replace(table: Table, rowid: int, old_row: tuple) -> None:
    """Restore a row image without constraint re-checking."""
    current = table.rows[rowid]
    for name, cols in table._index_cols.items():
        cur_key = tuple(current[i] for i in cols)
        old_key = tuple(old_row[i] for i in cols)
        if cur_key != old_key:
            tree = table.indexes[name]
            tree.delete(cur_key, rowid)
            tree.insert(old_key, rowid)
    table.rows[rowid] = old_row


class TransactionState:
    """Per-connection transaction bookkeeping."""

    def __init__(self) -> None:
        self.explicit = False
        self.undo = UndoLog()
        self.held: list[tuple[RWLock, bool]] = []  # from LockManager.acquire
        self.wal_records: list[dict] = []
        # Tables this transaction has issued writes against.  Unlike
        # wal_records this set is NOT truncated by savepoint rollback —
        # it gates shared-cache use (repro.cache), where overshooting
        # only costs extra misses while undershooting would be unsound.
        self.written_tables: set[str] = set()

    @property
    def active(self) -> bool:
        return self.explicit or bool(self.held)
