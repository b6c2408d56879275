"""Database engine facade: connections, statement execution, durability.

Thread model: a :class:`Database` is shared; each thread uses its own
:class:`Connection`.  Per SQL text the engine caches the parsed statement
and, beside it, the plan templates built from it; both are immutable and
shared, and binding parameters produces per-execution copies.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from repro.db import wal as walmod
from repro.db.errors import (
    ProgrammingError,
    SchemaError,
    TransactionError,
)
from repro.db.expr import bind_parameters
from repro.db.executor import execute_select, select_rowids
from repro.db.planner import (
    bind_access,
    bind_plan,
    describe_plan,
    plan_mutation,
    plan_select,
)
from repro.db.schema import IndexDef, TableDef
from repro.db.sql.ast import (
    BeginTransaction,
    Explain,
    CommitTransaction,
    Delete,
    Insert,
    RollbackTransaction,
    Select,
    Statement,
    Update,
)
from repro.db.sql.parser import parse_statement
from repro.db.storage import Catalog, ForeignKeyEnforcer, Table
from repro.db.txn import LockManager, TransactionState
from repro.cache.generations import GenerationMap
from repro.obs.metrics import OBS, counter as _obs_counter, histogram as _obs_histogram

_STMT_CACHE = _obs_counter(
    "mcs_db_stmt_cache_total",
    "Parsed-statement cache lookups by outcome",
    labels=("outcome",),
)
_STMT_CACHE_HIT = _STMT_CACHE.labels("hit")
_STMT_CACHE_MISS = _STMT_CACHE.labels("miss")
_PARSE_SECONDS = _obs_histogram(
    "mcs_db_parse_seconds", "SQL text to AST parse time (cache misses only)"
)
_PLAN_SECONDS = _obs_histogram(
    "mcs_db_plan_seconds",
    "Physical planning time per plan template built (plan-cache misses only)",
)
_STATEMENT_SECONDS = _obs_histogram(
    "mcs_db_statement_seconds",
    "End-to-end statement execution time (locks + plan + execute)",
    labels=("kind",),
)
_STATEMENT_KINDS: dict[type, Any] = {}
_STATEMENT_KINDS_GUARD = threading.Lock()


def _statement_timer(stmt: Statement):
    child = _STATEMENT_KINDS.get(type(stmt))
    if child is None:
        # lock-free on hit; the guard only covers the one-time insert
        # per statement class (MCS015)
        with _STATEMENT_KINDS_GUARD:
            child = _STATEMENT_KINDS.get(type(stmt))
            if child is None:
                child = _STATEMENT_SECONDS.labels(type(stmt).__name__.lower())
                _STATEMENT_KINDS[type(stmt)] = child
    return child


# Statement/plan timings are sampled 1-in-8: the catalog layer already
# times every API call exactly, so these histograms only need enough
# observations for a faithful distribution — not one per statement.
# (The tick is racy under threads; sampling tolerates lost updates.)
_TIMER_MASK = 7
_timer_tick = 0


def _sample_tick() -> bool:
    global _timer_tick
    # wp-ok: MCS015 deliberately racy tick; lost updates only shift the sampling phase
    _timer_tick = (_timer_tick + 1) & _TIMER_MASK
    return _timer_tick == 0


class ResultSet:
    """Result of one statement: rows for SELECT, counters for DML."""

    def __init__(
        self,
        columns: tuple[str, ...] = (),
        rows: Optional[list[tuple]] = None,
        rowcount: int = -1,
        lastrowid: Optional[int] = None,
        lastrowids: Optional[list[int]] = None,
    ) -> None:
        self.columns = columns
        self._rows = rows if rows is not None else []
        self.rowcount = rowcount if rowcount >= 0 else len(self._rows)
        self.lastrowid = lastrowid
        # Auto-increment values for every inserted row, in insertion
        # order — the multi-row INSERT / executemany counterpart of
        # ``lastrowid`` (which only reports the final row's value).
        self.lastrowids = lastrowids if lastrowids is not None else []
        self._cursor = 0

    def fetchall(self) -> list[tuple]:
        remaining = self._rows[self._cursor :]
        self._cursor = len(self._rows)
        return remaining

    def fetchone(self) -> Optional[tuple]:
        if self._cursor >= len(self._rows):
            return None
        row = self._rows[self._cursor]
        self._cursor += 1
        return row

    def scalar(self) -> Any:
        """First column of the first row, or None when empty."""
        row = self.fetchone()
        return None if row is None else row[0]

    def __iter__(self) -> Iterator[tuple]:
        while True:
            row = self.fetchone()
            if row is None:
                return
            yield row

    def __len__(self) -> int:
        return len(self._rows)

    def as_dicts(self) -> list[dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self._rows]


class Database:
    """An embedded relational database.

    Parameters
    ----------
    directory:
        When given, the database is durable: a snapshot plus write-ahead
        log live in this directory and are recovered on open.
    lock_timeout:
        Seconds to wait for a table lock before LockTimeoutError.
    durable_sync:
        fsync the WAL on every commit (slow, crash-safe).
    """

    def __init__(
        self,
        directory: Optional[str] = None,
        lock_timeout: float = 5.0,
        durable_sync: bool = False,
    ) -> None:
        self.catalog = Catalog()
        self.locks = LockManager(lock_timeout)
        self.fk = ForeignKeyEnforcer(self.catalog)
        # Per-table commit generations: the invalidation signal for the
        # strict-consistency read caches (repro.cache).  Bumped after a
        # commit is durable, before its write locks are released.
        self.generations = GenerationMap()
        self.directory = directory
        self._stmt_cache: dict[str, _Prepared] = {}
        self._stmt_cache_guard = threading.Lock()
        # Bumped by every schema change, under the exclusive schema lock;
        # a plan template from an older epoch is never used.
        self._schema_epoch = 0
        self._wal_guard = threading.Lock()
        self._wal: Optional[walmod.WriteAheadLog] = None
        self._commit_listeners: list[Callable[[list[dict]], None]] = []
        if directory is not None:
            walmod.load_snapshot(self.catalog, directory)
            last_txn = walmod.replay_wal(self.catalog, directory)
            self._wal = walmod.WriteAheadLog(
                directory, sync=durable_sync, last_txn=last_txn
            )

    # -- connections --------------------------------------------------------

    def connect(self) -> "Connection":
        return Connection(self)

    def close(self) -> None:
        if self._wal is not None:
            self._wal.close()
            self._wal = None

    def checkpoint(self) -> None:
        """Write a snapshot and truncate the WAL (quiesces all writers)."""
        if self.directory is None:
            return
        owner = object()
        self.locks.schema_lock.acquire_write(owner, self.locks.timeout)
        try:
            with self._wal_guard:
                walmod.write_snapshot(self.catalog, self.directory)
                if self._wal is not None:
                    self._wal.truncate()
        finally:
            self.locks.schema_lock.release(owner, True)

    # -- shared helpers --------------------------------------------------------

    def parse(self, sql: str) -> Statement:
        return self._prepare(sql).stmt

    def _prepare(self, sql: str) -> "_Prepared":
        prepared = self._stmt_cache.get(sql)
        if prepared is not None:
            _STMT_CACHE_HIT.inc()
            return prepared
        _STMT_CACHE_MISS.inc()
        start = time.perf_counter() if OBS.enabled else 0.0
        prepared = _Prepared(parse_statement(sql))
        if OBS.enabled:
            _PARSE_SECONDS.observe(time.perf_counter() - start)
        with self._stmt_cache_guard:
            if len(self._stmt_cache) > 4096:
                self._stmt_cache.clear()
            self._stmt_cache[sql] = prepared
        return prepared

    def _schema_changed(self) -> None:
        """Retire every plan template; the caller holds the schema lock exclusively."""
        self._schema_epoch += 1

    def add_commit_listener(self, listener: Callable[[list[dict]], None]) -> None:
        """Register a callable invoked with every committed record batch.

        Listeners receive the logical WAL records (insert/update/delete/
        DDL) after the commit succeeds locally — the hook replication
        (:mod:`repro.db.replication`) builds on.
        """
        self._commit_listeners.append(listener)

    def remove_commit_listener(self, listener: Callable[[list[dict]], None]) -> None:
        self._commit_listeners.remove(listener)

    def wal_commit(self, records: list[dict]) -> None:
        if not records:
            return
        if self._wal is not None:
            with self._wal_guard:
                self._wal.append_commit(records)
        for listener in self._commit_listeners:
            listener(list(records))

    # -- DDL: the only way to make a table or an index ---------------------------

    def create_table(self, definition: TableDef, if_not_exists: bool = False) -> None:
        owner = object()
        self.locks.schema_lock.acquire_write(owner, self.locks.timeout)
        try:
            if if_not_exists and self.catalog.has_table(definition.name):
                return
            self.catalog.create_table(definition)
            self._schema_changed()
            self.wal_commit(
                [{"op": "create_table", "def": walmod.table_def_to_dict(definition)}]
            )
            self.generations.bump((definition.name,))
        finally:
            self.locks.schema_lock.release(owner, True)

    def create_index(self, index_def: IndexDef, if_not_exists: bool = False) -> None:
        owner = object()
        self.locks.schema_lock.acquire_write(owner, self.locks.timeout)
        try:
            table = self.catalog.table(index_def.table)
            if if_not_exists and any(
                d.name == index_def.name for d in table.index_defs()
            ):
                return
            table.create_index(index_def)
            self._schema_changed()
            self.wal_commit(
                [
                    {
                        "op": "create_index",
                        "table": index_def.table,
                        "name": index_def.name,
                        "columns": list(index_def.columns),
                        "unique": index_def.unique,
                    }
                ]
            )
            self.generations.bump((index_def.table,))
        finally:
            self.locks.schema_lock.release(owner, True)


class Connection:
    """A single-threaded session against a shared :class:`Database`."""

    def __init__(self, database: Database) -> None:
        self._db = database
        self._txn = TransactionState()
        self._closed = False

    # -- public API ---------------------------------------------------------------

    def execute(self, sql: str, params: Sequence[Any] = ()) -> ResultSet:
        if self._closed:
            raise ProgrammingError("connection is closed")
        prepared = self._db._prepare(sql)
        if not OBS.enabled or not _sample_tick():
            return self._dispatch(prepared, tuple(params))
        start = time.perf_counter()
        try:
            return self._dispatch(prepared, tuple(params))
        finally:
            _statement_timer(prepared.stmt).observe(time.perf_counter() - start)

    def executemany(
        self, sql: str, seq_of_params: Sequence[Sequence[Any]]
    ) -> ResultSet:
        """Execute one INSERT for many parameter sets under one lock pass.

        The batched-executor path: locks are acquired once, every row is
        inserted, and the whole call is all-or-nothing (any failure rolls
        back every row of this call).  Only INSERT is supported — batched
        UPDATE/DELETE have no single-pass win in this engine.
        """
        if self._closed:
            raise ProgrammingError("connection is closed")
        stmt = self._db.parse(sql)
        if not isinstance(stmt, Insert):
            raise ProgrammingError("executemany supports INSERT statements only")
        param_sets = [tuple(p) for p in seq_of_params]
        if not param_sets:
            return ResultSet(rowcount=0)
        if not OBS.enabled or not _sample_tick():
            return self._execute_insert_many(stmt, param_sets)
        start = time.perf_counter()
        try:
            return self._execute_insert_many(stmt, param_sets)
        finally:
            _statement_timer(stmt).observe(time.perf_counter() - start)

    def lock_tables(
        self,
        read: Sequence[str] = (),
        write: Sequence[str] = (),
    ) -> None:
        """Eagerly acquire table locks for the whole transaction.

        The ``LOCK TABLES`` analog: a multi-statement transaction that
        will eventually write a table it first reads must take the write
        lock up front, otherwise two such transactions can deadlock on
        the read→write upgrade.  Locks taken here are held (reentrantly
        re-granted to later statements) until COMMIT/ROLLBACK.
        """
        if self._closed:
            raise ProgrammingError("connection is closed")
        if not self._txn.explicit:
            raise TransactionError("lock_tables requires an explicit transaction")
        held = self._with_locks(set(read) - set(write), set(write))
        self._txn.held.extend(held)

    def index_counts(
        self, table: str, leading: tuple[str, ...]
    ) -> dict[tuple, list[int]]:
        """Live counts of the index of *table* that leads with *leading*.

        Maps each leading sort key to ``[postings, distinct whole keys
        whose last column is not NULL]`` (:meth:`BPlusTree.count_leading`).
        No statement: the first call for an index enables counting under
        the table's read lock, later calls just hand the mapping back.
        Uncommitted writes show until they commit or roll back — the
        counts are advisory.
        """
        found = self._db.catalog.table(table)
        name = found.find_index_on(leading)
        if name is None:
            raise SchemaError(f"no index on {table}{leading}")
        counts = found.indexes[name].counts
        if counts is not None:
            return counts
        held = self._with_locks({table}, set())
        try:
            return self._db.catalog.table(table).indexes[name].count_leading()
        finally:
            LockManager.release(self._txn, held)

    @contextmanager
    def read(self, *tables: str) -> Iterator["ReadView"]:
        """One SELECT's shared locks on *tables*, and no statement: inside,
        read postings and rows off the trees (:class:`ReadView`).  The
        locks go at the end, or join an open transaction as a SELECT's do."""
        if self._closed:
            raise ProgrammingError("connection is closed")
        held = self._with_locks(set(tables), set())
        try:
            yield ReadView(self._db.catalog, tables)
        finally:
            self._statement_done(held, True)

    def begin(self) -> None:
        self.execute("BEGIN")

    def commit(self) -> None:
        self.execute("COMMIT")

    def rollback(self) -> None:
        self.execute("ROLLBACK")

    def close(self) -> None:
        if self._txn.explicit:
            self._rollback_txn()
        self._closed = True

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._txn.explicit:
            if exc_type is None:
                self.commit()
            else:
                self.rollback()
        self.close()

    @property
    def in_transaction(self) -> bool:
        return self._txn.explicit

    @property
    def transaction_written_tables(self) -> frozenset[str]:
        """Tables this connection's open transaction has written so far.

        Conservative: a table stays listed even if a savepoint rollback
        reverted every write to it (the overshoot only costs shared-cache
        bypasses, never correctness).  Empty outside transactions.
        """
        return frozenset(self._txn.written_tables)

    # -- dispatch ------------------------------------------------------------------

    def _dispatch(self, prepared: "_Prepared", params: tuple) -> ResultSet:
        stmt = prepared.stmt
        if isinstance(stmt, Select):
            return self._execute_select(prepared, params)
        if isinstance(stmt, Explain):
            return self._execute_explain(prepared, params)
        if isinstance(stmt, Insert):
            return self._execute_insert(stmt, params)
        if isinstance(stmt, Update):
            return self._execute_update(prepared, params)
        if isinstance(stmt, Delete):
            return self._execute_delete(prepared, params)
        if isinstance(stmt, BeginTransaction):
            return self._begin_txn()
        if isinstance(stmt, CommitTransaction):
            return self._commit_txn()
        if isinstance(stmt, RollbackTransaction):
            return self._rollback_txn()
        raise ProgrammingError(f"unsupported statement {type(stmt).__name__}")

    # -- transactions ------------------------------------------------------------------

    def _begin_txn(self) -> ResultSet:
        if self._txn.explicit:
            raise TransactionError("transaction already in progress")
        self._txn.explicit = True
        return ResultSet(rowcount=0)

    def _commit_txn(self) -> ResultSet:
        if not self._txn.explicit:
            raise TransactionError("COMMIT without BEGIN")
        self._db.wal_commit(self._txn.wal_records)
        # Invalidate read caches for exactly the tables this commit
        # changed (savepoint rollbacks already truncated their records,
        # so fully-reverted work publishes nothing).  Bumping *before*
        # _finish_txn releases the write locks is what makes cache hits
        # strictly consistent: until the locks drop, nobody else could
        # read the new data anyway.
        self._bump_generations()
        self._finish_txn()
        return ResultSet(rowcount=0)

    def _bump_generations(self) -> None:
        tables = {r["table"] for r in self._txn.wal_records if "table" in r}
        if not tables:
            return
        generations = self._db.generations
        keyed = generations.keyed_tables & tables
        images = self._txn.undo.changed_rows(keyed, self._db.catalog) if keyed else {}
        generations.publish(tables, images, self._db.catalog)

    def _rollback_txn(self) -> ResultSet:
        if not self._txn.explicit and not self._txn.held:
            raise TransactionError("ROLLBACK without BEGIN")
        self._txn.undo.rollback(self._db.catalog)
        self._finish_txn()
        return ResultSet(rowcount=0)

    def _finish_txn(self) -> None:
        LockManager.release(self._txn, self._txn.held)
        self._txn.held.clear()
        self._txn.undo.clear()
        self._txn.wal_records.clear()
        self._txn.written_tables.clear()
        self._txn.explicit = False

    def savepoint(self) -> tuple[int, int]:
        """Mark a rollback point inside an explicit transaction.

        Returns an opaque token for :meth:`rollback_to_savepoint`.  Locks
        taken after the savepoint are retained until commit/rollback (as
        in most lock-based engines); only data changes are reverted.
        """
        if not self._txn.explicit:
            raise TransactionError("savepoint requires an explicit transaction")
        return (self._txn.undo.mark(), len(self._txn.wal_records))

    def rollback_to_savepoint(self, token: tuple[int, int]) -> None:
        """Revert every data change made since :meth:`savepoint`."""
        if not self._txn.explicit:
            raise TransactionError(
                "rollback_to_savepoint requires an explicit transaction"
            )
        undo_mark, wal_mark = token
        self._txn.undo.rollback_to(self._db.catalog, undo_mark)
        del self._txn.wal_records[wal_mark:]

    # -- lock scaffolding -----------------------------------------------------------------

    def _with_locks(self, read_tables: set[str], write_tables: set[str]):
        """Acquire locks for one statement; returns a finish callback."""
        owner = self._txn
        self._db.locks.schema_lock.acquire_read(owner, self._db.locks.timeout)
        try:
            held = self._db.locks.acquire(owner, read_tables, write_tables)
        except Exception:
            self._db.locks.schema_lock.release(owner, False)
            raise
        held.insert(0, (self._db.locks.schema_lock, False))
        return held

    def _statement_done(self, held: list, success: bool) -> None:
        """Commit or roll back the statement's effects in autocommit mode."""
        if self._txn.explicit:
            if success:
                self._txn.held.extend(held)
            else:
                # Undo only this statement's changes is complex; roll back
                # the whole transaction like MySQL does on statement error
                # inside a txn would not — instead we keep the txn and its
                # locks, and the caller decides.  Statement-local effects
                # were already reverted by the caller before reaching here.
                self._txn.held.extend(held)
            return
        if success:
            try:
                self._db.wal_commit(self._txn.wal_records)
            except Exception:
                # The log refused the commit: the statement never
                # happened.  Revert the in-memory rows before releasing
                # the locks — leaving them would acknowledge unlogged
                # state, and leaving the staged records would hand them
                # to the next statement's commit (double-apply after
                # replay).
                self._txn.undo.rollback_to(self._db.catalog, 0)
                self._txn.wal_records.clear()
                self._txn.undo.clear()
                self._txn.written_tables.clear()
                LockManager.release(self._txn, held)
                raise
            # Autocommit: bump while still holding this statement's
            # write locks (released just below), mirroring _commit_txn.
            self._bump_generations()
        self._txn.wal_records.clear()
        self._txn.undo.clear()
        self._txn.written_tables.clear()
        LockManager.release(self._txn, held)

    # -- SELECT ---------------------------------------------------------------------------

    def _execute_select(self, prepared: "_Prepared", params: tuple) -> ResultSet:
        held = self._with_locks(_read_tables(prepared.query), set())
        try:
            names, rows = execute_select(self._db.catalog, self._plan(prepared, params))
            return ResultSet(columns=names, rows=rows)
        finally:
            self._statement_done(held, True)

    def _plan(self, prepared: "_Prepared", params: tuple):
        """The statement's cached plan template with *params* bound.

        A SELECT binds into a :class:`SelectPlan`, an UPDATE/DELETE into
        its :class:`AccessPath`.  Planning happens on a miss only: once per
        schema epoch.  Called under the statement's shared schema lock, so
        the epoch cannot move while the plan is in use.
        """
        query, count = prepared.query, prepared.stmt.param_count
        if len(params) < count:
            raise ProgrammingError(
                f"statement requires at least {count} parameters, got {len(params)}"
            )
        bind = bind_plan if isinstance(query, Select) else bind_access
        epoch = self._db._schema_epoch
        cached = prepared.plan
        if cached is not None and cached[0] == epoch:
            template = cached[1]
        else:
            start = time.perf_counter()
            if isinstance(query, Select):
                template = plan_select(self._db.catalog, query)
            else:
                template = plan_mutation(self._db.catalog, query.table, query.where)
            if not count:
                template = bind(template, ())  # no slot left to fill later
            if OBS.enabled:
                _PLAN_SECONDS.observe(time.perf_counter() - start)
            prepared.plan = (epoch, template)
        return bind(template, params) if count else template

    def _execute_explain(self, prepared: "_Prepared", params: tuple) -> ResultSet:
        held = self._with_locks(_read_tables(prepared.query), set())
        try:
            lines = describe_plan(self._plan(prepared, params))
            return ResultSet(columns=("plan",), rows=[(line,) for line in lines])
        finally:
            self._statement_done(held, True)

    # -- INSERT ---------------------------------------------------------------------------

    def _execute_insert(self, stmt: Insert, params: tuple) -> ResultSet:
        return self._execute_insert_many(stmt, [params])

    def _execute_insert_many(
        self, stmt: Insert, param_sets: list[tuple]
    ) -> ResultSet:
        """Insert ``stmt.rows`` once per parameter set under one lock pass."""
        table = self._db.catalog.table(stmt.table)  # early schema check
        read_tables = {fk.ref_table for fk in table.definition.foreign_keys}
        held = self._with_locks(read_tables, {stmt.table})
        self._txn.written_tables.add(stmt.table)
        success = False
        lastrowids: list[int] = []
        inserted = 0
        undo_mark = self._txn.undo.mark()
        wal_mark = len(self._txn.wal_records)
        try:
            auto_column = table.definition.auto_column
            auto_index = (
                table.definition.column_index(auto_column)
                if auto_column is not None
                else None
            )
            for params in param_sets:
                for row_exprs in stmt.rows:
                    values: dict[str, Any] = {}
                    for col, expr in zip(stmt.columns, row_exprs):
                        bound_expr = bind_parameters(expr, params)
                        values[col] = bound_expr.eval({})
                    rowid, stored = table.insert(values)
                    self._txn.undo.record_insert(
                        stmt.table,
                        rowid,
                        auto_column is not None and values.get(auto_column) is not None,
                    )
                    self._db.fk.check_insert(table, stored)
                    self._txn.wal_records.append(
                        {
                            "op": "insert",
                            "table": stmt.table,
                            "rowid": rowid,
                            "row": walmod.encode_row(stored),
                        }
                    )
                    if auto_index is not None:
                        lastrowids.append(stored[auto_index])
                    inserted += 1
            success = True
            return ResultSet(
                rowcount=inserted,
                lastrowid=lastrowids[-1] if lastrowids else None,
                lastrowids=lastrowids,
            )
        except Exception:
            self._txn.undo.rollback_to(self._db.catalog, undo_mark)
            del self._txn.wal_records[wal_mark:]
            raise
        finally:
            self._statement_done(held, success)

    # -- UPDATE ---------------------------------------------------------------------------

    def _execute_update(self, prepared: "_Prepared", params: tuple) -> ResultSet:
        stmt = prepared.stmt
        table = self._db.catalog.table(stmt.table)
        read_tables = {fk.ref_table for fk in table.definition.foreign_keys}
        # Children that reference this table must be visible for parent checks.
        for other in self._db.catalog.tables.values():
            for fk in other.definition.foreign_keys:
                if fk.ref_table == stmt.table:
                    read_tables.add(other.name)
        held = self._with_locks(read_tables - {stmt.table}, {stmt.table})
        self._txn.written_tables.add(stmt.table)
        success = False
        count = 0
        undo_mark = self._txn.undo.mark()
        wal_mark = len(self._txn.wal_records)
        try:
            access = self._plan(prepared, params)
            assignments = [
                (col, bind_parameters(expr, params)) for col, expr in stmt.assignments
            ]
            rowids = select_rowids(self._db.catalog, access)
            names = table.definition.column_names
            qualified = tuple(f"{stmt.table}.{c}" for c in names)
            referenced_cols = {
                c
                for other in self._db.catalog.tables.values()
                for fk in other.definition.foreign_keys
                if fk.ref_table == stmt.table
                for c in fk.ref_columns
            }
            for rowid in rowids:
                row = table.rows[rowid]
                scope = dict(zip(qualified, row))
                scope.update(zip(names, row))
                changes = {col: expr.eval(scope) for col, expr in assignments}
                old, new = table.update(rowid, changes)
                self._txn.undo.record_update(stmt.table, rowid, old)
                self._db.fk.check_insert(table, new)
                if referenced_cols & set(changes):
                    changed_ref = any(
                        old[table.definition.column_index(c)]
                        != new[table.definition.column_index(c)]
                        for c in referenced_cols
                    )
                    if changed_ref:
                        self._db.fk.check_delete(table, old)
                self._txn.wal_records.append(
                    {
                        "op": "update",
                        "table": stmt.table,
                        "rowid": rowid,
                        "row": walmod.encode_row(new),
                    }
                )
                count += 1
            success = True
            return ResultSet(rowcount=count)
        except Exception:
            self._txn.undo.rollback_to(self._db.catalog, undo_mark)
            del self._txn.wal_records[wal_mark:]
            raise
        finally:
            self._statement_done(held, success)

    # -- DELETE ---------------------------------------------------------------------------

    def _execute_delete(self, prepared: "_Prepared", params: tuple) -> ResultSet:
        stmt = prepared.stmt
        table = self._db.catalog.table(stmt.table)
        read_tables: set[str] = set()
        for other in self._db.catalog.tables.values():
            for fk in other.definition.foreign_keys:
                if fk.ref_table == stmt.table:
                    read_tables.add(other.name)
        held = self._with_locks(read_tables - {stmt.table}, {stmt.table})
        self._txn.written_tables.add(stmt.table)
        success = False
        count = 0
        undo_mark = self._txn.undo.mark()
        wal_mark = len(self._txn.wal_records)
        try:
            access = self._plan(prepared, params)
            rowids = select_rowids(self._db.catalog, access)
            for rowid in rowids:
                row = table.rows[rowid]
                self._db.fk.check_delete(table, row)
                table.delete(rowid)
                self._txn.undo.record_delete(stmt.table, rowid, row)
                self._txn.wal_records.append(
                    {"op": "delete", "table": stmt.table, "rowid": rowid}
                )
                count += 1
            success = True
            return ResultSet(rowcount=count)
        except Exception:
            self._txn.undo.rollback_to(self._db.catalog, undo_mark)
            del self._txn.wal_records[wal_mark:]
            raise
        finally:
            self._statement_done(held, success)


class IndexView(NamedTuple):
    """One index's postings: ``get(key)`` lists the row ids of one whole
    key, ``prefix(key)`` and ``range(low, high)`` yield those of every key
    that leads with, or lies between, raw values (:class:`~repro.db.btree.BPlusTree`)."""

    name: str
    get: Callable[[tuple], list[int]]
    prefix: Callable[[tuple], Iterator[int]]
    range: Callable[..., Iterator[int]]


class ReadView:
    """The tables one :meth:`Connection.read` locked; good inside that block."""

    def __init__(self, catalog: Catalog, tables: Sequence[str]) -> None:
        self._catalog, self._tables = catalog, frozenset(tables)

    def _table(self, name: str) -> Table:
        if name not in self._tables:
            raise ProgrammingError(f"table {name!r} is not locked by this read")
        return self._catalog.table(name)

    def columns(self, table: str) -> tuple[str, ...]:
        return self._table(table).definition.column_names

    def index(self, table: str, leading: tuple[str, ...]) -> IndexView:
        """The index of *table* whose columns lead with *leading*."""
        found = self._table(table)
        name = found.find_index_on(leading)
        if name is None:
            raise SchemaError(f"no index on {table}{leading}")
        tree = found.indexes[name]
        return IndexView(name, tree.get, tree.prefix, tree.range)

    def fetch(self, table: str) -> Callable[[int], Optional[tuple]]:
        return self._table(table).rows.get  # row id -> row, None once deleted

    def rows(self, table: str) -> Iterable[tuple]:
        return self._table(table).rows.values()


# --------------------------------------------------------------------------
# The statement cache entry
# --------------------------------------------------------------------------


class _Prepared:
    """One SQL text: its parsed statement and the plan template built from it.

    ``query`` is the statement that gets planned (an EXPLAIN's inner
    SELECT).  ``plan`` is ``(schema epoch, template)`` once planned.
    Templates are immutable and shared across threads.
    """

    __slots__ = ("stmt", "query", "plan")

    def __init__(self, stmt: Statement) -> None:
        self.stmt = stmt
        self.query = stmt.inner if isinstance(stmt, Explain) else stmt
        self.plan: Optional[tuple[int, Any]] = None


def _read_tables(stmt: Select) -> set[str]:
    tables = {join.table.name for join in stmt.joins}
    if stmt.table is not None:
        tables.add(stmt.table.name)
    return tables
