"""Tests for locks, undo and multi-threaded access."""

import threading
import time

import pytest

from repro.db import Database
from repro.db.errors import LockTimeoutError
from repro.db.txn import LockManager, RWLock, UndoLog
from repro.db.schema import Column, TableDef
from repro.db.storage import Catalog
from repro.db.types import ColumnType
from tests.tables import make_table


class TestRWLock:
    def test_multiple_readers(self):
        lock = RWLock("t")
        lock.acquire_read("a", 1)
        lock.acquire_read("b", 1)
        assert lock.held_by("a") == (1, 0)
        lock.release("a", False)
        lock.release("b", False)

    def test_writer_excludes_reader(self):
        lock = RWLock("t")
        lock.acquire_write("w", 1)
        with pytest.raises(LockTimeoutError):
            lock.acquire_read("r", 0.05)
        lock.release("w", True)

    def test_waiting_writer_gates_new_readers(self):
        """Write preference: overlapping readers cannot starve a writer."""
        lock = RWLock("t")
        lock.acquire_read("r1", 1)
        writer_acquired = threading.Event()

        def writer():
            lock.acquire_write("w", 5)
            writer_acquired.set()
            lock.release("w", True)

        thread = threading.Thread(target=writer)
        thread.start()
        time.sleep(0.05)  # let the writer start waiting
        # A fresh reader must now queue behind the waiting writer...
        with pytest.raises(LockTimeoutError):
            lock.acquire_read("r2", 0.05)
        # ...but the existing holder still re-enters (upgrade safety).
        lock.acquire_read("r1", 0.05)
        lock.release("r1", False)
        lock.release("r1", False)
        thread.join(timeout=5)
        assert writer_acquired.is_set()
        # Once the writer is done, new readers proceed normally.
        lock.acquire_read("r2", 1)
        lock.release("r2", False)

    def test_writer_timeout_reopens_reader_gate(self):
        lock = RWLock("t")
        lock.acquire_read("r1", 1)

        def failing_writer():
            with pytest.raises(LockTimeoutError):
                lock.acquire_write("w", 0.1)

        thread = threading.Thread(target=failing_writer)
        thread.start()
        thread.join(timeout=5)
        # The timed-out writer must not leave new readers gated forever.
        lock.acquire_read("r2", 0.5)
        lock.release("r2", False)
        lock.release("r1", False)
        lock.acquire_read("r", 1)

    def test_reader_excludes_writer(self):
        lock = RWLock("t")
        lock.acquire_read("r", 1)
        with pytest.raises(LockTimeoutError):
            lock.acquire_write("w", 0.05)
        lock.release("r", False)

    def test_reentrant_write(self):
        lock = RWLock("t")
        lock.acquire_write("w", 1)
        lock.acquire_write("w", 1)
        lock.release("w", True)
        assert lock.held_by("w") == (0, 1)
        lock.release("w", True)

    def test_same_owner_read_then_write_upgrade(self):
        lock = RWLock("t")
        lock.acquire_read("a", 1)
        lock.acquire_write("a", 1)  # sole reader upgrades
        lock.release("a", True)
        lock.release("a", False)

    def test_write_then_read_same_owner(self):
        lock = RWLock("t")
        lock.acquire_write("a", 1)
        lock.acquire_read("a", 1)
        lock.release("a", False)
        lock.release("a", True)

    def test_release_not_held_raises(self):
        lock = RWLock("t")
        from repro.db.errors import TransactionError

        with pytest.raises(TransactionError):
            lock.release("x", False)

    def test_writer_wakes_waiting_reader(self):
        lock = RWLock("t")
        lock.acquire_write("w", 1)
        got = []

        def reader():
            lock.acquire_read("r", 2)
            got.append(True)
            lock.release("r", False)

        thread = threading.Thread(target=reader)
        thread.start()
        time.sleep(0.05)
        lock.release("w", True)
        thread.join(2)
        assert got == [True]


class TestLockManager:
    def test_acquire_all_or_nothing(self):
        manager = LockManager(timeout=0.05)
        blocker = object()
        manager.lock_for("b").acquire_write(blocker, 1)
        owner = object()
        with pytest.raises(LockTimeoutError):
            manager.acquire(owner, {"a"}, {"b"})
        # 'a' must not be left held
        probe = object()
        manager.lock_for("a").acquire_write(probe, 0.05)
        manager.lock_for("a").release(probe, True)

    def test_sorted_acquisition_order(self):
        manager = LockManager()
        owner = object()
        held = manager.acquire(owner, {"zeta"}, {"alpha"})
        assert [lock.name for lock, _ in held] == ["alpha", "zeta"]
        LockManager.release(owner, held)


class TestUndoLog:
    def setup_method(self):
        self.catalog = Catalog()
        self.table = self.catalog.create_table(
            TableDef("t", [Column("a", ColumnType.INTEGER)])
        )

    def test_rollback_insert(self):
        undo = UndoLog()
        rid, _ = self.table.insert({"a": 1})
        undo.record_insert("t", rid)
        undo.rollback(self.catalog)
        assert len(self.table) == 0

    def test_rollback_update(self):
        undo = UndoLog()
        rid, _ = self.table.insert({"a": 1})
        old, _ = self.table.update(rid, {"a": 2})
        undo.record_update("t", rid, old)
        undo.rollback(self.catalog)
        assert self.table.rows[rid] == (1,)

    def test_rollback_delete(self):
        undo = UndoLog()
        rid, _ = self.table.insert({"a": 1})
        row = self.table.delete(rid)
        undo.record_delete("t", rid, row)
        undo.rollback(self.catalog)
        assert self.table.rows[rid] == (1,)

    def test_rollback_to_mark(self):
        undo = UndoLog()
        rid1, _ = self.table.insert({"a": 1})
        undo.record_insert("t", rid1)
        mark = undo.mark()
        rid2, _ = self.table.insert({"a": 2})
        undo.record_insert("t", rid2)
        undo.rollback_to(self.catalog, mark)
        assert len(self.table) == 1 and rid1 in self.table.rows
        assert len(undo) == mark

    def test_rollback_order_is_reverse(self):
        undo = UndoLog()
        rid, _ = self.table.insert({"a": 1})
        old1, _ = self.table.update(rid, {"a": 2})
        undo.record_update("t", rid, old1)
        old2, _ = self.table.update(rid, {"a": 3})
        undo.record_update("t", rid, old2)
        undo.rollback(self.catalog)
        assert self.table.rows[rid] == (1,)


class TestConcurrentAccess:
    def test_parallel_inserts_distinct_keys(self):
        db = Database()
        make_table(db.connect(), "t", "id INTEGER, thread INTEGER", primary_key=("id",))
        errors = []

        def worker(tid):
            conn = db.connect()
            try:
                for i in range(50):
                    conn.execute(
                        "INSERT INTO t (id, thread) VALUES (?, ?)",
                        (tid * 1000 + i, tid),
                    )
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert db.connect().execute("SELECT COUNT(*) FROM t").scalar() == 200

    def test_readers_run_during_reads(self):
        db = Database()
        c = db.connect()
        make_table(c, "t", "a INTEGER")
        for i in range(100):
            c.execute("INSERT INTO t (a) VALUES (?)", (i,))
        results = []

        def reader():
            conn = db.connect()
            for _ in range(20):
                results.append(conn.execute("SELECT COUNT(*) FROM t").scalar())

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r == 100 for r in results)

    def test_explicit_txn_blocks_conflicting_writer(self):
        db = Database(lock_timeout=0.1)
        c1 = db.connect()
        make_table(c1, "t", "a INTEGER")
        c1.execute("BEGIN")
        c1.execute("INSERT INTO t (a) VALUES (1)")
        c2 = db.connect()
        with pytest.raises(LockTimeoutError):
            c2.execute("INSERT INTO t (a) VALUES (2)")
        c1.execute("COMMIT")
        c2.execute("INSERT INTO t (a) VALUES (2)")
        assert c2.execute("SELECT COUNT(*) FROM t").scalar() == 2

    def test_mixed_read_write_consistency(self):
        db = Database()
        c = db.connect()
        make_table(c, "acct", "id INTEGER, bal INTEGER", primary_key=("id",))
        c.execute("INSERT INTO acct (id, bal) VALUES (1, 100), (2, 100)")
        stop = threading.Event()
        anomalies = []

        def transfer():
            conn = db.connect()
            for _ in range(30):
                conn.execute("BEGIN")
                conn.lock_tables(write=["acct"])
                balances = dict(conn.execute("SELECT id, bal FROM acct").fetchall())
                conn.execute("UPDATE acct SET bal = ? WHERE id = 1", (balances[1] - 1,))
                conn.execute("UPDATE acct SET bal = ? WHERE id = 2", (balances[2] + 1,))
                conn.execute("COMMIT")

        def auditor():
            conn = db.connect()
            while not stop.is_set():
                total = sum(bal for (bal,) in conn.execute("SELECT bal FROM acct"))
                if total != 200:
                    anomalies.append(total)

        audit_thread = threading.Thread(target=auditor)
        audit_thread.start()
        workers = [threading.Thread(target=transfer) for _ in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        stop.set()
        audit_thread.join(2)
        assert not anomalies
        conn = db.connect()
        assert conn.execute("SELECT bal FROM acct WHERE id = 1").scalar() == 40
        assert conn.execute("SELECT bal FROM acct WHERE id = 2").scalar() == 160
