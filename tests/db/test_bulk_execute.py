"""Batched execution paths: executemany, lastrowids, savepoints."""

import pytest

from repro.db import Database
from repro.db.errors import (
    IntegrityError,
    ProgrammingError,
    TransactionError,
)
from tests.tables import make_table


@pytest.fixture()
def db():
    database = Database()
    conn = database.connect()
    make_table(
        conn, "t", "id INTEGER, name STRING, score INTEGER", primary_key=("id",),
        unique=[("name",)], autoincrement="id", not_null=("name",),
    )
    conn.close()
    return database


class TestExecutemany:
    def test_inserts_all_rows(self, db):
        conn = db.connect()
        result = conn.executemany(
            "INSERT INTO t (name, score) VALUES (?, ?)",
            [("a", 1), ("b", 2), ("c", 3)],
        )
        assert result.rowcount == 3
        assert conn.execute("SELECT COUNT(*) FROM t").scalar() == 3

    def test_lastrowids_in_insertion_order(self, db):
        conn = db.connect()
        result = conn.executemany(
            "INSERT INTO t (name) VALUES (?)", [("a",), ("b",), ("c",)]
        )
        assert len(result.lastrowids) == 3
        assert result.lastrowids == sorted(result.lastrowids)
        assert result.lastrowid == result.lastrowids[-1]
        rows = conn.execute("SELECT id, name FROM t").fetchall()
        assert {row[0] for row in rows} == set(result.lastrowids)

    def test_empty_sequence_is_noop(self, db):
        conn = db.connect()
        result = conn.executemany("INSERT INTO t (name) VALUES (?)", [])
        assert result.rowcount == 0
        assert conn.execute("SELECT COUNT(*) FROM t").scalar() == 0

    def test_all_or_nothing_on_mid_batch_failure(self, db):
        conn = db.connect()
        conn.execute("INSERT INTO t (name) VALUES ('taken')")
        with pytest.raises(IntegrityError):
            conn.executemany(
                "INSERT INTO t (name) VALUES (?)",
                [("fresh-1",), ("taken",), ("fresh-2",)],
            )
        names = {row[0] for row in conn.execute("SELECT name FROM t").fetchall()}
        assert names == {"taken"}, "partial batch leaked past a failure"

    def test_rejects_non_insert(self, db):
        conn = db.connect()
        with pytest.raises(ProgrammingError):
            conn.executemany("SELECT name FROM t", [()])

    def test_rejects_closed_connection(self, db):
        conn = db.connect()
        conn.close()
        with pytest.raises(ProgrammingError):
            conn.executemany("INSERT INTO t (name) VALUES (?)", [("a",)])

    def test_single_row_matches_execute(self, db):
        conn = db.connect()
        many = conn.executemany("INSERT INTO t (name) VALUES (?)", [("a",)])
        one = conn.execute("INSERT INTO t (name) VALUES ('b')")
        assert many.rowcount == one.rowcount == 1
        assert one.lastrowid == many.lastrowid + 1


class TestLockTables:
    def test_requires_explicit_transaction(self, db):
        conn = db.connect()
        with pytest.raises(TransactionError):
            conn.lock_tables(write=("t",))

    def test_serializes_read_then_write_transactions(self, db):
        """Two txns that read t before writing it deadlock on the lock
        upgrade unless both take the write lock eagerly."""
        import threading

        done = []

        def contender(name):
            conn = db.connect()
            conn.execute("BEGIN")
            conn.lock_tables(write=("t",))
            conn.execute("SELECT COUNT(*) FROM t").scalar()
            conn.execute(f"INSERT INTO t (name) VALUES ('{name}')")
            conn.execute("COMMIT")
            conn.close()
            done.append(name)

        threads = [
            threading.Thread(target=contender, args=(f"c{i}",))
            for i in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert sorted(done) == ["c0", "c1", "c2"]
        conn = db.connect()
        assert conn.execute("SELECT COUNT(*) FROM t").scalar() == 3


class TestSavepoints:
    def test_requires_explicit_transaction(self, db):
        conn = db.connect()
        with pytest.raises(TransactionError):
            conn.savepoint()
        with pytest.raises(TransactionError):
            conn.rollback_to_savepoint((0, 0))

    def test_rollback_reverts_work_after_mark(self, db):
        conn = db.connect()
        conn.execute("BEGIN")
        conn.execute("INSERT INTO t (name) VALUES ('kept')")
        token = conn.savepoint()
        conn.execute("INSERT INTO t (name) VALUES ('doomed-1')")
        conn.execute("INSERT INTO t (name) VALUES ('doomed-2')")
        conn.rollback_to_savepoint(token)
        conn.execute("COMMIT")
        names = {row[0] for row in conn.execute("SELECT name FROM t").fetchall()}
        assert names == {"kept"}

    def test_nested_savepoints_unwind_independently(self, db):
        conn = db.connect()
        conn.execute("BEGIN")
        outer = conn.savepoint()
        conn.execute("INSERT INTO t (name) VALUES ('outer')")
        inner = conn.savepoint()
        conn.execute("INSERT INTO t (name) VALUES ('inner')")
        conn.rollback_to_savepoint(inner)
        conn.execute("INSERT INTO t (name) VALUES ('retry')")
        conn.execute("COMMIT")
        del outer
        names = {row[0] for row in conn.execute("SELECT name FROM t").fetchall()}
        assert names == {"outer", "retry"}

    def test_savepoint_isolates_executemany_failure(self, db):
        conn = db.connect()
        conn.execute("INSERT INTO t (name) VALUES ('taken')")
        conn.execute("BEGIN")
        conn.execute("INSERT INTO t (name) VALUES ('pre')")
        token = conn.savepoint()
        with pytest.raises(IntegrityError):
            conn.executemany(
                "INSERT INTO t (name) VALUES (?)", [("new",), ("taken",)]
            )
        conn.rollback_to_savepoint(token)
        conn.execute("INSERT INTO t (name) VALUES ('post')")
        conn.execute("COMMIT")
        names = {row[0] for row in conn.execute("SELECT name FROM t").fetchall()}
        assert names == {"taken", "pre", "post"}
