"""Tests for WAL-shipping replication at the database level."""

import threading

import pytest

from repro.db import Database
from repro.db.replication import Replica, ReplicationPublisher, seed_replica
from tests.tables import make_index, make_table


@pytest.fixture
def primary():
    return Database()


def attach(primary, name="r0", asynchronous=False):
    publisher = ReplicationPublisher(primary)
    replica = Replica(name, asynchronous=asynchronous)
    publisher.add_replica(replica)
    return publisher, replica


class TestSynchronousShipping:
    def test_ddl_and_dml_replicate(self, primary):
        publisher, replica = attach(primary)
        conn = primary.connect()
        make_table(conn, "t", "id INTEGER, v STRING", primary_key=("id",))
        conn.execute("INSERT INTO t (id, v) VALUES (1, 'a'), (2, 'b')")
        conn.execute("UPDATE t SET v = 'B' WHERE id = 2")
        conn.execute("DELETE FROM t WHERE id = 1")
        rows = replica.database.connect().execute(
            "SELECT id, v FROM t ORDER BY id"
        ).fetchall()
        assert rows == [(2, "B")]
        publisher.close()

    def test_indexes_replicate(self, primary):
        publisher, replica = attach(primary)
        conn = primary.connect()
        make_table(conn, "t", "a INTEGER")
        make_index(conn, "i", "t", ("a",))
        conn.execute("INSERT INTO t (a) VALUES (5)")
        table = replica.database.catalog.table("t")
        assert table.indexes["i"].get((5,)) != []
        publisher.close()

    def test_transaction_ships_as_one_batch(self, primary):
        publisher, replica = attach(primary)
        conn = primary.connect()
        make_table(conn, "t", "a INTEGER")
        before = publisher.batches_published
        conn.execute("BEGIN")
        conn.execute("INSERT INTO t (a) VALUES (1)")
        conn.execute("INSERT INTO t (a) VALUES (2)")
        conn.execute("COMMIT")
        assert publisher.batches_published == before + 1
        assert replica.database.connect().execute(
            "SELECT COUNT(*) FROM t"
        ).scalar() == 2
        publisher.close()

    def test_rolled_back_txn_not_shipped(self, primary):
        publisher, replica = attach(primary)
        conn = primary.connect()
        make_table(conn, "t", "a INTEGER")
        conn.execute("BEGIN")
        conn.execute("INSERT INTO t (a) VALUES (1)")
        conn.execute("ROLLBACK")
        assert replica.database.connect().execute(
            "SELECT COUNT(*) FROM t"
        ).scalar() == 0
        publisher.close()

    def test_autoincrement_continues_on_replica(self, primary):
        publisher, replica = attach(primary)
        conn = primary.connect()
        make_table(
            conn, "t", "id INTEGER, v STRING", primary_key=("id",), autoincrement="id"
        )
        conn.execute("INSERT INTO t (v) VALUES ('a')")
        # If promoted, the replica must continue the sequence correctly.
        result = replica.database.connect().execute("INSERT INTO t (v) VALUES ('b')")
        assert result.lastrowid == 2
        publisher.close()


class TestAsynchronousShipping:
    def test_lag_and_flush(self, primary):
        publisher, replica = attach(primary, asynchronous=True)
        conn = primary.connect()
        make_table(conn, "t", "a INTEGER")
        for i in range(20):
            conn.execute("INSERT INTO t (a) VALUES (?)", (i,))
        replica.flush()
        assert replica.lag() == 0
        assert replica.database.connect().execute(
            "SELECT COUNT(*) FROM t"
        ).scalar() == 20
        publisher.close()

    def test_order_preserved(self, primary):
        publisher, replica = attach(primary, asynchronous=True)
        conn = primary.connect()
        make_table(conn, "t", "id INTEGER, v INTEGER", primary_key=("id",))
        conn.execute("INSERT INTO t (id, v) VALUES (1, 0)")
        for i in range(50):
            conn.execute("UPDATE t SET v = ? WHERE id = 1", (i,))
        replica.flush()
        assert replica.database.connect().execute(
            "SELECT v FROM t WHERE id = 1"
        ).scalar() == 49
        publisher.close()

    def test_concurrent_writers_replicate_consistently(self, primary):
        publisher, replica = attach(primary, asynchronous=True)
        make_table(primary.connect(), "t", "id INTEGER, w INTEGER", primary_key=("id",))

        def writer(w):
            conn = primary.connect()
            for i in range(25):
                conn.execute(
                    "INSERT INTO t (id, w) VALUES (?, ?)", (w * 100 + i, w)
                )

        threads = [threading.Thread(target=writer, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        replica.flush()
        primary_rows = sorted(primary.connect().execute("SELECT id FROM t").fetchall())
        replica_rows = sorted(
            replica.database.connect().execute("SELECT id FROM t").fetchall()
        )
        assert primary_rows == replica_rows and len(primary_rows) == 100
        publisher.close()


class TestSeeding:
    def test_seed_copies_existing_state(self, primary):
        conn = primary.connect()
        make_table(
            conn, "t", "id INTEGER, v STRING", primary_key=("id",), autoincrement="id"
        )
        make_index(conn, "by_v", "t", ("v",))
        conn.execute("INSERT INTO t (v) VALUES ('pre')")
        publisher = ReplicationPublisher(primary)
        replica = Replica("late")
        seed_replica(primary, replica)
        publisher.add_replica(replica)
        conn.execute("INSERT INTO t (v) VALUES ('post')")
        rows = replica.database.connect().execute(
            "SELECT v FROM t ORDER BY id"
        ).fetchall()
        assert rows == [("pre",), ("post",)]
        assert "by_v" in replica.database.catalog.table("t").indexes
        publisher.close()

    def test_seed_requires_empty_replica(self, primary):
        replica = Replica("r")
        make_table(replica.database.connect(), "x", "a INTEGER")
        with pytest.raises(ValueError):
            seed_replica(primary, replica)

    def test_duplicate_replica_name_rejected(self, primary):
        publisher, replica = attach(primary)
        with pytest.raises(ValueError):
            publisher.add_replica(Replica("r0"))
        publisher.close()


class TestFlushTimeout:
    def test_flush_timeout_when_apply_stuck(self, primary):
        """A replica whose apply thread is wedged must raise on flush."""
        publisher = ReplicationPublisher(primary)
        replica = Replica("slow", asynchronous=True)
        publisher.add_replica(replica)
        # Wedge the apply loop by making it wait on the schema lock.
        blocker = object()
        replica.database.locks.schema_lock.acquire_write(blocker, 1)
        try:
            conn = primary.connect()
            make_table(conn, "t", "a INTEGER")
            with pytest.raises(TimeoutError):
                replica.flush(timeout=0.2)
        finally:
            replica.database.locks.schema_lock.release(blocker, True)
            replica.flush()
            publisher.close()

    def test_flush_noop_for_synchronous(self, primary):
        publisher, replica = attach(primary)
        replica.flush()  # must not raise
        publisher.close()
