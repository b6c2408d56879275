"""Durability tests: snapshot, WAL replay, crash recovery."""

import datetime as dt
import json
import os

import pytest

from repro.db import Database
from repro.db.wal import (
    WAL_NAME,
    decode_row,
    decode_value,
    encode_row,
    encode_value,
    load_snapshot,
    table_def_from_dict,
    table_def_to_dict,
    write_snapshot,
)
from repro.db.schema import Column, TableDef
from repro.db.storage import Catalog
from repro.db.types import ColumnType
from tests.tables import make_index, make_table


class TestValueCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            42,
            2.5,
            "text",
            True,
            dt.date(2003, 11, 15),
            dt.time(10, 30, 5),
            dt.datetime(2003, 11, 15, 10, 30, 5, 123),
        ],
    )
    def test_round_trip(self, value):
        assert decode_value(encode_value(value)) == value

    def test_row_round_trip(self):
        row = (1, "x", dt.date(2003, 1, 1), None)
        assert decode_row(encode_row(row)) == row


class TestSchemaCodec:
    def test_table_def_round_trip(self):
        definition = TableDef(
            "t",
            [
                Column("id", ColumnType.INTEGER, autoincrement=True, nullable=False),
                Column("v", ColumnType.STRING, default="d"),
            ],
            primary_key=("id",),
            unique=[("v",)],
        )
        restored = table_def_from_dict(table_def_to_dict(definition))
        assert restored.name == "t"
        assert restored.primary_key == ("id",)
        assert restored.columns[1].default == "d"
        assert restored.columns[0].autoincrement


class TestSnapshot:
    def test_snapshot_round_trip(self, tmp_path):
        catalog = Catalog()
        table = catalog.create_table(
            TableDef("t", [Column("a", ColumnType.INTEGER)])
        )
        table.insert({"a": 1})
        table.insert({"a": 2})
        write_snapshot(catalog, str(tmp_path))
        restored = Catalog()
        assert load_snapshot(restored, str(tmp_path))
        assert sorted(r[0] for r in restored.table("t").rows.values()) == [1, 2]

    def test_load_missing_returns_false(self, tmp_path):
        assert not load_snapshot(Catalog(), str(tmp_path))

    def test_user_indexes_restored(self, tmp_path):
        db = Database(directory=str(tmp_path))
        c = db.connect()
        make_table(c, "t", "a INTEGER")
        make_index(c, "i", "t", ("a",))
        c.execute("INSERT INTO t (a) VALUES (5)")
        db.checkpoint()
        db.close()
        db2 = Database(directory=str(tmp_path))
        table = db2.catalog.table("t")
        assert "i" in table.indexes
        assert table.indexes["i"].get((5,)) != []


class TestRecovery:
    def test_recover_from_wal_only(self, tmp_path):
        db = Database(directory=str(tmp_path))
        c = db.connect()
        make_table(c, "t", "id INTEGER, v STRING", primary_key=("id",))
        c.execute("INSERT INTO t (id, v) VALUES (1, 'a'), (2, 'b')")
        c.execute("UPDATE t SET v = 'B' WHERE id = 2")
        c.execute("DELETE FROM t WHERE id = 1")
        db.close()
        db2 = Database(directory=str(tmp_path))
        rows = db2.connect().execute("SELECT id, v FROM t").fetchall()
        assert rows == [(2, "B")]

    def test_recover_snapshot_plus_wal(self, tmp_path):
        db = Database(directory=str(tmp_path))
        c = db.connect()
        make_table(c, "t", "id INTEGER", primary_key=("id",))
        c.execute("INSERT INTO t (id) VALUES (1)")
        db.checkpoint()
        c.execute("INSERT INTO t (id) VALUES (2)")
        db.close()
        db2 = Database(directory=str(tmp_path))
        rows = db2.connect().execute("SELECT id FROM t ORDER BY id").fetchall()
        assert rows == [(1,), (2,)]

    def test_auto_ids_of_deleted_rows_are_not_reused_after_a_snapshot(self, tmp_path):
        db = Database(directory=str(tmp_path))
        c = db.connect()
        make_table(
            c, "t", "id INTEGER, v STRING", primary_key=("id",), autoincrement="id"
        )
        c.execute("INSERT INTO t (v) VALUES ('a'), ('b'), ('c')")
        c.execute("DELETE FROM t WHERE id = 3")
        db.checkpoint()
        db.close()
        db2 = Database(directory=str(tmp_path))
        result = db2.connect().execute("INSERT INTO t (v) VALUES ('d')")
        assert result.lastrowid == 4
        db2.close()

    def test_uncommitted_txn_not_recovered(self, tmp_path):
        db = Database(directory=str(tmp_path))
        c = db.connect()
        make_table(c, "t", "id INTEGER", primary_key=("id",))
        c.execute("BEGIN")
        c.execute("INSERT INTO t (id) VALUES (1)")
        # No COMMIT: connection dropped (crash); WAL has no records at all
        # because records are only appended at commit time.
        db.close()
        db2 = Database(directory=str(tmp_path))
        assert db2.connect().execute("SELECT COUNT(*) FROM t").scalar() == 0

    def test_rolled_back_txn_not_recovered(self, tmp_path):
        db = Database(directory=str(tmp_path))
        c = db.connect()
        make_table(c, "t", "id INTEGER", primary_key=("id",))
        c.execute("BEGIN")
        c.execute("INSERT INTO t (id) VALUES (1)")
        c.execute("ROLLBACK")
        db.close()
        db2 = Database(directory=str(tmp_path))
        assert db2.connect().execute("SELECT COUNT(*) FROM t").scalar() == 0

    def test_torn_tail_is_discarded(self, tmp_path):
        db = Database(directory=str(tmp_path))
        c = db.connect()
        make_table(c, "t", "id INTEGER", primary_key=("id",))
        c.execute("INSERT INTO t (id) VALUES (1)")
        db.close()
        # Simulate a crash mid-append: garbage JSON at the tail.
        wal_path = os.path.join(str(tmp_path), WAL_NAME)
        with open(wal_path, "a", encoding="utf-8") as fh:
            fh.write('{"txn": 99, "op": "insert", "table": "t", "rowi')
        db2 = Database(directory=str(tmp_path))
        assert db2.connect().execute("SELECT COUNT(*) FROM t").scalar() == 1

    def test_a_log_appended_by_several_sessions_replays_whole(self, tmp_path):
        # Every session numbers its commits from 1 again; replay must not
        # fold one session's commit 1 into another's.
        for value in (1, 2, 3):
            db = Database(directory=str(tmp_path))
            c = db.connect()
            make_table(c, "t", "id INTEGER", primary_key=("id",), if_not_exists=True)
            c.execute("INSERT INTO t (id) VALUES (?)", (value,))
            db.close()
        db = Database(directory=str(tmp_path))
        rows = db.connect().execute("SELECT id FROM t ORDER BY id").fetchall()
        db.close()
        assert rows == [(1,), (2,), (3,)]

    def test_a_commit_cut_before_its_marker_is_dropped(self, tmp_path):
        db = Database(directory=str(tmp_path))
        c = db.connect()
        make_table(c, "t", "id INTEGER", primary_key=("id",))
        db.close()
        # A crash left whole record lines but no commit marker; the next
        # session's commit reuses the txn id.
        wal_path = os.path.join(str(tmp_path), WAL_NAME)
        torn = {"txn": 1, "op": "insert", "table": "t", "rowid": 7, "row": [7]}
        with open(wal_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(torn) + "\n")
        db = Database(directory=str(tmp_path))
        db.connect().execute("INSERT INTO t (id) VALUES (1)")
        db.close()
        db = Database(directory=str(tmp_path))
        rows = db.connect().execute("SELECT id FROM t").fetchall()
        db.close()
        assert rows == [(1,)]

    def test_checkpoint_truncates_wal(self, tmp_path):
        db = Database(directory=str(tmp_path))
        c = db.connect()
        make_table(c, "t", "id INTEGER", primary_key=("id",))
        c.execute("INSERT INTO t (id) VALUES (1)")
        db.checkpoint()
        wal_path = os.path.join(str(tmp_path), WAL_NAME)
        assert os.path.getsize(wal_path) == 0
        db.close()

    def test_autoincrement_continues_after_recovery(self, tmp_path):
        db = Database(directory=str(tmp_path))
        c = db.connect()
        make_table(
            c, "t", "id INTEGER, v STRING", primary_key=("id",), autoincrement="id"
        )
        c.execute("INSERT INTO t (v) VALUES ('a')")
        c.execute("INSERT INTO t (v) VALUES ('b')")
        db.close()
        db2 = Database(directory=str(tmp_path))
        result = db2.connect().execute("INSERT INTO t (v) VALUES ('c')")
        assert result.lastrowid == 3

    def test_ddl_recovered(self, tmp_path):
        db = Database(directory=str(tmp_path))
        c = db.connect()
        make_table(c, "a", "x INTEGER")
        make_table(c, "b", "x INTEGER")
        # SQL has no DROP; a log written with one still replays it.
        db.wal_commit([{"op": "drop_table", "table": "b"}])
        db.close()
        db2 = Database(directory=str(tmp_path))
        assert db2.catalog.has_table("a")
        assert not db2.catalog.has_table("b")
