"""Edge-case coverage: recovery errors, B+tree boundaries, misc branches."""

import json

import pytest

from repro.db import Database
from repro.db.btree import BPlusTree
from repro.db.errors import RecoveryError
from repro.db.wal import SNAPSHOT_NAME, load_snapshot
from repro.db.storage import Catalog
from tests.tables import make_index, make_table


class TestRecoveryErrors:
    def test_corrupt_snapshot_raises_recovery_error(self, tmp_path):
        (tmp_path / SNAPSHOT_NAME).write_text("{not json")
        with pytest.raises(RecoveryError):
            load_snapshot(Catalog(), str(tmp_path))

    def test_unknown_wal_value_tag(self):
        from repro.db.wal import decode_value

        with pytest.raises(RecoveryError):
            decode_value({"t": "quaternion", "v": "1"})

    def test_unknown_wal_op(self, tmp_path):
        db = Database(directory=str(tmp_path))
        make_table(db.connect(), "t", "a INTEGER")
        db.close()
        wal = tmp_path / "wal.log"
        with open(wal, "a") as fh:
            fh.write(json.dumps({"txn": 99, "op": "frobnicate", "table": "t"}) + "\n")
            fh.write(json.dumps({"txn": 99, "op": "commit"}) + "\n")
        with pytest.raises(RecoveryError):
            Database(directory=str(tmp_path))


class TestBTreeBoundaries:
    def test_minimum_order_enforced(self):
        with pytest.raises(ValueError):
            BPlusTree(order=3)

    def test_prefix_on_empty_tree(self):
        assert list(BPlusTree().prefix(("x",))) == []

    def test_range_on_single_key(self):
        tree = BPlusTree()
        tree.insert((5,), 1)
        assert list(tree.range((5,), (5,))) == [1]
        assert list(tree.range((5,), (5,), low_inclusive=False)) == []
        assert list(tree.range((5,), (5,), high_inclusive=False)) == []

    def test_key_count_vs_len(self):
        tree = BPlusTree()
        tree.insert(("a",), 1)
        tree.insert(("a",), 2)
        tree.insert(("b",), 3)
        assert len(tree) == 3

    def test_deep_tree_invariants_after_churn(self):
        tree = BPlusTree(order=4)
        for i in range(300):
            tree.insert((i % 40,), i)
        for i in range(0, 300, 3):
            tree.delete((i % 40,), i)
        tree.check_invariants()


class TestDatatypeEdges:
    def test_boolean_column_round_trip(self):
        db = Database()
        conn = db.connect()
        make_table(conn, "t", "flag BOOLEAN")
        conn.execute("INSERT INTO t (flag) VALUES (TRUE), (FALSE), (NULL)")
        rows = conn.execute("SELECT flag FROM t").fetchall()
        assert rows == [(True,), (False,), (None,)]
        assert conn.execute(
            "SELECT COUNT(*) FROM t WHERE flag = TRUE"
        ).scalar() == 1

    def test_time_column(self):
        import datetime as dt

        db = Database()
        conn = db.connect()
        make_table(conn, "t", "at TIME")
        conn.execute("INSERT INTO t (at) VALUES (?)", (dt.time(10, 30),))
        assert conn.execute("SELECT at FROM t").scalar() == dt.time(10, 30)

    def test_very_long_strings(self):
        db = Database()
        conn = db.connect()
        make_table(conn, "t", "v STRING")
        big = "x" * 100_000
        conn.execute("INSERT INTO t (v) VALUES (?)", (big,))
        assert len(conn.execute("SELECT v FROM t").scalar()) == 100_000

    def test_unicode_strings_in_index(self):
        db = Database()
        conn = db.connect()
        make_table(conn, "t", "v STRING")
        make_index(conn, "i", "t", ("v",))
        conn.execute("INSERT INTO t (v) VALUES ('ünïcødé ✓')")
        assert conn.execute(
            "SELECT COUNT(*) FROM t WHERE v = 'ünïcødé ✓'"
        ).scalar() == 1


class TestConsistencyEdges:
    def test_propagate_with_single_copy(self):
        from repro.consistency import ConsistencyManager
        from repro.core import MCSClient, MCSService
        from repro.gridftp import GridFTPServer, StorageSite
        from repro.rls import LocalReplicaCatalog, ReplicaLocationIndex, RLSClient

        mcs = MCSClient.in_process(MCSService(), caller="c")
        site = StorageSite("only")
        gridftp = GridFTPServer({"only": site})
        lrcs = {"lrc-only": LocalReplicaCatalog("lrc-only")}
        rls = RLSClient(ReplicaLocationIndex(), lrcs)
        manager = ConsistencyManager(mcs, rls, gridftp)

        site.store("solo.dat", b"v1")
        mcs.create_logical_file("solo.dat")
        lrcs["lrc-only"].add_mapping("solo.dat", "gsiftp://only/solo.dat")
        rls.refresh_all()
        manager.designate_master("solo.dat", "gsiftp://only/solo.dat")
        # Master is its own sole replica: nothing to propagate or repair.
        assert manager.update_master("solo.dat", b"v2") == 0
        assert manager.repair("solo.dat") == 0
        states = manager.audit("solo.dat")
        assert len(states) == 1 and states[0].state.name == "MASTER"

