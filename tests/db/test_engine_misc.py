"""Engine edge cases: statement boundaries, context managers, cache, misc paths."""

import pytest

from repro.db import Database
from repro.db.errors import (
    IntegrityError,
    LockTimeoutError,
    ProgrammingError,
    SQLSyntaxError,
)
from tests.tables import make_table


class TestSplitStatements:
    """One statement per ``execute``: a ``;`` ends it, and only outside a
    string or a comment."""

    @pytest.fixture
    def conn(self):
        db = Database()
        make_table(db, "t", "v STRING")
        return db.connect()

    def test_basic_split(self, conn):
        with pytest.raises(SQLSyntaxError, match="trailing"):
            conn.execute("SELECT v FROM t; SELECT v FROM t;")

    def test_semicolon_in_string_not_split(self, conn):
        conn.execute("INSERT INTO t (v) VALUES ('a;b');")
        assert conn.execute("SELECT v FROM t").scalar() == "a;b"

    def test_trailing_whitespace_and_empty(self, conn):
        assert conn.execute("SELECT v FROM t ;  \n").fetchall() == []
        for text in ("", "  ;; ; "):
            with pytest.raises(SQLSyntaxError):
                conn.execute(text)

    def test_comments_preserved_position(self, conn):
        sql = "SELECT v FROM t -- note; not a split\n WHERE v = 'x'"
        assert conn.execute(sql).fetchall() == []


class TestConnectionLifecycle:
    def test_exit_with_exception_rolls_back(self):
        db = Database()
        make_table(db.connect(), "t", "a INTEGER")
        with pytest.raises(RuntimeError):
            with db.connect() as conn:
                conn.execute("BEGIN")
                conn.execute("INSERT INTO t (a) VALUES (1)")
                raise RuntimeError("boom")
        assert db.connect().execute("SELECT COUNT(*) FROM t").scalar() == 0

    def test_close_rolls_back_open_txn(self):
        db = Database()
        make_table(db.connect(), "t", "a INTEGER")
        conn = db.connect()
        conn.execute("BEGIN")
        conn.execute("INSERT INTO t (a) VALUES (1)")
        conn.close()
        assert db.connect().execute("SELECT COUNT(*) FROM t").scalar() == 0

    def test_in_transaction_property(self):
        db = Database()
        conn = db.connect()
        assert not conn.in_transaction
        conn.execute("BEGIN")
        assert conn.in_transaction
        conn.execute("COMMIT")
        assert not conn.in_transaction

    def test_checkpoint_noop_without_directory(self):
        Database().checkpoint()  # must not raise


class TestStatementCache:
    def test_cache_shared_across_connections(self):
        db = Database()
        make_table(db.connect(), "t", "a INTEGER")
        sql = "SELECT a FROM t WHERE a = ?"
        db.connect().execute(sql, (1,))
        cached = db.parse(sql)
        assert db.parse(sql) is cached

    def test_cache_bounded(self):
        db = Database()
        make_table(db.connect(), "t", "a INTEGER")
        for i in range(4100):
            db.parse(f"SELECT a FROM t WHERE a = {i}")
        assert len(db._stmt_cache) <= 4101


class TestLockTimeouts:
    def test_writer_blocks_writer_with_timeout_error(self):
        db = Database(lock_timeout=0.05)
        conn1 = db.connect()
        make_table(conn1, "t", "a INTEGER")
        conn1.execute("BEGIN")
        conn1.execute("INSERT INTO t (a) VALUES (1)")
        conn2 = db.connect()
        with pytest.raises(LockTimeoutError):
            conn2.execute("INSERT INTO t (a) VALUES (2)")
        conn1.execute("ROLLBACK")
        conn2.execute("INSERT INTO t (a) VALUES (2)")  # now succeeds

    def test_reader_not_blocked_by_reader(self):
        db = Database(lock_timeout=0.2)
        conn1 = db.connect()
        make_table(conn1, "t", "a INTEGER")
        conn1.execute("BEGIN")
        conn1.execute("SELECT COUNT(*) FROM t")  # read lock held by txn
        conn2 = db.connect()
        assert conn2.execute("SELECT COUNT(*) FROM t").scalar() == 0
        conn1.execute("COMMIT")


class TestMultiRowAndDefaults:
    def test_insert_with_expression_values(self):
        db = Database()
        conn = db.connect()
        make_table(conn, "t", "a INTEGER")
        # A value is a literal (a negative one too), a ``?`` or either in
        # parentheses; there is no arithmetic.
        conn.execute("INSERT INTO t (a) VALUES (-7), ((7)), (?)", (8,))
        assert conn.execute("SELECT a FROM t ORDER BY a").fetchall() == [(-7,), (7,), (8,)]
        with pytest.raises(SQLSyntaxError):
            conn.execute("INSERT INTO t (a) VALUES (1 + 2 * 3)")

    def test_update_without_where_touches_all(self):
        db = Database()
        conn = db.connect()
        make_table(conn, "t", "a INTEGER")
        conn.execute("INSERT INTO t (a) VALUES (1), (2), (3)")
        assert conn.execute("UPDATE t SET a = 0").rowcount == 3

    def test_delete_without_where_clears(self):
        db = Database()
        conn = db.connect()
        make_table(conn, "t", "a INTEGER")
        conn.execute("INSERT INTO t (a) VALUES (1), (2)")
        assert conn.execute("DELETE FROM t").rowcount == 2
        assert conn.execute("SELECT COUNT(*) FROM t").scalar() == 0

    def test_default_in_ddl(self):
        db = Database()
        conn = db.connect()
        make_table(conn, "t", "a INTEGER, b STRING", defaults={"b": "dflt"})
        conn.execute("INSERT INTO t (a) VALUES (1)")
        assert conn.execute("SELECT b FROM t").scalar() == "dflt"

    def test_negative_default(self):
        db = Database()
        conn = db.connect()
        make_table(conn, "t", "a INTEGER", defaults={"a": -5})
        conn.execute("INSERT INTO t (a) VALUES (NULL)")
        # NULL explicitly provided stays NULL; default only fills missing
        assert conn.execute("SELECT a FROM t").scalar() is None
        conn.execute("INSERT INTO t (a) VALUES (-5)")


class TestErrorMessages:
    def test_syntax_error_carries_position(self):
        db = Database()
        with pytest.raises(SQLSyntaxError) as excinfo:
            db.connect().execute("SELECT FROM WHERE")
        assert "offset" in str(excinfo.value)

    def test_too_few_parameters(self):
        db = Database()
        conn = db.connect()
        make_table(conn, "t", "a INTEGER")
        with pytest.raises(ProgrammingError):
            conn.execute("INSERT INTO t (a) VALUES (?)")

    def test_unique_violation_names_constraint(self):
        db = Database()
        conn = db.connect()
        make_table(conn, "t", "a INTEGER", unique=[("a",)])
        conn.execute("INSERT INTO t (a) VALUES (1)")
        with pytest.raises(IntegrityError) as excinfo:
            conn.execute("INSERT INTO t (a) VALUES (1)")
        assert "unique" in str(excinfo.value).lower()
