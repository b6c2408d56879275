"""End-to-end SQL tests through Database/Connection."""

import datetime as dt

import pytest

from repro.db import Database, IndexDef
from repro.db.errors import (
    IntegrityError,
    ProgrammingError,
    SchemaError,
    SQLSyntaxError,
    TransactionError,
)
from tests.tables import make_table


@pytest.fixture
def conn():
    db = Database()
    c = db.connect()
    make_table(
        db, "emp", "id INTEGER, name STRING, dept STRING, salary FLOAT, hired DATE",
        primary_key=("id",), autoincrement="id", not_null=("name",),
        indexes={"emp_dept": ("dept",)},
    )
    rows = [
        ("ann", "eng", 100.0, "2001-01-01"),
        ("bob", "eng", 90.0, "2002-02-02"),
        ("cat", "ops", 80.0, "2003-03-03"),
        ("dan", "ops", 70.0, "2003-04-04"),
        ("eve", "hr", 60.0, "2003-05-05"),
    ]
    for r in rows:
        c.execute(
            "INSERT INTO emp (name, dept, salary, hired) VALUES (?, ?, ?, ?)", r
        )
    return c


class TestSelect:
    def test_where_eq_via_index(self, conn):
        rows = conn.execute("SELECT name FROM emp WHERE dept = 'eng' ORDER BY name").fetchall()
        assert rows == [("ann",), ("bob",)]

    def test_where_range(self, conn):
        rows = conn.execute("SELECT name FROM emp WHERE salary >= 80 ORDER BY salary").fetchall()
        assert rows == [("cat",), ("bob",), ("ann",)]

    def test_pk_lookup(self, conn):
        assert conn.execute("SELECT name FROM emp WHERE id = 3").scalar() == "cat"

    def test_star(self, conn):
        result = conn.execute("SELECT * FROM emp WHERE id = 1")
        assert result.columns == ("id", "name", "dept", "salary", "hired")
        assert result.fetchone()[1] == "ann"

    def test_date_comparison(self, conn):
        rows = conn.execute(
            "SELECT name FROM emp WHERE hired > ? ORDER BY name", (dt.date(2003, 1, 1),)
        ).fetchall()
        assert rows == [("cat",), ("dan",), ("eve",)]

    def test_order_desc_limit_offset(self, conn):
        rows = conn.execute("SELECT name FROM emp ORDER BY salary DESC").fetchall()
        assert rows == [("ann",), ("bob",), ("cat",), ("dan",), ("eve",)]
        with pytest.raises(SQLSyntaxError, match="LIMIT"):
            conn.execute("SELECT name FROM emp ORDER BY salary DESC LIMIT 2 OFFSET 1")

    def test_group_by(self, conn):
        with pytest.raises(SQLSyntaxError, match="GROUP"):
            conn.execute("SELECT dept, COUNT(*) n FROM emp GROUP BY dept ORDER BY dept")

    def test_having(self, conn):
        with pytest.raises(SQLSyntaxError, match="GROUP"):
            conn.execute("SELECT dept, COUNT(*) n FROM emp GROUP BY dept HAVING n > 1")

    def test_count_empty(self, conn):
        assert conn.execute("SELECT COUNT(*) FROM emp WHERE dept = 'nope'").scalar() == 0

    def test_distinct(self, conn):
        with pytest.raises(SQLSyntaxError, match="DISTINCT"):
            conn.execute("SELECT DISTINCT dept FROM emp ORDER BY dept")

    def test_in_list_uses_index(self, conn):
        rows = conn.execute(
            "SELECT name FROM emp WHERE dept IN ('hr', 'ops') ORDER BY name"
        ).fetchall()
        assert rows == [("cat",), ("dan",), ("eve",)]

    def test_is_null(self, conn):
        conn.execute("INSERT INTO emp (name) VALUES ('zed')")
        rows = conn.execute("SELECT name FROM emp WHERE dept IS NULL").fetchall()
        assert rows == [("zed",)]

    def test_like(self, conn):
        rows = conn.execute("SELECT name FROM emp WHERE name LIKE '%a%' ORDER BY name").fetchall()
        assert rows == [("ann",), ("cat",), ("dan",)]

    def test_unknown_column(self, conn):
        with pytest.raises(ProgrammingError):
            conn.execute("SELECT nope FROM emp")

    def test_unknown_table(self, conn):
        with pytest.raises(SchemaError):
            conn.execute("SELECT a FROM missing")


class TestJoin:
    @pytest.fixture
    def jconn(self, conn):
        make_table(conn._db, "dept", "code STRING, label STRING", primary_key=("code",))
        for code, label in [("eng", "Engineering"), ("ops", "Operations")]:
            conn.execute("INSERT INTO dept (code, label) VALUES (?, ?)", (code, label))
        return conn

    def test_inner_join(self, jconn):
        rows = jconn.execute(
            "SELECT e.name, d.label FROM emp e JOIN dept d ON e.dept = d.code "
            "WHERE d.code = 'eng' ORDER BY e.name"
        ).fetchall()
        assert rows == [("ann", "Engineering"), ("bob", "Engineering")]

    def test_left_join_pads_nulls(self, jconn):
        with pytest.raises(SQLSyntaxError, match="LEFT"):
            jconn.execute(
                "SELECT e.name, d.label FROM emp e LEFT JOIN dept d ON e.dept = d.code"
            )

    def test_cross_join_with_where(self, jconn):
        # Only ``JOIN ... ON``: a comma join is refused, and the same
        # question asked as an inner join drives the dept primary key.
        with pytest.raises(SQLSyntaxError):
            jconn.execute("SELECT e.name FROM emp e, dept d WHERE e.dept = d.code")
        rows = jconn.execute(
            "SELECT e.name FROM emp e JOIN dept d ON e.dept = d.code "
            "WHERE d.code = 'ops' ORDER BY e.name"
        ).fetchall()
        assert rows == [("cat",), ("dan",)]

    def test_ambiguous_column(self, jconn):
        make_table(jconn._db, "emp2", "id INTEGER, name STRING", primary_key=("id",))
        with pytest.raises(ProgrammingError):
            jconn.execute("SELECT name FROM emp JOIN emp2 ON emp2.id = emp.id")

    def test_three_way_join(self, jconn):
        make_table(jconn._db, "loc", "dcode STRING, city STRING",
                   indexes={"loc_dcode": ("dcode",)})
        jconn.execute("INSERT INTO loc (dcode, city) VALUES ('eng', 'LA')")
        rows = jconn.execute(
            "SELECT e.name, l.city FROM emp e "
            "JOIN dept d ON e.dept = d.code "
            "JOIN loc l ON l.dcode = d.code ORDER BY e.name"
        ).fetchall()
        assert rows == [("ann", "LA"), ("bob", "LA")]


class TestDML:
    def test_update_rowcount(self, conn):
        result = conn.execute("UPDATE emp SET salary = 160.0 WHERE dept = 'ops'")
        assert result.rowcount == 2
        assert conn.execute("SELECT salary FROM emp WHERE name = 'cat'").scalar() == 160.0

    def test_delete_rowcount(self, conn):
        assert conn.execute("DELETE FROM emp WHERE dept = 'hr'").rowcount == 1
        assert conn.execute("SELECT COUNT(*) FROM emp").scalar() == 4

    def test_insert_lastrowid(self, conn):
        result = conn.execute("INSERT INTO emp (name) VALUES ('fred')")
        assert result.lastrowid == 6

    def test_unique_pk_violation(self, conn):
        with pytest.raises(IntegrityError):
            conn.execute("INSERT INTO emp (id, name) VALUES (1, 'dup')")

    def test_multi_row_insert_atomic(self, conn):
        # Second row violates PK; the first must be rolled back too.
        with pytest.raises(IntegrityError):
            conn.execute(
                "INSERT INTO emp (id, name) VALUES (100, 'ok'), (1, 'dup')"
            )
        assert conn.execute("SELECT COUNT(*) FROM emp WHERE id = 100").scalar() == 0

    def test_update_atomic_on_unique_violation(self, conn):
        make_table(conn._db, "u", "k INTEGER, v INTEGER", unique=[("k",)])
        conn.execute("INSERT INTO u (k, v) VALUES (1, 1), (2, 2), (10, 3)")
        with pytest.raises(IntegrityError):
            conn.execute("UPDATE u SET k = 3 WHERE k < 5")  # the second row collides
        assert sorted(conn.execute("SELECT k FROM u").fetchall()) == [(1,), (2,), (10,)]


class TestTransactions:
    def test_commit_persists(self, conn):
        conn.execute("BEGIN")
        conn.execute("INSERT INTO emp (name) VALUES ('tmp')")
        conn.execute("COMMIT")
        assert conn.execute("SELECT COUNT(*) FROM emp").scalar() == 6

    def test_rollback_reverts_all(self, conn):
        conn.execute("BEGIN")
        conn.execute("INSERT INTO emp (name) VALUES ('tmp')")
        conn.execute("UPDATE emp SET salary = 0 WHERE name = 'ann'")
        conn.execute("DELETE FROM emp WHERE name = 'bob'")
        conn.execute("ROLLBACK")
        assert conn.execute("SELECT COUNT(*) FROM emp").scalar() == 5
        assert conn.execute("SELECT salary FROM emp WHERE name = 'ann'").scalar() == 100.0
        assert conn.execute("SELECT COUNT(*) FROM emp WHERE name = 'bob'").scalar() == 1

    def test_nested_begin_rejected(self, conn):
        conn.execute("BEGIN")
        with pytest.raises(TransactionError):
            conn.execute("BEGIN")
        conn.execute("ROLLBACK")

    def test_commit_without_begin(self, conn):
        with pytest.raises(TransactionError):
            conn.execute("COMMIT")

    def test_ddl_rejected_in_txn(self, conn):
        conn.execute("BEGIN")
        with pytest.raises(SQLSyntaxError, match="no DDL in SQL"):
            conn.execute("CREATE TABLE t2 (a INTEGER)")
        conn.execute("ROLLBACK")

    def test_failed_statement_inside_txn_keeps_earlier_work(self, conn):
        conn.execute("BEGIN")
        conn.execute("INSERT INTO emp (name) VALUES ('keep')")
        with pytest.raises(IntegrityError):
            conn.execute("INSERT INTO emp (id, name) VALUES (1, 'dup')")
        conn.execute("COMMIT")
        assert conn.execute("SELECT COUNT(*) FROM emp WHERE name = 'keep'").scalar() == 1

    def test_context_manager_commits(self):
        db = Database()
        make_table(db, "t", "a INTEGER")
        with db.connect() as c:
            c.execute("BEGIN")
            c.execute("INSERT INTO t (a) VALUES (1)")
        assert db.connect().execute("SELECT COUNT(*) FROM t").scalar() == 1

    def test_closed_connection_rejects(self, conn):
        conn.close()
        with pytest.raises(ProgrammingError):
            conn.execute("SELECT 1 FROM emp")


class TestDDL:
    """Tables and indexes are made by ``Database.create_table`` /
    ``create_index``; SQL DDL is refused and changes nothing."""

    def test_if_not_exists(self, conn):
        db = conn._db
        db.create_table(db.catalog.table("emp").definition, if_not_exists=True)
        db.create_index(
            IndexDef("emp_dept", "emp", ("dept",)), if_not_exists=True
        )
        assert conn.execute("SELECT COUNT(*) FROM emp").scalar() == 5

    def test_drop_table(self, conn):
        with pytest.raises(SQLSyntaxError, match="no DDL in SQL"):
            conn.execute("DROP TABLE emp")
        assert conn.execute("SELECT COUNT(*) FROM emp").scalar() == 5

    def test_drop_index_by_name_only(self, conn):
        with pytest.raises(SQLSyntaxError, match="no DDL in SQL"):
            conn.execute("DROP INDEX emp_dept")
        plan = conn.execute("EXPLAIN SELECT name FROM emp WHERE dept = 'eng'").scalar()
        assert "USING emp_dept" in plan

    def test_drop_missing_index(self, conn):
        with pytest.raises(SQLSyntaxError, match="no DDL in SQL"):
            conn.execute("DROP INDEX IF EXISTS nope")


class TestScript:
    def test_executescript(self):
        # One statement per ``execute``: there is no script runner.
        assert not hasattr(Database().connect(), "executescript")

    def test_semicolon_inside_string(self):
        db = Database()
        make_table(db, "a", "x STRING")
        c = db.connect()
        c.execute("INSERT INTO a (x) VALUES ('a;b');")
        assert c.execute("SELECT x FROM a").scalar() == "a;b"


class TestResultSet:
    def test_iteration_and_fetch(self, conn):
        result = conn.execute("SELECT name FROM emp ORDER BY name")
        assert result.fetchone() == ("ann",)
        rest = list(result)
        assert rest[0] == ("bob",) and len(rest) == 4
        assert result.fetchone() is None

    def test_as_dicts(self, conn):
        dicts = conn.execute("SELECT name, dept FROM emp WHERE id = 1").as_dicts()
        assert dicts == [{"name": "ann", "dept": "eng"}]

    def test_len(self, conn):
        assert len(conn.execute("SELECT name FROM emp")) == 5
