"""Tests for EXPLAIN plan descriptions."""

import pytest

from repro.db import Database
from repro.db.errors import SQLSyntaxError
from tests.tables import make_index, make_table


@pytest.fixture
def conn():
    db = Database()
    c = db.connect()
    make_table(c, "t", "id INTEGER, a STRING, b INTEGER", primary_key=("id",))
    make_index(c, "t_a", "t", ("a",))
    make_table(c, "u", "tid INTEGER, v STRING")
    make_index(c, "u_tid", "u", ("tid",))
    return c


def lines(conn, sql, params=()):
    return [row[0] for row in conn.execute(sql, params)]


class TestExplain:
    def test_index_lookup_shown(self, conn):
        plan = lines(conn, "EXPLAIN SELECT b FROM t WHERE a = 'x'")
        assert plan[0].startswith("INDEX LOOKUP t")
        assert "t_a" in plan[0]

    def test_seq_scan_shown(self, conn):
        plan = lines(conn, "EXPLAIN SELECT a FROM t WHERE b = 1")
        assert plan[0].startswith("SEQ SCAN t")
        assert "FILTER" in plan[0]

    def test_range_scan_shown(self, conn):
        # A range is a filter: only ``=`` on leading columns drives an index.
        plan = lines(conn, "EXPLAIN SELECT a FROM t WHERE id BETWEEN 2 AND 9")
        assert plan[0] == "SEQ SCAN t AS t FILTER (t.id BETWEEN 2 AND 9)"

    def test_join_strategy_shown(self, conn):
        plan = lines(
            conn, "EXPLAIN SELECT u.v FROM t JOIN u ON u.tid = t.id"
        )
        assert any("INDEX NESTED LOOP JOIN" in line for line in plan)

    def test_left_join_label(self, conn):
        with pytest.raises(SQLSyntaxError, match="LEFT"):
            lines(conn, "EXPLAIN SELECT t.a FROM t LEFT JOIN u ON u.tid = t.id")
        plan = lines(
            conn, "EXPLAIN SELECT t.a FROM t JOIN u ON u.tid = t.id WHERE u.v IS NULL"
        )
        assert plan[1] == (
            "INDEX NESTED LOOP JOIN -> INDEX LOOKUP u AS u USING u_tid ON () "
            "KEYS (t.id) ON (u.v IS NULL)"
        )

    def test_aggregate_and_sort_shown(self, conn):
        assert lines(conn, "EXPLAIN SELECT COUNT(*) FROM t")[1:] == [
            "AGGREGATE BY <all rows>",
            "PROJECT count(*)",
        ]
        assert lines(conn, "EXPLAIN SELECT a FROM t ORDER BY a DESC")[1] == "SORT BY t.a DESC"

    def test_parameters_bound(self, conn):
        plan = lines(conn, "EXPLAIN SELECT b FROM t WHERE a = ?", ("val",))
        assert "'val'" in plan[0] or "val" in plan[0]

    def test_projection_listed(self, conn):
        plan = lines(conn, "EXPLAIN SELECT a, b FROM t")
        assert plan[-1] == "PROJECT a, b"

    def test_explain_non_select_rejected(self, conn):
        with pytest.raises(SQLSyntaxError):
            conn.execute("EXPLAIN DELETE FROM t")

    def test_explain_does_not_mutate(self, conn):
        conn.execute("INSERT INTO t (id, a, b) VALUES (1, 'x', 1)")
        conn.execute("EXPLAIN SELECT * FROM t")
        assert conn.execute("SELECT COUNT(*) FROM t").scalar() == 1
