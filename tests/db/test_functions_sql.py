"""The dialect's one function is ``COUNT(*)``.

Every other scalar or aggregate function is refused at parse time with
an error naming it, so a statement never silently computes something
else; the catalog computes anything more in Python.
"""

import pytest

from repro.db import Database
from repro.db.errors import SQLSyntaxError
from tests.tables import make_table


@pytest.fixture
def conn():
    db = Database()
    c = db.connect()
    make_table(c, "t", "id INTEGER, s STRING, n FLOAT", primary_key=("id",))
    rows = [(1, "Alpha", 1.5), (2, "beta", -2.0), (3, None, None), (4, "Gamma", 4.0)]
    for r in rows:
        c.execute("INSERT INTO t (id, s, n) VALUES (?, ?, ?)", r)
    return c


def refused(conn, sql, name):
    with pytest.raises(SQLSyntaxError, match=f"no function {name}\\(\\)"):
        conn.execute(sql)


class TestScalarFunctions:
    def test_lower_upper(self, conn):
        refused(conn, "SELECT LOWER(s) FROM t WHERE id = 1", "LOWER")
        refused(conn, "SELECT UPPER(s) FROM t WHERE id = 2", "UPPER")

    def test_null_propagation(self, conn):
        refused(conn, "SELECT ABS(n) FROM t WHERE id = 3", "ABS")

    def test_length(self, conn):
        refused(conn, "SELECT LENGTH(s) FROM t WHERE id = 1", "LENGTH")

    def test_abs(self, conn):
        refused(conn, "SELECT id FROM t WHERE ABS(n) = 2.0", "ABS")

    def test_coalesce(self, conn):
        refused(conn, "SELECT COALESCE(s, 'fallback') FROM t WHERE id = 3", "COALESCE")

    def test_substr_one_based(self, conn):
        refused(conn, "SELECT SUBSTR(s, 2, 3) FROM t WHERE id = 1", "SUBSTR")

    def test_trim_concat(self, conn):
        refused(conn, "SELECT TRIM('  x  ') FROM t WHERE id = 1", "TRIM")
        refused(conn, "SELECT CONCAT(s, '-', id) FROM t WHERE id = 1", "CONCAT")

    def test_ifnull(self, conn):
        refused(conn, "SELECT IFNULL(n, 0.0) FROM t WHERE id = 3", "IFNULL")

    def test_least_greatest(self, conn):
        refused(conn, "SELECT LEAST(3, 1, 2) FROM t WHERE id = 1", "LEAST")
        refused(conn, "SELECT GREATEST(3, 1, 2) FROM t WHERE id = 1", "GREATEST")

    def test_function_in_where(self, conn):
        refused(conn, "SELECT id FROM t WHERE LOWER(s) = 'alpha'", "LOWER")

    def test_unknown_function(self, conn):
        refused(conn, "SELECT FROBNICATE(s) FROM t", "FROBNICATE")


class TestAggregates:
    def test_count_star_vs_column(self, conn):
        assert conn.execute("SELECT COUNT(*) FROM t").scalar() == 4
        refused(conn, "SELECT COUNT(s) FROM t", "COUNT")

    def test_sum_avg_skip_nulls(self, conn):
        refused(conn, "SELECT SUM(n) FROM t", "SUM")
        refused(conn, "SELECT AVG(n) FROM t", "AVG")

    def test_min_max(self, conn):
        refused(conn, "SELECT MIN(n), MAX(n) FROM t", "MIN")

    def test_empty_aggregates(self, conn):
        row = conn.execute("SELECT COUNT(*), COUNT(*) AS again FROM t WHERE id > 99")
        assert row.columns == ("count(*)", "again")
        assert row.fetchall() == [(0, 0)]

    def test_aggregate_over_expression(self, conn):
        refused(conn, "SELECT SUM(id) FROM t", "SUM")


class TestAggregateClasses:
    def test_count_star_counts_nulls(self, conn):
        # Row 3 is NULL in every column but its key: it still counts.
        assert conn.execute("SELECT COUNT(*) FROM t WHERE s IS NULL").scalar() == 1

    def test_make_aggregate_unknown(self, conn):
        refused(conn, "SELECT MEDIAN(n) FROM t", "MEDIAN")
