"""Tests for the SQL parser."""

import pytest

from repro.db.errors import SQLSyntaxError
from repro.db.expr import (
    And,
    Between,
    ColumnRef,
    Comparison,
    InList,
    IsNull,
    Like,
    Literal,
    Not,
    Or,
    Parameter,
)
from repro.db.sql.ast import (
    BeginTransaction,
    CommitTransaction,
    Delete,
    Insert,
    RollbackTransaction,
    Select,
    Update,
)
from repro.db.sql.parser import parse_statement
from repro.db.types import ColumnType


def refused(sql, match=None):
    """*sql* is outside the dialect: the parser raises, naming where."""
    with pytest.raises(SQLSyntaxError, match=match):
        parse_statement(sql)


class TestCreateTable:
    """Tables are made by ``Database.create_table``; every SQL form of
    CREATE TABLE is refused before anything is parsed from it."""

    def test_basic(self):
        refused(
            "CREATE TABLE t (id INTEGER PRIMARY KEY AUTOINCREMENT, "
            "name STRING NOT NULL, score FLOAT DEFAULT 1.5)",
            "no DDL in SQL",
        )

    def test_table_level_constraints(self):
        refused(
            "CREATE TABLE t (a INTEGER, b INTEGER, c INTEGER, "
            "PRIMARY KEY (a, b), UNIQUE (c), "
            "FOREIGN KEY (c) REFERENCES other (x))",
            "no DDL in SQL",
        )

    def test_column_level_references(self):
        refused("CREATE TABLE t (a INTEGER REFERENCES p (id))", "no DDL in SQL")

    def test_if_not_exists(self):
        refused("CREATE TABLE IF NOT EXISTS t (a INTEGER)", "no DDL in SQL")

    def test_type_aliases(self):
        # The type names DDL accepted are still the names ColumnType reads.
        assert [ColumnType.from_name(n) for n in ("INT", "TEXT", "DOUBLE", "TIMESTAMP")] == [
            ColumnType.INTEGER,
            ColumnType.STRING,
            ColumnType.FLOAT,
            ColumnType.DATETIME,
        ]

    def test_duplicate_pk_rejected(self):
        refused("CREATE TABLE t (a INTEGER PRIMARY KEY, b INTEGER PRIMARY KEY)")


class TestCreateDropIndex:
    def test_create_index(self):
        refused("CREATE INDEX i ON t (a, b)", "no DDL in SQL")

    def test_create_unique_index(self):
        refused("CREATE UNIQUE INDEX i ON t (a)", "no DDL in SQL")

    def test_drop_table(self):
        refused("DROP TABLE IF EXISTS t", "no DDL in SQL")

    def test_drop_index(self):
        refused("DROP INDEX i ON t", "no DDL in SQL")


class TestInsert:
    def test_single_row(self):
        stmt = parse_statement("INSERT INTO t (a, b) VALUES (1, 'x')")
        assert isinstance(stmt, Insert)
        assert stmt.columns == ("a", "b")
        assert stmt.rows[0][0] == Literal(1)

    def test_multi_row(self):
        stmt = parse_statement("INSERT INTO t (a) VALUES (1), (2), (3)")
        assert len(stmt.rows) == 3

    def test_parameters_numbered_in_order(self):
        stmt = parse_statement("INSERT INTO t (a, b) VALUES (?, ?)")
        assert stmt.rows[0] == (Parameter(0), Parameter(1))

    def test_arity_mismatch(self):
        with pytest.raises(SQLSyntaxError):
            parse_statement("INSERT INTO t (a, b) VALUES (1)")


class TestUpdateDelete:
    def test_update(self):
        stmt = parse_statement("UPDATE t SET a = 1, b = ? WHERE id = ?")
        assert isinstance(stmt, Update)
        assert stmt.assignments[0][0] == "a"
        assert isinstance(stmt.where, Comparison)

    def test_delete(self):
        stmt = parse_statement("DELETE FROM t WHERE a < 5")
        assert isinstance(stmt, Delete)

    def test_delete_no_where(self):
        assert parse_statement("DELETE FROM t").where is None


class TestSelect:
    def test_star(self):
        stmt = parse_statement("SELECT * FROM t")
        assert stmt.items[0].star

    def test_qualified_star(self):
        stmt = parse_statement("SELECT t.* FROM t")
        assert stmt.items[0].star_table == "t"

    def test_aliases(self):
        stmt = parse_statement("SELECT a AS x, b y FROM t AS u")
        assert stmt.items[0].alias == "x"
        assert stmt.items[1].alias == "y"
        assert stmt.table.alias == "u"

    def test_joins(self):
        stmt = parse_statement(
            "SELECT a FROM t JOIN u ON t.id = u.tid INNER JOIN v ON v.x = u.id"
        )
        assert [j.table.name for j in stmt.joins] == ["u", "v"]
        refused("SELECT a FROM t LEFT JOIN v ON v.x = t.id", "LEFT")

    def test_comma_join_is_cross(self):
        refused("SELECT a FROM t, u WHERE t.id = u.tid", "','")

    def test_join_requires_on(self):
        with pytest.raises(SQLSyntaxError):
            parse_statement("SELECT a FROM t JOIN u")

    def test_group_having_order_limit(self):
        stmt = parse_statement("SELECT a FROM t ORDER BY a DESC, b")
        assert [o.descending for o in stmt.order_by] == [True, False]
        refused("SELECT a, COUNT(*) c FROM t GROUP BY a HAVING c > 1", "GROUP")
        refused("SELECT a FROM t ORDER BY a DESC LIMIT 10 OFFSET 5", "LIMIT")

    def test_distinct(self):
        refused("SELECT DISTINCT a FROM t", "DISTINCT")

    def test_aggregates(self):
        stmt = parse_statement("SELECT COUNT(*), COUNT(*) AS n FROM t")
        assert [(i.count_star, i.alias) for i in stmt.items] == [(True, None), (True, "n")]
        for other in ("MIN(a)", "MAX(a)", "SUM(a)", "AVG(a)", "COUNT(a)"):
            refused(f"SELECT {other} FROM t", "only COUNT")


class TestExpressions:
    def where(self, text):
        return parse_statement(f"SELECT a FROM t WHERE {text}").where

    def test_precedence_and_over_or(self):
        expr = self.where("a = 1 OR b = 2 AND c = 3")
        assert isinstance(expr, Or)
        assert isinstance(expr.parts[1], And)

    def test_not(self):
        assert isinstance(self.where("NOT a = 1"), Not)

    def test_in_list(self):
        expr = self.where("a IN (1, 2, 3)")
        assert isinstance(expr, InList) and len(expr.options) == 3

    def test_not_in(self):
        assert self.where("a NOT IN (1)").negated

    def test_between(self):
        expr = self.where("a BETWEEN 1 AND 10")
        assert isinstance(expr, Between)

    def test_like(self):
        expr = self.where("a LIKE 'x%'")
        assert isinstance(expr, Like)

    def test_is_null(self):
        assert isinstance(self.where("a IS NULL"), IsNull)
        assert self.where("a IS NOT NULL").negated

    def test_qualified_column(self):
        expr = self.where("t.a = 1")
        assert expr.left == ColumnRef("a", table="t")

    def test_arithmetic_precedence(self):
        # No arithmetic: an operator after a value ends the statement early.
        refused("SELECT a FROM t WHERE a = 1 + 2 * 3", "'\\+'")

    def test_unary_minus_literal_folded(self):
        expr = self.where("a = -5")
        assert expr.right == Literal(-5)

    def test_function_call(self):
        refused("SELECT a FROM t WHERE LOWER(a) = 'x'", "no function LOWER")

    def test_boolean_literals(self):
        expr = self.where("a = TRUE")
        assert expr.right == Literal(True)


class TestTransactions:
    def test_begin_commit_rollback(self):
        assert isinstance(parse_statement("BEGIN"), BeginTransaction)
        assert isinstance(parse_statement("COMMIT"), CommitTransaction)
        assert isinstance(parse_statement("ROLLBACK TRANSACTION"), RollbackTransaction)


class TestErrors:
    def test_trailing_garbage(self):
        with pytest.raises(SQLSyntaxError):
            parse_statement("SELECT a FROM t extra junk ( ")

    def test_empty(self):
        with pytest.raises(SQLSyntaxError):
            parse_statement("")

    def test_unsupported(self):
        with pytest.raises(SQLSyntaxError):
            parse_statement("TRUE")

    def test_trailing_semicolon_ok(self):
        assert isinstance(parse_statement("SELECT a FROM t;"), Select)
