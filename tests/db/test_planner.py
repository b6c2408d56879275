"""Unit tests for access-path selection and join planning.

A table is read by ``index_eq`` (``=`` on an index's leading columns),
``seq`` or ``empty``; every other predicate is a filter, so range, IN
and LIKE questions run on ``seq`` and are checked for their answers.
A join is an inner index nested loop or is refused.
"""

import pytest

from repro.db import Database
from repro.db.errors import ProgrammingError, SQLSyntaxError
from repro.db.expr import Like, conjuncts
from repro.db.planner import bind_plan, choose_access_path, plan_select
from repro.db.sql.parser import parse_statement
from tests.tables import make_index, make_table


@pytest.fixture
def db():
    db = Database()
    conn = db.connect()
    make_table(
        db, "t", "id INTEGER, a STRING, b INTEGER, c FLOAT", primary_key=("id",),
        autoincrement="id", indexes={"t_a": ("a",), "t_ab": ("a", "b")},
    )
    make_table(
        db, "u", "id INTEGER, tid INTEGER, label STRING", primary_key=("id",),
        autoincrement="id", indexes={"u_tid": ("tid",)},
    )
    for i in range(20):
        conn.execute(
            "INSERT INTO t (a, b, c) VALUES (?, ?, ?)",
            (f"k{i % 4}", i % 5, float(i)),
        )
        conn.execute("INSERT INTO u (tid, label) VALUES (?, ?)", (i + 1, f"l{i}"))
    return db


def plan_of(db, sql, params=()):
    return bind_plan(plan_select(db.catalog, db.parse(sql)), tuple(params))


class TestAccessPathSelection:
    def test_pk_equality_uses_unique_index(self, db):
        plan = plan_of(db, "SELECT a FROM t WHERE id = 5")
        assert plan.base.kind == "index_eq"
        assert plan.base.index == "__pk_t"
        assert plan.base.residual is None

    def test_secondary_index_equality(self, db):
        plan = plan_of(db, "SELECT b FROM t WHERE a = 'k1'")
        assert plan.base.kind == "index_eq"
        assert plan.base.index in ("t_a", "t_ab")
        assert plan.base.residual is None

    def test_composite_prefix_plus_second_column(self, db):
        plan = plan_of(db, "SELECT c FROM t WHERE a = 'k1' AND b = 2")
        assert plan.base.kind == "index_eq"
        assert plan.base.index == "t_ab"
        assert plan.base.eq_values == ("k1", 2)
        assert plan.base.residual is None

    def test_fully_covered_index_preferred_over_wider_prefix(self, db):
        # a = ? matches t_a fully and t_ab as a prefix: prefer t_a.
        plan = plan_of(db, "SELECT b FROM t WHERE a = ?", ["k0"])
        assert plan.base.index == "t_a"

    def test_range_after_prefix(self, db):
        # The equality drives; the range after it filters the postings.
        plan = plan_of(db, "SELECT c FROM t WHERE a = 'k1' AND b > 1")
        assert (plan.base.kind, plan.base.index) == ("index_eq", "t_a")
        assert str(plan.base.residual) == "(t.b > 1)"
        got = db.connect().execute("SELECT id FROM t WHERE a = 'k1' AND b > 1").fetchall()
        assert sorted(got) == [(i + 1,) for i in range(20) if i % 4 == 1 and i % 5 > 1]

    def test_pure_range(self, db):
        plan = plan_of(db, "SELECT a FROM t WHERE id >= 3 AND id <= 7")
        assert plan.base.kind == "seq"
        got = db.connect().execute("SELECT id FROM t WHERE id >= 3 AND id <= 7").fetchall()
        assert sorted(got) == [(i,) for i in range(3, 8)]

    def test_between_is_range(self, db):
        plan = plan_of(db, "SELECT a FROM t WHERE id BETWEEN 3 AND 7")
        assert plan.base.kind == "seq"
        got = db.connect().execute("SELECT id FROM t WHERE id BETWEEN 3 AND 7").fetchall()
        assert sorted(got) == [(i,) for i in range(3, 8)]

    def test_in_list_on_indexed_column(self, db):
        plan = plan_of(db, "SELECT b FROM t WHERE a IN ('k1', 'k2')")
        assert plan.base.kind == "seq"
        got = db.connect().execute("SELECT id FROM t WHERE a IN ('k1', 'k2')").fetchall()
        assert sorted(got) == [(i + 1,) for i in range(20) if i % 4 in (1, 2)]

    def test_unindexed_predicate_is_seq_scan(self, db):
        plan = plan_of(db, "SELECT a FROM t WHERE c > 5.0")
        assert plan.base.kind == "seq"
        assert plan.base.residual is not None

    def test_residual_keeps_extra_conditions(self, db):
        plan = plan_of(db, "SELECT a FROM t WHERE a = 'k1' AND c > 5.0")
        assert plan.base.kind == "index_eq"
        assert plan.base.residual is not None
        assert "c" in str(plan.base.residual)

    def test_or_disables_index(self, db):
        plan = plan_of(db, "SELECT a FROM t WHERE a = 'k1' OR b = 2")
        assert plan.base.kind == "seq"

    def test_null_comparison_not_sargable(self, db):
        # a = NULL can never match; must not be turned into an index probe
        # that would bypass three-valued logic: the bound access is empty.
        plan = plan_of(db, "SELECT a FROM t WHERE a = ?", [None])
        assert plan.base.kind == "empty"
        assert db.connect().execute("SELECT a FROM t WHERE a = ?", (None,)).fetchall() == []


class TestJoinPlanning:
    def test_index_nested_loop_on_pk(self, db):
        plan = plan_of(
            db, "SELECT t.a FROM u JOIN t ON t.id = u.tid"
        )
        assert plan.joins[0].kind == "index_nl"
        assert plan.joins[0].access.index == "__pk_t"

    def test_index_nested_loop_on_secondary(self, db):
        plan = plan_of(
            db, "SELECT u.label FROM t JOIN u ON u.tid = t.id"
        )
        assert plan.joins[0].kind == "index_nl"
        assert plan.joins[0].access.index == "u_tid"

    def test_hash_join_without_inner_index(self, db):
        # No index on w leads with x: the join is refused, naming what it needs.
        make_table(db, "w", "x INTEGER, y STRING")
        with pytest.raises(ProgrammingError, match=r"needs an index on w leading with \(x\)"):
            plan_of(db, "SELECT w.y FROM t JOIN w ON w.x = t.b")

    def test_cross_join_is_nested(self, db):
        make_table(db, "w2", "x INTEGER", indexes={"w2_x": ("x",)})
        with pytest.raises(SQLSyntaxError):
            plan_of(db, "SELECT t.a FROM t, w2")
        with pytest.raises(ProgrammingError, match="no equality with the outer tables"):
            plan_of(db, "SELECT t.a FROM t JOIN w2 ON w2.x > 1")

    def test_where_pushed_into_join(self, db):
        plan = plan_of(
            db,
            "SELECT u.label FROM t JOIN u ON u.tid = t.id WHERE u.label = 'l3'",
        )
        step = plan.joins[0]
        assert step.kind == "index_nl"
        assert step.condition is not None and "label" in str(step.condition)

    def test_left_join_where_becomes_post_filter(self, db):
        with pytest.raises(SQLSyntaxError, match="LEFT"):
            plan_of(db, "SELECT t.a FROM t LEFT JOIN u ON u.tid = t.id")
        # On an inner join the WHERE predicate joins the ON condition.
        plan = plan_of(
            db, "SELECT t.a FROM t JOIN u ON u.tid = t.id WHERE u.label IS NULL"
        )
        assert str(plan.joins[0].condition) == "(u.label IS NULL)"

    def test_duplicate_alias_rejected(self, db):
        with pytest.raises(ProgrammingError):
            plan_of(db, "SELECT 1 FROM t x JOIN u x ON x.id = x.id")


class TestNameResolution:
    def test_unqualified_resolution(self, db):
        plan = plan_of(db, "SELECT a FROM t WHERE b = 1")
        # resolved to qualified column
        assert plan.items[0].expr.table == "t"

    def test_alias_resolution(self, db):
        plan = plan_of(db, "SELECT z.a FROM t z")
        assert plan.items[0].expr.table == "z"

    def test_unknown_alias_rejected(self, db):
        with pytest.raises(ProgrammingError):
            plan_of(db, "SELECT q.a FROM t")

    def test_output_names(self, db):
        assert plan_of(db, "SELECT a, b AS bee FROM t").output_names == ("a", "bee")
        assert plan_of(db, "SELECT COUNT(*) FROM t").output_names == ("count(*)",)


class TestRangeIntersection:
    def test_redundant_lower_bounds_intersect(self, db):
        # Regression: a > 5 AND a > 1 must keep the *tighter* bound, and
        # dropping both comparisons from the residual must stay correct.
        conn = db.connect()
        got = conn.execute(
            "SELECT COUNT(*) FROM t WHERE id > 5 AND id > 1"
        ).scalar()
        want = conn.execute("SELECT COUNT(*) FROM t WHERE id > 5").scalar()
        assert got == want

    def test_reversed_order_same_result(self, db):
        conn = db.connect()
        a = conn.execute("SELECT COUNT(*) FROM t WHERE id > 1 AND id > 5").scalar()
        b = conn.execute("SELECT COUNT(*) FROM t WHERE id > 5 AND id > 1").scalar()
        assert a == b

    def test_between_and_comparison_intersect(self, db):
        conn = db.connect()
        got = conn.execute(
            "SELECT COUNT(*) FROM t WHERE id BETWEEN 1 AND 15 AND id <= 8"
        ).scalar()
        want = conn.execute(
            "SELECT COUNT(*) FROM t WHERE id BETWEEN 1 AND 8"
        ).scalar()
        assert got == want

    def test_range_scan_skips_null_keys(self, db):
        conn = db.connect()
        make_index(conn, "t_c", "t", ("c",))
        conn.execute("INSERT INTO t (a, b, c) VALUES ('k9', 1, NULL)")
        assert conn.execute("SELECT COUNT(*) FROM t WHERE c < 3.0").scalar() == 3

    def test_range_on_composite_index_keeps_its_bound_key(self, db):
        conn = db.connect()
        make_table(conn, "w", "x INTEGER, y INTEGER")
        make_index(conn, "w_xy", "w", ("x", "y"))
        conn.executemany(
            "INSERT INTO w (x, y) VALUES (?, ?)", [(i % 4, i) for i in range(12)]
        )
        assert conn.execute("SELECT COUNT(*) FROM w WHERE x <= 2").scalar() == 9
        assert conn.execute("SELECT COUNT(*) FROM w WHERE x > 2").scalar() == 3

    def test_repeated_equality_or_in_list_on_one_column(self, db):
        conn = db.connect()
        assert conn.execute("SELECT COUNT(*) FROM t WHERE a = 'k1' AND a = 'k2'").scalar() == 0
        assert conn.execute(
            "SELECT COUNT(*) FROM t WHERE a IN ('k1', 'k2') AND a IN ('k2', 'k3')"
        ).scalar() == 5
        assert conn.execute("SELECT COUNT(*) FROM t WHERE a IN ('k1', 'k1')").scalar() == 5

    def test_contradictory_bounds_empty(self, db):
        conn = db.connect()
        assert conn.execute(
            "SELECT COUNT(*) FROM t WHERE id > 10 AND id < 5"
        ).scalar() == 0


class TestLikePrefixOptimization:
    def test_prefix_like_uses_index_range(self, db):
        # A prefix pattern is a filter like any other LIKE.
        plan = plan_of(db, "SELECT b FROM t WHERE a LIKE 'k1%'")
        assert plan.base.kind == "seq"
        assert isinstance(plan.base.residual, Like)

    def test_prefix_like_results_correct(self, db):
        conn = db.connect()
        got = sorted(conn.execute("SELECT id FROM t WHERE a LIKE 'k1%'").fetchall())
        want = sorted(
            (i + 1,) for i in range(20) if f"k{i % 4}".startswith("k1")
        )
        assert got == want

    def test_wildcard_in_middle_not_optimized(self, db):
        plan = plan_of(db, "SELECT b FROM t WHERE a LIKE 'k%1'")
        assert plan.base.kind == "seq"

    def test_underscore_not_optimized(self, db):
        plan = plan_of(db, "SELECT b FROM t WHERE a LIKE 'k_'")
        assert plan.base.kind == "seq"

    def test_bare_percent_not_optimized(self, db):
        plan = plan_of(db, "SELECT b FROM t WHERE a LIKE '%'")
        assert plan.base.kind == "seq"

    def test_underscore_semantics_preserved(self, db):
        conn = db.connect()
        conn.execute("INSERT INTO t (a, b, c) VALUES ('k1x', 99, 0.0)")
        # 'k1_' must match exactly 3 characters even though the range scan
        # would admit longer strings.
        got = conn.execute("SELECT COUNT(*) FROM t WHERE a LIKE 'k1%' AND b = 99").scalar()
        assert got == 1


# -- choose_access_path: one fully-covered index, or a scan -------------------


@pytest.fixture
def table():
    db = Database()
    make_table(
        db, "t", "id INTEGER, a INTEGER, b INTEGER", primary_key=("id",),
        indexes={"t_a": ("a",), "t_b": ("b",)},
    )
    return db.catalog.table("t")


def _choose(table, sql):
    return choose_access_path(table, "t", conjuncts(parse_statement(sql).where))


def test_single_equality_keeps_single_index(table):
    path = _choose(table, "SELECT id FROM t WHERE t.a = 1")
    assert path.kind == "index_eq"
    assert path.index == "t_a"


def test_no_stats_keeps_the_rule_based_default(table):
    for sql in (
        "SELECT id FROM t WHERE t.a = 1 AND t.b = 2",
        "SELECT id FROM t WHERE t.a = 1",
    ):
        assert _choose(table, sql).kind == "index_eq"


def test_explain_default_engine_keeps_index_lookup():
    db = Database()
    make_table(
        db, "t", "id INTEGER, a INTEGER, b INTEGER, c INTEGER", primary_key=("id",),
        indexes={"t_a": ("a",), "t_b": ("b",), "t_c": ("c",)},
    )
    conn = db.connect()
    for i in range(500):
        conn.execute(
            "INSERT INTO t (id, a, b, c) VALUES (?, ?, ?, ?)",
            (i, i % 10, i % 7, 1),
        )
    for sql in (
        "SELECT id FROM t WHERE a = 3 AND b = 4",
        "SELECT id FROM t WHERE c = 1",
    ):
        plan = [row[0] for row in conn.execute("EXPLAIN " + sql)]
        assert plan[0].startswith("INDEX LOOKUP t")
