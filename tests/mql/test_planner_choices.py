"""MQL planner regressions: fixed inputs → fixed leaf plans.

The leaf planner's condition order under the counts a fixed catalog's
indexes keep, forced-strategy overrides, the shape cache (parse +
compile once per statement shape, plan every run), the planner's
attribute-definition budget, and the ``explain_mql`` / ``explain_query``
golden text.  (The engine's SQL access-path tests live in
``tests/db/test_planner.py``.)
"""

import pytest

import repro.mql
from repro.core import MetadataCatalog
from repro.core.errors import QueryError
from repro.core.query import ObjectQuery
from tests.recount import assert_counts_exact, planner_counts

pytestmark = pytest.mark.mql


# -- MQL leaf strategy choice ------------------------------------------------


@pytest.fixture
def catalog():
    cat = MetadataCatalog()
    cat.define_attribute("run", "int")
    cat.define_attribute("site", "string")
    for i in range(10):
        cat.create_file(f"f{i}", attributes={"run": i % 5, "site": f"s{i % 2}"})
    return cat


def test_the_fixture_counts_equal_a_recount(catalog):
    # The estimates below are these exact counts; nothing needs ANALYZE.
    assert_counts_exact(catalog)
    assert planner_counts(catalog)["attributes"] == {
        "run": (10.0, 5.0),
        "site": (10.0, 2.0),
    }


def _leaf_plans(cat, text):
    plan = cat._plan_mql(text)
    return [leaf_plan.strategy for leaf_plan in plan.leaf_plans]


def test_selective_equality_leaf_prefers_index(catalog):
    assert _leaf_plans(catalog, "files where run = 2") == ["index"]


def test_forced_strategy_wins_over_cost(catalog):
    catalog.mql_strategy = "scan"
    assert _leaf_plans(catalog, "files where run = 2") == ["scan"]
    catalog.mql_strategy = "index"
    assert _leaf_plans(catalog, "files where run = 2") == ["index"]
    catalog.mql_strategy = None


def test_unknown_strategy_is_a_query_error(catalog):
    catalog.mql_strategy = "turbo"
    with pytest.raises(QueryError):
        catalog.query_mql("files where run = 2")
    catalog.mql_strategy = None


def test_the_generated_sql_join_strategy_is_gone(catalog):
    catalog.mql_strategy = "join"
    with pytest.raises(QueryError, match="unknown MQL strategy 'join'"):
        catalog.query_mql("files where run = 2")
    catalog.mql_strategy = None


def test_compiled_text_is_cached_and_every_run_is_planned_afresh(catalog, monkeypatch):
    text = "files where run = 2 and site = \"s0\""
    first = catalog._plan_mql(text)
    parsed = []
    parse = repro.mql.parse
    monkeypatch.setattr(
        repro.mql, "parse", lambda *args: parsed.append(args[0]) or parse(*args)
    )
    again = catalog._plan_mql(text)
    # Parse + compile happen once per shape; each run binds a fresh copy ...
    assert parsed == []
    assert again.compiled == first.compiled
    assert again.compiled is not first.compiled
    assert again.leaf_plans == first.leaf_plans
    assert [e.attribute for e in first.leaf_plans[0].estimates] == ["run", "site"]
    # ... planning on every run, against the statistics as they are now:
    # forty more files of one run value make ``site`` the selective side.
    for i in range(40):
        catalog.create_file(f"g{i}", attributes={"run": 2, "site": f"t{i}"})
    moved = catalog._plan_mql(text)
    assert moved.compiled == first.compiled
    assert [e.attribute for e in moved.leaf_plans[0].estimates] == ["site", "run"]
    # A strategy override needs no invalidation either.
    catalog.mql_strategy = "scan"
    assert catalog._plan_mql(text).leaf_plans[0].strategy == "scan"
    catalog.mql_strategy = None
    assert parsed == []


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_a_warm_leaf_reads_each_attribute_definition_once(k, monkeypatch):
    """Planning resolves a leaf's definitions and execution reuses them."""
    cat = MetadataCatalog()
    try:
        for j in range(4):
            cat.define_attribute(f"a{j}", "int")
        for i in range(8):
            cat.create_file(f"f{i}", attributes={f"a{j}": i for j in range(4)})

        def text(value):
            return "files where " + " and ".join(f"a{j} = {value}" for j in range(k))

        assert cat.query_mql(text(0)) == ["f0"]  # warms the shape
        calls = []
        get_attribute_def = MetadataCatalog.get_attribute_def

        def counting(self, name):
            calls.append(name)
            return get_attribute_def(self, name)

        monkeypatch.setattr(MetadataCatalog, "get_attribute_def", counting)
        # Another value of the same shape: the result cache misses, so the
        # leaf is planned and lowered.
        assert cat.query_mql(text(1)) == ["f1"]
        assert sorted(calls) == [f"a{j}" for j in range(k)]
    finally:
        cat.db.close()


def test_planning_never_reorders_the_callers_conditions(catalog):
    query = ObjectQuery().where("site", "=", "s1").where("run", "=", 2)
    before = list(query.conditions)
    plan = catalog._plan_object_query(query).leaf_plans[0]
    assert plan.order == (1, 0)  # run (est 2 rows) before site (est 5)
    assert [e.attribute for e in plan.estimates] == ["run", "site"]
    catalog.query(query)
    assert query.conditions == before


# -- explain_mql golden text -------------------------------------------------


_GOLDEN_PLAN = [
    "leaf 0 [file]: strategy=index (conditions=2 predefined=0)",
    "    DRIVE attribute_value USING av_value KEY (1, 2) "
    "FILTER object_type = 'file' AND run = ?",
    "    PROBE attribute_value USING __pk_attribute_value "
    "KEY ('file', object_id, 2) FILTER site like ?",
    "    FETCH logical_file USING __pk_logical_file KEY (object_id)",
    "  run = ? (est 2.0 rows)",
    "  site like ? (est 3.3 rows)",
    "algebra: leaf0",
    "order by name asc limit 3",
]


def test_explain_mql_golden(catalog):
    text = 'files where run = 2 and site like "s%" order by name limit 3'
    assert catalog.explain_mql(text) == [f"MQL: {text}", *_GOLDEN_PLAN]


def test_explain_query_prints_the_same_plan(catalog):
    # Conditions listed least selective first: the plan is the same.
    query = ObjectQuery().where("site", "like", "s%").where("run", "=", 2).limit(3)
    assert catalog.explain_query(query) == _GOLDEN_PLAN


def test_explain_a_leaf_without_conditions(catalog):
    """An exact ``=`` on an indexed object column drives; otherwise the
    object rows are walked.  Every filter is still checked per row."""
    by_name = catalog.explain_query(ObjectQuery().where_field("name", "=", "f3"))
    assert by_name[:2] == [
        "leaf 0 [file]: strategy=index (conditions=0 predefined=1)",
        "    DRIVE logical_file USING __uq_logical_file_0 PREFIX ('f3') "
        "FILTER name = ?",
    ]
    walked = catalog.explain_query(ObjectQuery(valid_only=True))
    assert walked[1] == "    WALK logical_file FILTER valid = ?"


def test_explain_mql_algebra_golden(catalog):
    got = catalog.explain_mql('(files where run = 0) union (files where site = "s1")')
    assert got[0] == 'MQL: files where run = 0 union files where site = "s1"'
    assert got[-2] == "algebra: union(leaf0, leaf1)"
    assert got[-1] == "order by name asc"
    assert sum(1 for line in got if line.startswith("leaf ")) == 2
