"""One query pipeline: what holds once ``ObjectQuery`` is a front end onto it.

* the result-cache key carries every leaf field that changes the answer
  (``collection`` and ``valid_only`` included), under every strategy;
* the order a caller lists conditions in changes neither the answer nor
  the EXPLAIN, and planning leaves the caller's query as it was;
* planning costs no statement: the planner reads the counts the
  attribute indexes keep — nothing on an unchanged catalog, nothing
  after a committed write — and a cached ``query(name = X)`` reaches the
  result cache without touching the engine at all.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MetadataCatalog, ObjectType
from repro.core.query import ObjectQuery
from repro.db.engine import Connection

pytestmark = pytest.mark.mql

STRATEGIES = ("index", "scan", None)


@pytest.fixture(scope="module")
def catalog():
    cat = MetadataCatalog()
    cat.define_attribute("run", "int")
    cat.define_attribute("site", "string")
    cat.define_attribute("gain", "float")
    cat.create_collection("c0")
    cat.create_collection("c1")
    for i in range(24):
        cat.create_file(
            f"f{i:02d}",
            collection=("c0", "c1", None)[i % 3],
            attributes={"run": i % 4, "site": f"s{i % 2}", "gain": i * 0.5},
        )
    for i in range(0, 24, 5):
        cat.invalidate_file(f"f{i:02d}")
    yield cat
    cat.db.close()


# -- the result-cache key -----------------------------------------------------


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_collection_and_valid_only_are_part_of_the_cache_key(catalog, strategy):
    """Asked back to back, so a key without ``collection`` / ``valid_only``
    would serve the second question the first one's rows."""
    catalog.mql_strategy = strategy
    try:
        for conditions in ({}, {"site": "s0"}):
            answers = {}
            for collection in ("c0", "c1", None):
                for valid_only in (False, True):
                    query = ObjectQuery(collection=collection, valid_only=valid_only)
                    answers[collection, valid_only] = catalog.query(
                        query.where_equal(conditions)
                    )
            for (collection, valid_only), names in answers.items():
                expected = []
                for i in range(24):
                    file_collection = ("c0", "c1", None)[i % 3]
                    if collection is not None and file_collection != collection:
                        continue
                    if valid_only and i % 5 == 0:
                        continue
                    if conditions and i % 2 != 0:
                        continue
                    expected.append(f"f{i:02d}")
                assert names == expected, (collection, valid_only, conditions)
    finally:
        catalog.mql_strategy = None


# -- condition order ----------------------------------------------------------

_CONDITIONS = (
    ("run", "=", 1),
    ("run", "!=", 3),
    ("site", "=", "s1"),
    ("site", "like", "s%"),
    ("gain", "between", (1.0, 9.0)),
    ("gain", "<", 8.0),
    ("gain", "<", 10.0),
)


@given(
    picked=st.lists(st.sampled_from(_CONDITIONS), min_size=1, max_size=5, unique=True),
    seed=st.randoms(use_true_random=False),
    strategy=st.sampled_from(STRATEGIES),
    paged=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_permuting_conditions_changes_neither_answer_nor_explain(
    catalog, picked, seed, strategy, paged
):
    shuffled = list(picked)
    seed.shuffle(shuffled)

    def build(conditions):
        query = ObjectQuery()
        for attribute, op, value in conditions:
            query.where(attribute, op, value)
        return query.order_by("name", descending=True).limit(3) if paged else query

    first, second = build(picked), build(shuffled)
    listed = list(second.conditions)
    catalog.mql_strategy = strategy
    try:
        assert catalog.query(first) == catalog.query(second)
        assert catalog.explain_query(first) == catalog.explain_query(second)
    finally:
        catalog.mql_strategy = None
    assert second.conditions == listed  # the caller's object is not reordered


# -- statement counts ---------------------------------------------------------


@pytest.fixture
def statements(monkeypatch):
    """Every SQL text any connection executes, and every direct read of
    the engine's trees (``READ`` and its tables), in order."""
    seen = []
    execute, read = Connection.execute, Connection.read

    def counting(self, sql, *args, **kwargs):
        seen.append(sql)
        return execute(self, sql, *args, **kwargs)

    def reading(self, *tables):
        seen.append("READ " + ", ".join(tables))
        return read(self, *tables)

    monkeypatch.setattr(Connection, "execute", counting)
    monkeypatch.setattr(Connection, "read", reading)
    return seen


def test_planning_issues_no_statement_on_an_unchanged_catalog(catalog, statements):
    catalog.query(ObjectQuery().where("run", "=", 0))  # the indexes start counting
    del statements[:]
    # Result-cache misses, through both front ends: the leaf's own
    # read runs, the planner adds none.
    catalog.query(ObjectQuery().where("run", "=", 2).where("gain", ">", 2.5))
    catalog.query_mql('files where run = 3 and site = "s1" or gain < 1.5')
    assert statements, "both were expected to miss the result cache"
    del statements[:]
    catalog._plan_object_query(ObjectQuery().where("run", "=", 1).where("gain", ">", 1.0))
    catalog._plan_mql('files where run = 3 and site = "s1" or gain < 1.5')
    assert statements == []


def test_cached_name_lookup_issues_no_statement_at_all(catalog, statements):
    query = ObjectQuery().where_field("name", "=", "f07")
    assert catalog.query(query) == ["f07"]
    del statements[:]
    assert catalog.query(ObjectQuery().where_field("name", "=", "f07")) == ["f07"]
    assert statements == []


def test_planning_after_a_committed_write_issues_no_statement(statements):
    cat = MetadataCatalog()
    try:
        cat.define_attribute("run", "int")
        for i in range(6):
            cat.create_file(f"g{i}", attributes={"run": i % 3})
        cat.query(ObjectQuery().where("run", "=", 0))
        cat.set_attributes(ObjectType.FILE, "g1", {"run": 5})  # one committed write
        del statements[:]
        plan = cat._plan_object_query(ObjectQuery().where("run", "=", 5)).leaf_plans[0]
        assert statements == []
        # The write is already in the counts: 6 rows over the values 0, 1, 2, 5.
        assert plan.estimates[0].rows == 1.5
        assert cat.query(ObjectQuery().where("run", "=", 5)) == ["g1"]
        assert cat.query(ObjectQuery().where("run", "=", 1)) == ["g4"]
        assert cat.query_mql("files where run = 2") == ["g2", "g5"]
    finally:
        cat.db.close()
