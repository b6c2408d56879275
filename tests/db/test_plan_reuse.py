"""Plan templates: one plan per statement text, values bound per execute.

* a statement executed twice on one database (the second run binding new
  values into the cached template) answers exactly as on a fresh
  database, and as on one with no secondary index at all — NULLs, LIKE
  patterns, IN lists and several bounds on one column included;
* planning runs once per text, whatever the values, and only then is
  timed;
* DDL retires every template: EXPLAIN sees a new index, on the primary
  and on a replica;
* threads share one template and each gets its own answer.
"""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database
from repro.db.engine import _PLAN_SECONDS
from repro.db.replication import ReplicationPublisher, Replica
from repro.db.schema import IndexDef
from repro.obs.metrics import OBS
from tests.tables import make_index, make_table

INDEXES = {
    "t": {"t_a": ("a",), "t_ab": ("a", "b"), "t_b": ("b",)},
    "u": {"u_tid": ("tid",), "u_label": ("label",)},
}
T_ROWS = [
    (i, i % 5 if i % 7 else None, f"k{i % 4}" if i % 6 else None, i % 3)
    for i in range(1, 31)
]
U_ROWS = [(i, (i * 7) % 31 or None, f"l{i % 3}" if i % 4 else None) for i in range(1, 21)]


def make_db(t_rows=T_ROWS, u_rows=U_ROWS, indexed=True):
    db = Database()
    conn = db.connect()
    make_table(
        db, "t", "id INTEGER, a INTEGER, b STRING, c INTEGER", primary_key=("id",),
        indexes=INDEXES["t"] if indexed else None,
    )
    # The join below probes u_tid: the unindexed database keeps that one.
    make_table(
        db, "u", "id INTEGER, tid INTEGER, label STRING", primary_key=("id",),
        indexes=INDEXES["u"] if indexed else {"u_tid": ("tid",)},
    )
    conn.executemany("INSERT INTO t (id, a, b, c) VALUES (?, ?, ?, ?)", t_rows)
    conn.executemany("INSERT INTO u (id, tid, label) VALUES (?, ?, ?)", u_rows)
    return db


def state(db):
    conn = db.connect()
    return (
        conn.execute("SELECT id, a, b, c FROM t ORDER BY id").fetchall(),
        conn.execute("SELECT id, tid, label FROM u ORDER BY id").fetchall(),
    )


def run(db, sql, params):
    result = db.connect().execute(sql, params)
    return sorted(result.fetchall(), key=repr), result.rowcount


def explain(conn, sql, params=()):
    return [row[0] for row in conn.execute("EXPLAIN " + sql, params)]


# -- equivalence under reuse -------------------------------------------------

INTS = st.one_of(st.none(), st.integers(-1, 5))
STRINGS = st.one_of(st.none(), st.sampled_from(["k0", "k1", "k3", "x"]))
PATTERNS = st.one_of(
    st.none(), st.sampled_from(["k%", "k1%", "k_", "%1", "%", "k1", "x%", "_1%"])
)

#: (conjunct with ``{p}`` for the alias prefix, one strategy per ``?``)
PREDICATES = (
    ("{p}a = ?", (INTS,)),
    ("{p}a < ?", (INTS,)),
    ("{p}a >= ?", (INTS,)),
    ("? > {p}a", (INTS,)),
    ("{p}a BETWEEN ? AND ?", (INTS, INTS)),
    ("{p}a IN (?, ?)", (INTS, INTS)),
    ("{p}b = ?", (STRINGS,)),
    ("{p}b IN (?)", (STRINGS,)),
    ("{p}b LIKE ?", (PATTERNS,)),
    ("{p}id <= ?", (st.integers(0, 31),)),
    ("{p}c = ?", (INTS,)),
    ("{p}b IS NULL", ()),
    ("{p}a IS NOT NULL", ()),
)
JOIN_PREDICATES = (
    ("u.label = ?", (STRINGS,)),
    ("u.label LIKE ?", (PATTERNS,)),
    ("u.tid >= ?", (INTS,)),
)


@st.composite
def cases(draw):
    """A statement text and two parameter tuples for it."""
    kind = draw(st.sampled_from(["select", "join", "update", "delete"]))
    two_tables = kind == "join"
    chosen = draw(st.lists(st.sampled_from(PREDICATES), min_size=1, max_size=4))
    if two_tables:
        chosen += draw(st.lists(st.sampled_from(JOIN_PREDICATES), max_size=2))
    where = " AND ".join(text.format(p="t." if two_tables else "") for text, _ in chosen)
    sql = {
        "select": f"SELECT id, a, b FROM t WHERE {where}",
        "join": f"SELECT t.id, u.id FROM t JOIN u ON u.tid = t.id WHERE {where}",
        "update": f"UPDATE t SET c = ? WHERE {where}",
        "delete": f"DELETE FROM t WHERE {where}",
    }[kind]

    def values():
        lead = (draw(INTS),) if kind == "update" else ()
        return lead + tuple(
            value for _, strategies in chosen for value in draw(st.tuples(*strategies))
        )

    return sql, [values(), values()]


@settings(max_examples=200, deadline=None)
@given(cases())
def test_a_reused_template_answers_like_a_fresh_plan(case):
    sql, runs = case
    shared = make_db()
    for params in runs:
        before = state(shared)
        fresh = make_db(*before)
        expected = run(fresh, sql, params)
        assert run(make_db(*before, indexed=False), sql, params) == expected
        assert run(shared, sql, params) == expected
        assert state(shared) == state(fresh)


def test_one_template_per_text_and_like_shape():
    db = make_db()
    conn = db.connect()
    sql = "SELECT id FROM t WHERE a = ? AND b LIKE ?"
    conn.execute(sql, (0, "k%"))
    template = db._prepare(sql).plan
    for a in range(5):
        for pattern in ("k%", "k1%", "%1", "k_"):
            conn.execute(sql, (a, pattern))
    # A LIKE pattern is a filter, prefix or not: one template serves all.
    assert db._prepare(sql).plan is template
    for pattern in ("k1%", "%1"):
        plan = explain(conn, sql, (1, pattern))[0]
        assert plan.startswith("INDEX LOOKUP t AS t USING t_a ON (1,) FILTER")


def test_a_projected_parameter_is_named_after_its_bound_value():
    conn = make_db().connect()
    sql = "SELECT id, ? FROM t WHERE id = 3"
    assert conn.execute(sql, (1,)).columns == ("id", "1")
    assert conn.execute(sql, ("x",)).as_dicts() == [{"id": 3, "'x'": "x"}]


def test_the_plan_timer_observes_template_builds_only():
    if not OBS.enabled:
        pytest.skip("timing histograms are off")
    conn = make_db().connect()

    def builds():
        return dict(_PLAN_SECONDS.series())[()].collect()["count"]

    before = builds()
    for a in range(20):
        conn.execute("SELECT id FROM t WHERE a = ?", (a,))
    assert builds() - before == 1


# -- DDL ------------------------------------------------------------------------


def test_ddl_retires_every_template():
    db = make_db()
    conn = db.connect()
    sql, other = "SELECT id FROM t WHERE c = ?", "SELECT id FROM u WHERE tid = ?"
    answer = conn.execute(sql, (1,)).fetchall()
    conn.execute(other, (1,))
    old = db._prepare(other).plan
    assert explain(conn, sql, (1,))[0].startswith("SEQ SCAN t")
    make_index(conn, "t_c", "t", ("c",))
    assert explain(conn, sql, (1,))[0].startswith("INDEX LOOKUP t AS t USING t_c")
    assert conn.execute(sql, (1,)).fetchall() == answer
    # An index on t retires u's template too: it is planned again.
    conn.execute(other, (1,))
    assert db._prepare(other).plan is not old


def test_programmatic_create_index_retires_templates():
    db = make_db()
    conn = db.connect()
    sql = "SELECT id FROM t WHERE c = ?"
    assert explain(conn, sql, (2,))[0].startswith("SEQ SCAN t")
    db.create_index(IndexDef(name="t_c", table="t", columns=("c",)))
    assert explain(conn, sql, (2,))[0].startswith("INDEX LOOKUP t AS t USING t_c")


def test_replicated_ddl_retires_the_replicas_templates():
    primary = Database()
    publisher = ReplicationPublisher(primary)
    replica = Replica("r")
    publisher.add_replica(replica)
    conn = primary.connect()
    make_table(conn, "t", "id INTEGER, c INTEGER", primary_key=("id",))
    conn.executemany("INSERT INTO t (id, c) VALUES (?, ?)", [(i, i % 3) for i in range(9)])
    reader = replica.database.connect()
    sql = "SELECT id FROM t WHERE c = ?"
    answer = reader.execute(sql, (1,)).fetchall()
    assert explain(reader, sql, (1,))[0].startswith("SEQ SCAN t")
    make_index(conn, "t_c", "t", ("c",))
    assert explain(reader, sql, (1,))[0].startswith("INDEX LOOKUP t AS t USING t_c")
    assert reader.execute(sql, (1,)).fetchall() == answer
    publisher.close()


# -- threads --------------------------------------------------------------------


def test_threads_share_a_template_and_each_get_their_own_answer():
    db = make_db()
    sql = "SELECT id FROM t WHERE a = ? AND c >= ?"
    params = [(1, 0), (2, 1)]
    expected = {p: db.connect().execute(sql, p).fetchall() for p in params}
    assert expected[params[0]] != expected[params[1]]
    wrong = []

    def worker(p):
        conn = db.connect()
        for _ in range(1000):
            if conn.execute(sql, p).fetchall() != expected[p]:
                wrong.append(p)
                return

    threads = [threading.Thread(target=worker, args=(p,)) for p in params]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not wrong
    assert db._prepare(sql).plan is not None
