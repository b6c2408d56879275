"""Model-based property test: the engine vs a naive Python model.

Hypothesis drives random insert/update/delete/select operations against
one table through the SQL engine and a plain list-of-dicts model; any
divergence in query results or row counts is a bug in the engine (or the
model, which is simple enough to trust).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database
from repro.db.types import sort_key
from tests.tables import make_table

COLUMNS = ("k", "s")


def fresh():
    db = Database()
    conn = db.connect()
    make_table(
        db, "m", "id INTEGER, k INTEGER, s STRING", primary_key=("id",),
        autoincrement="id", indexes={"m_k": ("k",)},
    )
    return conn


ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("insert"),
            st.integers(min_value=-5, max_value=5),
            st.sampled_from(["a", "b", "c", None]),
        ),
        st.tuples(st.just("delete_eq"), st.integers(-5, 5)),
        st.tuples(
            st.just("update"),
            st.integers(-5, 5),
            st.integers(-5, 5),
        ),
    ),
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(ops=ops, probe=st.integers(-5, 5))
def test_engine_matches_model(ops, probe):
    conn = fresh()
    model: list[dict] = []
    next_id = 1
    for op in ops:
        if op[0] == "insert":
            _, k, s = op
            conn.execute("INSERT INTO m (k, s) VALUES (?, ?)", (k, s))
            model.append({"id": next_id, "k": k, "s": s})
            next_id += 1
        elif op[0] == "delete_eq":
            _, k = op
            result = conn.execute("DELETE FROM m WHERE k = ?", (k,))
            expected = [r for r in model if r["k"] == k]
            assert result.rowcount == len(expected)
            model = [r for r in model if r["k"] != k]
        elif op[0] == "update":
            _, old, new = op
            result = conn.execute("UPDATE m SET k = ? WHERE k = ?", (new, old))
            expected = [r for r in model if r["k"] == old]
            assert result.rowcount == len(expected)
            for r in model:
                if r["k"] == old:
                    r["k"] = new

    # Full scan agreement
    got = conn.execute("SELECT id, k, s FROM m ORDER BY id").fetchall()
    want = [(r["id"], r["k"], r["s"]) for r in sorted(model, key=lambda r: r["id"])]
    assert got == want

    # Point query agreement (exercises the index)
    got = sorted(conn.execute("SELECT id FROM m WHERE k = ?", (probe,)).fetchall())
    want = sorted((r["id"],) for r in model if r["k"] == probe)
    assert got == want

    # Range query agreement
    got = sorted(conn.execute("SELECT id FROM m WHERE k >= ?", (probe,)).fetchall())
    want = sorted((r["id"],) for r in model if r["k"] is not None and r["k"] >= probe)
    assert got == want

    # Aggregate agreement
    count = conn.execute("SELECT COUNT(*) FROM m").scalar()
    assert count == len(model)
    if model and any(r["k"] is not None for r in model):
        got_min = conn.execute(
            "SELECT k FROM m WHERE k IS NOT NULL ORDER BY k"
        ).scalar()
        want_min = min(
            (r["k"] for r in model if r["k"] is not None), key=sort_key
        )
        assert got_min == want_min


@settings(max_examples=30, deadline=None)
@given(
    values=st.lists(st.integers(-3, 3), min_size=1, max_size=30),
    low=st.integers(-3, 3),
    high=st.integers(-3, 3),
)
def test_between_matches_filter(values, low, high):
    conn = fresh()
    for v in values:
        conn.execute("INSERT INTO m (k, s) VALUES (?, 'x')", (v,))
    got = conn.execute(
        "SELECT COUNT(*) FROM m WHERE k BETWEEN ? AND ?", (low, high)
    ).scalar()
    assert got == sum(1 for v in values if low <= v <= high)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(["aa", "ab", "ba", "bb", ""]), max_size=25))
def test_like_matches_filter(strings):
    conn = fresh()
    for s in strings:
        conn.execute("INSERT INTO m (k, s) VALUES (0, ?)", (s,))
    got = conn.execute("SELECT COUNT(*) FROM m WHERE s LIKE 'a%'").scalar()
    assert got == sum(1 for s in strings if s.startswith("a"))
