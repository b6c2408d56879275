"""Unit + property tests for the B+tree index."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.btree import BPlusTree, make_key
from repro.db.errors import IntegrityError


class TestBasics:
    def test_empty(self):
        tree = BPlusTree()
        assert len(tree) == 0
        assert tree.get(("x",)) == []
        assert list(tree.range()) == []

    def test_insert_get(self):
        tree = BPlusTree()
        tree.insert(("a",), 1)
        tree.insert(("b",), 2)
        assert tree.get(("a",)) == [1]
        assert tree.get(("b",)) == [2]
        assert tree.get(("c",)) == []

    def test_duplicate_keys_accumulate(self):
        tree = BPlusTree()
        for rid in (3, 1, 2):
            tree.insert(("k",), rid)
        assert tree.get(("k",)) == [1, 2, 3]
        assert len(tree) == 3

    def test_duplicate_posting_idempotent(self):
        tree = BPlusTree()
        tree.insert(("k",), 1)
        tree.insert(("k",), 1)
        assert tree.get(("k",)) == [1]
        assert len(tree) == 1

    def test_unique_violation(self):
        tree = BPlusTree(unique=True, name="u")
        tree.insert(("k",), 1)
        with pytest.raises(IntegrityError):
            tree.insert(("k",), 2)

    def test_delete(self):
        tree = BPlusTree()
        tree.insert(("k",), 1)
        tree.insert(("k",), 2)
        assert tree.delete(("k",), 1) is True
        assert tree.get(("k",)) == [2]
        assert tree.delete(("k",), 1) is False
        assert tree.delete(("missing",), 9) is False

    def test_one_posting_is_a_bare_int_and_two_a_list(self):
        """Promote on the second posting, demote when a delete leaves one:
        1 → 2 → 1 → 0 postings on one key, counts exact after each step."""
        tree = BPlusTree(order=4)
        tree.insert(("other",), 9)
        counts = tree.count_leading()
        k = make_key(("k",))[0]

        def postings():
            key = make_key(("k",))
            leaf = tree._find_leaf(key)
            return leaf.values[leaf.keys.index(key)] if key in leaf.keys else None

        tree.insert(("k",), 5)
        assert postings() == 5 and type(postings()) is int
        assert counts[k] == [1, 1] and tree.get(("k",)) == [5]
        tree.insert(("k",), 2)
        assert postings() == [2, 5]
        assert counts[k] == [2, 1] and tree.get(("k",)) == [2, 5]
        tree.check_invariants()
        assert tree.delete(("k",), 5) is True
        assert postings() == 2 and type(postings()) is int
        assert counts[k] == [1, 1] and list(tree.prefix(("k",))) == [2]
        tree.check_invariants()
        assert tree.delete(("k",), 5) is False
        assert tree.delete(("k",), 2) is True
        assert postings() is None and k not in counts
        assert tree.get(("k",)) == [] and len(tree) == 1
        tree.check_invariants()

    def test_invariants_reject_a_one_item_list(self):
        tree = BPlusTree()
        tree.insert(("k",), 1)
        tree._first_leaf().values[0] = [1]
        with pytest.raises(AssertionError):
            tree.check_invariants()

    def test_clear(self):
        tree = BPlusTree()
        tree.insert(("a",), 1)
        tree.clear()
        assert len(tree) == 0
        assert tree.get(("a",)) == []


class TestSplitsAndOrder:
    def test_many_inserts_stay_sorted(self):
        tree = BPlusTree(order=4)
        for i in range(500):
            tree.insert((i * 37 % 500,), i)
        tree.check_invariants()
        keys = [k for k, _ in tree.items()]
        assert keys == sorted(keys)
        assert len(tree) == 500

    def test_range_scan(self):
        tree = BPlusTree(order=4)
        for i in range(100):
            tree.insert((i,), i)
        assert sorted(tree.range((10,), (20,))) == list(range(10, 21))
        assert sorted(tree.range((10,), (20,), low_inclusive=False, high_inclusive=False)) == list(range(11, 20))
        assert sorted(tree.range(None, (5,))) == list(range(0, 6))
        assert sorted(tree.range((95,), None)) == list(range(95, 100))

    def test_prefix_scan_composite(self):
        tree = BPlusTree(order=4)
        for a in range(5):
            for b in range(10):
                tree.insert((a, b), a * 100 + b)
        assert sorted(tree.prefix((2,))) == [200 + b for b in range(10)]
        assert sorted(tree.prefix((2, 3))) == [203]
        assert list(tree.prefix((9,))) == []

    def test_scan_all_in_key_order(self):
        tree = BPlusTree(order=4)
        import random

        rng = random.Random(7)
        values = list(range(200))
        rng.shuffle(values)
        for v in values:
            tree.insert((v,), v)
        assert list(tree.scan_all()) == sorted(values)

    def test_null_keys_sort_first(self):
        tree = BPlusTree()
        tree.insert(("b",), 2)
        tree.insert((None,), 1)
        tree.insert(("a",), 3)
        assert list(tree.scan_all()) == [1, 3, 2]


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["insert", "delete"]),
            st.integers(min_value=0, max_value=30),  # key
            st.integers(min_value=0, max_value=10),  # rowid
        ),
        max_size=300,
    )
)
def test_property_matches_dict_model(ops):
    """The tree behaves like a dict[key, set[rowid]] under random ops."""
    tree = BPlusTree(order=4)
    model: dict[int, set[int]] = {}
    for op, key, rid in ops:
        if op == "insert":
            tree.insert((key,), rid)
            model.setdefault(key, set()).add(rid)
        else:
            expected = key in model and rid in model[key]
            assert tree.delete((key,), rid) is expected
            if expected:
                model[key].discard(rid)
                if not model[key]:
                    del model[key]
    tree.check_invariants()
    for key, rids in model.items():
        assert set(tree.get((key,))) == rids
    assert len(tree) == sum(len(v) for v in model.values())
    assert list(tree.scan_all()) == [
        rid for key in sorted(model) for rid in sorted(model[key])
    ]


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["insert", "delete"]),
            st.integers(min_value=0, max_value=3),  # leading column
            st.none() | st.integers(min_value=0, max_value=4),  # last column
            st.integers(min_value=0, max_value=6),  # rowid
        ),
        max_size=300,
    ),
    start=st.integers(min_value=0, max_value=300),
)
def test_property_leading_counts_match_a_recount(ops, start):
    """Counts started at any point equal postings and non-NULL distinct keys."""
    tree = BPlusTree(order=4)
    model: dict[tuple, set[int]] = {}
    for step, (op, lead, last, rid) in enumerate(ops):
        if step == start:
            tree.count_leading()
        if op == "insert":
            tree.insert((lead, last), rid)
            model.setdefault((lead, last), set()).add(rid)
        elif tree.delete((lead, last), rid):
            model[(lead, last)].discard(rid)
            if not model[(lead, last)]:
                del model[(lead, last)]
    counts = tree.count_leading()
    tree.check_invariants()
    expected: dict[tuple, list[int]] = {}
    for (lead, last), rids in model.items():
        entry = expected.setdefault(make_key((lead,))[0], [0, 0])
        entry[0] += len(rids)
        entry[1] += last is not None
    assert counts == expected


@settings(max_examples=40, deadline=None)
@given(
    keys=st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=200),
    bounds=st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)),
)
def test_property_range_scan_equals_filter(keys, bounds):
    low, high = min(bounds), max(bounds)
    tree = BPlusTree(order=4)
    for i, key in enumerate(keys):
        tree.insert((key,), i)
    expected = sorted(
        (key, i) for i, key in enumerate(keys) if low <= key <= high
    )
    got = list(tree.range((low,), (high,)))
    assert [keys[rid] for rid in got] == [k for k, _ in expected]
