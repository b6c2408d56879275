"""B+tree used for table indexes.

Keys are tuples of canonical column values wrapped with
:func:`repro.db.types.sort_key` so NULLs and mixed types compare totally.
Leaves hold, per key, its postings: the row id itself while the key has one
posting (always, in a unique index), promoted to a sorted list of two or
more row ids on the second insert and demoted back when a delete leaves
one.  The bare row id is the very int the table's ``rows`` dict holds, so
a key with one posting costs no list.  Leaves are chained for range scans.

A tree asked for counts (:meth:`BPlusTree.count_leading`) also keeps, per
leading-column value, its postings and its distinct whole keys whose last
column is not NULL — the planner's statistics, exact after every insert,
delete, rollback and replay because those all pass through here.

The tree is *not* itself thread-safe; the engine serializes index access
under its table locks.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator, Optional

from repro.db.errors import IntegrityError
from repro.db.types import sort_key
from repro.obs.metrics import counter as _obs_counter

DEFAULT_ORDER = 64

_NULL = sort_key(None)

_PROBES = _obs_counter(
    "mcs_db_index_probes_total",
    "B+tree probe operations",
    labels=("kind",),
)
_POINT_PROBES = _PROBES.labels("point")
_RANGE_PROBES = _PROBES.labels("range")
_PREFIX_PROBES = _PROBES.labels("prefix")


def make_key(values: tuple) -> tuple:
    """Build a comparable composite key from raw column values."""
    return tuple(sort_key(v) for v in values)


class _Node:
    __slots__ = ("keys", "parent")

    def __init__(self) -> None:
        self.keys: list[tuple] = []
        self.parent: Optional[_Internal] = None


class _Leaf(_Node):
    __slots__ = ("values", "next", "prev")

    def __init__(self) -> None:
        super().__init__()
        # values[i] is the row id for keys[i], or the sorted list of its
        # row ids once it has two or more
        self.values: list[int | list[int]] = []
        self.next: Optional[_Leaf] = None
        self.prev: Optional[_Leaf] = None


class _Internal(_Node):
    __slots__ = ("children",)

    def __init__(self) -> None:
        super().__init__()
        # len(children) == len(keys) + 1
        self.children: list[_Node] = []


class BPlusTree:
    """A B+tree mapping composite keys to row-id postings."""

    def __init__(self, order: int = DEFAULT_ORDER, unique: bool = False, name: str = "") -> None:
        if order < 4:
            raise ValueError("B+tree order must be >= 4")
        self.order = order
        self.unique = unique
        self.name = name
        self._root: _Node = _Leaf()
        self._len = 0  # number of (key, rowid) postings
        #: leading sort key -> [postings, distinct non-NULL-ended keys];
        #: None until :meth:`count_leading` is first called.
        self.counts: Optional[dict[tuple, list[int]]] = None

    # -- basic properties --------------------------------------------------

    def __len__(self) -> int:
        return self._len

    # -- mutation -----------------------------------------------------------

    def insert(self, raw_key: tuple, rowid: int) -> None:
        """Insert a posting.  Raises IntegrityError on unique violation."""
        self.insert_key(make_key(raw_key), rowid)

    def insert_key(self, key: tuple, rowid: int) -> None:
        """:meth:`insert` for a key already built by :func:`make_key`."""
        leaf = self._find_leaf(key)
        idx = bisect.bisect_left(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            if self.unique:
                raw_key = tuple(value for _rank, value in key)
                raise IntegrityError(
                    f"unique index {self.name or '<anon>'}: duplicate key {raw_key!r}"
                )
            postings = leaf.values[idx]
            if type(postings) is list:
                pos = bisect.bisect_left(postings, rowid)
                if pos < len(postings) and postings[pos] == rowid:
                    return  # already present; idempotent
                postings.insert(pos, rowid)
            elif postings == rowid:
                return
            else:  # the second posting: promote to a list
                leaf.values[idx] = (
                    [postings, rowid] if postings < rowid else [rowid, postings]
                )
            self._len += 1
            if self.counts is not None:
                self.counts[key[0]][0] += 1
            return
        leaf.keys.insert(idx, key)
        leaf.values.insert(idx, rowid)
        self._len += 1
        if self.counts is not None:
            entry = self.counts.setdefault(key[0], [0, 0])
            entry[0] += 1
            if key[-1] != _NULL:
                entry[1] += 1
        if len(leaf.keys) > self.order:
            self._split_leaf(leaf)

    def delete(self, raw_key: tuple, rowid: int) -> bool:
        """Remove a posting; returns True if it was present.

        The tree uses lazy deletion (no rebalancing); empty key slots are
        removed but underfull nodes are left in place.  Index rebuilds on
        snapshot load restore tight packing.
        """
        key = make_key(raw_key)
        leaf = self._find_leaf(key)
        idx = bisect.bisect_left(leaf.keys, key)
        if idx >= len(leaf.keys) or leaf.keys[idx] != key:
            return False
        postings = leaf.values[idx]
        emptied = type(postings) is not list
        if emptied:
            if postings != rowid:
                return False
            leaf.keys.pop(idx)
            leaf.values.pop(idx)
        else:
            pos = bisect.bisect_left(postings, rowid)
            if pos >= len(postings) or postings[pos] != rowid:
                return False
            postings.pop(pos)
            if len(postings) == 1:  # one posting left: demote to the bare id
                leaf.values[idx] = postings[0]
        self._len -= 1
        if self.counts is not None:
            entry = self.counts[key[0]]
            entry[0] -= 1
            if emptied and key[-1] != _NULL:
                entry[1] -= 1
            if not entry[0]:
                del self.counts[key[0]]
        return True

    def clear(self) -> None:
        self._root = _Leaf()
        self._len = 0
        if self.counts is not None:
            self.counts.clear()

    def count_leading(self) -> dict[tuple, list[int]]:
        """Keep counts from now on (one leaf walk the first time).

        Returns the live mapping: leading sort key -> ``[postings,
        distinct whole keys whose last column is not NULL]``.  An entry
        goes when its last posting does.
        """
        if self.counts is None:
            counts: dict[tuple, list[int]] = {}
            leaf: Optional[_Leaf] = self._first_leaf()
            while leaf is not None:
                for key, postings in zip(leaf.keys, leaf.values):
                    entry = counts.setdefault(key[0], [0, 0])
                    entry[0] += len(postings) if type(postings) is list else 1
                    if key[-1] != _NULL:
                        entry[1] += 1
                leaf = leaf.next
            self.counts = counts
        return self.counts

    # -- lookups -------------------------------------------------------------

    def get(self, raw_key: tuple) -> list[int]:
        """Row ids exactly matching *raw_key* (empty list when absent)."""
        _POINT_PROBES.inc()
        key = make_key(raw_key)
        leaf = self._find_leaf(key)
        idx = bisect.bisect_left(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            postings = leaf.values[idx]
            return list(postings) if type(postings) is list else [postings]
        return []

    def range(
        self,
        low: tuple | None = None,
        high: tuple | None = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> Iterator[int]:
        """Yield row ids whose key lies inside [low, high] (raw keys).

        Either bound may be None for an open end.  Keys compare by the
        composite sort order; for prefix scans pass a prefix as ``low`` and
        the same prefix as ``high`` with inclusive bounds plus a sentinel —
        see :meth:`prefix`.
        """
        _RANGE_PROBES.inc()
        return self._range_iter(low, high, low_inclusive, high_inclusive)

    def _range_iter(
        self,
        low: tuple | None,
        high: tuple | None,
        low_inclusive: bool,
        high_inclusive: bool,
    ) -> Iterator[int]:
        low_key = make_key(low) if low is not None else None
        high_key = make_key(high) if high is not None else None
        if low_key is not None:
            leaf = self._find_leaf(low_key)
            idx = (
                bisect.bisect_left(leaf.keys, low_key)
                if low_inclusive
                else bisect.bisect_right(leaf.keys, low_key)
            )
        else:
            leaf = self._first_leaf()
            idx = 0
        while leaf is not None:
            while idx < len(leaf.keys):
                key = leaf.keys[idx]
                if high_key is not None:
                    if high_inclusive:
                        if key > high_key:
                            return
                    elif key >= high_key:
                        return
                postings = leaf.values[idx]
                if type(postings) is list:
                    yield from postings
                else:
                    yield postings
                idx += 1
            leaf = leaf.next
            idx = 0

    def prefix(self, raw_prefix: tuple) -> Iterator[int]:
        """Yield row ids for keys whose leading columns equal *raw_prefix*."""
        _PREFIX_PROBES.inc()
        return self._prefix_iter(raw_prefix)

    def _prefix_iter(self, raw_prefix: tuple) -> Iterator[int]:
        prefix = make_key(raw_prefix)
        n = len(prefix)
        leaf = self._find_leaf(prefix)
        idx = bisect.bisect_left(leaf.keys, prefix)
        while leaf is not None:
            while idx < len(leaf.keys):
                key = leaf.keys[idx]
                if key[:n] != prefix:
                    return
                postings = leaf.values[idx]
                if type(postings) is list:
                    yield from postings
                else:
                    yield postings
                idx += 1
            leaf = leaf.next
            idx = 0

    def items(self) -> Iterator[tuple[tuple, list[int]]]:
        """All (composite key, row ids) pairs in key order."""
        leaf = self._first_leaf()
        while leaf is not None:
            for key, postings in zip(leaf.keys, leaf.values):
                yield key, list(postings) if type(postings) is list else [postings]
            leaf = leaf.next

    def scan_all(self) -> Iterator[int]:
        """All row ids in key order."""
        leaf = self._first_leaf()
        while leaf is not None:
            for postings in leaf.values:
                if type(postings) is list:
                    yield from postings
                else:
                    yield postings
            leaf = leaf.next

    # -- internals -------------------------------------------------------------

    def _first_leaf(self) -> _Leaf:
        node = self._root
        while isinstance(node, _Internal):
            node = node.children[0]
        return node  # type: ignore[return-value]

    def _find_leaf(self, key: tuple) -> _Leaf:
        node = self._root
        while isinstance(node, _Internal):
            idx = bisect.bisect_right(node.keys, key)
            node = node.children[idx]
        return node  # type: ignore[return-value]

    def _split_leaf(self, leaf: _Leaf) -> None:
        mid = len(leaf.keys) // 2
        right = _Leaf()
        right.keys = leaf.keys[mid:]
        right.values = leaf.values[mid:]
        leaf.keys = leaf.keys[:mid]
        leaf.values = leaf.values[:mid]
        right.next = leaf.next
        if right.next is not None:
            right.next.prev = right
        right.prev = leaf
        leaf.next = right
        self._insert_into_parent(leaf, right.keys[0], right)

    def _split_internal(self, node: _Internal) -> None:
        mid = len(node.keys) // 2
        push_key = node.keys[mid]
        right = _Internal()
        right.keys = node.keys[mid + 1 :]
        right.children = node.children[mid + 1 :]
        for child in right.children:
            child.parent = right
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        self._insert_into_parent(node, push_key, right)

    def _insert_into_parent(self, left: _Node, key: tuple, right: _Node) -> None:
        parent = left.parent
        if parent is None:
            new_root = _Internal()
            new_root.keys = [key]
            new_root.children = [left, right]
            left.parent = new_root
            right.parent = new_root
            self._root = new_root
            return
        idx = bisect.bisect_right(parent.keys, key)
        parent.keys.insert(idx, key)
        parent.children.insert(idx + 1, right)
        right.parent = parent
        if len(parent.keys) > self.order:
            self._split_internal(parent)

    # -- invariant checking (used by tests) -------------------------------------

    def check_invariants(self) -> None:
        """Raise AssertionError if structural invariants are violated."""
        leaf = self._first_leaf()
        prev_key = None
        counted = 0
        while leaf is not None:
            assert len(leaf.keys) == len(leaf.values)
            for key, postings in zip(leaf.keys, leaf.values):
                if type(postings) is list:
                    assert len(postings) >= 2, "a list of fewer than two postings"
                    assert postings == sorted(set(postings))
                    counted += len(postings)
                else:
                    assert type(postings) is int, "one posting is not a bare int"
                    counted += 1
                if prev_key is not None:
                    assert key > prev_key, "keys out of order across leaves"
                prev_key = key
            if leaf.next is not None:
                assert leaf.next.prev is leaf
            leaf = leaf.next
        assert counted == self._len, f"posting count {counted} != tracked {self._len}"
        if self.counts is not None:
            kept, self.counts = self.counts, None
            try:
                assert kept == self.count_leading(), "leading-key counts drifted"
            finally:
                self.counts = kept
        self._check_node(self._root)

    def _check_node(self, node: _Node) -> None:
        if isinstance(node, _Internal):
            assert len(node.children) == len(node.keys) + 1
            for child in node.children:
                assert child.parent is node
                self._check_node(child)
