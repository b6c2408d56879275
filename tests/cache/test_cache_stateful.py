"""Stateful property test: cached catalog vs uncached ground truth.

Two identical catalogs receive the same operation stream — single
writes, deletes, bulk atomic and non-atomic batches (including poisoned
batches that exercise whole-transaction rollback and per-item savepoint
rollback) — but one runs with the read cache enabled and one with it
disabled.  After every step, every query answer must match: the cache
may only ever change performance, never results.

Queries are issued inside the rules as well as the invariants so cache
entries are hot (and therefore *could* serve stale data) at the moment
each write lands.

Row-keyed invalidation is stressed the same way: writes whose values do
and do not match the cached ``=`` and ``between`` leaves (strings, ints,
and a float attribute against int literals), values moving into and out
of ranges, invalidated and moved files under ``valid_only`` and
collection leaves, and a file row deleted by raw SQL without its
attribute rows (then re-inserted under its old id) — the two object-row
changes no attribute row explains.

Authorization rides the same machine: grants and revokes, file moves and
collection re-parents change what the §5 union up the collection
hierarchy decides, and every decision must be the same from the cached
catalog, from the same catalog with its cache switched off, and from the
uncached one.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core import MetadataCatalog, ObjectQuery, ObjectType
from repro.security import Permission
from repro.security.acl import effective_permissions

pytestmark = pytest.mark.cache

STR_VALUES = ("x", "y", "z")
INT_VALUES = (1, 2, 3)
FLOAT_VALUES = (0.5, 1.0, 2.0, 3.0)
COLLECTIONS = ("c0", "c1", "c2")
PRINCIPALS = ("/CN=p0", "/CN=p1")
GRANTS = (Permission.NONE, Permission.READ, Permission.READ | Permission.WRITE)


def _make_catalog(cache: bool) -> MetadataCatalog:
    catalog = MetadataCatalog(cache=cache)
    catalog.define_attribute("a_str", "string")
    catalog.define_attribute("a_int", "int")
    catalog.define_attribute("a_flt", "float")
    for name in COLLECTIONS:
        catalog.create_collection(name)
    return catalog


def _decision(catalog: MetadataCatalog, principal: str, kind: ObjectType, name: str):
    """What the service grants *principal* on an object: its service-level
    grant plus the union over the object's ACL chain."""
    try:
        (service_acl,) = catalog.acl_chain(ObjectType.SERVICE, None)
        own, *enclosing = catalog.acl_chain(kind, name)
    except Exception as exc:  # noqa: BLE001 - equivalence oracle
        return type(exc)
    return service_acl.permissions_for(principal) | effective_permissions(
        principal, own, enclosing
    )


def _queries():
    for s in STR_VALUES:
        yield ObjectQuery().where("a_str", "=", s)
    for i in INT_VALUES:
        yield ObjectQuery().where("a_str", "=", "x").where("a_int", "=", i)
    yield ObjectQuery().where_field("name", "=", "file-0001")
    yield ObjectQuery().where("a_int", ">", 1).order_by("name")
    yield ObjectQuery().where("a_int", ">=", 1).limit(3)
    yield ObjectQuery().where("a_int", "between", [2, 3])
    yield ObjectQuery().where("a_str", "between", ["x", "y"]).where("a_int", "=", 1)
    yield ObjectQuery().where("a_flt", "=", 2)
    yield ObjectQuery().where("a_flt", "between", [1, 2])
    yield ObjectQuery().where("a_flt", "<", 1).where("a_str", "!=", "z")
    yield ObjectQuery(valid_only=True).where("a_str", "=", "x")
    yield ObjectQuery(collection="c1").where("a_int", ">=", 2)


class CachedEquivalenceMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.cached = _make_catalog(cache=True)
        self.plain = _make_catalog(cache=False)
        self.names: list[str] = []
        self._counter = 0
        # Files whose logical_file row raw SQL deleted: (name, id).
        self.orphans: list[tuple[str, int]] = []

    def _fresh_name(self) -> str:
        self._counter += 1
        return f"file-{self._counter:04d}"

    def _both(self, fn):
        """Apply one operation to both catalogs; outcomes must agree."""
        results = []
        for catalog in (self.cached, self.plain):
            try:
                results.append((True, fn(catalog)))
            except Exception as exc:  # noqa: BLE001 - equivalence oracle
                results.append((False, type(exc)))
        assert results[0][0] == results[1][0], (
            f"cached ok={results[0]} plain ok={results[1]}"
        )
        return results[0]

    # -- rules ----------------------------------------------------------------

    @rule(
        s=st.sampled_from(STR_VALUES),
        i=st.sampled_from(INT_VALUES),
        f=st.sampled_from(FLOAT_VALUES),
        collection=st.sampled_from((None, *COLLECTIONS)),
    )
    def create_one(self, s, i, f, collection):
        name = self._fresh_name()
        ok, _ = self._both(
            lambda c: c.create_file(
                name,
                collection=collection,
                attributes={"a_str": s, "a_int": i, "a_flt": f},
            )
        )
        if ok:
            self.names.append(name)

    @rule(s=st.sampled_from(STR_VALUES))
    def set_attrs(self, s):
        if not self.names:
            return
        name = self.names[len(self.names) // 2]
        self._both(
            lambda c: c.set_attributes(ObjectType.FILE, name, {"a_str": s})
        )

    @rule(
        index=st.integers(min_value=0, max_value=5),
        attribute=st.sampled_from(("a_str", "a_int", "a_flt")),
        choice=st.integers(min_value=0, max_value=3),
    )
    def set_value(self, index, attribute, choice):
        # Values move into and out of the cached ranges and equalities.
        if not self.names:
            return
        name = self.names[index % len(self.names)]
        values = {"a_str": STR_VALUES, "a_int": INT_VALUES, "a_flt": FLOAT_VALUES}
        value = values[attribute][choice % len(values[attribute])]
        self._both(
            lambda c: c.set_attributes(ObjectType.FILE, name, {attribute: value})
        )

    @rule(index=st.integers(min_value=0, max_value=5))
    def invalidate(self, index):
        if not self.names:
            return
        name = self.names[index % len(self.names)]
        self._both(lambda c: c.invalidate_file(name))

    @rule(index=st.integers(min_value=0, max_value=5))
    def raw_delete_file_row(self, index):
        # The object row goes, its attribute rows stay behind.
        if not self.names:
            return
        name = self.names.pop(index % len(self.names))
        ids = self._both(lambda c: c.get_file(name).id)[1]
        self._both(
            lambda c: c._conn.execute("DELETE FROM logical_file WHERE id = ?", (ids,))
        )
        self.orphans.append((name, ids))

    @rule()
    def reinsert_file_row(self):
        # An explicit id brings the orphaned attribute rows back.
        if not self.orphans:
            return
        name, file_id = self.orphans.pop()
        ok, _ = self._both(
            lambda c: c._conn.execute(
                "INSERT INTO logical_file (id, name, version, valid, "
                "audit_enabled) VALUES (?, ?, 1, TRUE, FALSE)",
                (file_id, name),
            )
        )
        if ok:
            self.names.append(name)

    @rule()
    def delete_one(self):
        if not self.names:
            return
        name = self.names.pop(0)
        self._both(lambda c: c.delete_file(name))

    @rule(
        n=st.integers(min_value=1, max_value=5),
        poison=st.booleans(),
        atomic=st.booleans(),
        s=st.sampled_from(STR_VALUES),
    )
    def bulk_create(self, n, poison, atomic, s):
        entries = [
            {"name": self._fresh_name(), "attributes": {"a_str": s}}
            for _ in range(n)
        ]
        if poison and self.names:
            # Duplicate mid-batch: atomic -> whole-transaction rollback,
            # non-atomic -> savepoint rollback of just this item.  Either
            # way the cache must not serve answers from the reverted rows.
            entries.insert(
                len(entries) // 2,
                {"name": self.names[0], "attributes": {"a_str": s}},
            )
        ok, value = self._both(
            lambda c: c.bulk_create_files(entries, atomic=atomic)
        )
        if ok:
            for (item_ok, _), entry in zip(value, entries):
                if item_ok and entry["name"] not in self.names:
                    self.names.append(entry["name"])

    @rule(poison=st.booleans(), atomic=st.booleans(),
          i=st.sampled_from(INT_VALUES))
    def bulk_set(self, poison, atomic, i):
        if not self.names:
            return
        items = [
            {"name": name, "attributes": {"a_int": i}}
            for name in self.names[:3]
        ]
        if poison:
            items.insert(1, {"name": "no-such-file", "attributes": {"a_int": i}})
        self._both(lambda c: c.bulk_set_attributes(items, atomic=atomic))

    @rule(
        kind=st.sampled_from((ObjectType.SERVICE, ObjectType.COLLECTION, ObjectType.FILE)),
        index=st.integers(min_value=0, max_value=5),
        principal=st.sampled_from(PRINCIPALS),
        grant=st.sampled_from(GRANTS),
    )
    def set_permissions(self, kind, index, principal, grant):
        if kind is ObjectType.SERVICE:
            name = None
        elif kind is ObjectType.COLLECTION:
            name = COLLECTIONS[index % len(COLLECTIONS)]
        elif self.names:
            name = self.names[index % len(self.names)]
        else:
            return
        self._both(lambda c: c.set_permissions(kind, name, principal, grant))

    @rule(index=st.integers(min_value=0, max_value=5),
          collection=st.sampled_from((None, *COLLECTIONS)))
    def move(self, index, collection):
        if not self.names:
            return
        name = self.names[index % len(self.names)]
        self._both(lambda c: c.move_file_to_collection(name, collection))

    @rule(child=st.sampled_from(COLLECTIONS),
          parent=st.sampled_from((None, *COLLECTIONS)))
    def reparent(self, child, parent):
        # A cycle is refused by both catalogs alike.
        self._both(lambda c: c.set_collection_parent(child, parent))

    @rule()
    def warm_decisions(self):
        for principal in PRINCIPALS:
            for name in COLLECTIONS:
                _decision(self.cached, principal, ObjectType.COLLECTION, name)
            for name in self.names[:3]:
                _decision(self.cached, principal, ObjectType.FILE, name)

    @rule()
    def warm_queries(self):
        # Populate cache entries so later writes have something to
        # invalidate; answers are checked by the invariant right after.
        for query in _queries():
            self.cached.query(query)

    # -- invariants ------------------------------------------------------------

    @invariant()
    def cached_equals_uncached(self):
        for query in _queries():
            got = self.cached.query(query)
            want = self.plain.query(query)
            assert got == want, f"cached {got} != uncached {want}"

    @invariant()
    def per_file_attributes_match(self):
        for name in self.names[-3:]:
            assert self.cached.get_attributes(
                ObjectType.FILE, name
            ) == self.plain.get_attributes(ObjectType.FILE, name)

    @invariant()
    def permission_decisions_match(self):
        targets = [(ObjectType.COLLECTION, name) for name in COLLECTIONS]
        targets += [(ObjectType.FILE, name) for name in self.names[:2] + self.names[-2:]]
        for principal in PRINCIPALS:
            for kind, name in targets:
                cached = _decision(self.cached, principal, kind, name)
                self.cached.cache.enabled = False
                try:
                    bypassed = _decision(self.cached, principal, kind, name)
                finally:
                    self.cached.cache.enabled = True
                plain = _decision(self.plain, principal, kind, name)
                assert cached == bypassed == plain, (principal, kind, name)


TestCachedEquivalence = CachedEquivalenceMachine.TestCase
TestCachedEquivalence.settings = settings(
    max_examples=20, stateful_step_count=25, deadline=None
)
