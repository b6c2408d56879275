"""Stateful property test: bulk operations vs the same single-op sequence.

Two identical catalogs run side by side.  One receives bulk operations
(`bulk_create_files` / `bulk_set_attributes`), the other the equivalent
sequence of single operations; after every step the two must be
observationally indistinguishable (file counts, attribute queries,
per-file attributes).

Mid-batch fault semantics are exercised deliberately: batches are salted
with duplicate names and unknown attributes so that

* ``atomic=True`` failures leave the bulk catalog byte-identical to a
  catalog that applied nothing, and
* ``atomic=False`` failures skip exactly the failing items while the
  survivors match single-op application.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core import (
    MetadataCatalog,
    ObjectQuery,
    ObjectType,
)

STR_VALUES = ("x", "y", "z")
INT_VALUES = (1, 2, 3)


def _make_catalog() -> MetadataCatalog:
    catalog = MetadataCatalog()
    catalog.define_attribute("a_str", "string")
    catalog.define_attribute("a_int", "int")
    return catalog


class BulkEquivalenceMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.bulk_cat = _make_catalog()
        self.single_cat = _make_catalog()
        self.names: list[str] = []
        self._counter = 0

    def _fresh_name(self) -> str:
        self._counter += 1
        return f"file-{self._counter:04d}"

    # -- rules ----------------------------------------------------------------

    @rule(
        n=st.integers(min_value=1, max_value=6),
        poison=st.booleans(),
        atomic=st.booleans(),
        s=st.sampled_from(STR_VALUES),
        i=st.sampled_from(INT_VALUES),
    )
    def bulk_create(self, n, poison, atomic, s, i):
        entries = [
            {
                "name": self._fresh_name(),
                "attributes": {"a_str": s, "a_int": i},
            }
            for _ in range(n)
        ]
        if poison and self.names:
            # A mid-batch duplicate: fails under both bulk and single.
            entries.insert(
                len(entries) // 2,
                {"name": self.names[0], "attributes": {"a_str": s}},
            )
        bulk_error = None
        try:
            outcomes = self.bulk_cat.bulk_create_files(entries, atomic=atomic)
        except Exception as exc:  # noqa: BLE001 - equivalence oracle below
            bulk_error = exc
            outcomes = None

        if atomic:
            if bulk_error is not None:
                # All-or-nothing: the single-op catalog applies nothing,
                # and at least one entry must fail there too.
                failed = 0
                probe = _make_catalog()
                for entry in entries:
                    try:
                        probe.create_file(
                            entry["name"], attributes=entry.get("attributes")
                        )
                    except Exception:  # noqa: BLE001
                        failed += 1
                # In-batch duplicates fail in the probe too; pre-existing
                # duplicates only fail against real state — either way the
                # bulk failure must be explainable by some failing item.
                assert poison or failed, "atomic bulk failed but no item can fail"
                return
            for entry in entries:
                self.single_cat.create_file(
                    entry["name"], attributes=entry.get("attributes")
                )
                self.names.append(entry["name"])
            return

        # Non-atomic: item outcomes must match single-op application.
        assert bulk_error is None, f"non-atomic bulk raised {bulk_error!r}"
        assert outcomes is not None and len(outcomes) == len(entries)
        for (ok, _value), entry in zip(outcomes, entries):
            single_ok = True
            try:
                self.single_cat.create_file(
                    entry["name"], attributes=entry.get("attributes")
                )
            except Exception:  # noqa: BLE001
                single_ok = False
            assert ok == single_ok, (
                f"bulk item ok={ok} but single-op ok={single_ok} "
                f"for {entry['name']!r}"
            )
            if ok:
                self.names.append(entry["name"])

    @rule(
        n=st.integers(min_value=1, max_value=4),
        poison=st.booleans(),
        atomic=st.booleans(),
        attr=st.sampled_from(("a_str", "a_int")),
    )
    def bulk_set_attributes(self, n, poison, atomic, attr):
        if not self.names:
            return
        targets = [self.names[k % len(self.names)] for k in range(n)]
        values = STR_VALUES if attr == "a_str" else INT_VALUES
        items = [
            {"name": name, "attributes": {attr: values[k % len(values)]}}
            for k, name in enumerate(targets)
        ]
        if poison:
            items.insert(
                len(items) // 2,
                {"name": "no-such-file", "attributes": {attr: values[0]}},
            )
        bulk_error = None
        try:
            outcomes = self.bulk_cat.bulk_set_attributes(items, atomic=atomic)
        except Exception as exc:  # noqa: BLE001
            bulk_error = exc
            outcomes = None

        if atomic:
            if bulk_error is not None:
                assert poison, "atomic bulk_set_attributes failed unpoisoned"
                return  # nothing applied on either side
            for item in items:
                self.single_cat.set_attributes(
                    ObjectType.FILE, item["name"], item["attributes"]
                )
            return

        assert bulk_error is None
        assert outcomes is not None and len(outcomes) == len(items)
        for (ok, _value), item in zip(outcomes, items):
            single_ok = True
            try:
                self.single_cat.set_attributes(
                    ObjectType.FILE, item["name"], item["attributes"]
                )
            except Exception:  # noqa: BLE001
                single_ok = False
            assert ok == single_ok

    @rule()
    def delete_one(self, ):
        if not self.names:
            return
        name = self.names.pop(0)
        self.bulk_cat.delete_file(name)
        self.single_cat.delete_file(name)

    @rule(s=st.sampled_from(STR_VALUES))
    def bulk_query_matches_single(self, s):
        query = ObjectQuery().where("a_str", "=", s)
        outcomes = self.bulk_cat.bulk_query([query])
        assert len(outcomes) == 1 and outcomes[0][0]
        assert sorted(outcomes[0][1]) == sorted(self.bulk_cat.query(query))

    # -- invariants ------------------------------------------------------------

    @invariant()
    def same_file_count(self):
        assert (
            self.bulk_cat.stats()["files"] == self.single_cat.stats()["files"]
        )

    @invariant()
    def same_query_results(self):
        for s in STR_VALUES:
            got = sorted(self.bulk_cat.query(ObjectQuery().where("a_str", "=", s)))
            want = sorted(
                self.single_cat.query(ObjectQuery().where("a_str", "=", s))
            )
            assert got == want, f"a_str={s}: bulk {got} != single {want}"

    @invariant()
    def same_per_file_attributes(self):
        for name in self.names:
            assert self.bulk_cat.get_attributes(
                ObjectType.FILE, name
            ) == self.single_cat.get_attributes(ObjectType.FILE, name)


TestBulkEquivalence = BulkEquivalenceMachine.TestCase
TestBulkEquivalence.settings = settings(
    max_examples=20, stateful_step_count=25, deadline=None
)
