"""Stateful property test: MetadataCatalog vs an in-memory model.

Hypothesis drives random catalog operations (files, collections,
attributes, deletion) and cross-checks every query against a trivially
correct Python model.
"""

from hypothesis import settings
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    consumes,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.core import (
    DuplicateObjectError,
    MetadataCatalog,
    ObjectNotFoundError,
    ObjectQuery,
    ObjectType,
)

ATTRS = ("a_str", "a_int")
VALUES = {"a_str": ("x", "y", "z"), "a_int": (1, 2, 3)}


class CatalogMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.catalog = MetadataCatalog()
        self.catalog.define_attribute("a_str", "string")
        self.catalog.define_attribute("a_int", "int")
        self.model: dict[str, dict] = {}  # name -> {"attrs": {...}, "coll": str|None}
        self.collections: set[str] = set()
        self._counter = 0

    files = Bundle("files")

    # -- rules ----------------------------------------------------------------

    @rule(target=files,
          s=st.sampled_from(VALUES["a_str"]),
          i=st.sampled_from(VALUES["a_int"]))
    def create_file(self, s, i):
        self._counter += 1
        name = f"file-{self._counter:04d}"
        self.catalog.create_file(name, attributes={"a_str": s, "a_int": i})
        self.model[name] = {"attrs": {"a_str": s, "a_int": i}, "coll": None}
        return name

    @rule(name=files)
    def duplicate_create_rejected(self, name):
        if name not in self.model:
            return
        try:
            self.catalog.create_file(name)
            raise AssertionError("duplicate create must fail")
        except DuplicateObjectError:
            pass

    @rule(name=consumes(files))
    def delete_file(self, name):
        if name in self.model:
            self.catalog.delete_file(name)
            del self.model[name]
        else:
            try:
                self.catalog.delete_file(name)
                raise AssertionError("deleting a missing file must fail")
            except ObjectNotFoundError:
                pass

    @rule(name=files,
          attr=st.sampled_from(ATTRS))
    def update_attribute(self, name, attr):
        if name not in self.model:
            return
        value = VALUES[attr][(hash(name) + 1) % len(VALUES[attr])]
        self.catalog.set_attributes(ObjectType.FILE, name, {attr: value})
        self.model[name]["attrs"][attr] = value

    @rule(name=files)
    def remove_attribute(self, name):
        if name not in self.model or "a_str" not in self.model[name]["attrs"]:
            return
        self.catalog.remove_attribute(ObjectType.FILE, name, "a_str")
        del self.model[name]["attrs"]["a_str"]

    @rule(suffix=st.integers(min_value=0, max_value=3))
    def create_collection(self, suffix):
        name = f"coll-{suffix}"
        if name in self.collections:
            return
        self.catalog.create_collection(name)
        self.collections.add(name)

    @rule(name=files, suffix=st.integers(min_value=0, max_value=3))
    def move_to_collection(self, name, suffix):
        coll = f"coll-{suffix}"
        if name not in self.model or coll not in self.collections:
            return
        self.catalog.move_file_to_collection(name, coll)
        self.model[name]["coll"] = coll

    # -- invariants ------------------------------------------------------------------

    @invariant()
    def file_count_matches(self):
        assert self.catalog.stats()["files"] == len(self.model)

    @invariant()
    def attribute_queries_match(self):
        for s in VALUES["a_str"]:
            got = sorted(self.catalog.query(ObjectQuery().where("a_str", "=", s)))
            want = sorted(
                name for name, rec in self.model.items()
                if rec["attrs"].get("a_str") == s
            )
            assert got == want, f"a_str={s}: {got} != {want}"

    @invariant()
    def conjunctive_queries_match(self):
        got = sorted(
            self.catalog.query(ObjectQuery().where_equal({"a_str": "x", "a_int": 1}))
        )
        want = sorted(
            name for name, rec in self.model.items()
            if rec["attrs"].get("a_str") == "x" and rec["attrs"].get("a_int") == 1
        )
        assert got == want

    @invariant()
    def per_file_attributes_match(self):
        for name, rec in self.model.items():
            assert self.catalog.get_attributes(ObjectType.FILE, name) == rec["attrs"]

    @invariant()
    def collection_membership_matches(self):
        for coll in self.collections:
            got = self.catalog.list_collection(coll)
            want = sorted(
                name for name, rec in self.model.items() if rec["coll"] == coll
            )
            assert got == want


TestCatalogStateful = CatalogMachine.TestCase
TestCatalogStateful.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
