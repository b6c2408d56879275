"""Stateful property test: sharded catalogs vs one single-engine catalog.

The headline suite of sharding.  Four catalogs run side by side — a
plain :class:`MetadataCatalog` pinned to the ``scan`` oracle and
:class:`ShardedCatalog` instances over 1, 2 and 4 engines left to their
planners — and receive the identical randomized sequence of creates
(further versions of a name too), moves, deletes, invalidations,
attribute writes, bulk batches and queries, some of them inside an
open transaction on every engine.
After every step all four must agree on

* success/failure of the operation (same exception type on failure),
* per-item bulk outcomes in submission order,
* query answers, list for list — with or without ``order_by``, on
  duplicated and NULL sort keys, ``limit``/``offset`` paging included,
* observable aggregate state (file counts, per-file attributes,
  collection listings).

Shard-local row ids and timestamps are the documented divergences and
are deliberately never compared.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule
import pytest

from repro.core import MetadataCatalog, ObjectType
from repro.core.query import ObjectQuery
from repro.shard import build_sharded_catalog
from tests.mql.test_equivalence import open_transaction
from tests.recount import assert_counts_exact

pytestmark = pytest.mark.shard

SHARD_COUNTS = (1, 2, 4)
COLLECTIONS = ("colA", "colB", "colC", "colD", "colE", "colF")
STR_VALUES = ("x", "y", "z")
INT_VALUES = (1, 2, 3)
FLT_VALUES = (1.0, 2.5, 3.0)

#: MQL statements the router must scatter per-leaf and merge back into
#: the exact single-engine answer — conjunctions, disjunctions, ``like``,
#: dataset algebra over parenthesized subqueries, and paging.
MQL_STATEMENTS = (
    "files order by name",
    "files where a_int = 1",
    "files where a_int = 2 and a_str = \"y\" order by name",
    "files where a_str like \"x%\" or a_int = 3 order by name limit 4",
    "files where not (a_int = 2) order by name desc limit 5 offset 1",
    "(files where a_int = 1) union (files where a_str = \"y\") order by name",
    "(files where a_int != 3) minus (files where a_str = \"z\")",
    "(files where a_int = 1) intersect (files where valid) order by name",
    "files where a_flt = 1",
    "files where a_str like \"%y\" order by name",
    "files where a_int between 3 and 1",
    "files where a_flt between 1 and 3 and a_int != 2 "
    "order by version desc limit 3 offset 1",
)


def _prepare(catalog):
    catalog.define_attribute("a_str", "string")
    catalog.define_attribute("a_int", "int")
    catalog.define_attribute("a_flt", "float")
    for name in COLLECTIONS:
        catalog.create_collection(name)
    return catalog


class ShardedEquivalenceMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.single = _prepare(MetadataCatalog())
        self.single.mql_strategy = "scan"
        self.sharded = [
            _prepare(build_sharded_catalog(n)) for n in SHARD_COUNTS
        ]
        self.names: list[str] = []
        self._counter = 0

    def teardown(self):
        for catalog in self.sharded:
            catalog.close()

    @property
    def catalogs(self):
        return [self.single, *self.sharded]

    def _fresh_name(self) -> str:
        self._counter += 1
        return f"file-{self._counter:04d}"

    def _pick(self, data_index: int) -> str:
        """An existing name, or a never-created one on an empty pool."""
        if not self.names:
            return "no-such-file"
        return self.names[data_index % len(self.names)]

    def _all_agree(self, op, fn):
        """Run ``fn(catalog)`` everywhere; all outcomes must match.

        Returns the single-engine outcome ``(ok, value_or_exc)``.
        """
        outcomes = []
        for catalog in self.catalogs:
            try:
                outcomes.append((True, fn(catalog)))
            except Exception as exc:  # noqa: BLE001 - oracle comparison
                outcomes.append((False, exc))
        ok0, value0 = outcomes[0]
        for shards, (ok, value) in zip(SHARD_COUNTS, outcomes[1:]):
            assert ok == ok0, (
                f"{op}: single ok={ok0} but {shards}-shard ok={ok} "
                f"({value0!r} vs {value!r})"
            )
            if not ok0:
                assert type(value) is type(value0), (
                    f"{op}: single raised {type(value0).__name__} but "
                    f"{shards}-shard raised {type(value).__name__}"
                )
            elif isinstance(value0, (list, tuple, dict, str, int, bool)):
                assert value == value0, (
                    f"{op}: single returned {value0!r} but "
                    f"{shards}-shard returned {value!r}"
                )
        return outcomes[0]

    # -- rules --------------------------------------------------------------

    @rule(
        fresh=st.booleans(),
        coll=st.sampled_from(COLLECTIONS + (None,)),
        s=st.sampled_from(STR_VALUES),
        i=st.sampled_from(INT_VALUES),
        f=st.sampled_from(FLT_VALUES),
        pick=st.integers(min_value=0),
        data_type=st.sampled_from((None, "t0", "t1")),
    )
    def create(self, fresh, coll, s, i, f, pick, data_type):
        name = self._fresh_name() if fresh or not self.names else self._pick(pick)
        ok, _ = self._all_agree(
            f"create {name!r}",
            lambda c: bool(
                c.create_file(
                    name,
                    collection=coll,
                    data_type=data_type,
                    attributes={"a_str": s, "a_int": i, "a_flt": f},
                )
            ),
        )
        if ok:
            self.names.append(name)

    @rule(
        pick=st.integers(min_value=0),
        version=st.sampled_from((2, 3)),
        i=st.sampled_from(INT_VALUES),
        f=st.sampled_from(FLT_VALUES),
    )
    def create_version(self, pick, version, i, f):
        """A further version of an existing name, with its own attributes:
        one name, several rows, possibly only some of them matching."""
        name = self._pick(pick)
        self._all_agree(
            f"create {name!r} v{version}",
            lambda c: bool(
                c.create_file(name, version=version, attributes={"a_int": i, "a_flt": f})
            ),
        )

    @rule(pick=st.integers(min_value=0), coll=st.sampled_from(COLLECTIONS + (None,)))
    def move(self, pick, coll):
        name = self._pick(pick)
        self._all_agree(
            f"move {name!r} -> {coll!r}",
            lambda c: c.move_file_to_collection(name, coll),
        )

    @rule(pick=st.integers(min_value=0))
    def delete(self, pick):
        name = self._pick(pick)
        ok, _ = self._all_agree(
            f"delete {name!r}", lambda c: c.delete_file(name)
        )
        if ok and name in self.names:
            self.names.remove(name)

    @rule(pick=st.integers(min_value=0))
    def invalidate(self, pick):
        name = self._pick(pick)
        self._all_agree(f"invalidate {name!r}", lambda c: c.invalidate_file(name))

    @rule(
        pick=st.integers(min_value=0),
        s=st.sampled_from(STR_VALUES),
        i=st.sampled_from(INT_VALUES),
        f=st.sampled_from(FLT_VALUES),
    )
    def set_attrs(self, pick, s, i, f):
        name = self._pick(pick)
        self._all_agree(
            f"set_attributes {name!r}",
            lambda c: c.set_attributes(
                ObjectType.FILE, name, {"a_str": s, "a_int": i, "a_flt": f}
            ),
        )

    @rule(
        n=st.integers(min_value=1, max_value=5),
        poison=st.booleans(),
        coll=st.sampled_from(COLLECTIONS),
        s=st.sampled_from(STR_VALUES),
    )
    def bulk_create(self, n, poison, coll, s):
        """Non-atomic bulk with interleaved failures: the per-item ok
        vector (in submission order) must match the single engine's."""
        entries = [
            {
                "name": self._fresh_name(),
                "collection": COLLECTIONS[(k + n) % len(COLLECTIONS)],
                "attributes": {"a_str": s},
            }
            for k in range(n)
        ]
        if poison and self.names:
            entries.insert(
                len(entries) // 2,
                {"name": self.names[0], "collection": coll,
                 "attributes": {"a_str": s}},
            )
        per_catalog = [
            c.bulk_create_files(entries, atomic=False) for c in self.catalogs
        ]
        base = [(ok, type(val).__name__ if not ok else None)
                for ok, val in per_catalog[0]]
        for shards, outcomes in zip(SHARD_COUNTS, per_catalog[1:]):
            got = [(ok, type(val).__name__ if not ok else None)
                   for ok, val in outcomes]
            assert got == base, (
                f"bulk outcomes diverge on {shards} shards: {got} != {base}"
            )
        for (ok, _), entry in zip(per_catalog[0], entries):
            if ok:
                self.names.append(entry["name"])

    @rule(
        s=st.sampled_from(STR_VALUES + (None,)),
        i=st.sampled_from(INT_VALUES + (None,)),
        coll=st.sampled_from((None,) + COLLECTIONS[:2]),
        valid_only=st.booleans(),
        order=st.sampled_from((None, "name", "data_type")),
        descending=st.booleans(),
        limit=st.sampled_from((None, 1, 2, 3, 10)),
        offset=st.sampled_from((None, 1, 2, 5)),
    )
    def query(self, s, i, coll, valid_only, order, descending, limit, offset):
        """Every ``ObjectQuery`` shape, list for list: the router scatters
        the query's one leaf and finishes with the single engine's own
        dedup / sort / slice, so unordered queries, duplicated and NULL
        sort keys and collection-scoped queries all agree exactly."""
        query = ObjectQuery(collection=coll, valid_only=valid_only)
        if s is not None:
            query.where("a_str", "=", s)
        if i is not None:
            query.where("a_int", "<=", i)
        if order is not None:
            query.order_by(order, descending=descending)
        query.limit(limit).offset(offset)
        self._all_agree(f"query {query!r}", lambda c: c.query(query))

    @rule(coll=st.sampled_from(COLLECTIONS))
    def list_collection(self, coll):
        self._all_agree(
            f"list_collection {coll!r}", lambda c: c.list_collection(coll)
        )

    @rule(statement=st.sampled_from(MQL_STATEMENTS))
    def mql_query(self, statement):
        self._all_agree(
            f"mql {statement!r}", lambda c: c.query_mql(statement)
        )

    @rule(
        pick=st.integers(min_value=0),
        i=st.sampled_from(INT_VALUES),
        statement=st.sampled_from(MQL_STATEMENTS),
        commit=st.booleans(),
    )
    def query_in_transaction(self, pick, i, statement, commit):
        """A query inside a transaction open on every engine sees the
        transaction's own uncommitted write; it then commits or rolls back."""
        name = self._pick(pick)

        def run(catalog):
            engines = getattr(catalog, "shards", [catalog])
            with open_transaction(engines, commit):
                catalog.set_attributes(ObjectType.FILE, name, {"a_int": i})
                return catalog.query_mql(statement)

        self._all_agree(f"in a transaction: {statement!r}", run)

    # -- invariants ----------------------------------------------------------

    @invariant()
    def counts_equal_a_recount_on_every_shard(self):
        assert_counts_exact(self.single)
        for catalog in self.sharded:
            for idx, shard in enumerate(catalog.shards):
                assert_counts_exact(shard, f" on shard {idx} of {len(catalog.shards)}")

    @invariant()
    def same_file_count(self):
        counts = [c.stats()["files"] for c in self.catalogs]
        assert len(set(counts)) == 1, f"file counts diverge: {counts}"

    @invariant()
    def same_attributes(self):
        # A name with several versions refuses an unversioned read: alike.
        for name in self.names[-3:]:
            self._all_agree(
                f"get_attributes {name!r}",
                lambda c: c.get_attributes(ObjectType.FILE, name),
            )


TestShardedEquivalence = ShardedEquivalenceMachine.TestCase
TestShardedEquivalence.settings = settings(
    max_examples=15, stateful_step_count=20, deadline=None
)
