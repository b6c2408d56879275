"""Stateful equivalence: index-forced and planned against the scan oracle.

Three identical catalogs receive the same randomized interleaving of
creates (into collections, and of further versions of existing names),
attribute writes, deletes, invalidations and non-atomic bulk batches
with poisoned items (exercising savepoint rollback).  After every step,
a pool of MQL statements — conjunctions, disjunctions, negation,
``like`` (prefix and wildcard-leading), ``between`` (also with its low
bound above its high one), a float attribute against int literals, an
int attribute against ``true`` (``1 = true`` holds), boolean sugar,
dataset algebra and paging — must return *identical ordered answers*
on all three, with the execution strategy pinned to ``scan`` (the
oracle) and ``index`` on two catalogs and left to the cost-based
planner on the third.  A pool of ``ObjectQuery`` questions
(``collection``, ``valid_only`` and both together, ``limit``/``offset``,
descending and non-name orders) is asked through **both front ends** —
``query`` and, where MQL can say it, ``query_mql`` of the same
question — and every one of those answers must be the same list too.
Queries also run inside an open transaction that has written, which
then commits or rolls back.

A separate seeded test crashes a durable catalog (abandoning it without
checkpoint), reopens the directory through WAL replay, and asserts the
three strategies still agree with an in-memory oracle that saw the same
successful operations.
"""

import random
from contextlib import contextmanager

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro import mql
from repro.core import MetadataCatalog, ObjectType
from repro.core.query import ObjectQuery
from repro.db import Database
from tests.recount import assert_counts_exact

pytestmark = pytest.mark.mql

#: One catalog per entry, the scan oracle first; ``None`` leaves the
#: choice to the planner.
STRATEGIES = ("scan", "index", None)
STR_VALUES = ("x", "y", "z")
INT_VALUES = (1, 2, 3)
FLT_VALUES = (1.0, 2.5, 3.0)
COLLECTIONS = ("c0", "c1")

#: MQL statements stressing every leaf shape and the dataset algebra.
STATEMENTS = (
    "files",
    "files where a_int = 1",
    "files where a_int = 2 and a_str = \"y\"",
    "files where a_int = 3 or a_str = \"z\" order by name desc",
    "files where a_str like \"x%\" order by name limit 4",
    "files where a_int between 1 and 2 order by name limit 5 offset 1",
    "files where not (a_int = 1 or a_str = \"y\")",
    "files where valid and a_int != 2",
    "files where a_int < 3 and not a_str = \"x\" order by name",
    "(files where a_int = 1) union (files where a_str = \"y\") order by name",
    "(files where a_int != 3) minus (files where a_str = \"z\")",
    "(files where a_int = 1) intersect (files where valid)",
    "(files where a_int = 1) union ((files where a_int = 2) "
    "intersect (files where a_str = \"x\")) order by name limit 6",
    "files where a_flt = 1",
    "files where a_flt between 1 and 3 and a_int != 1 order by name",
    "files where a_flt < 3 and a_flt >= 2",
    "files where a_str like \"%y\"",
    "files where a_int between 3 and 1",
    "files where a_int != 2 order by version desc limit 3 offset 1",
    "files where a_int = true",
)


#: The same kind of question as an API-level query, one per leaf feature.
QUESTIONS = (
    ObjectQuery(),
    ObjectQuery().where("a_int", "=", 1),
    ObjectQuery().where("a_str", "=", "y").where("a_int", "=", 2),
    ObjectQuery(valid_only=True).where("a_int", "!=", 2),
    ObjectQuery(valid_only=True),
    ObjectQuery(collection="c0"),
    ObjectQuery(collection="c1", valid_only=True)
    .where("a_str", "like", "x%")
    .order_by("name", descending=True),
    ObjectQuery(collection="c0").where("a_int", "<", 3).limit(2).offset(1),
    ObjectQuery().where("a_int", "between", (1, 2)).order_by("name").limit(5).offset(1),
    ObjectQuery().where_field("version", ">", 1).where("a_str", "!=", "z"),
    ObjectQuery().order_by("version", descending=True).limit(4),
    ObjectQuery().where("a_int", ">=", 2).order_by("valid").offset(2),
    ObjectQuery(collection="c0", valid_only=True).where("a_flt", ">=", 2),
    ObjectQuery().where("a_flt", "=", 3).where("a_str", "like", "%z"),
    ObjectQuery().where("a_int", "between", (2, 1)),
    ObjectQuery()
    .where("a_int", "!=", 3)
    .order_by("version", descending=True)
    .limit(2)
    .offset(1),
)


def as_mql(query):
    """*query* as MQL text, or None where MQL cannot say it (collections)."""
    if query.collection is not None:
        return None
    conditions = [
        mql.Condition(c.attribute, c.op, c.value)
        for c in (*query.conditions, *query.predefined)
    ]
    if query.valid_only:
        conditions.append(mql.Condition("valid", "=", True))
    where = None
    if len(conditions) == 1:
        where = conditions[0]
    elif conditions:
        where = mql.And(tuple(conditions))
    order_field, descending = query.order or (None, False)
    return mql.to_mql(
        mql.Statement(
            mql.Query(query.object_type.value, where),
            order_by=order_field,
            descending=descending,
            limit=query.max_results,
            offset=query.skip_results,
        )
    )


@contextmanager
def open_transaction(engines, commit):
    """One explicit transaction on each engine's connection of this
    thread; it commits (or rolls back) at the end, and rolls back on error."""
    for engine in engines:
        engine._conn.begin()
    try:
        yield
    except BaseException:
        commit = False
        raise
    finally:
        for engine in engines:
            if commit:
                engine._conn.commit()
            else:
                engine._conn.rollback()


def _prepare(catalog, strategy):
    catalog.define_attribute("a_str", "string")
    catalog.define_attribute("a_int", "int")
    catalog.define_attribute("a_flt", "float")
    for name in COLLECTIONS:
        catalog.create_collection(name)
    catalog.mql_strategy = strategy
    return catalog


class MQLEquivalenceMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.catalogs = [
            _prepare(MetadataCatalog(), strategy) for strategy in STRATEGIES
        ]
        self.names: list[str] = []
        self._counter = 0

    def teardown(self):
        for catalog in self.catalogs:
            catalog.db.close()

    def _fresh_name(self) -> str:
        self._counter += 1
        return f"file-{self._counter:04d}"

    def _pick(self, data_index: int) -> str:
        if not self.names:
            return "no-such-file"
        return self.names[data_index % len(self.names)]

    def _all_agree(self, op, fn):
        outcomes = []
        for catalog in self.catalogs:
            try:
                outcomes.append((True, fn(catalog)))
            except Exception as exc:  # noqa: BLE001 - oracle comparison
                outcomes.append((False, exc))
        ok0, value0 = outcomes[0]
        for strategy, (ok, value) in zip(STRATEGIES[1:], outcomes[1:]):
            assert ok == ok0, (
                f"{op}: {STRATEGIES[0]} ok={ok0} but {strategy} ok={ok} "
                f"({value0!r} vs {value!r})"
            )
            if not ok0:
                assert type(value) is type(value0)
            elif isinstance(value0, (list, tuple, dict, str, int, bool)):
                assert value == value0, (
                    f"{op}: {STRATEGIES[0]} returned {value0!r} but "
                    f"{strategy} returned {value!r}"
                )
        return outcomes[0]

    # -- write rules --------------------------------------------------------

    @rule(
        s=st.sampled_from(STR_VALUES),
        i=st.sampled_from(INT_VALUES),
        f=st.sampled_from(FLT_VALUES),
        bare=st.booleans(),
        coll=st.sampled_from(COLLECTIONS + (None,)),
    )
    def create(self, s, i, f, bare, coll):
        name = self._fresh_name()
        attrs = None if bare else {"a_str": s, "a_int": i, "a_flt": f}
        ok, _ = self._all_agree(
            f"create {name!r}",
            lambda c: bool(c.create_file(name, attributes=attrs, collection=coll)),
        )
        if ok:
            self.names.append(name)

    @rule(
        pick=st.integers(min_value=0),
        version=st.sampled_from((2, 3)),
        s=st.sampled_from(STR_VALUES),
        i=st.sampled_from(INT_VALUES),
        f=st.sampled_from(FLT_VALUES),
        coll=st.sampled_from(COLLECTIONS + (None,)),
    )
    def create_version(self, pick, version, s, i, f, coll):
        """A further version of an existing name, with its own attributes
        and collection: one name, several rows, possibly only some of
        them matching — every strategy must still list the name once."""
        name = self._pick(pick)
        ok, _ = self._all_agree(
            f"create {name!r} v{version}",
            lambda c: bool(
                c.create_file(
                    name,
                    version=version,
                    attributes={"a_str": s, "a_int": i, "a_flt": f},
                    collection=coll,
                )
            ),
        )
        if ok and name not in self.names:
            self.names.append(name)

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
        pick=st.integers(min_value=0),
        attr=st.sampled_from(("a_str", "a_int", "a_flt")),
    )
    def remove_attr(self, pick, attr):
        name = self._pick(pick)
        self._all_agree(
            f"remove_attribute {name!r}.{attr}",
            lambda c: c.remove_attribute(ObjectType.FILE, name, attr),
        )

    @rule(pick=st.integers(min_value=0))
    def invalidate(self, pick):
        name = self._pick(pick)
        self._all_agree(
            f"invalidate {name!r}", lambda c: c.invalidate_file(name)
        )

    @rule(pick=st.integers(min_value=0))
    def delete(self, pick):
        name = self._pick(pick)
        ok, _ = self._all_agree(f"delete {name!r}", lambda c: c.delete_file(name))
        # Only the latest version went; the name may live on in another.
        if ok and not self.catalogs[0].file_exists(name):
            self.names.remove(name)

    @rule(
        n=st.integers(min_value=1, max_value=4),
        poison=st.booleans(),
        s=st.sampled_from(STR_VALUES),
        i=st.sampled_from(INT_VALUES),
    )
    def bulk_set(self, n, poison, s, i):
        """Non-atomic bulk attribute writes; a poisoned item (unknown
        attribute) exercises the per-item savepoint rollback while the
        rest of the batch commits — index maintenance must follow."""
        items = [
            {
                "name": self._pick(k),
                "attributes": {"a_str": s, "a_int": (i + k) % 3 + 1},
            }
            for k in range(n)
        ]
        if poison:
            items.insert(
                n // 2,
                {"name": self._pick(0), "attributes": {"nope": 1, "a_int": i}},
            )
        per_catalog = [
            c.bulk_set_attributes(items, atomic=False) for c in self.catalogs
        ]
        base = [(ok, type(val).__name__ if not ok else None)
                for ok, val in per_catalog[0]]
        for strategy, outcomes in zip(STRATEGIES[1:], per_catalog[1:]):
            got = [(ok, type(val).__name__ if not ok else None)
                   for ok, val in outcomes]
            assert got == base, (
                f"bulk outcomes diverge under {strategy}: {got} != {base}"
            )

    # -- query rules --------------------------------------------------------

    @rule(statement=st.sampled_from(STATEMENTS))
    def mql_query(self, statement):
        self._all_agree(
            f"mql {statement!r}", lambda c: c.query_mql(statement)
        )

    @rule(question=st.sampled_from(QUESTIONS))
    def both_front_ends(self, question):
        ok, answer = self._all_agree(
            f"query {question!r}", lambda c: c.query(question)
        )
        assert ok, answer
        assert len(set(answer)) == len(answer), f"a name twice in {answer}"
        text = as_mql(question)
        if text is not None:
            _, same = self._all_agree(f"mql {text!r}", lambda c: c.query_mql(text))
            assert same == answer, (
                f"{text!r} answered {same!r}, the ObjectQuery {answer!r}"
            )

    @rule(
        pick=st.integers(min_value=0),
        i=st.sampled_from(INT_VALUES),
        statement=st.sampled_from(STATEMENTS),
        commit=st.booleans(),
    )
    def query_in_transaction(self, pick, i, statement, commit):
        """A query inside an open transaction sees that transaction's own
        uncommitted write; the transaction then commits or rolls back."""
        name = self._pick(pick)

        def run(catalog):
            with open_transaction([catalog], commit):
                catalog.set_attributes(ObjectType.FILE, name, {"a_int": i})
                return catalog.query_mql(statement)

        self._all_agree(f"in a transaction: {statement!r}", run)

    # -- invariants ---------------------------------------------------------

    @invariant()
    def counts_equal_a_recount(self):
        for strategy, catalog in zip(STRATEGIES, self.catalogs):
            assert_counts_exact(catalog, f" under {strategy}")

    @invariant()
    def full_listing_agrees(self):
        answers = [c.query_mql("files order by name") for c in self.catalogs]
        assert all(answer == answers[0] for answer in answers), (
            f"full listings diverge: {answers}"
        )


TestMQLEquivalence = MQLEquivalenceMachine.TestCase
TestMQLEquivalence.settings = settings(
    max_examples=12, stateful_step_count=25, deadline=None
)


# -- post-crash WAL replay ---------------------------------------------------


def _apply_random_ops(rng, catalog, oracle):
    """The same seeded op stream against the durable catalog and the
    in-memory oracle; returns nothing — both see identical writes."""
    names = []
    for step in range(60):
        action = rng.randrange(5)
        if action <= 1 or not names:
            name = f"f-{step:03d}"
            attrs = {
                "a_str": rng.choice(STR_VALUES),
                "a_int": rng.choice(INT_VALUES),
            }
            for c in (catalog, oracle):
                c.create_file(name, attributes=attrs)
            names.append(name)
        elif action == 2:
            name = rng.choice(names)
            attrs = {"a_int": rng.choice(INT_VALUES)}
            for c in (catalog, oracle):
                c.set_attributes(ObjectType.FILE, name, attrs)
        elif action == 3:
            name = names.pop(rng.randrange(len(names)))
            for c in (catalog, oracle):
                c.delete_file(name)
        else:
            # Poisoned non-atomic bulk: middle item rolls back under a
            # savepoint, neighbours commit.
            items = [
                {"name": rng.choice(names),
                 "attributes": {"a_str": rng.choice(STR_VALUES)}},
                {"name": "missing", "attributes": {"a_str": "x"}},
                {"name": rng.choice(names),
                 "attributes": {"a_int": rng.choice(INT_VALUES)}},
            ]
            for c in (catalog, oracle):
                outcomes = c.bulk_set_attributes(items, atomic=False)
                assert [ok for ok, _ in outcomes] == [True, False, True]


@pytest.mark.parametrize("seed", (7, 23))
def test_strategies_agree_after_crash_and_wal_replay(tmp_path, seed):
    durable = _prepare(
        MetadataCatalog(Database(directory=str(tmp_path), durable_sync=True)),
        None,
    )
    oracle = _prepare(MetadataCatalog(), "scan")
    _apply_random_ops(random.Random(seed), durable, oracle)
    expected = {s: oracle.query_mql(s) for s in STATEMENTS}
    # Crash: abandon the durable catalog without checkpoint or close —
    # recovery below rebuilds every table and index from the WAL alone.
    del durable

    reopened = MetadataCatalog(Database(directory=str(tmp_path)))
    try:
        assert_counts_exact(reopened, " after replay")
        for statement in STATEMENTS:
            for strategy in STRATEGIES:
                reopened.mql_strategy = strategy
                assert reopened.query_mql(statement) == expected[statement], (
                    f"{strategy} diverges from oracle after replay "
                    f"for {statement!r}"
                )
    finally:
        reopened.db.close()
        oracle.db.close()
