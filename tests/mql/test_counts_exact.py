"""The planner's counts are exact after any history of writes.

The attribute indexes count their rows and distinct values as rows come
and go, so every path that changes ``attribute_value`` must leave the
counts equal to a ``GROUP BY`` recount: creates, sets, removes and
deletes of files, collections and views; atomic bulks rolled back by a
failing item and non-atomic bulks whose failing items roll back to a
savepoint; commits the write-ahead log refuses; checkpoint, close and
reopen (snapshot load and WAL replay).  The same holds on a synchronous
replica, which applies the primary's log, and on both shards of a
cross-shard move.
"""

import datetime as dt
import random
import shutil
import sys
import tempfile
import threading

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core import MetadataCatalog, ObjectType
from repro.core.replicated import ReplicatedMCS
from repro.db import Database
from repro.faults import FaultPlan, active
from repro.shard import build_sharded_catalog
from tests.recount import assert_counts_exact, planner_counts

pytestmark = pytest.mark.mql

FILE, COLLECTION, VIEW = ObjectType.FILE, ObjectType.COLLECTION, ObjectType.VIEW
KINDS = (FILE, COLLECTION, VIEW)
#: name -> (type, kinds it applies to, values; None stores a NULL).
ATTRIBUTES = {
    "a_str": ("string", KINDS, ("x", "y", None)),
    "a_int": ("int", (FILE, COLLECTION), (1, 2, 3)),
    "a_day": ("date", (FILE,), (dt.date(2003, 1, 1), dt.date(2003, 1, 2), None)),
}
WAL_REFUSES = "seed=1;db.wal:append=error@1.0"

attribute_sets = st.dictionaries(
    st.sampled_from(tuple(ATTRIBUTES)),
    st.integers(min_value=0, max_value=2),
    max_size=3,
)


def _define(cat):
    for name, (value_type, kinds, _values) in ATTRIBUTES.items():
        cat.define_attribute(name, value_type, kinds)
    return cat


def _values(picks):
    return {name: ATTRIBUTES[name][2][i] for name, i in picks.items()}


def _create(cat, kind, name, attributes):
    if kind is FILE:
        return cat.create_file(name, attributes=attributes)
    if kind is COLLECTION:
        return cat.create_collection(name, attributes=attributes)
    return cat.create_view(name, attributes=attributes)


def _delete(cat, kind, name):
    if kind is FILE:
        cat.delete_file(name)
    elif kind is COLLECTION:
        cat.delete_collection(name)
    else:
        cat.delete_view(name)


def _attempt(write):
    """Run *write*; a refused write must leave the catalog as it was."""
    try:
        write()
        return True
    except Exception:  # noqa: BLE001 - any refusal; the invariant judges
        return False


class CountsMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.directory = tempfile.mkdtemp(prefix="mcs-counts-")
        self.cat = _define(MetadataCatalog(Database(self.directory)))
        self.names = {kind: [] for kind in KINDS}
        self.serial = 0

    def teardown(self):
        self.cat.db.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    def _pick(self, kind, pick):
        names = self.names[kind]
        return names[pick % len(names)] if names else f"absent-{kind.value}"

    @rule(kind=st.sampled_from(KINDS), picks=attribute_sets)
    def create(self, kind, picks):
        self.serial += 1
        name = f"{kind.value}-{self.serial}"
        if _attempt(lambda: _create(self.cat, kind, name, _values(picks))):
            self.names[kind].append(name)

    @rule(kind=st.sampled_from(KINDS), pick=st.integers(0, 50), picks=attribute_sets)
    def set_attributes(self, kind, pick, picks):
        name = self._pick(kind, pick)
        _attempt(lambda: self.cat.set_attributes(kind, name, _values(picks)))

    @rule(
        kind=st.sampled_from(KINDS),
        pick=st.integers(0, 50),
        attribute=st.sampled_from(tuple(ATTRIBUTES)),
    )
    def remove_attribute(self, kind, pick, attribute):
        name = self._pick(kind, pick)
        _attempt(lambda: self.cat.remove_attribute(kind, name, attribute))

    @rule(kind=st.sampled_from(KINDS), pick=st.integers(0, 50))
    def delete(self, kind, pick):
        name = self._pick(kind, pick)
        if _attempt(lambda: _delete(self.cat, kind, name)):
            self.names[kind].remove(name)

    @rule(
        picks=st.lists(attribute_sets, min_size=1, max_size=4),
        atomic=st.booleans(),
        poison=st.booleans(),
    )
    def bulk_create(self, picks, atomic, poison):
        self.serial += 1
        entries = [
            {"name": f"bulk-{self.serial}-{i}", "attributes": _values(p)}
            for i, p in enumerate(picks)
        ]
        if poison:  # a repeated name fails at its insert
            entries.append(dict(entries[0]))
        try:
            outcomes = self.cat.bulk_create_files(entries, atomic=atomic)
        except Exception:  # noqa: BLE001 - the atomic batch rolled back
            return
        for entry, (ok, _value) in zip(entries, outcomes):
            if ok:
                self.names[FILE].append(entry["name"])

    @rule(
        spec=st.lists(
            st.tuples(st.sampled_from(KINDS), st.integers(0, 50), attribute_sets),
            min_size=1,
            max_size=4,
        ),
        atomic=st.booleans(),
    )
    def bulk_set(self, spec, atomic):
        # An item naming a missing object or an attribute its kind lacks
        # fails after the items before it wrote: atomic batches undo
        # them all, non-atomic ones undo just the failed item.
        items = [
            {
                "object_type": kind.value,
                "name": self._pick(kind, pick),
                "attributes": _values(picks),
            }
            for kind, pick, picks in spec
        ]
        _attempt(lambda: self.cat.bulk_set_attributes(items, atomic=atomic))

    @rule(
        kind=st.sampled_from(KINDS),
        pick=st.integers(0, 50),
        picks=attribute_sets.filter(bool),  # an empty set commits nothing
    )
    def refused_commit(self, kind, pick, picks):
        name = self._pick(kind, pick)
        self.serial += 1
        writes = (
            lambda: _create(self.cat, kind, f"refused-{self.serial}", _values(picks)),
            lambda: self.cat.set_attributes(kind, name, _values(picks)),
            lambda: _delete(self.cat, kind, name),
        )
        with active(FaultPlan.parse(WAL_REFUSES)):
            for write in writes:
                assert not _attempt(write)

    @rule(checkpoint=st.booleans())
    def reopen(self, checkpoint):
        if checkpoint:
            self.cat.db.checkpoint()
        self.cat.db.close()
        self.cat = MetadataCatalog(Database(self.directory))

    @invariant()
    def counts_equal_a_recount(self):
        assert_counts_exact(self.cat)


TestCounts = CountsMachine.TestCase
TestCounts.settings = settings(max_examples=15, stateful_step_count=30, deadline=None)


def _random_writes(rng, cat, steps, check, prefix=""):
    """A seeded mix of the machine's writes, *check* after each."""
    names = {kind: [] for kind in KINDS}
    for step in range(steps):
        kind = rng.choice(KINDS)
        picks = {a: rng.randrange(3) for a in rng.sample(tuple(ATTRIBUTES), 2)}
        action = rng.randrange(4)
        if action <= 1 or not names[kind]:
            name = f"{prefix}{kind.value}-{step}"
            if _attempt(lambda: _create(cat, kind, name, _values(picks))):
                names[kind].append(name)
        elif action == 2:
            name = rng.choice(names[kind])
            _attempt(lambda: cat.set_attributes(kind, name, _values(picks)))
        else:
            name = rng.choice(names[kind])
            if _attempt(lambda: _delete(cat, kind, name)):
                names[kind].remove(name)
        check()


def test_counts_are_exact_on_a_synchronous_replica():
    deployment = ReplicatedMCS(replicas=1, synchronous=True)
    primary, replica = deployment.catalog, deployment._replica_catalogs[0]
    try:
        _define(primary)
        assert_counts_exact(replica)  # counting starts before the writes

        def check():
            assert_counts_exact(primary)
            assert_counts_exact(replica, " on the replica")
            assert planner_counts(replica) == planner_counts(primary)

        _random_writes(random.Random(3), primary, 60, check)
    finally:
        deployment.close()


def test_counts_are_exact_on_both_shards_of_a_cross_shard_move():
    router = build_sharded_catalog(2)
    _define(router)
    homes = {}
    for i in range(16):
        homes.setdefault(router.map.shard_for_collection(f"c{i}"), f"c{i}")
    source, target = homes[0], homes[1]
    for collection in (source, target):
        router.create_collection(collection)
    for shard in router.shards:
        assert_counts_exact(shard)
    for i in range(6):
        router.create_file(
            f"f{i}", collection=source, attributes={"a_str": "xy"[i % 2], "a_int": i % 3}
        )
    for i in range(0, 6, 2):
        router.move_file_to_collection(f"f{i}", target)
        for idx, shard in enumerate(router.shards):
            assert_counts_exact(shard, f" on shard {idx} after moving f{i}")
    assert sorted(router.list_collection(target)) == ["f0", "f2", "f4"]
    assert router.shards[1].file_exists("f0") and not router.shards[0].file_exists("f0")


def test_counts_stay_exact_when_planners_start_them_under_concurrent_writes():
    # Four writers and two planners on two cores, thread switches every
    # 10 µs; the planners race to start counting while rows come and go.
    cat = _define(MetadataCatalog())
    errors = []

    def write(worker):
        try:
            _random_writes(random.Random(worker), cat, 40, lambda: None, f"w{worker}-")
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    def plan():
        try:
            for _ in range(200):
                planner_counts(cat)
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=write, args=(w,)) for w in range(4)]
        threads += [threading.Thread(target=plan) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert_counts_exact(cat)
