"""Chaos: secondary-index maintenance under injected WAL-append faults.

Every attribute write changes, in one engine transaction, the EAV row,
its index entries and with them the counts the planner reads.  A
``db.wal:append`` fault fails the commit *after* the in-memory work is
staged — the catalog must roll all of it back together, and the
write-ahead log must never see a torn write.

The test drives a seeded workload against a durable catalog at a 30%
WAL-fault rate, mirrors every *successful* operation into a fault-free
in-memory oracle, then crash-reopens the directory (WAL replay) and
asserts both MQL execution strategies agree with the oracle, and
that the planner's counts — on the faulted catalog before the crash and
on the reopened one — equal an exact recount.
"""

from __future__ import annotations

import random

import pytest

from repro.core import MetadataCatalog, ObjectType
from repro.db import Database
from repro.faults import FaultPlan, active
from repro.soap.errors import TransportError
from tests.recount import assert_counts_exact, planner_counts

pytestmark = pytest.mark.chaos

STR_VALUES = ("x", "y", "z")
INT_VALUES = (1, 2, 3)

STATEMENTS = (
    "files order by name",
    "files where a_int = 1",
    "files where a_int = 2 and a_str = \"y\"",
    "files where a_str like \"x%\" or a_int between 2 and 3 order by name",
    "(files where a_int = 1) union (files where a_str = \"z\") order by name",
    "(files where a_int != 3) minus (files where a_str = \"y\")",
)


def _prepare(catalog):
    catalog.define_attribute("a_str", "string")
    catalog.define_attribute("a_int", "int")
    return catalog


def _chaos_workload(rng, durable, oracle):
    """Seeded op mix; an op reaches the oracle only if the durable
    catalog acknowledged it (WAL-failed commits roll back completely)."""
    names: list[str] = []
    for step in range(120):
        action = rng.randrange(6)
        if action <= 1 or not names:
            name = f"c-{step:03d}"
            attrs = {
                "a_str": rng.choice(STR_VALUES),
                "a_int": rng.choice(INT_VALUES),
            }
            try:
                durable.create_file(name, attributes=attrs)
            except TransportError:
                continue
            oracle.create_file(name, attributes=attrs)
            names.append(name)
        elif action == 2:
            name = rng.choice(names)
            attrs = {"a_int": rng.choice(INT_VALUES)}
            try:
                durable.set_attributes(ObjectType.FILE, name, attrs)
            except TransportError:
                continue
            oracle.set_attributes(ObjectType.FILE, name, attrs)
        elif action == 3:
            name = rng.choice(names)
            attr = rng.choice(("a_str", "a_int"))
            try:
                durable.remove_attribute(ObjectType.FILE, name, attr)
            except TransportError:
                continue
            oracle.remove_attribute(ObjectType.FILE, name, attr)
        elif action == 4:
            name = rng.choice(names)
            try:
                durable.delete_file(name)
            except TransportError:
                continue
            oracle.delete_file(name)
            names.remove(name)
        else:
            # Poisoned non-atomic bulk: the middle item's savepoint rolls
            # back, neighbours commit — unless the WAL fails the whole
            # batch at commit, in which case nothing may survive.
            items = [
                {"name": rng.choice(names),
                 "attributes": {"a_str": rng.choice(STR_VALUES)}},
                {"name": "missing", "attributes": {"a_str": "x"}},
                {"name": rng.choice(names),
                 "attributes": {"a_int": rng.choice(INT_VALUES)}},
            ]
            try:
                outcomes = durable.bulk_set_attributes(items, atomic=False)
            except TransportError:
                continue
            mirror = oracle.bulk_set_attributes(items, atomic=False)
            assert [ok for ok, _ in outcomes] == [ok for ok, _ in mirror]
    assert names, "chaos workload created no files"


@pytest.mark.parametrize("seed", (5, 41))
def test_index_maintenance_converges_after_wal_faults(tmp_path, no_faults, seed):
    durable = _prepare(
        MetadataCatalog(Database(directory=str(tmp_path), durable_sync=True))
    )
    oracle = _prepare(MetadataCatalog())
    oracle.mql_strategy = "scan"

    assert_counts_exact(durable)  # counting starts before the faulted writes
    plan = FaultPlan.parse(f"seed={seed};db.wal:append=error@0.3")
    with active(plan):
        _chaos_workload(random.Random(seed), durable, oracle)
    # Rolled-back commits took their counts with them.
    assert_counts_exact(durable, " after faulted commits")
    assert_counts_exact(oracle)
    del durable  # crash: no close, no checkpoint — recovery is WAL-only

    reopened = MetadataCatalog(Database(directory=str(tmp_path)))
    try:
        expected = {s: oracle.query_mql(s) for s in STATEMENTS}
        for statement in STATEMENTS:
            for strategy in ("index", "scan"):
                reopened.mql_strategy = strategy
                assert reopened.query_mql(statement) == expected[statement], (
                    f"{strategy} diverges after WAL-fault replay "
                    f"for {statement!r}"
                )
        assert_counts_exact(reopened, " after WAL-fault replay")
        assert planner_counts(reopened) == planner_counts(oracle)
    finally:
        reopened.db.close()
        oracle.db.close()
