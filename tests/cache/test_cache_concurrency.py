"""Concurrency stress: zero stale reads under reader/writer churn.

One writer advances a monotonically increasing attribute value on a
single file (each ``set_attributes`` replaces the value, so exactly one
value matches at any instant) while reader threads hammer the same
cached queries.  Before each probe a reader snapshots the writer's
committed floor ``c``; since the value only ever grows, a query for any
value ``< c`` must return nothing — a non-empty answer could only come
from a stale cache entry.
"""

from __future__ import annotations

import threading

import pytest

from repro.core import MCSClient, MCSService, ObjectQuery

pytestmark = pytest.mark.cache

ROUNDS = 120
READERS = 4


def test_readers_never_see_stale_values_under_write_churn():
    service = MCSService()
    catalog = service.catalog
    catalog.define_attribute("v", "int")
    catalog.create_file("hot", attributes={"v": 0})

    committed = [0]  # highest value whose write has returned
    errors: list[BaseException] = []
    done = threading.Event()

    def writer() -> None:
        client = MCSClient.in_process(service, caller="writer")
        try:
            for j in range(1, ROUNDS + 1):
                client.set_attributes("file", "hot", {"v": j})
                committed[0] = j  # publish after the commit returned
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)
        finally:
            done.set()

    def reader(r: int) -> None:
        client = MCSClient.in_process(service, caller=f"reader-{r}")
        try:
            while not done.is_set():
                floor = committed[0]
                if floor >= 1:
                    stale = client.query(ObjectQuery().where("v", "=", floor - 1))
                    # v was already > floor-1 before this query began and
                    # never decreases: any hit is a stale cached read.
                    assert stale == [], (
                        f"stale read: v={floor - 1} still visible at "
                        f"floor {floor}: {stale}"
                    )
                # Racing probe at the floor itself: [] (writer moved on)
                # or ["hot"] are both legal; it exists to keep the cache
                # hot on the exact entries the writer is invalidating.
                client.query(ObjectQuery().where("v", "=", floor))
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader, args=(r,)) for r in range(READERS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive(), "thread wedged (possible deadlock)"
    assert not errors, f"failures under churn: {errors!r}"
    assert committed[0] == ROUNDS

    # The stress only proves anything if the cache actually served reads.
    # Readers racing a fast writer can (rarely) miss every probe, so
    # prime-and-probe deterministically now that the churn is over: with
    # no further invalidations, the repeated query must come from cache.
    prober = MCSClient.in_process(service, caller="prober")
    prober.query(ObjectQuery().where("v", "=", ROUNDS))
    prober.query(ObjectQuery().where("v", "=", ROUNDS))
    stats = catalog.cache.stats()["query"]
    assert stats["hits"] > 0, "stress never exercised the cache"


#: Bystander files carry values no reader query can match.
BYSTANDER_BASE = 10_000
#: A range no writer ever writes into: its entry should stay hot.
QUIET_RANGE = [1_000, 2_000]


def test_bystander_churn_keeps_unrelated_entries_hot():
    """The same stale-read probe, while a bystander creates and deletes
    files whose values match no reader query.

    Commits publish the rows they changed, so the bystander's writes
    must not empty the cache: readers keep hitting the entries the hot
    writer does not touch *during* the churn, and still never read a
    stale value — through ``=`` and through ``between``.
    """
    service = MCSService()
    catalog = service.catalog
    catalog.define_attribute("v", "int")
    catalog.create_file("hot", attributes={"v": 0})

    committed = [0]
    errors: list[BaseException] = []
    done = threading.Event()

    def writer() -> None:
        client = MCSClient.in_process(service, caller="writer")
        try:
            for j in range(1, ROUNDS + 1):
                client.set_attributes("file", "hot", {"v": j})
                committed[0] = j
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)
        finally:
            done.set()

    def bystander() -> None:
        client = MCSClient.in_process(service, caller="bystander")
        try:
            k = 0
            while not done.is_set():
                name = f"by-{k}"
                client.create_logical_file(name, attributes={"v": BYSTANDER_BASE + k})
                client.delete_logical_file(name)
                k += 1
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    def reader(r: int) -> None:
        client = MCSClient.in_process(service, caller=f"reader-{r}")
        try:
            while not done.is_set():
                floor = committed[0]
                if floor >= 1:
                    stale = client.query(ObjectQuery().where("v", "=", floor - 1))
                    assert stale == [], (
                        f"stale read: v={floor - 1} still visible at "
                        f"floor {floor}: {stale}"
                    )
                    below = client.query(
                        ObjectQuery().where("v", "between", [0, floor - 1])
                    )
                    assert below == [], (
                        f"stale read: v in [0, {floor - 1}] at floor {floor}: {below}"
                    )
                client.query(ObjectQuery().where("v", "=", floor))
                assert client.query(
                    ObjectQuery().where("v", "between", QUIET_RANGE)
                ) == []
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [
        threading.Thread(target=writer),
        threading.Thread(target=bystander),
    ] + [threading.Thread(target=reader, args=(r,)) for r in range(READERS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive(), "thread wedged (possible deadlock)"
    assert not errors, f"failures under churn: {errors!r}"
    assert committed[0] == ROUNDS

    stats = catalog.cache.stats()["query"]
    # Every lookup above ran during the churn.  The quiet range is a
    # quarter of them and no commit can change it, so it hits on every
    # repeat; before commits published their rows, each bystander
    # commit emptied the cache.
    lookups = stats["hits"] + stats["misses"]
    assert stats["hits"] >= lookups // 8, stats
