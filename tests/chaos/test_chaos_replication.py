"""Chaos: WAL shipping under injected shipment faults.

The replication contract under fire: a replica whose shipments keep
failing must still converge to the primary's exact state — batches land
whole, in commit order, exactly once — because the ship loop retries the
*same* batch in place until it applies.
"""

from __future__ import annotations

import pytest

from repro import faults
from repro.db import Database
from repro.db.replication import Replica, ReplicationPublisher
from repro.faults import FaultPlan
from repro.resilience import RetryPolicy
from repro.soap.errors import TransportError
from tests.tables import make_table

pytestmark = pytest.mark.chaos


def table_rows(database: Database) -> list[tuple]:
    return database.connect().execute(
        "SELECT id, v FROM t ORDER BY id"
    ).fetchall()


def run_commits(primary: Database, n: int = 30) -> None:
    conn = primary.connect()
    make_table(conn, "t", "id INTEGER, v STRING", primary_key=("id",))
    for i in range(n):
        if i % 5 == 4:
            conn.execute(f"UPDATE t SET v = 'u{i}' WHERE id = {i - 2}")
        else:
            conn.execute(f"INSERT INTO t (id, v) VALUES ({i}, 'v{i}')")


def test_async_replica_converges_despite_shipping_faults(no_faults):
    primary = Database()
    publisher = ReplicationPublisher(primary)
    replica = Replica(
        "r-chaos", asynchronous=True,
        retry_policy=RetryPolicy(max_attempts=6, base_delay_s=0.0005,
                                 max_delay_s=0.005, jitter=0.0),
    )
    publisher.add_replica(replica)
    plan = FaultPlan.parse("seed=11;repl.ship:r-chaos=error@0.3")
    try:
        with faults.active(plan):
            run_commits(primary)
            publisher.flush_all(timeout=10.0)
        assert plan.injected > 0, "no shipment ever failed; nothing proven"
        assert table_rows(replica.database) == table_rows(primary)
        # Exactly-once: every published batch applied once, none twice.
        assert replica.applied_batches == publisher.batches_published
    finally:
        publisher.close()


def test_sync_replica_surfaces_exhausted_retries_to_the_commit(no_faults):
    """The bounded (synchronous) path gives up after the policy's budget
    and propagates — a silent half-replicated commit would be worse."""
    primary = Database()
    publisher = ReplicationPublisher(primary)
    replica = Replica(
        "r-sync",
        retry_policy=RetryPolicy(max_attempts=2, base_delay_s=0.0,
                                 max_delay_s=0.0, jitter=0.0),
    )
    publisher.add_replica(replica)
    plan = FaultPlan.parse("repl.ship:r-sync=error")  # rate 1.0: always fails
    try:
        conn = primary.connect()
        with faults.active(plan):
            with pytest.raises(TransportError):
                make_table(conn, "t", "id INTEGER", primary_key=("id",))
        # Nothing half-applied on the replica: the injection point sits
        # before the batch touches any row.
        assert replica.applied_batches == 0
        assert replica.database.catalog.table_names() == []
    finally:
        publisher.close()


def test_replica_applies_in_commit_order_under_faults(no_faults):
    """Interleaved dependent statements: order violations would surface
    as apply errors or wrong final values."""
    primary = Database()
    publisher = ReplicationPublisher(primary)
    replica = Replica("r-order", asynchronous=True)
    publisher.add_replica(replica)
    plan = FaultPlan.parse("seed=5;repl.ship:r-order=error@0.4")
    try:
        conn = primary.connect()
        with faults.active(plan):
            make_table(conn, "t", "id INTEGER, v STRING", primary_key=("id",))
            conn.execute("INSERT INTO t (id, v) VALUES (1, 'a')")
            for i in range(20):
                conn.execute(f"UPDATE t SET v = 'step{i}' WHERE id = 1")
            publisher.flush_all(timeout=10.0)
        assert table_rows(replica.database) == [(1, "step19")]
    finally:
        publisher.close()
