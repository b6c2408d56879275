"""Primary → replica database replication via logical WAL shipping.

The paper's §9: "we have assumed that we would eventually replicate the
MCS over a small number of sites to improve performance and reliability."
This module provides the database-level mechanism: every transaction
committed on the primary is shipped, as its logical WAL records, to a set
of replica databases which apply them in commit order.

Two shipping modes:

* **synchronous** — records applied to every replica before the commit
  hook returns (replicas never lag; primary pays the cost);
* **asynchronous** — records queued and applied by a background thread
  per replica (primary unaffected; replicas exhibit bounded staleness,
  observable via :meth:`Replica.lag` and forceable via ``flush``).

Replicas are for reads; writing to a replica database directly is not
prevented but will diverge it.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Optional

from repro import faults as _faults
from repro.db.engine import Database
from repro.db.wal import _apply_record
from repro.obs import trace as _trace
from repro.obs.metrics import OBS, counter as _obs_counter, gauge as _obs_gauge, histogram as _obs_histogram
from repro.resilience.retry import RETRY_ATTEMPTS, RetryPolicy

_REPL_SHIPPED = _obs_counter(
    "mcs_repl_batches_shipped_total",
    "Commit batches published to the replica set",
)
_REPL_APPLIED = _obs_counter(
    "mcs_repl_batches_applied_total",
    "Commit batches applied, per replica",
    labels=("replica",),
)
_REPL_LAG = _obs_gauge(
    "mcs_repl_lag_batches",
    "Commit batches queued or mid-apply, per replica",
    labels=("replica",),
)
_REPL_APPLY_SECONDS = _obs_histogram(
    "mcs_repl_apply_seconds",
    "Time to apply one commit batch on a replica",
    labels=("replica",),
)


class Replica:
    """One replica database plus its apply machinery."""

    def __init__(self, name: str, database: Optional[Database] = None,
                 asynchronous: bool = False,
                 retry_policy: Optional[RetryPolicy] = None) -> None:
        self.name = name
        self.database = database if database is not None else Database()
        self.asynchronous = asynchronous
        # Shipping a batch can fail (see the ``repl.ship`` injection
        # layer); retries preserve commit order because they re-apply the
        # *same* batch in place before the next one is touched.
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy(
            max_attempts=6, base_delay_s=0.001, max_delay_s=0.05
        )
        self.applied_batches = 0
        self._pending: "queue.Queue[Optional[list[dict]]]" = queue.Queue()
        self._apply_lock = threading.Lock()
        self._in_flight = 0  # dequeued but not yet applied
        self._thread: Optional[threading.Thread] = None
        if asynchronous:
            self._thread = threading.Thread(target=self._apply_loop, daemon=True)
            self._thread.start()

    # -- applying ------------------------------------------------------------

    def _apply_batch(self, records: list[dict]) -> None:
        start = time.perf_counter() if OBS.enabled else 0.0
        owner = object()
        lock = self.database.locks.schema_lock
        lock.acquire_write(owner, self.database.locks.timeout)
        try:
            for record in records:
                _apply_record(self.database.catalog, record)
            if any(r["op"] not in ("insert", "update", "delete") for r in records):
                self.database._schema_changed()
            # Invalidate the replica's read caches before readers can see
            # the new rows (mirrors the primary's commit-time bump).
            tables = set()
            for record in records:
                table = record.get("table")
                if table is None:
                    table = (record.get("def") or {}).get("name")
                if table:
                    tables.add(table)
            if tables:
                self.database.generations.bump(tables)
        finally:
            lock.release(owner, True)
        with self._apply_lock:
            self.applied_batches += 1
        _REPL_APPLIED.labels(self.name).inc()
        if OBS.enabled:
            _REPL_APPLY_SECONDS.labels(self.name).observe(
                time.perf_counter() - start
            )

    def _ship(self, records: list[dict], bounded: bool) -> None:
        """Apply one shipped batch, retrying transient shipping faults.

        The injection point sits *before* :meth:`_apply_batch`, so a
        failed shipment never half-applies; a batch either lands whole or
        not at all.  ``bounded`` (the synchronous path) gives up after
        the policy's attempts and propagates to the commit hook; the
        asynchronous path retries until the batch lands — dropping it
        would silently diverge the replica forever.
        """
        from repro.soap.envelope import SoapFault
        from repro.soap.errors import TransportError

        policy = self.retry_policy
        attempt = 0
        with _trace.span("repl.ship", replica=self.name, n=str(len(records))):
            while True:
                attempt += 1
                try:
                    inj = _faults.check("repl.ship", self.name)
                    if inj is not None:
                        inj.fail()
                    self._apply_batch(records)
                    return
                except (TransportError, SoapFault):
                    if bounded and attempt >= policy.max_attempts:
                        RETRY_ATTEMPTS.labels(
                            f"repl:{self.name}", "exhausted"
                        ).inc()
                        raise
                    RETRY_ATTEMPTS.labels(f"repl:{self.name}", "retried").inc()
                    _trace.annotate(
                        f"retry attempt={attempt} replica={self.name}"
                    )
                    time.sleep(policy.backoff(min(attempt, policy.max_attempts)))

    def _apply_loop(self) -> None:
        while True:
            batch = self._pending.get()
            if batch is None:
                return
            with self._apply_lock:
                self._in_flight += 1
            try:
                self._ship(batch, bounded=False)
            finally:
                with self._apply_lock:
                    self._in_flight -= 1
                _REPL_LAG.labels(self.name).set(self.lag())

    def receive(self, records: list[dict]) -> None:
        if self.asynchronous:
            self._pending.put(records)
            _REPL_LAG.labels(self.name).set(self.lag())
        else:
            self._ship(records, bounded=True)

    # -- management --------------------------------------------------------------

    def lag(self) -> int:
        """Number of commit batches queued or mid-apply."""
        with self._apply_lock:
            return self._pending.qsize() + self._in_flight

    def flush(self, timeout: float = 10.0) -> None:
        """Block until the apply queue drains (async replicas)."""
        if not self.asynchronous:
            return
        import time

        deadline = time.monotonic() + timeout
        while self.lag() > 0:
            if time.monotonic() > deadline:
                raise TimeoutError(f"replica {self.name!r} did not catch up")
            time.sleep(0.001)

    def stop(self) -> None:
        if self._thread is not None:
            self._pending.put(None)
            self._thread.join(5)
            self._thread = None


class ReplicationPublisher:
    """Attaches to a primary Database and fans commits out to replicas.

    Replicas added after the primary already holds data must be seeded
    first (see :func:`seed_replica`); the publisher only ships *new*
    commits.
    """

    def __init__(self, primary: Database) -> None:
        self.primary = primary
        self.replicas: dict[str, Replica] = {}
        self._listener = self._on_commit
        primary.add_commit_listener(self._listener)
        self.batches_published = 0

    def _on_commit(self, records: list[dict]) -> None:
        self.batches_published += 1
        _REPL_SHIPPED.inc()
        for replica in self.replicas.values():
            replica.receive(records)

    def add_replica(self, replica: Replica) -> None:
        if replica.name in self.replicas:
            raise ValueError(f"replica {replica.name!r} already attached")
        self.replicas[replica.name] = replica

    def remove_replica(self, name: str) -> Replica:
        return self.replicas.pop(name)

    def flush_all(self, timeout: float = 10.0) -> None:
        for replica in self.replicas.values():
            replica.flush(timeout)

    def close(self) -> None:
        self.primary.remove_commit_listener(self._listener)
        for replica in self.replicas.values():
            replica.stop()
        self.replicas.clear()


def seed_replica(primary: Database, replica: Replica) -> None:
    """Copy the primary's current state into an empty replica.

    Uses the snapshot codec (schema + raw rows) so autoincrement counters
    and indexes come out identical.  The primary should be quiesced (no
    concurrent writers) while seeding; the publisher ships everything
    after.
    """
    from repro.db import wal as walmod
    from repro.db.schema import IndexDef

    source = primary.catalog
    target = replica.database.catalog
    if target.table_names():
        raise ValueError("replica must be empty before seeding")
    for name in source.table_names():
        table = source.table(name)
        target.create_table(
            walmod.table_def_from_dict(walmod.table_def_to_dict(table.definition))
        )
        new_table = target.table(name)
        for index_def in table.index_defs():
            if index_def.name.startswith("__"):
                continue
            new_table.create_index(
                IndexDef(
                    name=index_def.name,
                    table=name,
                    columns=index_def.columns,
                    unique=index_def.unique,
                )
            )
        for rowid, row in table.rows.items():
            new_table.insert_row_with_id(rowid, row)
