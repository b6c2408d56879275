"""Extension bench: read replicas isolate queries from write-lock stalls.

The §9 motivation for replicating the MCS is "performance and
reliability".  The sharpest single-machine demonstration is lock
isolation: a long-running write transaction on the primary holds the
logical_file table's write lock, stalling every primary reader until it
commits; a read replica only applies *committed* batches, so its readers
never see the lock at all.
"""

import threading
import time

from repro.bench.timing import count_until_stopped, run_workers
from repro.core import ObjectQuery
from repro.core.replicated import ReplicatedMCS
from repro.workloads import PopulationSpec, QueryWorkload, populate_catalog


def test_ablation_replica_reads_during_long_write_txn(benchmark, config):
    size = config.db_sizes[0]
    spec = PopulationSpec(
        total_files=size,
        files_per_collection=config.files_per_collection,
        value_cardinality=config.value_cardinality,
    )
    cluster = ReplicatedMCS(replicas=1, synchronous=False)
    try:
        populate_catalog(cluster.catalog, spec)
        cluster.flush()

        def run_reads(client) -> float:
            workload = QueryWorkload(spec, seed=3)

            def op(_):
                field, value = workload.simple_query_args()
                client.query(ObjectQuery().where_field(field, "=", value))

            worker_fns = [
                (lambda stop, op=op: count_until_stopped(op, stop))
                for _ in range(2)
            ]
            return run_workers(worker_fns, config.duration).rate

        def sweep():
            rates = {}
            # A transaction that inserts a row and then holds its write
            # locks (strict 2PL) for the whole measurement window.
            txn_conn = cluster.primary_db.connect()
            hold = threading.Event()

            def long_txn():
                txn_conn.execute("BEGIN")
                txn_conn.execute(
                    "INSERT INTO logical_file (name, version) VALUES ('txn-held', 1)"
                )
                hold.wait(config.duration * 3 + 2)
                txn_conn.execute("ROLLBACK")

            txn_thread = threading.Thread(target=long_txn, daemon=True)
            txn_thread.start()
            time.sleep(0.05)  # let the txn take its locks
            try:
                rates["replica_reads"] = run_reads(cluster.read_client(caller="r"))
                primary_client = cluster.write_client(caller="r")
                # Primary readers block on the held write lock; use a short
                # window and count whatever trickles through.
                rates["primary_reads"] = run_reads(primary_client)
            finally:
                hold.set()
                txn_thread.join(10)
            return rates

        rates = benchmark.pedantic(sweep, rounds=1, iterations=1)
        print("\n== Extension: reads during a long write transaction ==")
        print(f"  primary (blocked by write lock): {rates['primary_reads']:10.1f} q/s")
        print(f"  replica (isolated):              {rates['replica_reads']:10.1f} q/s")
        assert rates["replica_reads"] > 0
        # The §9 claim: replicas keep serving reads; the primary stalls.
        assert rates["replica_reads"] > rates["primary_reads"] * 5
    finally:
        cluster.close()
