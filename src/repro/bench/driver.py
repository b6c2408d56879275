"""Client drivers: threads of closed-loop MCS clients, two transports.

``BenchEnvironment`` owns one populated catalog, its service, and a
running SOAP server; drivers then spawn client threads over either
transport.  The two modes reproduce the paper's comparison:

* ``mode="direct"`` — clients call the service in-process ("MySQL
  without web service" in §7: database access plus the request→SQL
  conversion overhead);
* ``mode="soap"`` — clients speak SOAP over a real TCP connection ("MCS
  with web service").
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

from repro.bench.timing import RateResult, count_until_stopped, run_workers
from repro.core.catalog import MetadataCatalog
from repro.core.client import ClientConfig, MCSClient
from repro.core.query import ObjectQuery
from repro.core.service import MCSService
from repro.resilience import RetryPolicy
from repro.soap.server import SoapServer
from repro.workloads.population import PopulationSpec, populate_catalog
from repro.workloads.queries import QueryWorkload

OpFactory = Callable[[MCSClient, str], Callable[[int], None]]


class BenchEnvironment:
    """One populated MCS instance plus transports for benchmarking.

    ``shards`` switches the backing store from a single in-memory
    :class:`MetadataCatalog` to a :class:`repro.shard.ShardedCatalog` of
    that many engines behind the same service — the PR-7 sharded sweeps.
    With ``shard_dir`` set each shard is durable (own WAL + fsync), which
    is the configuration whose commit parallelism the sharded add-rate
    figures measure.
    """

    def __init__(
        self,
        spec: PopulationSpec,
        soap_latency_s: float = 0.015,
        shards: Optional[int] = None,
        shard_dir: Optional[str] = None,
    ) -> None:
        self.spec = spec
        # Simulated client↔server network distance for SOAP clients; see
        # HttpTransport.simulated_latency_s and DESIGN.md (substitutions).
        self.soap_latency_s = soap_latency_s
        self.shards = shards
        if shards is None:
            self.catalog = MetadataCatalog()
        else:
            from repro.shard import build_sharded_catalog

            self.catalog = build_sharded_catalog(
                shards,
                directory=shard_dir,
                durable_sync=shard_dir is not None,
            )
        populate_catalog(self.catalog, spec)
        self.service = MCSService(self.catalog)
        self._server: Optional[SoapServer] = None

    # -- lifecycle -----------------------------------------------------------

    @property
    def server(self) -> SoapServer:
        if self._server is None:
            self._server = SoapServer(
                self.service.handle, fault_mapper=self.service.fault_mapper
            ).start()
        return self._server

    def close(self) -> None:
        if self._server is not None:
            self._server.stop()
            self._server = None
        if self.shards is not None:
            self.catalog.close()

    # -- clients ---------------------------------------------------------------

    def make_client(self, mode: str) -> MCSClient:
        """Build a client for ``mode``: ``direct`` or ``soap``, optionally
        with a ``+resilience`` suffix wrapping the transport in the
        retry/deadline/breaker layer (the resilience-overhead ablation)."""
        base_mode, _, suffix = mode.partition("+")
        if suffix not in ("", "resilience"):
            raise ValueError(f"unknown mode suffix {suffix!r} in {mode!r}")
        config = ClientConfig(
            caller="bench",
            simulated_latency_s=self.soap_latency_s,
            retry_policy=RetryPolicy() if suffix else None,
        )
        if base_mode == "direct":
            return MCSClient.in_process(self.service, config)
        if base_mode == "soap":
            return MCSClient.connect(*self.server.endpoint, config)
        raise ValueError(f"unknown mode {mode!r}")

    # -- operation factories ------------------------------------------------------

    def add_op(self, client: MCSClient, worker_id: str) -> Callable[[int], None]:
        """Pure add: register a fresh 10-attribute file per iteration.

        Unlike :meth:`add_delete_op` nothing is deleted, so every
        iteration is exactly one durable create — the op the sharded
        add-rate sweeps scale across shard counts (deletes would add a
        scatter locate per iteration and measure the router, not the
        commit path)."""
        workload = QueryWorkload(self.spec, seed=hash(worker_id) & 0xFFFF)

        def op(_: int) -> None:
            name, attributes = workload.add_args(worker_id)
            client.create_logical_file(name, attributes=attributes)

        return op

    def add_delete_op(self, client: MCSClient, worker_id: str) -> Callable[[int], None]:
        """The §7 add operation: add a file with 10 attributes, then
        delete it to keep the database size constant."""
        workload = QueryWorkload(self.spec, seed=hash(worker_id) & 0xFFFF)

        def op(_: int) -> None:
            name, attributes = workload.add_args(worker_id)
            client.create_logical_file(name, attributes=attributes)
            client.delete_logical_file(name)

        return op

    def bulk_add_delete_op(
        self, client: MCSClient, worker_id: str, batch_size: int = 32
    ) -> Callable[[int], None]:
        """Batched add/delete: one bulk_create_files call for
        ``batch_size`` files (10 attributes each), then one pipelined
        ``<BulkRequest>`` of deletes — two round trips per batch instead
        of ``2 * batch_size``.  The returned op carries
        ``ops_per_iteration = batch_size`` so drivers weight each
        iteration as that many add/delete pairs.
        """
        workload = QueryWorkload(self.spec, seed=hash(worker_id) & 0xFFFF)

        def op(_: int) -> None:
            batch = [workload.add_args(worker_id) for _ in range(batch_size)]
            client.bulk_create_files(
                [{"name": name, "attributes": attrs} for name, attrs in batch]
            )
            with client.bulk() as deletes:
                for name, _attrs in batch:
                    deletes.call("delete_logical_file", name=name)

        op.ops_per_iteration = batch_size  # type: ignore[attr-defined]
        return op

    def simple_query_op(self, client: MCSClient, worker_id: str) -> Callable[[int], None]:
        workload = QueryWorkload(self.spec, seed=hash(worker_id) & 0xFFFF)

        def op(_: int) -> None:
            field, value = workload.simple_query_args()
            client.query(ObjectQuery().where_field(field, "=", value))

        return op

    def complex_query_op(
        self, client: MCSClient, worker_id: str, num_attributes: int = 10
    ) -> Callable[[int], None]:
        workload = QueryWorkload(self.spec, seed=hash(worker_id) & 0xFFFF)

        def op(_: int) -> None:
            conditions = workload.complex_query_conditions(num_attributes)
            client.query(ObjectQuery().where_equal(conditions))

        return op

    def mql_query_op(
        self, client: MCSClient, worker_id: str, num_attributes: int = 10
    ) -> Callable[[int], None]:
        """Figure-11-shaped conjunctions expressed as MQL text.

        Each iteration rebuilds the statement through the canonical
        printer, so the measured path is the full pipeline — parse, plan
        (or plan-cache hit), execute — under whatever execution strategy
        the catalog currently forces (the MQL ablation axis).
        """
        from repro.mql import to_mql
        from repro.mql.ast import And, Condition, Query, Statement

        workload = QueryWorkload(self.spec, seed=hash(worker_id) & 0xFFFF)

        def op(_: int) -> None:
            conditions = workload.complex_query_conditions(num_attributes)
            parts = tuple(
                Condition(attr, "=", value)
                for attr, value in conditions.items()
            )
            where = parts[0] if len(parts) == 1 else And(parts)
            client.query_mql(
                to_mql(Statement(source=Query(object_type="file", where=where)))
            )

        return op

    def repeated_complex_query_op(
        self, client: MCSClient, worker_id: str, num_attributes: int = 10,
        distinct: int = 8,
    ) -> Callable[[int], None]:
        """Complex queries drawn from a small fixed pool, cycled per worker.

        The repetition is what the read cache can exploit; with the cache
        off every iteration pays the full EAV join, so this op is the
        workload for the cache on/off ablation sweep.
        """
        workload = QueryWorkload(self.spec, seed=hash(worker_id) & 0xFFFF)
        pool = [
            workload.complex_query_conditions(num_attributes)
            for _ in range(distinct)
        ]

        def op(i: int) -> None:
            client.query(ObjectQuery().where_equal(pool[i % distinct]))

        return op


def run_closed_loop(
    env: BenchEnvironment,
    mode: str,
    op_factory: OpFactory,
    threads: int,
    duration: float,
    worker_prefix: str = "w",
) -> RateResult:
    """Measure ops/second with *threads* closed-loop clients."""
    clients = [env.make_client(mode) for _ in range(threads)]
    try:
        worker_fns = []
        for idx, client in enumerate(clients):
            op = op_factory(client, f"{worker_prefix}{idx}")
            weight = getattr(op, "ops_per_iteration", 1)
            worker_fns.append(
                lambda stop, op=op, weight=weight: count_until_stopped(
                    op, stop, ops_per_iteration=weight
                )
            )
        return run_workers(worker_fns, duration)
    finally:
        for client in clients:
            client.close()
