"""One benchmark run: set up, warm up, measure, trace, check, tear down."""

from __future__ import annotations

import itertools
import math
import os
import resource
import shutil
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

from repro.core.catalog import MetadataCatalog
from repro.core.client import MCSClient
from repro.core.errors import ObjectNotFoundError
from repro.core.model import ObjectType
from repro.core.query import ObjectQuery
from repro.db import Database

from perf import gen
from perf.deploy import deploy
from perf.trace import (
    LAYER_METRICS,
    Tracer,
    aggregate,
    layer_metrics,
    merge,
    patch_points,
    write_spans,
)
from perf.workloads import (
    CLIENTS,
    FILES,
    SWITCH_INTERVAL_S,
    Workload,
    windows,
)

OUT = Path(__file__).resolve().parent / "out"
#: Operation ids of client ``c`` start at ``c * OP_ID_STRIDE``.
OP_ID_STRIDE = 10**9
MAX_REPORTED_ERRORS = 5
#: Files (and deleted names) per client read back after the windows.
OWN_FILES_CHECKED = 200


def percentile(sorted_values: list[float], share: float) -> float:
    """Nearest-rank percentile: the smallest value with ``share`` at or below."""
    rank = max(1, math.ceil(share * len(sorted_values)))
    return sorted_values[rank - 1]


# --------------------------------------------------------------------------
# Executing and checking one operation
# --------------------------------------------------------------------------


@dataclass
class ClientState:
    """What one closed-loop client has done; nothing here is shared."""

    queries: list[tuple[str, Any, list[str], bool]]
    #: name -> ranks of every file this client created and was told exists.
    acked: dict[str, gen.Ranks] = field(default_factory=dict)
    deleted: list[str] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    failed: int = 0
    files_created: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_REPORTED_ERRORS:
            self.errors.append(message)


def _query_name(client: MCSClient, op: tuple, state: ClientState) -> bool:
    return client.query(ObjectQuery().where_field("name", "=", op[1])) == [op[1]]


def _get_attributes(client: MCSClient, op: tuple, state: ClientState) -> bool:
    return client.get_attributes("file", op[1]) == gen.typed_attributes(op[2])


def _discover(client: MCSClient, op: tuple, state: ClientState) -> bool:
    form, payload, expected, paged = state.queries[op[1]]
    names = client.query(payload) if form == "object" else client.query_mql(payload)
    return (names if paged else sorted(names)) == expected


def _create(client: MCSClient, op: tuple, state: ClientState) -> bool:
    _kind, name, collection, ranks, audited = op
    result = client.create_logical_file(
        name,
        collection=collection,
        attributes=gen.typed_attributes(ranks),
        audit_enabled=audited,
    )
    state.acked[name] = ranks
    state.files_created += 1
    return result["name"] == name


def _bulk_create(client: MCSClient, op: tuple, state: ClientState) -> bool:
    entries = [
        {"name": name, "collection": coll, "attributes": gen.typed_attributes(ranks)}
        for name, coll, ranks in op[1]
    ]
    result = client.bulk_create_files(entries)
    state.acked.update((name, ranks) for name, _coll, ranks in op[1])
    state.files_created += len(entries)
    return result["ok"] == len(entries)


def _set_attributes(client: MCSClient, op: tuple, state: ClientState) -> bool:
    _kind, name, changes, ranks_afterwards = op
    attributes = {
        gen.ATTRIBUTES[attr][0]: gen.typed_value(attr, rank) for attr, rank in changes
    }
    result = client.set_attributes("file", name, attributes)
    state.acked[name] = ranks_afterwards
    return result is True


def _delete(client: MCSClient, op: tuple, state: ClientState) -> bool:
    result = client.delete_logical_file(op[1])
    del state.acked[op[1]]
    state.deleted.append(op[1])
    return result is True


EXECUTE: dict[str, Callable[[MCSClient, tuple, ClientState], bool]] = {
    "query_name": _query_name,
    "get_attributes": _get_attributes,
    "discover": _discover,
    "create": _create,
    "bulk_create": _bulk_create,
    "set_attributes": _set_attributes,
    "delete": _delete,
}


def build_queries(
    population: gen.Population, pool: list[gen.QuerySpec]
) -> list[tuple[str, Any, list[str], bool]]:
    """(form, ObjectQuery or MQL text, expected names, paged?) per pool entry."""
    out = []
    for spec in pool:
        form, equalities, span, paged = spec
        if form == "mql":
            payload: Any = gen.mql_text(spec)
        else:
            payload = ObjectQuery()
            for attr, rank in equalities:
                payload.where(gen.ATTRIBUTES[attr][0], "=", gen.typed_value(attr, rank))
            if span is not None:
                attr, low, high = span
                bounds = (gen.typed_value(attr, low), gen.typed_value(attr, high))
                payload.where(gen.ATTRIBUTES[attr][0], "between", bounds)
            if paged:
                payload.order_by("name").limit(gen.PAGE_LIMIT)
        out.append((form, payload, population.expected(spec), paged))
    return out


# --------------------------------------------------------------------------
# The closed loop
# --------------------------------------------------------------------------


def _client_loop(
    client: MCSClient,
    stream: Iterator[tuple],
    state: ClientState,
    deadline: float,
    tracer: Optional[Tracer],
    first_op_id: int,
) -> None:
    clock = time.perf_counter
    latencies = state.latencies
    op_id = first_op_id
    while clock() < deadline:
        op = next(stream)
        if tracer is not None:
            tracer.set_operation(op_id)
            op_id += 1
        start = clock()
        try:
            problem = None if EXECUTE[op[0]](client, op, state) else "wrong answer"
        except Exception as exc:  # noqa: BLE001 - a fault is a failed operation
            problem = f"{type(exc).__name__}: {exc}"
        latencies.append(clock() - start)
        if problem is not None:
            state.fail(f"{op[0]} {op[1]!r}: {problem}")


@dataclass
class Window:
    seconds: float
    latencies: list[float]
    failed: int
    files_created: int

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / self.seconds


def run_window(
    clients: list[MCSClient],
    streams: list[Iterator[tuple]],
    states: list[ClientState],
    seconds: float,
    tracer: Optional[Tracer] = None,
) -> Window:
    """Drive every client for ``seconds``; returns what the window saw."""
    before = [(len(s.latencies), s.failed, s.files_created) for s in states]
    start = time.perf_counter()
    threads = [
        threading.Thread(
            target=_client_loop,
            args=(client, stream, state, start + seconds, tracer, c * OP_ID_STRIDE),
        )
        for c, (client, stream, state) in enumerate(zip(clients, streams, states))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    latencies: list[float] = []
    for state, (n, _failed, _files) in zip(states, before):
        latencies.extend(state.latencies[n:])
    return Window(
        seconds=elapsed,
        latencies=latencies,
        failed=sum(s.failed - b[1] for s, b in zip(states, before)),
        files_created=sum(s.files_created - b[2] for s, b in zip(states, before)),
    )


# --------------------------------------------------------------------------
# Checks after the windows
# --------------------------------------------------------------------------


def _evenly(items: list, limit: int) -> list:
    """At most ``limit`` of ``items``, evenly spaced."""
    return items[:: max(1, -(-len(items) // limit))]


def check_own_files(client: MCSClient, states: list[ClientState]) -> list[str]:
    """Read-your-writes, through the service, on the writers' own names.

    A sample: the reopen check reads every file, and reading thousands of
    files through the authorizing service would cost seconds per run.
    """
    problems = []
    for state in states:
        for name, ranks in _evenly(list(state.acked.items()), OWN_FILES_CHECKED):
            if client.get_attributes("file", name) != gen.typed_attributes(ranks):
                problems.append(f"{name}: attributes differ from what was written")
        for name in _evenly(state.deleted, OWN_FILES_CHECKED):
            if client.query(ObjectQuery().where_field("name", "=", name)):
                problems.append(f"{name}: still found after delete")
    return problems


def check_reopened(
    directory: str, population: gen.Population, states: list[ClientState]
) -> list[str]:
    """Reopen the closed catalog from disk; every acknowledged file survives."""
    db = Database(directory=directory)
    try:
        catalog = MetadataCatalog(db, install=False)
        expected = dict(zip(population.names, population.ranks))
        for state in states:
            expected.update(state.acked)
        problems = []
        for name, ranks in expected.items():
            try:
                stored = catalog.get_attributes(ObjectType.FILE, name)
            except ObjectNotFoundError:
                problems.append(f"{name}: lost by the reopen")
                continue
            if stored != gen.typed_attributes(ranks):
                problems.append(f"{name}: attributes changed by the reopen")
        for state in states:
            problems.extend(
                f"{name}: deleted file came back"
                for name in state.deleted
                if catalog.file_exists(name)
            )
        return problems
    finally:
        db.close()


# --------------------------------------------------------------------------
# One run
# --------------------------------------------------------------------------


def _hit_share(before: dict, after: dict, cache: str) -> float:
    hits = after["cache"][cache]["hits"] - before["cache"][cache]["hits"]
    misses = after["cache"][cache]["misses"] - before["cache"][cache]["misses"]
    return hits / (hits + misses) if hits + misses else 0.0


def _set_up(
    workload: Workload, population: gen.Population, scratch: Path
) -> tuple[Any, list[MCSClient], float]:
    """Deployment populated, server ready, clients connected; and how long it took."""
    shutil.rmtree(scratch, ignore_errors=True)
    if workload.durable:
        scratch.mkdir(parents=True)
    started = time.perf_counter()
    deployment = deploy(workload, population, str(scratch) if workload.durable else None)
    try:
        clients = [deployment.connect() for _ in range(CLIENTS)]
    except BaseException:
        deployment.close()
        raise
    return deployment, clients, time.perf_counter() - started


def _tear_down(deployment: Any, clients: list[MCSClient]) -> None:
    for client in clients:
        client.close()
    deployment.close()


def run(
    workload: Workload,
    seed: int,
    seconds: float,
    mode: str,
    files: int = FILES,
    setups: int = 1,
    corrupt_answer: bool = False,
) -> dict[str, Any]:
    """Run ``workload`` once; ``mode`` is as for :func:`perf.workloads.windows`.

    ``failed`` counts every faulted or wrongly answered operation of any
    window plus every problem the checks after the windows found; the run
    is correct when it is 0.
    """
    previous = sys.getswitchinterval()
    sys.setswitchinterval(SWITCH_INTERVAL_S)
    try:
        return _run(workload, seed, windows(seconds, mode), files, setups, corrupt_answer)
    finally:
        sys.setswitchinterval(previous)


def _run(
    workload: Workload,
    seed: int,
    lengths: dict[str, float],
    files: int,
    setups: int,
    corrupt_answer: bool,
) -> dict[str, Any]:
    population = gen.Population(seed, files)
    pool = gen.query_pool(population, workload.pool)
    queries = build_queries(population, pool)
    scratch = OUT / "tmp" / f"{workload.name}-{os.getpid()}"

    # Set up several times; the last deployment is the one measured.
    setup_times = []
    for attempt in range(setups):
        deployment, clients, took = _set_up(workload, population, scratch)
        setup_times.append(took)
        if attempt < setups - 1:
            _tear_down(deployment, clients)

    tracer = Tracer()
    try:
        streams = [workload.stream(population, len(pool), c) for c in range(CLIENTS)]
        if corrupt_answer:
            # Self-test: ask for file 0 and expect another file's values.
            wrong = ("get_attributes", population.names[0], population.ranks[0][::-1])
            streams[0] = itertools.chain([wrong], streams[0])
        states = [ClientState(queries) for _ in range(CLIENTS)]
        run_window(clients, streams, states, lengths["warmup"])
        measured = run_window(clients, streams, states, lengths["measured"])
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rss_kb += deployment.counters()["rss_kb"]

        layers: dict[str, float] = {}
        traced_ops = 0
        if lengths["traced"]:
            OUT.mkdir(exist_ok=True)
            before = deployment.counters()
            tracer.install(patch_points())
            deployment.start_trace()
            # In process, a client made before the wrappers were installed
            # holds the unwrapped service entry point; connect again.
            traced_clients = [deployment.connect() for _ in range(CLIENTS)]
            traced = run_window(
                traced_clients, streams, states, lengths["traced"], tracer
            )
            tracer.uninstall()
            server_agg = deployment.stop_trace(
                str(OUT / f"{workload.name}.server.spans.jsonl")
            )
            after = deployment.counters()
            for client in traced_clients:
                client.close()
            spans = tracer.spans()
            write_spans(str(OUT / f"{workload.name}.spans.jsonl"), spans)
            layers = _layers(spans, server_agg, before, after, measured, traced)
            traced_ops = traced.attempted

        problems = check_own_files(clients[0], states) if workload.durable else []
    finally:
        tracer.uninstall()
        _tear_down(deployment, clients)
    try:
        if workload.durable:
            problems += check_reopened(str(scratch), population, states)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    ordered = sorted(measured.latencies)
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": measured.ops_per_s,
        "p50_ms": percentile(ordered, 0.50) * 1000,
        "p95_ms": percentile(ordered, 0.95) * 1000,
        "error_share": measured.failed / measured.attempted,
        "peak_rss_mb": rss_kb / 1024,
    }
    return {
        "attempted": sum(len(state.latencies) for state in states),
        "failed": sum(state.failed for state in states) + len(problems),
        "problems": [e for state in states for e in state.errors] + problems,
        "end_to_end": end_to_end,
        "layers": layers,
        "samples": {
            "measured_ops": measured.attempted,
            "traced_ops": traced_ops,
            "setups": len(setup_times),
        },
    }


def _layers(
    spans: list[tuple],
    server_agg: dict[str, dict[str, int]],
    before: dict[str, Any],
    after: dict[str, Any],
    measured: Window,
    traced: Window,
) -> dict[str, float]:
    ops = traced.attempted
    agg = merge(aggregate(spans), server_agg)
    values = layer_metrics(agg, ops)
    durations = sorted(
        (end - start) / 1e6 for name, start, end, *_rest in spans if name == "client.op"
    )
    values["client.p99_ms"] = percentile(durations, 0.99)
    values["client.max_ms"] = durations[-1]
    values["catalog.files_per_s"] = traced.files_created / traced.seconds
    values["cache.query_hit_share"] = _hit_share(before, after, "query")
    values["cache.object_hit_share"] = _hit_share(before, after, "object")
    values["cache.attr_hit_share"] = _hit_share(before, after, "attr_def")
    values["db.wal_bytes_per_op"] = (after["wal_bytes"] - before["wal_bytes"]) / ops
    values["db.disk_bytes_per_file"] = after["disk_bytes"] / after["files"]
    values["trace.overhead_share"] = 1 - traced.ops_per_s / measured.ops_per_s
    values["trace.attributed_share"] = (
        values.pop("trace.named_us") * ops / 1e6 / sum(traced.latencies)
    )
    return {name: values[name] for name, _unit in LAYER_METRICS}
