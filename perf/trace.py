"""Outside-in tracing: wrap each layer's public functions, record spans.

During the traced window only, :class:`Tracer` replaces the public entry
points listed in :func:`patch_points` with timing wrappers.  A span is
``(name, start_ns, end_ns, span_id, parent_id, op_id, value)``; spans go to
per-thread in-memory lists and are written out after the window.  The
untraced window runs with every attribute restored to the original object
(:meth:`Tracer.uninstall` checks this by identity).

A span's *self time* is its duration minus the part of it that its child
spans cover, so the self times of one operation's spans add up to the
operation's latency.  Layer metrics are mean self time per end-to-end
operation.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable, Optional

Span = tuple  # (name, start_ns, end_ns, span_id, parent_id, op_id, value)
Measure = Callable[[tuple, Any], Optional[int]]


class Tracer:
    """Installs timing wrappers and collects the spans they record."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._guard = threading.Lock()
        self._thread_spans: list[list[Span]] = []
        self._patched: list[tuple[Any, str, Any, Any]] = []

    # -- recording ----------------------------------------------------------

    def _register_thread(self) -> list[int]:
        local = self._local
        local.stack = []
        local.spans = []
        local.op = None
        local.root = 0
        with self._guard:
            self._thread_spans.append(local.spans)
        return local.stack

    def set_operation(self, op_id: Optional[int]) -> None:
        """Name the end-to-end operation this thread's next spans belong to."""
        if not hasattr(self._local, "stack"):
            self._register_thread()
        self._local.op = op_id

    def wrap(
        self,
        name: str,
        fn: Callable,
        classify: Optional[Callable[[tuple], str]] = None,
        measure: Optional[Measure] = None,
    ) -> Callable:
        """``fn`` timed as a span called ``name`` (or ``classify(args)``)."""
        local = self._local
        ids = self._ids
        clock = time.perf_counter_ns
        register = self._register_thread

        def traced(*args: Any, **kwargs: Any) -> Any:
            try:
                stack = local.stack
            except AttributeError:
                stack = register()
            span_id = next(ids)
            if stack:
                parent = stack[-1]
            else:
                parent = 0
                local.root = span_id
            stack.append(span_id)
            value = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    value = measure(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                op = local.op
                local.spans.append(
                    (
                        name if classify is None else classify(args),
                        start,
                        end,
                        span_id,
                        parent,
                        # Server-side threads see no operation id; their
                        # spans are grouped under their root span instead.
                        op if op is not None else -local.root,
                        value,
                    )
                )

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def spans(self) -> list[Span]:
        with self._guard:
            return [span for spans in self._thread_spans for span in spans]

    # -- patching -----------------------------------------------------------

    def install(self, points: Iterable[tuple]) -> None:
        """Replace every ``(owner, attribute, name[, classify, measure])``."""
        for owner, attr, name, *extra in points:
            original = _raw_attribute(owner, attr)
            classify = extra[0] if extra else None
            measure = extra[1] if len(extra) > 1 else None
            wrapper = self.wrap(name, original, classify, measure)
            setattr(owner, attr, wrapper)
            self._patched.append((owner, attr, original, wrapper))

    def uninstall(self) -> None:
        """Put every original back and check that it is the same object."""
        while self._patched:
            owner, attr, original, wrapper = self._patched.pop()
            if _raw_attribute(owner, attr) is not wrapper:
                raise RuntimeError(f"{owner!r}.{attr} was replaced while traced")
            setattr(owner, attr, original)
            if _raw_attribute(owner, attr) is not original:
                raise RuntimeError(f"{owner!r}.{attr} was not restored")


def _raw_attribute(owner: Any, attr: str) -> Any:
    """The attribute as stored (no method binding), for identity checks."""
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if attr in vars(klass):
                return vars(klass)[attr]
        raise AttributeError(attr)
    return getattr(owner, attr)


# --------------------------------------------------------------------------
# Where each layer is timed from outside
# --------------------------------------------------------------------------

CLIENT_OPERATIONS = (
    "query",
    "query_mql",
    "get_attributes",
    "create_logical_file",
    "set_attributes",
    "delete_logical_file",
    "bulk_create_files",
)


def _statement_kind(args: tuple) -> str:
    # args = (connection, sql, ...); COMMIT is where a transaction's WAL
    # append, generation bump and lock release happen.
    return "db.commit" if args[1] == "COMMIT" else "db.statement"


def _result_length(_args: tuple, result: Any) -> int:
    return len(result)


def _first_argument_length(args: tuple, _result: Any) -> int:
    return len(args[0])


def _accepted(_args: tuple, result: Any) -> int:
    return 0 if result is None else 1


def patch_points(server: Any = None) -> list[tuple]:
    """Every ``(owner, attribute, span name, ...)`` the tracer wraps.

    Functions imported by name (``from x import f``) are patched where they
    are bound, once per importing module.  ``server`` is the running
    ``SoapServer`` / ``AsyncSoapServer``, if this process hosts one: the
    async server hands its scanner and responder to the dispatcher when it
    is built, so those two are wrapped on the dispatcher that holds them.
    """
    import repro.aserve.server as aserve_server
    import repro.core.service as service
    import repro.mql as mql
    import repro.mql.compiler as mql_compiler
    import repro.mql.executor as mql_executor
    import repro.mql.planner as mql_planner
    import repro.security.acl as acl
    import repro.soap.server as soap_server
    import repro.soap.transport as soap_transport
    from repro.aserve.httpproto import RequestParser
    from repro.core.catalog import MetadataCatalog
    from repro.core.client import MCSClient
    from repro.db.engine import Connection
    from repro.db.txn import LockManager
    from repro.db.wal import WriteAheadLog

    points: list[tuple] = [
        (MCSClient, op, "client.op") for op in CLIENT_OPERATIONS
    ]
    points += [
        (soap_transport, "build_request", "soap.encode_request", None, _result_length),
        (soap_transport, "parse_response", "soap.decode_response", None, _first_argument_length),
        (soap_transport.HttpTransport, "call", "soap.http"),
        (soap_server, "parse_any_request", "soap.decode_request"),
        (soap_server, "build_response", "soap.encode_response"),
        (soap_server, "build_fault", "soap.encode_response"),
        (soap_server.SoapDispatcher, "dispatch", "soap.dispatch"),
        (RequestParser, "feed", "aserve.feed"),
        (aserve_server, "render_response", "aserve.render"),
        (service.MCSService, "handle", "service.handle"),
        (service, "effective_permissions", "security.effective_permissions"),
        (acl, "effective_permissions", "security.effective_permissions"),
        (acl, "require", "security.require"),
        (acl.AccessControlList, "permissions_for", "security.permissions_for"),
        (mql, "parse", "mql.parse"),
        (mql_compiler, "compile_statement", "mql.compile"),
        (mql_planner, "plan_statement", "mql.plan"),
        (mql_executor, "execute_compiled", "mql.execute"),
        (mql_executor, "run_leaf", "mql.leaf"),
        (Connection, "execute", "db.statement", _statement_kind),
        (Connection, "executemany", "db.statement"),
        (LockManager, "acquire", "db.lock"),
        (WriteAheadLog, "append_commit", "db.wal_append"),
    ]
    dispatcher = getattr(server, "_dispatcher", None)
    if getattr(dispatcher, "_scanner", None) is not None:
        points.append((dispatcher, "_scanner", "aserve.scan", None, _accepted))
        points.append((dispatcher, "_responder", "aserve.fast_response", None, _accepted))
    for attr, member in vars(MetadataCatalog).items():
        if attr.startswith("_") or not callable(member):
            continue
        name = "service.audit" if attr == "record_audit" else f"catalog.{attr}"
        points.append((MetadataCatalog, attr, name))
    return points


# --------------------------------------------------------------------------
# Span arithmetic
# --------------------------------------------------------------------------


def self_times(spans: Iterable[Span]) -> dict[int, int]:
    """``span_id -> self time`` in nanoseconds.

    Children may overlap one another (they can come from other threads), so
    the covered part is the length of the union of the child intervals,
    clipped to the parent.
    """
    spans = list(spans)
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for _name, start, end, _id, parent, _op, _value in spans:
        if parent:
            children[parent].append((start, end))
    out: dict[int, int] = {}
    for _name, start, end, span_id, _parent, _op, _value in spans:
        covered = 0
        reach = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            child_start = max(child_start, reach)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        out[span_id] = (end - start) - covered
    return out


def aggregate(spans: Iterable[Span]) -> dict[str, dict[str, int]]:
    """Per span name: count, summed self and total time, summed ``value``."""
    spans = list(spans)
    own = self_times(spans)
    out: dict[str, dict[str, int]] = {}
    for name, start, end, span_id, _parent, _op, value in spans:
        row = out.get(name)
        if row is None:
            row = out[name] = {"count": 0, "self_ns": 0, "total_ns": 0, "value": 0}
        row["count"] += 1
        row["self_ns"] += own[span_id]
        row["total_ns"] += end - start
        if value is not None:
            row["value"] += value
    return out


def merge(*aggregates: dict[str, dict[str, int]]) -> dict[str, dict[str, int]]:
    out: dict[str, dict[str, int]] = {}
    for agg in aggregates:
        for name, row in agg.items():
            into = out.setdefault(name, dict.fromkeys(row, 0))
            for key, amount in row.items():
                into[key] += amount
    return out


def write_spans(path: str, spans: Iterable[Span]) -> int:
    """One JSON array per line: name, start, end, id, parent, op, value."""
    count = 0
    with open(path, "w", encoding="ascii") as fh:
        for name, start, end, span_id, parent, op, value in spans:
            fh.write(
                '["%s",%d,%d,%d,%d,%d,%s]\n'
                % (name, start, end, span_id, parent, op, "null" if value is None else value)
            )
            count += 1
    return count


#: Every per-layer metric and its unit, in report order.
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("client.self_us", "us"),
    ("client.p99_ms", "ms"),
    ("client.max_ms", "ms"),
    ("soap.encode_request_us", "us"),
    ("soap.decode_response_us", "us"),
    ("soap.decode_request_us", "us"),
    ("soap.encode_response_us", "us"),
    ("soap.dispatch_self_us", "us"),
    ("soap.http_us", "us"),
    ("soap.request_bytes", "bytes"),
    ("soap.response_bytes", "bytes"),
    ("aserve.parse_us", "us"),
    ("aserve.render_us", "us"),
    ("aserve.scan_hit_share", "ratio"),
    ("aserve.template_hit_share", "ratio"),
    ("service.self_us", "us"),
    ("service.audit_us", "us"),
    ("security.authz_us", "us"),
    ("security.authz_calls_per_op", "count"),
    ("catalog.self_us", "us"),
    ("catalog.calls_per_op", "count"),
    ("catalog.files_per_s", "1/s"),
    ("cache.query_hit_share", "ratio"),
    ("cache.object_hit_share", "ratio"),
    ("cache.attr_hit_share", "ratio"),
    ("mql.parse_us", "us"),
    ("mql.plan_us", "us"),
    ("mql.exec_self_us", "us"),
    ("mql.plans_per_query", "count"),
    ("db.statement_us", "us"),
    ("db.statements_per_op", "count"),
    ("db.lock_wait_us", "us"),
    ("db.commit_self_us", "us"),
    ("db.wal_append_us", "us"),
    ("db.wal_appends_per_op", "count"),
    ("db.wal_bytes_per_op", "bytes"),
    ("db.disk_bytes_per_file", "bytes"),
    ("trace.overhead_share", "ratio"),
    ("trace.attributed_share", "ratio"),
    ("trace.spans_per_op", "count"),
)


def layer_metrics(agg: dict[str, dict[str, int]], ops: int) -> dict[str, float]:
    """The span-derived layer metrics; the caller adds the counted ones.

    ``agg`` is the merged aggregate of the load generator's and the server
    child's spans; ``ops`` the end-to-end operations of the traced window.
    A layer that did nothing reports 0.
    """

    def field(key: str, *names: str) -> int:
        return sum(agg[name][key] for name in names if name in agg)

    def self_us(*names: str) -> float:
        return field("self_ns", *names) / 1000.0 / ops

    def share(name: str) -> float:
        calls = field("count", name)
        return field("value", name) / calls if calls else 0.0

    catalog = [name for name in agg if name.startswith("catalog.")]
    security = [name for name in agg if name.startswith("security.")]
    # What the transport span holds besides the client codec (its children)
    # is everything between the two processes plus the server's own spans;
    # taking the server's spans out leaves sockets, HTTP framing done by the
    # standard library, thread hand-off and queue wait.
    server_ns = field("total_ns", "soap.dispatch") + field(
        "self_ns", "aserve.feed", "aserve.render"
    )
    http_ns = max(0, field("self_ns", "soap.http") - server_ns)
    named_ns = sum(row["self_ns"] for row in agg.values())
    if field("count", "soap.http"):
        named_ns -= field("self_ns", "soap.http") - http_ns
    mql_queries = field("count", "catalog.query_mql")
    return {
        "client.self_us": self_us("client.op"),
        "soap.encode_request_us": self_us("soap.encode_request"),
        "soap.decode_response_us": self_us("soap.decode_response"),
        "soap.decode_request_us": self_us("soap.decode_request"),
        "soap.encode_response_us": self_us("soap.encode_response"),
        "soap.dispatch_self_us": self_us("soap.dispatch"),
        "soap.http_us": http_ns / 1000.0 / ops,
        "soap.request_bytes": field("value", "soap.encode_request") / ops,
        "soap.response_bytes": field("value", "soap.decode_response") / ops,
        "aserve.parse_us": self_us("aserve.feed", "aserve.scan"),
        "aserve.render_us": self_us("aserve.fast_response", "aserve.render"),
        "aserve.scan_hit_share": share("aserve.scan"),
        "aserve.template_hit_share": share("aserve.fast_response"),
        "service.self_us": self_us("service.handle"),
        "service.audit_us": self_us("service.audit"),
        "security.authz_us": self_us(*security),
        "security.authz_calls_per_op": field("count", "security.effective_permissions") / ops,
        "catalog.self_us": self_us(*catalog),
        "catalog.calls_per_op": field("count", *catalog) / ops,
        "mql.parse_us": self_us("mql.parse", "mql.compile"),
        "mql.plan_us": self_us("mql.plan"),
        "mql.exec_self_us": self_us("mql.execute", "mql.leaf"),
        "mql.plans_per_query": field("count", "mql.plan") / mql_queries if mql_queries else 0.0,
        "db.statement_us": self_us("db.statement"),
        "db.statements_per_op": field("count", "db.statement") / ops,
        "db.lock_wait_us": self_us("db.lock"),
        "db.commit_self_us": self_us("db.commit"),
        "db.wal_append_us": self_us("db.wal_append"),
        "db.wal_appends_per_op": field("count", "db.wal_append") / ops,
        "trace.named_us": named_ns / 1000.0 / ops,
        "trace.spans_per_op": field("count", *agg) / ops,
    }
