"""Command-line interface: run an MCS server and talk to it.

Server::

    mcs serve [--host H] [--port P] [--data-dir DIR] [--granularity G]
              [--shards N]

Client (all commands take ``--host``/``--port``; default localhost:8686)::

    mcs ping
    mcs stats
    mcs define-attribute NAME TYPE [--description TEXT]
    mcs add-file NAME [--collection C] [--data-type T] [--attr k=v ...]
    mcs get-file NAME
    mcs query [--attr k=v ...] [--field k=v ...]
    mcs query "files where run = 7 and site like \\"ligo-%\\" limit 10"
    mcs create-collection NAME [--parent P]
    mcs list-collection NAME
    mcs annotate NAME TEXT
    mcs annotations NAME

Observability (scrape the server's collection endpoints over HTTP)::

    mcs trace REQUEST_ID [--endpoint H:P ...] [--format waterfall|tree|chrome|jsonl]
    mcs profile [--seconds S] [--interval S] [--out FILE]
    mcs slo [--json]

Attribute values given as ``k=v`` are parsed against the attribute's
declared type (ints, floats, dates as YYYY-MM-DD, etc.).
"""

from __future__ import annotations

import argparse
import datetime as _dt
import json
import os
import sys
from typing import Any, Optional, Sequence

DEFAULT_PORT = 8686


def _parse_value(text: str) -> Any:
    """Best-effort typed parse of a command-line attribute value."""
    for parser in (int, float):
        try:
            return parser(text)
        except ValueError:
            pass
    try:
        return _dt.date.fromisoformat(text)
    except ValueError:
        pass
    try:
        return _dt.datetime.fromisoformat(text)
    except ValueError:
        pass
    return text


def _parse_pairs(pairs: Optional[Sequence[str]]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise SystemExit(f"expected key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        out[key] = _parse_value(value)
    return out


def _jsonable(value: Any) -> Any:
    if isinstance(value, (_dt.date, _dt.time, _dt.datetime)):
        return value.isoformat()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    return value


def _emit(value: Any) -> None:
    print(json.dumps(_jsonable(value), indent=2, sort_keys=True))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcs", description="Metadata Catalog Service command line"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    parser.add_argument("--caller", default="/O=Grid/CN=cli")
    parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="retry transient transport failures up to N attempts "
             "(reads always; writes via idempotency tokens)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-request deadline, propagated to the server",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run an MCS SOAP server")
    serve.add_argument("--data-dir", default=None,
                       help="durable database directory (default: in-memory)")
    serve.add_argument("--granularity", default="none",
                       choices=("none", "service", "object"))
    serve.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="shard the catalog across N engines behind one service "
             "(with --data-dir: one shard-NNN subdirectory per engine)",
    )
    serve.add_argument(
        "--async", dest="async_server", action="store_true",
        help="serve on the asyncio front end (event-loop sockets, "
             "pipelined keep-alive, same dispatch pipeline)",
    )
    serve.add_argument(
        "--workers", type=int, default=4, metavar="N",
        help="dispatch worker threads (both front ends; default 4)",
    )

    # Every argument after ``lint`` goes to repro.analysis.main, which
    # declares them: no ``-`` prefix here, so none is parsed twice.
    lint = sub.add_parser(
        "lint", prefix_chars="+", add_help=False,
        help="run the project-specific concurrency/protocol linter"
             " (mcs lint --help lists its options)",
    )
    lint.add_argument("lint_args", nargs="*", metavar="ARG")

    sub.add_parser("ping", help="liveness check")
    stats = sub.add_parser(
        "stats", help="catalog object counts + server metrics snapshot"
    )
    stats.add_argument("--json", action="store_true",
                       help="raw JSON instead of the pretty summary")
    sub.add_parser("list-attributes", help="defined user attributes")

    define = sub.add_parser("define-attribute", help="define a user attribute")
    define.add_argument("name")
    define.add_argument("value_type",
                        choices=("string", "int", "float", "date", "time", "datetime"))
    define.add_argument("--description", default=None)

    add = sub.add_parser("add-file", help="create a logical file")
    add.add_argument("name")
    add.add_argument("--collection", default=None)
    add.add_argument("--data-type", default=None)
    add.add_argument("--version", type=int, default=1)
    add.add_argument("--attr", action="append", metavar="K=V")

    get = sub.add_parser("get-file", help="static + user attributes of a file")
    get.add_argument("name")
    get.add_argument("--version", type=int, default=None)

    delete = sub.add_parser("delete-file", help="delete a logical file")
    delete.add_argument("name")
    delete.add_argument("--version", type=int, default=None)

    query = sub.add_parser("query", help="attribute-based discovery")
    query.add_argument(
        "mql", nargs="?", default=None, metavar="MQL",
        help="an MQL statement (files/collections/views where ..., with "
             "union/intersect/minus, order by, limit); when given, the "
             "--attr/--field flags are rejected",
    )
    query.add_argument("--attr", action="append", metavar="K=V",
                       help="user-attribute equality condition")
    query.add_argument("--field", action="append", metavar="K=V",
                       help="predefined-field equality condition")
    query.add_argument("--limit", type=int, default=None)
    query.add_argument("--offset", type=int, default=None)
    query.add_argument("--order-by", default=None, metavar="FIELD",
                       help="order results by a predefined field")
    query.add_argument("--desc", action="store_true",
                       help="descending order (with --order-by)")
    query.add_argument("--explain", action="store_true",
                       help="show the physical query plan instead of results")

    coll = sub.add_parser("create-collection", help="create a collection")
    coll.add_argument("name")
    coll.add_argument("--parent", default=None)
    coll.add_argument("--description", default=None)

    lsc = sub.add_parser("list-collection", help="files in a collection")
    lsc.add_argument("name")

    ann = sub.add_parser("annotate", help="attach an annotation to a file")
    ann.add_argument("name")
    ann.add_argument("text")

    anns = sub.add_parser("annotations", help="annotations on a file")
    anns.add_argument("name")

    trace = sub.add_parser(
        "trace", help="assemble and render a cross-process trace"
    )
    trace.add_argument("request_id")
    trace.add_argument(
        "--endpoint", action="append", metavar="HOST:PORT",
        help="additional /spans endpoints to scrape (repeatable); "
             "--host/--port is always scraped",
    )
    trace.add_argument(
        "--format", choices=("waterfall", "tree", "chrome", "jsonl"),
        default="waterfall", dest="trace_format",
    )
    trace.add_argument("--out", default=None, metavar="FILE",
                       help="write the rendering to FILE instead of stdout")

    profile = sub.add_parser(
        "profile", help="sample the server's stacks (folded flamegraph lines)"
    )
    profile.add_argument("--seconds", type=float, default=1.0)
    profile.add_argument("--interval", type=float, default=0.005)
    profile.add_argument("--out", default=None, metavar="FILE")

    slo = sub.add_parser("slo", help="per-operation SLO burn-rate status")
    slo.add_argument("--json", action="store_true",
                     help="raw JSON snapshot instead of the table")

    return parser


def _http_get(host: str, port: int, path: str, timeout: float = 30.0) -> bytes:
    import urllib.request

    with urllib.request.urlopen(
        f"http://{host}:{port}{path}", timeout=timeout
    ) as response:
        return response.read()


def _scrape_spans(
    endpoints: Sequence[tuple[str, int]], query: str
) -> list[dict[str, Any]]:
    """Merge `/spans` scrapes from every endpoint, de-duplicated by id."""
    spans: list[dict[str, Any]] = []
    seen: set[str] = set()
    for host, port in endpoints:
        try:
            batch = json.loads(_http_get(host, port, f"/spans?{query}"))
        except OSError as exc:
            print(f"warning: {host}:{port} unreachable: {exc}", file=sys.stderr)
            continue
        for span in batch:
            if span["span_id"] not in seen:
                seen.add(span["span_id"])
                spans.append(span)
    return spans


def _trace_cmd(args: argparse.Namespace) -> int:
    from repro.obs import trace as trace_mod
    from urllib.parse import urlencode

    endpoints: list[tuple[str, int]] = [(args.host, args.port)]
    for spec in args.endpoint or ():
        host, _, port = spec.rpartition(":")
        endpoints.append((host or "127.0.0.1", int(port)))

    spans = _scrape_spans(
        endpoints, urlencode({"request_id": args.request_id})
    )
    # A second pass by trace id picks up spans recorded under a different
    # request id (e.g. a server-side subtree that minted its own) and any
    # process that only saw the trace via the TraceParent header.
    trace_ids = {s["trace_id"] for s in spans if s.get("trace_id")}
    for trace_id in sorted(trace_ids):
        for span in _scrape_spans(endpoints, urlencode({"trace_id": trace_id})):
            if span["span_id"] not in {s["span_id"] for s in spans}:
                spans.append(span)
    if not spans:
        print(f"no spans found for request {args.request_id!r}", file=sys.stderr)
        return 1

    if args.trace_format == "waterfall":
        rendering = trace_mod.format_waterfall(spans, title=args.request_id)
    elif args.trace_format == "tree":
        rendering = trace_mod.format_trace(args.request_id, spans)
    elif args.trace_format == "chrome":
        rendering = json.dumps(trace_mod.to_chrome_trace(spans), indent=2)
    else:
        rendering = trace_mod.to_jsonl(spans)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendering + "\n")
        print(f"wrote {len(spans)} spans to {args.out}")
    else:
        print(rendering)
    return 0


def _profile_cmd(args: argparse.Namespace) -> int:
    from urllib.parse import urlencode

    query = urlencode({"seconds": args.seconds, "interval": args.interval})
    report = _http_get(
        args.host, args.port, f"/profile?{query}",
        timeout=max(args.seconds * 2.0, 5.0) + 30.0,
    ).decode("utf-8")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report)
        print(f"wrote profile to {args.out}")
    else:
        print(report, end="")
    return 0


def _slo_cmd(args: argparse.Namespace) -> int:
    snapshot = json.loads(_http_get(args.host, args.port, "/slo"))
    if args.json:
        _emit(snapshot)
    else:
        from repro.obs.slo import format_slo

        print(format_slo(snapshot))
    return 0


def _serve(args: argparse.Namespace) -> int:
    from repro.core import MCSService, MetadataCatalog
    from repro.db import Database
    from repro.obs import profiler as _profiler
    from repro.soap import SoapServer

    _profiler.run_from_env()
    db = None
    if args.shards is not None:
        if args.shards < 1:
            raise SystemExit("--shards must be at least 1")
        from repro.shard import build_sharded_catalog

        catalog = build_sharded_catalog(
            args.shards,
            directory=args.data_dir,
            durable_sync=args.data_dir is not None,
        )
    else:
        db = Database(directory=args.data_dir) if args.data_dir else None
        catalog = MetadataCatalog(db) if db is not None else None
    service = MCSService(catalog, granularity=args.granularity)
    if args.async_server:
        from repro.aserve import AsyncSoapServer

        server_cls = AsyncSoapServer
    else:
        server_cls = SoapServer
    server = server_cls(
        service.handle,
        host=args.host,
        port=args.port,
        description=service.description(),
        fault_mapper=service.fault_mapper,
        max_workers=args.workers,
    )
    server.start()
    flavor = "asyncio" if args.async_server else "threaded"
    print(f"MCS listening on http://{server.host}:{server.port}/soap "
          f"({flavor} front end, WSDL at /wsdl); Ctrl-C to stop", flush=True)
    try:
        import time

        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        if args.shards is not None:
            catalog.checkpoint()
            catalog.close()
        elif db is not None:
            db.checkpoint()
            db.close()
    return 0


def _lint(args: argparse.Namespace) -> int:
    from repro.analysis import main as lint_main

    return lint_main(args.lint_args)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "serve":
        return _serve(args)
    if args.command == "lint":
        return _lint(args)
    if args.command in ("trace", "profile", "slo"):
        handler = {
            "trace": _trace_cmd, "profile": _profile_cmd, "slo": _slo_cmd
        }[args.command]
        try:
            return handler(args)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    from repro.core import ClientConfig, MCSClient, ObjectQuery
    from repro.core.errors import MCSError
    from repro.soap.errors import TransportError

    retry_policy = None
    if args.retries is not None:
        from repro.resilience import RetryPolicy

        retry_policy = RetryPolicy(max_attempts=max(args.retries, 1))
    client = MCSClient.connect(
        args.host,
        args.port,
        ClientConfig(
            caller=args.caller,
            retry_policy=retry_policy,
            deadline_s=args.timeout,
        ),
    )
    try:
        if args.command == "ping":
            _emit(client.ping())
        elif args.command == "stats":
            stats = client.stats()
            if args.json:
                _emit(stats)
            else:
                from repro.obs.metrics import format_snapshot

                metrics = stats.pop("metrics", {})
                cache = stats.pop("cache", {})
                print("catalog objects:")
                for key in sorted(stats):
                    print(f"  {key:<20} {stats[key]}")
                if cache:
                    print()
                    state = "on" if cache.get("enabled") else "off"
                    print(f"read cache ({state}):")
                    for name in sorted(k for k in cache if k != "enabled"):
                        c = cache[name]
                        print(f"  {name:<10} hits={c['hits']} misses={c['misses']} "
                              f"bypasses={c['bypasses']} entries={c['entries']} "
                              f"evictions={c['evictions']} "
                              f"hit_ratio={c['hit_ratio']:.3f}")
                        print(f"  {'':<10} invalidated by row="
                              f"{c.get('invalidated_by_row', 0)} "
                              f"by table={c.get('invalidated_by_table', 0)}")
                if metrics:
                    print()
                    print(format_snapshot(metrics))
        elif args.command == "list-attributes":
            _emit([d.to_dict() for d in client.list_attribute_defs()])
        elif args.command == "define-attribute":
            _emit(client.define_attribute(args.name, args.value_type,
                                          description=args.description))
        elif args.command == "add-file":
            attributes = _parse_pairs(args.attr) or None
            _emit(client.create_logical_file(
                args.name,
                version=args.version,
                data_type=args.data_type,
                collection=args.collection,
                attributes=attributes,
            ))
        elif args.command == "get-file":
            record = client.get_logical_file(args.name, version=args.version)
            record["user_attributes"] = client.get_attributes(
                "file", args.name, version=args.version
            )
            _emit(record)
        elif args.command == "delete-file":
            _emit(client.delete_logical_file(args.name, version=args.version))
        elif args.command == "query" and args.mql is not None:
            if args.attr or args.field or args.order_by:
                raise SystemExit(
                    "an MQL statement already carries its conditions and "
                    "modifiers; drop --attr/--field/--order-by"
                )
            if args.explain:
                for line in client.explain_mql(args.mql):
                    print(line)
            else:
                _emit(client.query_mql(args.mql))
        elif args.command == "query":
            query = ObjectQuery().limit(args.limit).offset(args.offset)
            if args.order_by:
                query.order_by(args.order_by, descending=args.desc)
            for key, value in _parse_pairs(args.attr).items():
                query.where(key, "=", value)
            for key, value in _parse_pairs(args.field).items():
                query.where_field(key, "=", value)
            if args.explain:
                _emit(client.explain_query(query))
            else:
                _emit(client.query(query))
        elif args.command == "create-collection":
            _emit(client.create_collection(args.name, parent=args.parent,
                                           description=args.description))
        elif args.command == "list-collection":
            _emit(client.list_collection(args.name))
        elif args.command == "annotate":
            _emit(client.annotate("file", args.name, args.text))
        elif args.command == "annotations":
            _emit(client.get_annotations("file", args.name))
        else:  # pragma: no cover - argparse enforces choices
            raise SystemExit(f"unknown command {args.command!r}")
    except (MCSError, TransportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        client.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    try:
        code = main()
    except BrokenPipeError:
        # Output piped into e.g. `head` that exited early; conventional
        # SIGPIPE exit, with stdout redirected so the interpreter's
        # shutdown flush doesn't raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)
