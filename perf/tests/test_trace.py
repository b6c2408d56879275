"""Span arithmetic, and that tracing leaves nothing behind."""

import threading

from perf import trace


def _span(name, start, end, span_id, parent=0):
    return (name, start, end, span_id, parent, 1, None)


def test_self_time_of_nested_children():
    spans = [
        _span("root", 0, 100, 1),
        _span("child", 10, 60, 2, parent=1),
        _span("grandchild", 20, 30, 3, parent=2),
        _span("child", 70, 80, 4, parent=1),
    ]
    own = trace.self_times(spans)
    assert own == {1: 40, 2: 40, 3: 10, 4: 10}
    assert sum(own.values()) == 100  # the parts add up to the whole


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span("root", 0, 100, 1),
        _span("a", 10, 50, 2, parent=1),
        _span("b", 30, 70, 3, parent=1),  # overlaps a by 20
        _span("c", 40, 45, 4, parent=1),  # inside both
        _span("late", 90, 130, 5, parent=1),  # runs past the parent's end
    ]
    own = trace.self_times(spans)
    assert own[1] == 100 - (70 - 10) - (100 - 90)
    assert own[2] == 40 and own[5] == 40


def test_aggregate_and_layer_metrics_add_up():
    spans = [
        _span("client.op", 0, 1000, 1),
        _span("service.handle", 100, 900, 2, parent=1),
        _span("catalog.query", 200, 800, 3, parent=2),
        _span("db.statement", 300, 700, 4, parent=3),
    ]
    agg = trace.aggregate(spans)
    assert agg["catalog.query"] == {"count": 1, "self_ns": 200, "total_ns": 600, "value": 0}
    metrics = trace.layer_metrics(agg, ops=1)
    parts = ("client.self_us", "service.self_us", "catalog.self_us", "db.statement_us")
    assert sum(metrics[name] for name in parts) == 1.0
    assert metrics["trace.named_us"] == 1.0
    assert metrics["soap.http_us"] == 0 and metrics["aserve.scan_hit_share"] == 0


def test_server_spans_come_out_of_the_transport_span():
    client = trace.aggregate(
        [_span("client.op", 0, 1000, 1), _span("soap.http", 100, 900, 2, parent=1)]
    )
    server = trace.aggregate(
        [_span("soap.dispatch", 0, 500, 1), _span("service.handle", 100, 400, 2, parent=1)]
    )
    metrics = trace.layer_metrics(trace.merge(client, server), ops=1)
    assert metrics["soap.http_us"] == 0.3  # 800 in transport - 500 in the server
    assert metrics["trace.named_us"] == 1.0


def test_wrapper_records_parents_values_and_errors():
    tracer = trace.Tracer()

    def inner(text):
        return text * 2

    def failing():
        raise ValueError("boom")

    wrapped_inner = tracer.wrap("inner", inner, measure=lambda args, result: len(result))
    wrapped_failing = tracer.wrap("failing", failing)

    def outer():
        wrapped_inner("ab")
        try:
            wrapped_failing()
        except ValueError:
            pass

    tracer.set_operation(42)
    tracer.wrap("outer", outer)()
    by_name = {span[0]: span for span in tracer.spans()}
    assert by_name["outer"][4] == 0
    assert by_name["inner"][4] == by_name["failing"][4] == by_name["outer"][3]
    assert by_name["inner"][6] == 4 and by_name["failing"][6] is None
    assert {span[5] for span in tracer.spans()} == {42}


def test_spans_of_threads_without_an_operation_share_their_root():
    tracer = trace.Tracer()
    leaf = tracer.wrap("leaf", lambda: None)
    root = tracer.wrap("root", leaf)
    thread = threading.Thread(target=root)
    thread.start()
    thread.join()
    (leaf_span, root_span) = tracer.spans()
    assert leaf_span[5] == root_span[5] == -root_span[3]


def test_install_wraps_and_uninstall_restores_every_attribute():
    from repro.aserve import AsyncSoapServer

    server = AsyncSoapServer(lambda method, args: None)
    try:
        points = trace.patch_points(server)
        assert len(points) > 60
        before = [trace._raw_attribute(owner, attr) for owner, attr, *_rest in points]
        tracer = trace.Tracer()
        tracer.install(points)
        for (owner, attr, *_rest), original in zip(points, before):
            wrapper = trace._raw_attribute(owner, attr)
            assert wrapper is not original and wrapper.__wrapped__ is original
        tracer.uninstall()
        after = [trace._raw_attribute(owner, attr) for owner, attr, *_rest in points]
        assert all(now is then for now, then in zip(after, before))
    finally:
        server.stop()


def test_every_layer_metric_is_reported_and_named_once():
    names = [name for name, _unit in trace.LAYER_METRICS]
    assert len(names) == len(set(names))
    computed = set(trace.layer_metrics({}, ops=1)) - {"trace.named_us"}
    counted = {
        "client.p99_ms", "client.max_ms", "catalog.files_per_s",
        "cache.query_hit_share", "cache.object_hit_share", "cache.attr_hit_share",
        "db.wal_bytes_per_op", "db.disk_bytes_per_file",
        "trace.overhead_share", "trace.attributed_share",
    }
    assert computed | counted == set(names) and not computed & counted
