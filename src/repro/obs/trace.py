"""Distributed spans and request-id propagation.

A *span* times one named unit of work (``with span("db.execute",
sql=...)``); spans nest via :mod:`contextvars`, so a span opened inside
another records the outer span as its parent.  Three correlation tokens
ride every span:

* **request id** — minted at the outermost span (normally the client
  call), carried across threads by ``contextvars`` and across the wire
  in the SOAP ``<Header><RequestId>`` element;
* **trace id** — one id for the whole distributed request tree, minted
  at the root span and carried across the wire in the SOAP
  ``<Header><TraceParent>`` element (``trace_id;span_id``);
* **span id / parent span id** — process-unique string ids linking every
  span to its parent, *including across the socket*: the server restores
  the client's ``TraceParent`` via :func:`set_remote_context`, so the
  server-side dispatch span parents onto the client's call span and
  ``mcs trace <request_id>`` can assemble one cross-process waterfall.

Spans also accumulate *annotations* — free-form event strings appended
by the resilience layer (retry attempt, breaker state), the idempotency
cache (replay served) and the fault-injection engine (injected fault id)
via :func:`annotate` — so a chaos run is fully explainable from its
trace alone.

Finished spans land in two places: a duration histogram per span name
(``mcs_span_seconds{name=...}``) and a bounded in-memory ring readable
via :func:`recent_spans` (evictions counted by
``mcs_obs_spans_dropped_total``).  The ring is served over HTTP by the
SOAP server's ``GET /spans`` collection endpoint; :func:`format_trace`,
:func:`format_waterfall`, :func:`to_chrome_trace` and :func:`to_jsonl`
render or export an assembled trace.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from contextvars import ContextVar
from typing import Any, Iterable, Optional, Sequence

from repro.obs.metrics import OBS, counter, histogram

_request_id: ContextVar[Optional[str]] = ContextVar("repro_obs_request_id", default=None)
#: The innermost open span *object* (annotations need more than its id).
_current_span: ContextVar[Optional["span"]] = ContextVar("repro_obs_span", default=None)
#: Remote parent restored from the wire: ``(trace_id, parent_span_id)``.
_remote_parent: ContextVar[Optional[tuple[str, Optional[str]]]] = ContextVar(
    "repro_obs_remote_parent", default=None
)

_ids = itertools.count(1)
_rid_counter = itertools.count(1)
_PID = os.getpid()
_rid_prefix = f"{_PID:x}-{threading.get_ident() & 0xFFFF:x}"
_sid_prefix = f"{_PID:x}s"
_tid_prefix = f"{_PID:x}t"

SPAN_RING_SIZE = 512
_finished: deque = deque(maxlen=SPAN_RING_SIZE)

_SPAN_SECONDS = histogram(
    "mcs_span_seconds",
    "Duration of named spans across every instrumented layer",
    labels=("name",),
)
_SPANS_DROPPED = counter(
    "mcs_obs_spans_dropped_total",
    "Finished spans evicted from the bounded in-memory ring",
)
# Per-name histogram children, resolved once — spans are hot-path.
# Hits stay lock-free; the guard covers the one-time insert (MCS015).
_span_hist: dict = {}
_span_hist_guard = threading.Lock()


class _TracingSwitch:
    """Span recording on/off, independent of the wider OBS switch.

    Metrics stay live when tracing is off — this is the knob that
    isolates what the span machinery itself costs on the SOAP path.
    """

    __slots__ = ("enabled",)

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled


TRACING = _TracingSwitch(
    os.environ.get("REPRO_TRACE_DISABLED", "") not in ("1", "true", "yes")
)


def set_tracing_enabled(flag: bool) -> None:
    TRACING.enabled = bool(flag)


def _hist_for(name: str):
    child = _span_hist.get(name)
    if child is None:
        with _span_hist_guard:
            child = _span_hist.get(name)
            if child is None:
                child = _span_hist[name] = _SPAN_SECONDS.labels(name)
    return child


def new_request_id() -> str:
    """Mint a process-unique request id (cheap: no entropy pool)."""
    return f"{_rid_prefix}-{next(_rid_counter):x}"


def new_trace_id() -> str:
    """Mint a process-unique trace id for a new root span."""
    return f"{_tid_prefix}{next(_ids):x}"


def current_request_id() -> Optional[str]:
    return _request_id.get()


def current_span() -> Optional["span"]:
    """The innermost open span on this thread's context, if any."""
    return _current_span.get()


def has_active_span() -> bool:
    """True when a span is already open on this thread's context."""
    return _current_span.get() is not None


def set_request_id(request_id: Optional[str]):
    """Bind the contextvar; returns a token for ``reset_request_id``."""
    return _request_id.set(request_id)


def reset_request_id(token) -> None:
    _request_id.reset(token)


# -- wire context (the TraceParent SOAP header) ------------------------------


def current_traceparent() -> Optional[str]:
    """Wire form of the active trace context: ``trace_id;span_id``.

    What a client stamps into the outgoing ``<TraceParent>`` header so
    the server's dispatch span parents onto the in-flight client span.
    """
    s = _current_span.get()
    if s is not None and s.trace_id is not None:
        return f"{s.trace_id};{s.span_id}"
    remote = _remote_parent.get()
    if remote is not None:
        return f"{remote[0]};{remote[1]}" if remote[1] else remote[0]
    return None


def parse_traceparent(value: str) -> tuple[str, Optional[str]]:
    """``trace_id;span_id`` → ``(trace_id, parent_span_id)``."""
    trace_id, _, parent = value.partition(";")
    return trace_id.strip(), (parent.strip() or None)


def set_remote_context(traceparent: Optional[str]):
    """Adopt a remote parent for spans opened on this context.

    Server-side: bind the ``TraceParent`` header for the duration of the
    request so the next root-level span links to the caller's span.
    Returns a token for :func:`reset_remote_context`.
    """
    if traceparent is None:
        return _remote_parent.set(None)
    return _remote_parent.set(parse_traceparent(traceparent))


def reset_remote_context(token) -> None:
    _remote_parent.reset(token)


# -- the span itself ---------------------------------------------------------


class span:
    """Context manager timing one unit of work.

    Class-based (not ``@contextmanager``) to keep per-entry overhead at a
    couple of attribute writes.  When observability (or tracing alone) is
    disabled, the enter/exit pair does nothing but one flag check each.
    """

    __slots__ = (
        "name",
        "attrs",
        "span_id",
        "parent_id",
        "trace_id",
        "request_id",
        "ts",
        "duration",
        "error",
        "annotations",
        "_start",
        "_span_token",
        "_rid_token",
    )

    def __init__(self, name: str, **attrs: Any) -> None:
        self.name = name
        self.attrs = attrs
        self.span_id: Optional[str] = None
        self.parent_id: Optional[str] = None
        self.trace_id: Optional[str] = None
        self.request_id: Optional[str] = None
        self.ts: Optional[float] = None
        self.duration: Optional[float] = None
        self.error: Optional[str] = None
        self.annotations: list[str] = []
        self._rid_token = None

    def __enter__(self) -> "span":
        if not (OBS.enabled and TRACING.enabled):
            self._start = None
            return self
        self.span_id = f"{_sid_prefix}{next(_ids):x}"
        parent = _current_span.get()
        if parent is not None:
            self.parent_id = parent.span_id
            self.trace_id = parent.trace_id
        else:
            remote = _remote_parent.get()
            if remote is not None:
                self.trace_id, self.parent_id = remote
            else:
                self.trace_id = new_trace_id()
        rid = _request_id.get()
        if rid is None:
            rid = new_request_id()
            self._rid_token = _request_id.set(rid)
        self.request_id = rid
        self._span_token = _current_span.set(self)
        self.ts = time.time()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._start is None:
            return
        self.duration = time.perf_counter() - self._start
        _current_span.reset(self._span_token)
        if self._rid_token is not None:
            _request_id.reset(self._rid_token)
            self._rid_token = None
        _hist_for(self.name).observe(self.duration)
        if exc_type is not None:
            self.error = exc_type.__name__
        # Append the span object itself; the dict view is built lazily in
        # recent_spans() so the hot path pays one deque append, not a
        # ten-key dict construction.  The length check races benignly:
        # drop accounting may be off by the number of in-flight appends,
        # never wildly wrong, and costs no lock.
        ring = _finished
        if len(ring) >= (ring.maxlen or SPAN_RING_SIZE):
            _SPANS_DROPPED.inc()
        ring.append(self)

    def annotate(self, message: str) -> None:
        """Append a free-form event to this span."""
        self.annotations.append(message)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "request_id": self.request_id,
            "pid": _PID,
            "ts": self.ts,
            "duration": self.duration,
            "error": self.error,
            "attrs": self.attrs,
            "annotations": list(self.annotations),
        }


def annotate(message: str) -> bool:
    """Append *message* to the innermost open span, if any.

    The hook the resilience layer, the idempotency cache and the
    fault-injection engine use to stamp events (retry attempt, breaker
    state, replay served, injected fault id) onto whatever span is in
    flight; returns False (and does nothing) when no span is open.
    """
    s = _current_span.get()
    if s is None:
        return False
    s.annotations.append(message)
    return True


# -- the bounded ring --------------------------------------------------------


def set_span_ring_size(size: int) -> None:
    """Resize the finished-span ring, keeping the most recent entries."""
    global _finished
    if size < 1:
        raise ValueError("span ring size must be >= 1")
    _finished = deque(_finished, maxlen=size)


def span_ring_capacity() -> int:
    return _finished.maxlen or SPAN_RING_SIZE


def recent_spans(
    request_id: Optional[str] = None,
    name: Optional[str] = None,
    trace_id: Optional[str] = None,
) -> list[dict[str, Any]]:
    """Finished spans from the in-memory ring, oldest first."""
    out = [s.to_dict() for s in list(_finished)]
    if request_id is not None:
        out = [s for s in out if s["request_id"] == request_id]
    if trace_id is not None:
        out = [s for s in out if s["trace_id"] == trace_id]
    if name is not None:
        out = [s for s in out if s["name"] == name]
    return out


def clear_spans() -> None:
    _finished.clear()


# -- trace assembly and rendering -------------------------------------------


def assemble_trace(spans: Sequence[dict[str, Any]]) -> dict[str, Any]:
    """Organize collected span dicts into a tree, flagging orphans.

    Returns ``{"spans", "roots", "orphans", "children"}`` where *roots*
    are spans with no parent at all, *orphans* have a parent id that is
    missing from the collection (an incomplete trace — some process's
    ring evicted it or was never scraped), and *children* maps span id →
    child spans sorted by start timestamp.
    """
    known = {s["span_id"] for s in spans}
    children: dict[Optional[str], list[dict[str, Any]]] = {}
    roots: list[dict[str, Any]] = []
    orphans: list[dict[str, Any]] = []
    for s in sorted(spans, key=lambda s: (s.get("ts") or 0.0)):
        parent = s.get("parent_id")
        if parent is None:
            roots.append(s)
        elif parent not in known:
            orphans.append(s)
        children.setdefault(parent, []).append(s)
    return {
        "spans": list(spans),
        "roots": roots,
        "orphans": orphans,
        "children": children,
    }


def _span_suffix(node: dict[str, Any]) -> str:
    attrs = " ".join(f"{k}={v!r}" for k, v in (node.get("attrs") or {}).items())
    notes = "".join(f" [{a}]" for a in node.get("annotations") or ())
    mark = " !" if node.get("error") else ""
    return f"{' ' + attrs if attrs else ''}{notes}{mark}"


def format_trace(
    request_id: str, spans: Optional[Sequence[dict[str, Any]]] = None
) -> str:
    """Render one request's spans as an indented tree (for debugging)."""
    if spans is None:
        spans = recent_spans(request_id=request_id)
    tree = assemble_trace(spans)
    lines = [f"trace {request_id}"]

    def walk(node: dict, depth: int) -> None:
        lines.append(
            f"{'  ' * depth}- {node['name']} {node['duration'] * 1e3:.3f}ms"
            f"{_span_suffix(node)}"
        )
        for child in tree["children"].get(node["span_id"], []):
            walk(child, depth + 1)

    for root in tree["roots"] + tree["orphans"]:
        walk(root, 1)
    return "\n".join(lines)


def format_waterfall(
    spans: Sequence[dict[str, Any]], title: str = "trace"
) -> str:
    """Render collected spans as a time-aligned cross-process waterfall.

    Spans from any number of processes (merged local + ``GET /spans``
    scrapes) are aligned on the earliest wall-clock start; each line
    shows the offset window, the owning pid, and the span's attrs,
    annotations and error mark.  Orphaned subtrees are flagged so an
    incomplete collection is visible instead of silently flattened.
    """
    if not spans:
        return f"{title}: no spans"
    tree = assemble_trace(spans)
    t0 = min(s.get("ts") or 0.0 for s in spans)
    lines = [f"waterfall {title} ({len(spans)} spans)"]

    def walk(node: dict, depth: int, orphan: bool) -> None:
        start = ((node.get("ts") or t0) - t0) * 1e3
        dur = (node.get("duration") or 0.0) * 1e3
        flag = " (orphan)" if orphan else ""
        lines.append(
            f"  [{start:9.3f}ms +{dur:9.3f}ms] pid={node.get('pid', '?')} "
            f"{'  ' * depth}{node['name']}{_span_suffix(node)}{flag}"
        )
        for child in tree["children"].get(node["span_id"], []):
            walk(child, depth + 1, False)

    for root in tree["roots"]:
        walk(root, 0, False)
    for orphan in tree["orphans"]:
        walk(orphan, 0, True)
    return "\n".join(lines)


# -- exporters ---------------------------------------------------------------


def to_chrome_trace(spans: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Export span dicts as chrome://tracing's Trace Event JSON.

    Complete ("X") events with microsecond timestamps; load the dumped
    JSON in chrome://tracing or https://ui.perfetto.dev to inspect the
    cross-process waterfall visually.
    """
    events = []
    for s in spans:
        events.append(
            {
                "name": s["name"],
                "cat": "mcs",
                "ph": "X",
                "ts": (s.get("ts") or 0.0) * 1e6,
                "dur": (s.get("duration") or 0.0) * 1e6,
                "pid": s.get("pid", 0),
                "tid": 0,
                "args": {
                    "span_id": s.get("span_id"),
                    "parent_id": s.get("parent_id"),
                    "trace_id": s.get("trace_id"),
                    "request_id": s.get("request_id"),
                    "attrs": s.get("attrs") or {},
                    "annotations": s.get("annotations") or [],
                    "error": s.get("error"),
                },
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def to_jsonl(spans: Iterable[dict[str, Any]]) -> str:
    """One JSON object per line — the append-friendly archive format."""
    return "\n".join(json.dumps(s, sort_keys=True, default=str) for s in spans)
