"""Project-specific lint rules: the codebase's invariants, ossified.

Each rule guards one protocol the reproduction's correctness rests on.
They are deliberately narrow — a rule that knows exactly one invariant
can afford to have zero false positives on this tree, which is what
lets CI fail the build on any finding.

Rule ids are stable (``MCS0xx``); see ``docs/INTERNALS.md`` for the
prose version of every invariant.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterator, Optional, Sequence

from repro.analysis.lint import Finding, Module, Rule, register
from repro.obs.metric_names import DECLARED_METRICS, METRIC_NAME_PATTERN

# --------------------------------------------------------------------------
# Shared AST helpers
# --------------------------------------------------------------------------


def _call_name(node: ast.Call) -> Optional[str]:
    """Trailing name of the called object: ``a.b.c()`` → ``c``."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _attr_chain(node: ast.expr) -> list[str]:
    """``a.b.c`` → ``["a", "b", "c"]`` (empty for non-name chains)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return []


# --------------------------------------------------------------------------
# MCS001 — storage encapsulation
# --------------------------------------------------------------------------


@register
class StorageEncapsulationRule(Rule):
    """Row storage and B-trees are engine internals.

    Every mutation must flow through ``db.engine``/``db.txn`` so it picks
    up locking, undo logging, WAL records and generation bumps.  A module
    outside ``repro.db`` that imports ``repro.db.storage`` or
    ``repro.db.btree`` is reaching past all four — runtime imports are
    forbidden (``TYPE_CHECKING``-only imports are fine).
    """

    id = "MCS001"
    name = "storage-encapsulation"
    invariant = (
        "only repro.db itself may import the storage/btree internals; all "
        "other mutation goes through the engine's locked, logged statement path"
    )
    exempt_modules = ("repro.db",)

    _FORBIDDEN = ("repro.db.storage", "repro.db.btree")

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            target: Optional[str] = None
            if isinstance(node, ast.ImportFrom):
                mod = node.module or ""
                if mod in self._FORBIDDEN:
                    target = mod
                elif mod == "repro.db":
                    for alias in node.names:
                        if alias.name in ("storage", "btree"):
                            target = f"repro.db.{alias.name}"
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in self._FORBIDDEN:
                        target = alias.name
            if target is None or module.in_type_checking_block(node):
                continue
            yield self.finding(
                module,
                node,
                f"imports engine internal {target!r}; mutate through "
                "db.engine/db.txn so locking, undo, WAL and generation "
                "bumps all apply",
            )


# --------------------------------------------------------------------------
# MCS002 — generation bump on every committed write path
# --------------------------------------------------------------------------


@register
class GenerationBumpRule(Rule):
    """Commits must invalidate the read caches before locks drop.

    Any function that publishes WAL records (``wal_commit``) is a commit
    path; it must bump the ``GenerationMap`` *after* the commit call (and
    therefore before the write-lock release that makes the new rows
    readable).  Missing the bump makes every strict-consistency cache a
    stale-read machine.
    """

    id = "MCS002"
    name = "generation-bump-after-commit"
    invariant = (
        "every function calling wal_commit() must bump GenerationMap "
        "afterwards, while the commit's write locks are still held"
    )

    def check(self, module: Module) -> Iterator[Finding]:
        for func in ast.walk(module.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            commit_lines: list[int] = []
            bump_lines: list[int] = []
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                name = _call_name(node)
                if name == "wal_commit":
                    commit_lines.append(node.lineno)
                elif name == "_bump_generations":
                    bump_lines.append(node.lineno)
                elif name == "bump":
                    chain = _attr_chain(node.func)
                    if len(chain) >= 2 and chain[-2] == "generations":
                        bump_lines.append(node.lineno)
            if not commit_lines:
                continue
            last_commit = max(commit_lines)
            if not any(line > last_commit for line in bump_lines):
                yield self.finding(
                    module,
                    func,
                    f"{func.name}() calls wal_commit() but never bumps "
                    "GenerationMap afterwards; committed writes would stay "
                    "invisible to cache invalidation",
                )


# --------------------------------------------------------------------------
# MCS003 — mid-transaction cache bypass discipline
# --------------------------------------------------------------------------


@register
class CacheConnThreadingRule(Rule):
    """Shared-cache lookups must thread the live connection.

    ``CatalogCache`` decides per-lookup whether to bypass — a connection
    mid-transaction that already wrote table T must not hit or populate
    entries depending on T (its uncommitted rows are visible to nobody
    else).  That decision needs the connection: passing ``None`` (or
    nothing) disables the discipline and reintroduces the torn-read bug
    the bypass exists to prevent.
    """

    id = "MCS003"
    name = "cache-bypass-discipline"
    invariant = (
        "CatalogCache.lookup_* callers must pass the executing Connection, "
        "never None, so the written_tables bypass can trigger"
    )
    exempt_modules = ("repro.cache",)

    _LOOKUPS = (
        "lookup_attr_def", "lookup_object_id", "lookup_query",
        "lookup_collection_parent", "lookup_acl",
    )

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name == "_lookup" and isinstance(node.func, ast.Attribute):
                chain = _attr_chain(node.func)
                if chain[:1] != ["self"]:
                    yield self.finding(
                        module,
                        node,
                        "calls the private CatalogCache._lookup; use the "
                        "typed lookup_* entry points",
                    )
                continue
            if name not in self._LOOKUPS:
                continue
            conn_arg: Optional[ast.expr] = node.args[0] if node.args else None
            for kw in node.keywords:
                if kw.arg == "conn":
                    conn_arg = kw.value
            # A Connection is never a literal: a constant in the conn
            # slot means the argument was omitted and something else
            # shifted into its place (or None was passed outright).
            if conn_arg is None or isinstance(conn_arg, ast.Constant):
                yield self.finding(
                    module,
                    node,
                    f"{name}() without the executing Connection: the "
                    "mid-transaction written_tables bypass cannot trigger, "
                    "so uncommitted state could leak through the shared cache",
                )


# --------------------------------------------------------------------------
# MCS004 — centralized fault table
# --------------------------------------------------------------------------


@register
class FaultTableRule(Rule):
    """``MCS.*`` fault codes live in exactly one place.

    The wire contract is the table in ``repro.core.errors``
    (``fault_code_for`` / ``exception_from_fault``).  A fault-code string
    literal minted anywhere else is a code the client cannot map back to
    a typed error — it surfaces as a bare ``MCSError`` and drifts the
    moment the table changes.
    """

    id = "MCS004"
    name = "centralized-fault-table"
    invariant = (
        "MCS.* fault-code literals may appear only in repro.core.errors; "
        "handlers raise typed errors or reference <Error>.fault_code"
    )
    exempt_modules = ("repro.core.errors",)

    _CODE = re.compile(r"^MCS\.[A-Za-z][A-Za-z0-9_]*$")

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and self._CODE.match(node.value)
            ):
                yield self.finding(
                    module,
                    node,
                    f"ad-hoc fault code {node.value!r}; add it to the "
                    "repro.core.errors table and reference the error "
                    "class's fault_code instead",
                )


# --------------------------------------------------------------------------
# MCS005 — declared metric names only
# --------------------------------------------------------------------------

_METRIC_FACTORIES = (
    "counter",
    "gauge",
    "histogram",
    "_obs_counter",
    "_obs_gauge",
    "_obs_histogram",
)

_METRIC_NAME_RE = re.compile(METRIC_NAME_PATTERN)


def iter_metric_declarations(tree: ast.Module) -> Iterator[tuple[int, str]]:
    """Yield ``(line, name)`` for every literal metric-family creation."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if _call_name(node) not in _METRIC_FACTORIES:
            continue
        if not node.args:
            continue
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            yield node.lineno, first.value


@register
class MetricRegistryRule(Rule):
    """Every emitted metric name must be declared.

    ``/metrics`` and the SOAP ``stats`` call key on the names in
    ``repro.obs.metric_names.DECLARED_METRICS``.  A call site minting
    an undeclared (or mis-shaped) name adds an unreviewed series that
    no dashboard will ever query — the classic /metrics drift.
    """

    id = "MCS005"
    name = "declared-metric-names"
    invariant = (
        "metric families must use declared mcs_* names from "
        "repro.obs.metric_names (no undeclared or mis-shaped series)"
    )

    def check(self, module: Module) -> Iterator[Finding]:
        for line, name in iter_metric_declarations(module.tree):
            if not _METRIC_NAME_RE.match(name):
                yield Finding(
                    file=module.relpath,
                    line=line,
                    rule_id=self.id,
                    message=(
                        f"metric name {name!r} does not match "
                        f"{METRIC_NAME_PATTERN!r}"
                    ),
                )
            elif name not in DECLARED_METRICS:
                yield Finding(
                    file=module.relpath,
                    line=line,
                    rule_id=self.id,
                    message=(
                        f"metric name {name!r} is not declared in "
                        "repro.obs.metric_names.DECLARED_METRICS"
                    ),
                )


# --------------------------------------------------------------------------
# MCS007 — lock acquisition stays inside the engine
# --------------------------------------------------------------------------


@register
class LockDisciplineRule(Rule):
    """Raw lock acquisition is a deadlock looking for a reviewer.

    The engine kills lock-order deadlocks structurally: ``LockManager``
    acquires every statement's locks in sorted order, and transactions
    pre-declare read→write upgrades via ``lock_tables``.  Code outside
    ``repro.db`` calling ``acquire_read``/``acquire_write`` directly
    sits outside that ordering — exactly the class of bug the runtime
    sanitizer exists to catch.
    """

    id = "MCS007"
    name = "lock-acquisition-discipline"
    invariant = (
        "RWLock.acquire_read/acquire_write may be called only inside "
        "repro.db (LockManager ordering) and the sanitizer instrumentation"
    )
    exempt_modules = ("repro.db", "repro.analysis.sanitizer")

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("acquire_read", "acquire_write")
            ):
                yield self.finding(
                    module,
                    node,
                    f"direct {node.func.attr}() outside the engine bypasses "
                    "LockManager's sorted acquisition order",
                )


# --------------------------------------------------------------------------
# MCS008 — structured logging, not stdout
# --------------------------------------------------------------------------


@register
class StructuredLoggingRule(Rule):
    """Library code logs through ``repro.obs.log``, never ``print``.

    Server-side stdout is invisible to operators; the structured logger
    carries request ids and renders as JSON.  ``print`` belongs only to
    the user-facing CLI and the linter's own report.
    """

    id = "MCS008"
    name = "structured-logging"
    invariant = (
        "no print() in library code; use repro.obs.log (print is CLI/"
        "linter-report only)"
    )
    only_modules = ("repro",)
    exempt_modules = ("repro.cli", "repro.analysis")

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield self.finding(
                    module,
                    node,
                    "print() in library code; route through repro.obs.log "
                    "so output carries request context",
                )


# --------------------------------------------------------------------------
# MCS009 — transport failures must be handled, not swallowed
# --------------------------------------------------------------------------


def _names_in_handler_type(node: Optional[ast.expr]) -> list[str]:
    """Exception-class names an ``except`` clause catches (last attr part)."""
    if node is None:
        return []
    if isinstance(node, ast.Tuple):
        names: list[str] = []
        for element in node.elts:
            names.extend(_names_in_handler_type(element))
        return names
    chain = _attr_chain(node)
    return [chain[-1]] if chain else []


@register
class SwallowedTransportFaultRule(Rule):
    """``except TransportError: pass`` turns a failure into silence.

    The resilience layer (repro.resilience) exists so transport failures
    are retried, recorded, or surfaced as partial results.  A handler
    that catches TransportError and does nothing hides exactly the
    events the chaos lane asserts are survivable — the operator sees a
    healthy system while writes vanish.
    """

    id = "MCS009"
    name = "no-swallowed-transport-faults"
    invariant = (
        "except TransportError handlers must retry, record, or re-raise "
        "— a body of pass/continue swallows the failure"
    )

    _SILENT = (ast.Pass, ast.Continue)

    def _swallows(self, body: list[ast.stmt]) -> bool:
        for stmt in body:
            if isinstance(stmt, self._SILENT):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                continue  # docstring or bare ``...``
            return False
        return True

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Try):
                continue
            for handler in node.handlers:
                if "TransportError" not in _names_in_handler_type(handler.type):
                    continue
                if self._swallows(handler.body):
                    yield self.finding(
                        module,
                        handler,
                        "TransportError caught and discarded; retry via "
                        "RetryPolicy, record the failure, or re-raise",
                    )


# --------------------------------------------------------------------------
# MCS010 — request dispatch and ship paths must execute under a span
# --------------------------------------------------------------------------


@register
class UnspannedDispatchRule(Rule):
    """Cross-process work must be visible to ``mcs trace``.

    The distributed waterfall is only trustworthy if every hop records a
    span: the SOAP server's operation dispatch, each federation member
    subquery, each replication shipment, and each soft-state update
    tick.  A hop without a span is a hole in every assembled trace — its
    retries, faults and latency silently vanish from the one tool
    operators use to explain an incident.
    """

    id = "MCS010"
    name = "dispatch-under-span"
    invariant = (
        "SOAP request dispatch (SoapDispatcher.dispatch, shared by the "
        "threaded and asyncio front ends) and the federation/replication/"
        "RLS ship paths must run inside a `with span(...)` block so "
        "cross-process traces have no holes"
    )

    #: (class name or None for any, method name) pairs that must span.
    _TARGETS = frozenset(
        {
            ("FederatedMCS", "_subquery"),
            ("Replica", "_ship"),
            ("PeriodicUpdater", "tick"),
            ("SoapDispatcher", "dispatch"),
        }
    )

    @staticmethod
    def _opens_span(func: ast.FunctionDef) -> bool:
        for node in ast.walk(func):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            for item in node.items:
                expr = item.context_expr
                if isinstance(expr, ast.Call) and _call_name(expr) in (
                    "span",
                    "_span",
                ):
                    return True
        return False

    def check(self, module: Module) -> Iterator[Finding]:
        class_of: dict[ast.AST, Optional[str]] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                for child in node.body:
                    class_of[child] = node.name
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            owner = class_of.get(node)
            if (owner, node.name) not in self._TARGETS and (
                None,
                node.name,
            ) not in self._TARGETS:
                continue
            if not self._opens_span(node):
                where = f"{owner}.{node.name}" if owner else node.name
                yield self.finding(
                    module,
                    node,
                    f"{where} dispatches cross-process work without opening "
                    "a span; wrap the body in `with span(...)` so the hop "
                    "appears in assembled traces",
                )


# --------------------------------------------------------------------------
# MCS011 — no blocking calls inside coroutine code
# --------------------------------------------------------------------------


@register
class BlockingInCoroutineRule(Rule):
    """One blocking call in a coroutine stalls every connection.

    The asyncio front end multiplexes thousands of connections on one
    event loop; anything that blocks the loop — ``time.sleep``, a
    synchronous ``open``/``socket`` dial, an ``RWLock`` acquisition —
    freezes all of them at once.  Blocking work belongs on the worker
    pool (``run_in_executor``); coroutines await ``asyncio.sleep`` and
    the stream APIs.  Nested ``def``/``lambda`` bodies are excluded:
    they are how work is handed to the executor.
    """

    id = "MCS011"
    name = "no-blocking-in-coroutine"
    invariant = (
        "coroutine bodies must not call time.sleep, synchronous open/"
        "socket I/O, or RWLock acquire_read/acquire_write — blocking "
        "work goes through run_in_executor, waiting through asyncio.sleep"
    )

    #: Attribute-chain suffixes of known loop-blocking calls.
    _BLOCKING_CHAINS = (
        ("time", "sleep"),
        ("socket", "socket"),
        ("socket", "create_connection"),
        ("socket", "create_server"),
    )
    #: Attribute names that block regardless of the receiver.
    _BLOCKING_ATTRS = ("acquire_read", "acquire_write")

    @staticmethod
    def _iter_coroutine_nodes(func: ast.AsyncFunctionDef) -> Iterator[ast.AST]:
        """Nodes executed *by the coroutine itself* — nested function and
        lambda bodies run elsewhere (typically on the executor) and are
        each checked on their own if they are coroutines."""
        stack: list[ast.AST] = list(func.body)
        while stack:
            node = stack.pop()
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    def _blocking_call(self, node: ast.Call) -> Optional[str]:
        if isinstance(node.func, ast.Name) and node.func.id == "open":
            return "open()"
        chain = _attr_chain(node.func)
        if not chain:
            return None
        if chain[-1] in self._BLOCKING_ATTRS:
            return f"{chain[-1]}()"
        for suffix in self._BLOCKING_CHAINS:
            if tuple(chain[-len(suffix):]) == suffix:
                return ".".join(suffix) + "()"
        return None

    def check(self, module: Module) -> Iterator[Finding]:
        for func in ast.walk(module.tree):
            if not isinstance(func, ast.AsyncFunctionDef):
                continue
            for node in self._iter_coroutine_nodes(func):
                if not isinstance(node, ast.Call):
                    continue
                what = self._blocking_call(node)
                if what is not None:
                    yield self.finding(
                        module,
                        node,
                        f"blocking {what} inside coroutine {func.name}(); "
                        "it stalls the event loop for every connection — "
                        "use asyncio equivalents or run_in_executor",
                    )


# --------------------------------------------------------------------------
# Registry cross-checks (used by tests, not a per-file rule)
# --------------------------------------------------------------------------


def collect_metric_names(paths: Sequence[str | Path]) -> dict[str, list[tuple[str, int]]]:
    """All literal metric names under *paths* → their (file, line) sites.

    The other direction of MCS005: tests compare the returned key set
    against ``DECLARED_METRICS`` to flag stale declarations no call site
    emits any more.
    """
    from repro.analysis.lint import iter_python_files, load_module

    sites: dict[str, list[tuple[str, int]]] = {}
    for root, file in iter_python_files([Path(p) for p in paths]):
        module = load_module(root, file)
        for line, name in iter_metric_declarations(module.tree):
            sites.setdefault(name, []).append((module.relpath, line))
    return sites
