"""Whole-program rules MCS012–MCS016.

Each rule here needs facts no single module contains: a blocking call
two frames under a coroutine, a lock ordering split across subsystems,
an exception minted in the db engine surfacing untyped at the SOAP
boundary.  They consume the :mod:`repro.analysis.callgraph` program and
the :mod:`repro.analysis.flow` summaries, and report findings with a
``trace`` — the call path that makes the violation real.

Suppression: ``# wp-ok: MCS0xx reason`` on (or directly above) the
flagged line, with a mandatory human-readable reason; or a
``--baseline`` file with per-entry justifications for findings that
must land before their fix can.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.callgraph import (
    CALL,
    DYNAMIC,
    HANDOFF,
    Edge,
    Handler,
    Program,
)
from repro.analysis.flow import (
    ProgramContext,
    WholeProgramRule,
    held_at_entry,
    reachable,
    register_whole_program,
)
from repro.analysis.lint import Finding

# --------------------------------------------------------------------------
# Dispatch wiring
# --------------------------------------------------------------------------
#
# The SOAP dispatch chain goes through two indirections the call graph
# cannot resolve statically: ``SoapDispatcher`` calls ``self._handler``
# (a callable stored at construction — in practice a service's
# ``handle`` method) and the service's ``_dispatch`` reaches its ops via
# ``getattr(self, "op_" + name)``.  Both wirings are protocol facts, not
# code facts, so we assert them here as synthetic edges: dispatcher →
# every ``handle`` on a class that defines ``op_*`` methods (under the
# dispatcher's span, as the real call site is), and ``_dispatch`` →
# every op on the same class (guarded by the real fault-translation
# handlers around the real ``op(**args)`` call).

_DISPATCH_HANDLERS = (
    Handler(
        caught=("MCSError", "SecurityError", "DatabaseError"),
        silent=False,
        reraises=True,
        line=0,
    ),
    Handler(caught=("TypeError",), silent=False, reraises=True, line=0),
)


def wire_dispatch(program: Program) -> None:
    dispatchers = [
        info
        for info in program.functions.values()
        if info.name == "dispatch"
        and info.class_qual is not None
        and info.class_qual.endswith("SoapDispatcher")
    ]
    for cls in program.classes.values():
        ops = sorted(
            qual for name, qual in cls.methods.items() if name.startswith("op_")
        )
        if not ops:
            continue
        handle = cls.methods.get("handle")
        if handle is not None:
            for dispatcher in dispatchers:
                dispatcher.edges.append(
                    Edge(
                        caller=dispatcher.qualname,
                        callee=handle,
                        line=dispatcher.lineno,
                        kind=CALL,
                        under_span=True,
                        locks_held=(),
                        handlers=(),
                    )
                )
        inner = cls.methods.get("_dispatch")
        if inner is None:
            continue
        inner_info = program.functions[inner]
        for op in ops:
            inner_info.edges.append(
                Edge(
                    caller=inner,
                    callee=op,
                    line=inner_info.lineno,
                    kind=CALL,
                    under_span=False,
                    locks_held=(),
                    handlers=_DISPATCH_HANDLERS,
                )
            )


# --------------------------------------------------------------------------
# shared helpers
# --------------------------------------------------------------------------


def _parse_step(step: str) -> tuple[str, int]:
    """``"pkg.mod.fn:12 (note)"`` → ``("pkg.mod.fn", 12)``."""
    head = step.split(" (", 1)[0]
    qual, _, line = head.rpartition(":")
    try:
        return qual, int(line)
    except ValueError:
        return head, 0


def _short(qual: str) -> str:
    parts = qual.split(".")
    return ".".join(parts[-2:]) if len(parts) > 2 else qual


def _site_of(program: Program, path: tuple[str, ...]) -> tuple[str, int]:
    """(relpath, line) of the first step of a witness path."""
    qual, line = _parse_step(path[0])
    info = program.functions.get(qual)
    return (info.relpath if info is not None else qual, line)


def _op_methods(program: Program) -> list[str]:
    return sorted(
        info.qualname
        for info in program.functions.values()
        if info.name.startswith("op_") and info.class_qual is not None
    )


def _entry_path(
    program: Program, entries: set[str], target: str
) -> tuple[str, ...]:
    """Shortest CALL-edge path entry → target, as trace steps."""
    from collections import deque

    parents: dict[str, tuple[str, int]] = {}
    queue = deque(sorted(e for e in entries if e in program.functions))
    seen = set(queue)
    while queue:
        qual = queue.popleft()
        if qual == target:
            steps: list[str] = []
            cursor = qual
            while cursor in parents:
                caller, line = parents[cursor]
                steps.append(f"{caller}:{line} (calls {_short(cursor)})")
                cursor = caller
            return tuple(reversed(steps))
        for edge in program.edges_from(qual):
            if edge.kind == CALL and edge.callee not in seen:
                seen.add(edge.callee)
                parents[edge.callee] = (qual, edge.line)
                queue.append(edge.callee)
    return ()


# --------------------------------------------------------------------------
# MCS012 — transitive blocking in coroutines
# --------------------------------------------------------------------------


@register_whole_program
class TransitiveBlockingInCoroutine(WholeProgramRule):
    id = "MCS012"
    name = "transitive-blocking-in-coroutine"
    invariant = (
        "A coroutine must not reach a blocking primitive (time.sleep, "
        "socket I/O, sqlite3, open) through any chain of synchronous "
        "helpers; blocking work crosses to a thread via run_in_executor/"
        "to_thread, which cuts the propagation."
    )

    def check_program(self, ctx: ProgramContext) -> Iterator[Finding]:
        for qual in sorted(ctx.program.functions):
            info = ctx.program.functions[qual]
            if not info.is_async:
                continue
            summary = ctx.summaries.get(qual)
            if summary is None:
                continue
            for label, path in sorted(summary.blocks.items()):
                if len(path) < 2:
                    continue  # direct blocking is MCS011's (per-module)
                _, line = _parse_step(path[0])
                yield self.finding(
                    info,
                    line,
                    f"coroutine {_short(qual)} transitively reaches "
                    f"blocking {label} through a sync call chain",
                    trace=path,
                )


# --------------------------------------------------------------------------
# MCS013 — static lock-order cycles
# --------------------------------------------------------------------------


@register_whole_program
class StaticLockOrderCycle(WholeProgramRule):
    id = "MCS013"
    name = "static-lock-order-cycle"
    invariant = (
        "The acquisition-order graph over threading locks must be "
        "acyclic: if any path acquires A then B (directly or through "
        "calls), no path may acquire B then A."
    )

    def check_program(self, ctx: ProgramContext) -> Iterator[Finding]:
        # global acquisition-order graph; first witness per ordered pair
        order: dict[tuple[str, str], tuple[str, ...]] = {}
        for qual in sorted(ctx.summaries):
            for pair, path in ctx.summaries[qual].pairs.items():
                if pair[0] != pair[1]:
                    order.setdefault(pair, path)
        adjacency: dict[str, set[str]] = {}
        for a, b in order:
            adjacency.setdefault(a, set()).add(b)
            adjacency.setdefault(b, set())
        for component in _lock_sccs(adjacency):
            if len(component) < 2:
                continue
            cycle = _cycle_in(sorted(component), adjacency)
            witness: list[str] = []
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                if (a, b) in order:
                    witness.append(f"[{_short(a)} -> {_short(b)}]")
                    witness.extend(order[(a, b)])
            first = next(
                (a, b)
                for a, b in zip(cycle, cycle[1:] + cycle[:1])
                if (a, b) in order
            )
            file, line = _site_of(ctx.program, order[first])
            names = " -> ".join(_short(lock) for lock in cycle + cycle[:1])
            yield self.finding(
                file,
                line,
                f"lock-order cycle: {names}; a thread interleaving across "
                "these paths can deadlock",
                trace=tuple(witness),
            )


def _lock_sccs(adjacency: dict[str, set[str]]) -> list[list[str]]:
    """Tarjan over the small lock graph (recursive is fine here)."""
    import sys

    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    on_stack: set[str] = set()
    out: list[list[str]] = []
    counter = [0]
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 10_000))

    def strong(node: str) -> None:
        index[node] = low[node] = counter[0]
        counter[0] += 1
        stack.append(node)
        on_stack.add(node)
        for succ in sorted(adjacency.get(node, ())):
            if succ not in index:
                strong(succ)
                low[node] = min(low[node], low[succ])
            elif succ in on_stack:
                low[node] = min(low[node], index[succ])
        if low[node] == index[node]:
            component: list[str] = []
            while True:
                member = stack.pop()
                on_stack.discard(member)
                component.append(member)
                if member == node:
                    break
            out.append(component)

    for node in sorted(adjacency):
        if node not in index:
            strong(node)
    return out


def _cycle_in(component: list[str], adjacency: dict[str, set[str]]) -> list[str]:
    """One simple cycle inside a strongly connected lock set."""
    members = set(component)
    start = component[0]
    path = [start]
    seen = {start}
    node = start
    while True:
        succ = next(
            s for s in sorted(adjacency.get(node, ())) if s in members
        )
        if succ == start:
            return path
        if succ in seen:
            return path[path.index(succ):]
        path.append(succ)
        seen.add(succ)
        node = succ


# --------------------------------------------------------------------------
# MCS014 — fault-flow completeness
# --------------------------------------------------------------------------


@register_whole_program
class FaultFlowCompleteness(WholeProgramRule):
    id = "MCS014"
    name = "fault-flow-completeness"
    invariant = (
        "Every project exception type that can propagate out of a "
        "dispatch-reachable op must map to a code in the central fault "
        "table (core.errors.fault_code_for), and no except clause on "
        "those paths may silently swallow a TransportError."
    )

    def check_program(self, ctx: ProgramContext) -> Iterator[Finding]:
        program = ctx.program
        registered = _registered_fault_roots(program)
        project_exceptions = {
            cls.name
            for cls in program.classes.values()
            if "Exception" in program.exception_ancestors(cls.name)
            or "BaseException" in program.exception_ancestors(cls.name)
        }
        ops = _op_methods(program)
        emitted: set[tuple[str, int, str]] = set()
        for op in ops:
            info = program.functions[op]
            summary = ctx.summaries.get(op)
            if summary is None:
                continue
            for exc, path in sorted(summary.raises.items()):
                if exc not in project_exceptions:
                    continue  # builtin leaks are MCS004's per-module domain
                if program.exception_ancestors(exc) & registered:
                    continue
                file, line = _site_of(program, path)
                key = (file, line, exc)
                if key in emitted:
                    continue
                emitted.add(key)
                yield self.finding(
                    file,
                    line,
                    f"{exc} can escape {_short(op)} to the SOAP boundary "
                    "but has no central fault-table mapping "
                    "(clients would see an opaque Server fault)",
                    trace=path,
                )
        yield from self._swallowed_transport(ctx, ops)

    def _swallowed_transport(
        self, ctx: ProgramContext, ops: list[str]
    ) -> Iterator[Finding]:
        program = ctx.program
        roots = list(ops) + [
            info.qualname
            for info in program.functions.values()
            if info.name == "dispatch"
            and (info.class_qual or "").endswith("SoapDispatcher")
        ]
        reach = reachable(program, roots, kinds=(CALL, DYNAMIC, HANDOFF))
        emitted: set[tuple[str, int]] = set()
        for qual in sorted(reach):
            info = program.functions[qual]
            for edge in info.edges:
                callee = ctx.summaries.get(edge.callee)
                if callee is None:
                    continue
                transport_raised = sorted(
                    exc
                    for exc in callee.raises
                    if "TransportError" in program.exception_ancestors(exc)
                )
                if not transport_raised:
                    continue
                for handler in edge.handlers:
                    if not handler.silent:
                        continue
                    for exc in transport_raised:
                        if program.catches(handler.caught, exc):
                            key = (info.relpath, handler.line)
                            if key in emitted:
                                break
                            emitted.add(key)
                            yield self.finding(
                                info,
                                handler.line,
                                f"except clause silently swallows {exc} "
                                f"raised by {_short(edge.callee)} on a "
                                "dispatch-reachable path; transport faults "
                                "must surface or be re-raised",
                                trace=callee.raises[exc],
                            )
                            break


def _registered_fault_roots(program: Program) -> set[str]:
    """Exception names the fault table maps, from fault_code_for's AST.

    Parsed, not hard-coded: extending ``fault_code_for`` with a new
    ``isinstance`` arm *is* how a new exception family gets registered,
    and MCS014 must see the extension without being edited.
    """
    roots = {"TypeError", "SoapFault"}  # handled at the dispatch layer
    for qual, info in program.functions.items():
        if not (
            info.module == "repro.core.errors" and info.name == "fault_code_for"
        ):
            continue
        for node in ast.walk(info.node):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2
            ):
                target = node.args[1]
                elements = (
                    target.elts if isinstance(target, ast.Tuple) else [target]
                )
                for element in elements:
                    if isinstance(element, ast.Name):
                        roots.add(element.id)
                    elif isinstance(element, ast.Attribute):
                        roots.add(element.attr)
    return roots


# --------------------------------------------------------------------------
# MCS015 — unguarded shared mutable state
# --------------------------------------------------------------------------


@register_whole_program
class UnguardedSharedState(WholeProgramRule):
    id = "MCS015"
    name = "unguarded-shared-state"
    invariant = (
        "A module-level mutable object written on any path reachable "
        "from a thread or event-loop entry point must be written with "
        "at least one lock held — lexically, or by every caller "
        "(definitely-held-at-entry analysis)."
    )

    def check_program(self, ctx: ProgramContext) -> Iterator[Finding]:
        program = ctx.program
        entries = self._entries(program)
        reach = reachable(program, sorted(entries), kinds=(CALL,))
        held = held_at_entry(program, entries)
        for qual in sorted(reach):
            info = program.functions[qual]
            if not info.global_writes:
                continue
            definitely_held = held.get(qual) or frozenset()
            for write in info.global_writes:
                if write.locks_held or definitely_held:
                    continue
                yield self.finding(
                    info,
                    write.line,
                    f"module global {write.target} is mutated without any "
                    "lock held on a concurrency-reachable path",
                    trace=_entry_path(program, entries, qual),
                )

    @staticmethod
    def _entries(program: Program) -> set[str]:
        entries = set(program.thread_entry_points)
        for info in program.functions.values():
            if info.is_async:
                entries.add(info.qualname)
            elif info.name.startswith("do_") or info.name == "run":
                entries.add(info.qualname)
            elif info.name.startswith("op_") and info.class_qual:
                entries.add(info.qualname)
            elif info.name == "dispatch" and (info.class_qual or "").endswith(
                "SoapDispatcher"
            ):
                entries.add(info.qualname)
        return entries


# --------------------------------------------------------------------------
# MCS016 — span coverage closure
# --------------------------------------------------------------------------

#: (class name, method name) roots whose subtrees must be observable —
#: the interprocedural closure of MCS010's per-module span targets, plus
#: the sharded deployment's dispatch surface (the ops reach it through a
#: ``catalog``-typed attribute the resolver pins to MetadataCatalog, so
#: the facade and the 2PC coordinator are asserted as roots explicitly).
#: A ``"*"`` method matches every public method of the class.  The
#: facade's pure forwarders are generated at import and so absent from
#: the AST; the routing classes they all run through are listed instead.
SPAN_ENTRY_POINTS: tuple[tuple[str, str], ...] = (
    ("SoapDispatcher", "dispatch"),
    ("FederatedMCS", "_subquery"),
    ("Replica", "_ship"),
    ("PeriodicUpdater", "tick"),
    ("ShardedCatalog", "*"),
    ("ShardedCatalog", "_route_replica"),
    ("ShardedCatalog", "_route_everywhere"),
    ("ShardedCatalog", "_route_everywhere_by_name"),
    ("ShardedCatalog", "_route_everywhere_by_collection"),
    ("ShardedCatalog", "_route_collection_shard"),
    ("ShardedCatalog", "_route_file_owner"),
    ("ShardedCatalog", "_route_by_object_type"),
    ("TwoPhaseCoordinator", "run"),
    ("TwoPhaseCoordinator", "recover"),
)


@register_whole_program
class SpanCoverageClosure(WholeProgramRule):
    id = "MCS016"
    name = "span-coverage-closure"
    invariant = (
        "Every fault-injection site and WAL/2PC mutation reachable from "
        "a span entry point (dispatch, federation subquery, replication "
        "ship, updater tick) must execute under some span: either a "
        "caller on the path opened one, or the site's function does."
    )

    def check_program(self, ctx: ProgramContext) -> Iterator[Finding]:
        program = ctx.program
        entries = [
            info.qualname
            for info in program.functions.values()
            for cls_name, meth in SPAN_ENTRY_POINTS
            if (info.class_qual or "").endswith("." + cls_name)
            and (
                info.name == meth
                or (meth == "*" and not info.name.startswith("_"))
            )
        ]
        emitted: set[str] = set()
        for entry in sorted(entries):
            summary = ctx.summaries.get(entry)
            if summary is None:
                continue
            for key, path in sorted(summary.uncovered.items()):
                if key in emitted:
                    continue
                emitted.add(key)
                file, line = _last_site(program, path)
                yield self.finding(
                    file,
                    line,
                    f"{key} is reachable from {_short(entry)} with no "
                    "enclosing span on the path — it would be invisible "
                    "to tracing",
                    trace=path,
                )


def _last_site(program: Program, path: tuple[str, ...]) -> tuple[str, int]:
    qual, line = _parse_step(path[-1])
    info = program.functions.get(qual)
    return (info.relpath if info is not None else qual, line)
