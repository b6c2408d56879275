"""Query planner: turns a parsed SELECT/UPDATE/DELETE into a physical plan.

A table is read one of three ways: ``index_eq`` walks the postings of
the index whose leading columns the WHERE clause fixes with ``=`` (a
unique index fixed whole first, then the longest such prefix, then one
the prefix covers whole); ``seq`` walks every row when no index applies;
``empty`` reads nothing because a key slot was bound to NULL.  Every
conjunct the path does not encode stays a residual filter, so any WHERE
predicate answers the same on either path.

Joins are inner index nested loops, executed left-deep in the order
written: each outer row's equi-join values (plus constant equalities on
the inner table) probe an index of the inner table.  A join whose ON and
WHERE equalities lead no index of its inner table is refused with a
:class:`ProgrammingError` naming the index it needs, so a join is never
silently a scan per outer row.

Column references are resolved during planning: every bare ``col`` is
rewritten to ``alias.col``; ambiguous references raise ProgrammingError.

A plan is built once per statement text, against its ``?`` placeholders:
a ``Parameter`` is a *slot* wherever a literal may stand, and
:func:`bind_plan` / :func:`bind_access` copy the template with values in
its slots.  A NULL bound into a key slot matches no row (``col = NULL``
is never true), so the bound access becomes ``empty`` and no NULL
reaches an index key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.db.errors import ProgrammingError
from repro.db.expr import (
    And,
    Between,
    ColumnRef,
    Comparison,
    Expr,
    InList,
    IsNull,
    Like,
    Literal,
    Not,
    Or,
    Parameter,
    bind_parameters,
    conjuncts,
    count_parameters,
)
from repro.db.sql.ast import OrderItem, Select
from repro.db.storage import Catalog, Table


# --------------------------------------------------------------------------
# Physical plan nodes
# --------------------------------------------------------------------------


@dataclass
class AccessPath:
    """How to produce candidate rowids for one table.

    In a template ``eq_values`` holds slots (``Literal`` or
    ``Parameter``); :func:`bind_access` turns them into values.
    """

    table: str
    alias: str
    kind: str  # "seq" | "index_eq" | "empty"
    index: Optional[str] = None
    eq_values: tuple = ()          # leading key values for index_eq
    residual: Optional[Expr] = None  # post-access filter


@dataclass
class JoinStep:
    """One inner index nested-loop join applied to the running pipeline:
    each outer row's ``outer_key_exprs`` probe ``access.index``."""

    kind = "index_nl"
    access: AccessPath
    outer_key_exprs: tuple
    condition: Optional[Expr] = None   # residual join (ON and WHERE) predicate


@dataclass
class ProjectionItem:
    """One output column: an expression or ``COUNT(*)``, plus its name."""

    expr: Optional[Expr]
    name: Optional[str]  # None in a template: named after the bound expr
    count_star: bool = False


@dataclass
class SelectPlan:
    """The full physical plan for a SELECT."""

    base: AccessPath
    joins: list[JoinStep]
    items: list[ProjectionItem]
    star_aliases: list[str]            # aliases whose full column set is projected
    order_by: list[OrderItem]
    column_layout: dict[str, tuple[str, ...]]  # alias -> qualified column keys
    output_names: tuple[str, ...] = ()

    @property
    def counts(self) -> bool:
        """``COUNT(*)`` in the select list: one output row."""
        return any(item.count_star for item in self.items)


# --------------------------------------------------------------------------
# Name resolution
# --------------------------------------------------------------------------


class _Resolver:
    """Rewrites bare column references to qualified ``alias.col`` form."""

    def __init__(self, catalog: Catalog, tables: list[tuple[str, str]]) -> None:
        # tables: list of (alias, table_name)
        self._owners: dict[str, list[str]] = {}
        self._aliases = {alias for alias, _ in tables}
        for alias, table_name in tables:
            for col in catalog.table(table_name).definition.column_names:
                self._owners.setdefault(col, []).append(alias)

    def resolve(self, expr: Expr) -> Expr:
        resolve = self.resolve
        if isinstance(expr, ColumnRef):
            if expr.table is not None:
                if expr.table not in self._aliases:
                    raise ProgrammingError(f"unknown table alias {expr.table!r}")
                return expr
            owners = self._owners.get(expr.name)
            if not owners:
                raise ProgrammingError(f"unknown column {expr.name!r}")
            if len(owners) > 1:
                raise ProgrammingError(
                    f"ambiguous column {expr.name!r} (in {sorted(set(owners))})"
                )
            return ColumnRef(expr.name, table=owners[0])
        if isinstance(expr, Comparison):
            return Comparison(expr.op, resolve(expr.left), resolve(expr.right))
        if isinstance(expr, And):
            return And(tuple(resolve(p) for p in expr.parts))
        if isinstance(expr, Or):
            return Or(tuple(resolve(p) for p in expr.parts))
        if isinstance(expr, Not):
            return Not(resolve(expr.inner))
        if isinstance(expr, IsNull):
            return IsNull(resolve(expr.inner), expr.negated)
        if isinstance(expr, InList):
            return InList(
                resolve(expr.inner), tuple(resolve(o) for o in expr.options), expr.negated
            )
        if isinstance(expr, Between):
            return Between(
                resolve(expr.inner), resolve(expr.low), resolve(expr.high), expr.negated
            )
        if isinstance(expr, Like):
            return Like(resolve(expr.inner), resolve(expr.pattern), expr.negated)
        return expr


# --------------------------------------------------------------------------
# Sargable-predicate analysis
# --------------------------------------------------------------------------


def _slot(expr: Expr) -> Optional[Expr]:
    """*expr* when it can fill an index key: a ``?`` or a non-NULL literal."""
    if isinstance(expr, Parameter):
        return expr
    if isinstance(expr, Literal) and expr.value is not None:
        return expr
    return None


def _equalities(parts: list[Expr], alias: str) -> dict[str, tuple[Expr, Expr]]:
    """``column -> (slot, conjunct)`` for the first ``alias.column = slot``
    conjunct on each column (either side may be the column)."""
    found: dict[str, tuple[Expr, Expr]] = {}
    for part in parts:
        if not isinstance(part, Comparison) or part.op != "=":
            continue
        for column, value in ((part.left, part.right), (part.right, part.left)):
            slot = _slot(value)
            if (
                isinstance(column, ColumnRef)
                and column.table == alias
                and slot is not None
                and column.name not in found
            ):
                found[column.name] = (slot, part)
                break
    return found


def choose_access_path(table: Table, alias: str, where_parts: list[Expr]) -> AccessPath:
    """Pick the best access path for *table* given conjuncts on it."""
    equalities = _equalities(where_parts, alias)
    best: Optional[AccessPath] = None
    best_score: tuple = ()
    best_parts: list[Expr] = []  # the conjuncts the chosen path encodes
    for index_def in table.index_defs():
        cols = index_def.columns
        prefix_len = 0
        while prefix_len < len(cols) and cols[prefix_len] in equalities:
            prefix_len += 1
        if prefix_len == 0:
            continue
        # Tie-break equal prefix lengths by whether the equality prefix
        # covers the whole index: a fully-covered (attr, value) index is
        # far more selective than the same-length prefix of a wider one.
        covered = prefix_len == len(cols)
        score = (index_def.unique and covered, prefix_len, covered)
        if best is not None and score <= best_score:
            continue
        best = AccessPath(
            table=table.name,
            alias=alias,
            kind="index_eq",
            index=index_def.name,
            eq_values=tuple(equalities[c][0] for c in cols[:prefix_len]),
        )
        best_score, best_parts = score, [equalities[c][1] for c in cols[:prefix_len]]
    if best is None:
        return AccessPath(
            table=table.name, alias=alias, kind="seq", residual=_combine(where_parts)
        )
    # The path encodes its own conjuncts exactly; every other one filters.
    encoded = {id(p) for p in best_parts}
    best.residual = _combine([p for p in where_parts if id(p) not in encoded])
    return best


def _combine(parts: list[Expr]) -> Optional[Expr]:
    if not parts:
        return None
    if len(parts) == 1:
        return parts[0]
    return And(tuple(parts))


# --------------------------------------------------------------------------
# SELECT planning
# --------------------------------------------------------------------------


def plan_select(catalog: Catalog, stmt: Select) -> SelectPlan:
    """Plan *stmt* as a template: bind it with :func:`bind_plan`."""
    if stmt.table is None:
        raise ProgrammingError("SELECT without FROM is not supported")
    tables: list[tuple[str, str]] = [(stmt.table.effective_alias, stmt.table.name)]
    for join in stmt.joins:
        tables.append((join.table.effective_alias, join.table.name))
    seen_aliases: set[str] = set()
    for alias, table_name in tables:
        catalog.table(table_name)  # raises SchemaError on missing table
        if alias in seen_aliases:
            raise ProgrammingError(f"duplicate table alias {alias!r}")
        seen_aliases.add(alias)

    resolver = _Resolver(catalog, tables)
    where_parts = conjuncts(resolver.resolve(stmt.where) if stmt.where is not None else None)

    # Each WHERE conjunct is applied as soon as every alias it touches is
    # joined: those on the first table drive its access path, the others
    # join the ON clause of the step that completes them.
    available = {tables[0][0]}
    base_parts = [p for p in where_parts if _aliases_of(p) <= available]
    pending = [p for p in where_parts if not _aliases_of(p) <= available]
    base = choose_access_path(catalog.table(tables[0][1]), tables[0][0], base_parts)

    join_steps: list[JoinStep] = []
    for join in stmt.joins:
        alias = join.table.effective_alias
        available.add(alias)
        newly = [p for p in pending if _aliases_of(p) <= available]
        pending = [p for p in pending if not _aliases_of(p) <= available]
        parts = conjuncts(resolver.resolve(join.condition)) + newly
        join_steps.append(
            _plan_join(catalog.table(join.table.name), alias, parts, available - {alias})
        )

    items: list[ProjectionItem] = []
    star_aliases: list[str] = []
    counts = any(item.count_star for item in stmt.items)
    for item in stmt.items:
        if item.star:
            if counts:
                raise ProgrammingError("cannot mix * with COUNT(*)")
            if item.star_table is not None:
                if item.star_table not in seen_aliases:
                    raise ProgrammingError(f"unknown alias {item.star_table!r} in select")
                star_aliases.append(item.star_table)
            else:
                star_aliases.extend(alias for alias, _ in tables)
            continue
        if item.count_star:
            items.append(ProjectionItem(None, item.alias or "count(*)", count_star=True))
            continue
        assert item.expr is not None
        expr = resolver.resolve(item.expr)
        name: Optional[str] = item.alias or str(expr)
        if isinstance(item.expr, ColumnRef) and item.alias is None:
            name = item.expr.name
        elif item.alias is None and count_parameters(expr):
            name = None  # named after the bound expression, by bind_plan
        items.append(ProjectionItem(expr, name))

    order_by = [
        OrderItem(_resolve_order(resolver, o.expr, items), o.descending)
        for o in stmt.order_by
    ]

    layout: dict[str, tuple[str, ...]] = {}
    for alias, table_name in tables:
        cols = catalog.table(table_name).definition.column_names
        layout[alias] = tuple(f"{alias}.{c}" for c in cols)

    output_names: list[str] = []
    for alias in star_aliases:
        output_names.extend(catalog.table(dict(tables)[alias]).definition.column_names)
    output_names.extend(i.name for i in items)

    return SelectPlan(
        base=base,
        joins=join_steps,
        items=items,
        star_aliases=star_aliases,
        order_by=order_by,
        column_layout=layout,
        output_names=tuple(output_names),
    )


def _resolve_order(resolver: _Resolver, expr: Expr, items: list[ProjectionItem]) -> Expr:
    """Resolve an ORDER BY expression; bare names may match output aliases."""
    if isinstance(expr, ColumnRef) and expr.table is None:
        for item in items:
            if item.name == expr.name and item.expr is not None:
                return item.expr
    return resolver.resolve(expr)


def _aliases_of(expr: Expr) -> set[str]:
    return {c.table for c in expr.columns() if c.table is not None}


def _plan_join(
    inner: Table, alias: str, parts: list[Expr], outer_aliases: set[str]
) -> JoinStep:
    """Plan one index nested-loop join of *inner* against the joined aliases."""
    # Equi-join conjuncts: inner.col = <expr over outer aliases only>.
    equi: dict[str, tuple[Expr, Expr]] = {}  # inner col -> (outer expr, conjunct)
    for part in parts:
        if not isinstance(part, Comparison) or part.op != "=":
            continue
        for column, other in ((part.left, part.right), (part.right, part.left)):
            refs = _aliases_of(other)
            if (
                isinstance(column, ColumnRef)
                and column.table == alias
                and refs
                and refs <= outer_aliases
                and column.name not in equi
            ):
                equi[column.name] = (other, part)
                break
    # Constant equalities on the inner table may fill index columns too.
    local_eq = _equalities([p for p in parts if _aliases_of(p) <= {alias}], alias)

    best: Optional[tuple[str, list[Expr], list[Expr]]] = None
    for index_def in inner.index_defs():
        keys: list[Expr] = []
        encoded: list[Expr] = []
        for col in index_def.columns:
            source = equi.get(col) or local_eq.get(col)
            if source is None:
                break
            keys.append(source[0])
            encoded.append(source[1])
        # At least one outer-driven key, else it is not a join index.
        if any(col in equi for col in index_def.columns[: len(keys)]) and (
            best is None or len(keys) > len(best[1])
        ):
            best = (index_def.name, keys, encoded)

    if best is None:
        wanted = ", ".join(equi) or "<no equality with the outer tables>"
        raise ProgrammingError(
            f"join of {inner.name} AS {alias} needs an index on {inner.name} "
            f"leading with ({wanted}); only index nested-loop joins are supported"
        )
    index, keys, encoded = best
    # The index key encodes its conjuncts exactly; every other one filters.
    consumed = {id(p) for p in encoded}
    return JoinStep(
        access=AccessPath(table=inner.name, alias=alias, kind="index_eq", index=index),
        outer_key_exprs=tuple(keys),
        condition=_combine([p for p in parts if id(p) not in consumed]),
    )


def plan_mutation(catalog: Catalog, table_name: str, where: Optional[Expr]) -> AccessPath:
    """Plan row selection for UPDATE/DELETE on a single table (a template)."""
    table = catalog.table(table_name)
    resolver = _Resolver(catalog, [(table_name, table_name)])
    resolved = resolver.resolve(where) if where is not None else None
    return choose_access_path(table, table_name, conjuncts(resolved))


# --------------------------------------------------------------------------
# Binding a template
# --------------------------------------------------------------------------


def bind_access(path: AccessPath, params: Sequence[Any]) -> AccessPath:
    """A copy of the template *path* with *params* bound into its slots."""
    residual = None if path.residual is None else bind_parameters(path.residual, params)
    eq_values = tuple(
        params[slot.index] if isinstance(slot, Parameter) else slot.value
        for slot in path.eq_values
    )
    if None in eq_values:
        return AccessPath(path.table, path.alias, "empty", residual=residual)
    return AccessPath(path.table, path.alias, path.kind, path.index, eq_values, residual)


def bind_plan(plan: SelectPlan, params: Sequence[Any]) -> SelectPlan:
    """A copy of the template *plan* with *params* bound.

    Templates are shared across threads: binding builds new nodes and
    never modifies the template.
    """

    def bind(expr: Optional[Expr]) -> Any:
        return None if expr is None else bind_parameters(expr, params)

    joins = [
        JoinStep(
            access=step.access,
            outer_key_exprs=tuple(bind(e) for e in step.outer_key_exprs),
            condition=bind(step.condition),
        )
        for step in plan.joins
    ]
    items = []
    for item in plan.items:
        expr = bind(item.expr)
        name = item.name if item.name is not None else str(expr)
        items.append(ProjectionItem(expr, name, item.count_star))
    output_names = plan.output_names
    if any(item.name is None for item in plan.items):
        output_names = output_names[: len(output_names) - len(items)] + tuple(
            item.name for item in items
        )
    return SelectPlan(
        base=bind_access(plan.base, params),
        joins=joins,
        items=items,
        star_aliases=plan.star_aliases,
        order_by=[OrderItem(bind(o.expr), o.descending) for o in plan.order_by],
        column_layout=plan.column_layout,
        output_names=output_names,
    )


# --------------------------------------------------------------------------
# Plan description (EXPLAIN)
# --------------------------------------------------------------------------


def describe_access(path: AccessPath) -> str:
    if path.kind == "seq":
        base = f"SEQ SCAN {path.table} AS {path.alias}"
    elif path.kind == "index_eq":
        base = (
            f"INDEX LOOKUP {path.table} AS {path.alias} "
            f"USING {path.index} ON {path.eq_values!r}"
        )
    else:
        base = f"EMPTY {path.table} AS {path.alias} (NULL key)"
    if path.residual is not None:
        base += f" FILTER {path.residual}"
    return base


def describe_plan(plan: SelectPlan) -> list[str]:
    """Human-readable physical plan, one operator per line."""
    lines = [describe_access(plan.base)]
    for step in plan.joins:
        keys = ", ".join(str(e) for e in step.outer_key_exprs)
        line = f"INDEX NESTED LOOP JOIN -> {describe_access(step.access)} KEYS ({keys})"
        if step.condition is not None:
            line += f" ON {step.condition}"
        lines.append(line)
    if plan.counts:
        lines.append("AGGREGATE BY <all rows>")
    if plan.order_by:
        keys = ", ".join(
            f"{o.expr}{' DESC' if o.descending else ''}" for o in plan.order_by
        )
        lines.append(f"SORT BY {keys}")
    lines.append(f"PROJECT {', '.join(plan.output_names)}")
    return lines
