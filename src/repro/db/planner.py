"""Query planner: turns a parsed SELECT/UPDATE/DELETE into a physical plan.

The planner is rule-based with a simple cost preference order:

1. unique-index full-key equality lookup,
2. longest equality prefix on any index (optionally extended by a range
   predicate on the next index column),
3. single-column IN on an indexed column (union of point lookups),
4. sequential scan.

Joins are executed left-deep in the order written.  For each join the
planner prefers an index nested-loop (equi-join key covered by an index on
the inner table), then a hash join (any equi-join), then a filtered
nested loop.

Column references are resolved during planning: every bare ``col`` is
rewritten to ``alias.col``; ambiguous references raise ProgrammingError.

A plan is built once per statement text, against its ``?`` placeholders:
a ``Parameter`` is a *slot* wherever a literal may stand, and
:func:`bind_plan` / :func:`bind_access` copy the template with values in
its slots.  A bound value changes the plan in exactly three ways, each
settled here without planning again:

* a NULL in a key slot matches no row (``col = NULL`` is never true), so
  the bound access becomes ``empty`` and no NULL reaches an index key;
* ``LIKE ?`` narrows to a range only for a plain-prefix pattern — the
  caller plans once per set of prefix patterns (``prefix_params``);
* several bounds on one column are intersected at bind time.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.db.errors import ProgrammingError
from repro.db.expr import (
    And,
    Arithmetic,
    Between,
    ColumnRef,
    Comparison,
    Expr,
    FunctionCall,
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
from repro.db.types import sort_key


# --------------------------------------------------------------------------
# Physical plan nodes
# --------------------------------------------------------------------------


@dataclass
class AccessPath:
    """How to produce candidate rowids for one table.

    In a template the value fields hold slots (``Literal``, ``Parameter``
    or a LIKE-prefix end) and ``low`` / ``high`` hold every candidate
    bound as ``(slot, inclusive)`` pairs; :func:`bind_access` turns them
    into values and one intersected bound per side.
    """

    table: str
    alias: str
    kind: str  # "seq" | "index_eq" | "index_range" | "index_in" | "empty"
    index: Optional[str] = None
    eq_values: tuple = ()          # prefix values for index_eq / index_range
    in_values: tuple = ()          # values for index_in (single column)
    low: Any = None                # range bound on the column after the eq prefix
    high: Any = None
    low_inclusive: bool = True
    high_inclusive: bool = True
    residual: Optional[Expr] = None  # post-access filter


@dataclass
class JoinStep:
    """One join applied to the running pipeline."""

    kind: str  # "index_nl" | "hash" | "nested"
    access: AccessPath           # inner table access (seq scan for hash/nested)
    left_outer: bool = False
    # index_nl: values for the inner index come from outer-row expressions
    outer_key_exprs: tuple = ()
    # hash: equi-key expression pairs (outer_expr, inner_col_ref)
    hash_outer: tuple = ()
    hash_inner: tuple = ()
    condition: Optional[Expr] = None   # residual join (ON) predicate
    post_filter: Optional[Expr] = None  # WHERE parts applied after padding


@dataclass
class ProjectionItem:
    """One output column: expression or aggregate, plus its name."""

    expr: Optional[Expr]
    name: Optional[str]  # None in a template: named after the bound expr
    aggregate: Optional[str] = None
    count_star: bool = False


@dataclass
class SelectPlan:
    """The full physical plan for a SELECT."""

    base: AccessPath
    joins: list[JoinStep]
    items: list[ProjectionItem]
    star_aliases: list[str]            # aliases whose full column set is projected
    group_by: list[Expr]
    having: Optional[Expr]
    order_by: list[OrderItem]
    order_on_output: bool              # sort projected rows (aggregate mode)
    limit: Optional[int]
    offset: Optional[int]
    distinct: bool
    column_layout: dict[str, tuple[str, ...]]  # alias -> qualified column keys
    output_names: tuple[str, ...] = ()


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

    def resolve(self, expr: Expr, lenient: bool = False) -> Expr:
        if lenient:
            return self._resolve_inner(expr, lenient=True)
        return self._resolve_inner(expr, lenient=False)

    def _resolve_inner(self, expr: Expr, lenient: bool) -> Expr:
        if isinstance(expr, ColumnRef):
            if expr.table is not None:
                if expr.table not in self._aliases:
                    raise ProgrammingError(f"unknown table alias {expr.table!r}")
                return expr
            owners = self._owners.get(expr.name)
            if not owners:
                if lenient:
                    # Leave bare: resolved against the output row later
                    # (HAVING / ORDER BY on aggregate aliases).
                    return expr
                raise ProgrammingError(f"unknown column {expr.name!r}")
            if len(owners) > 1:
                raise ProgrammingError(
                    f"ambiguous column {expr.name!r} (in {sorted(set(owners))})"
                )
            return ColumnRef(expr.name, table=owners[0])
        if isinstance(expr, Comparison):
            return Comparison(expr.op, self._resolve_inner(expr.left, lenient), self._resolve_inner(expr.right, lenient))
        if isinstance(expr, Arithmetic):
            return Arithmetic(expr.op, self._resolve_inner(expr.left, lenient), self._resolve_inner(expr.right, lenient))
        if isinstance(expr, And):
            return And(tuple(self._resolve_inner(p, lenient) for p in expr.parts))
        if isinstance(expr, Or):
            return Or(tuple(self._resolve_inner(p, lenient) for p in expr.parts))
        if isinstance(expr, Not):
            return Not(self._resolve_inner(expr.inner, lenient))
        if isinstance(expr, IsNull):
            return IsNull(self._resolve_inner(expr.inner, lenient), expr.negated)
        if isinstance(expr, InList):
            return InList(
                self._resolve_inner(expr.inner, lenient),
                tuple(self._resolve_inner(o, lenient) for o in expr.options),
                expr.negated,
            )
        if isinstance(expr, Between):
            return Between(
                self._resolve_inner(expr.inner, lenient),
                self._resolve_inner(expr.low, lenient),
                self._resolve_inner(expr.high, lenient),
                expr.negated,
            )
        if isinstance(expr, Like):
            return Like(self._resolve_inner(expr.inner, lenient), self._resolve_inner(expr.pattern, lenient), expr.negated)
        if isinstance(expr, FunctionCall):
            return FunctionCall(expr.name, tuple(self._resolve_inner(a, lenient) for a in expr.args))
        return expr


# --------------------------------------------------------------------------
# Sargable-predicate analysis
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _PrefixEnd:
    """One end of the range a plain-prefix LIKE pattern narrows to."""

    pattern: Expr  # the Literal or Parameter holding the pattern
    high: bool


def is_plain_prefix(pattern: Any) -> bool:
    """``'abc%'``: one trailing ``%`` and no other wildcard."""
    return (
        isinstance(pattern, str)
        and len(pattern) > 1
        and pattern.endswith("%")
        and "%" not in pattern[:-1]
        and "_" not in pattern
    )


def _slot(expr: Expr) -> Optional[Expr]:
    """*expr* when it can fill an index key: a ``?`` or a non-NULL literal."""
    if isinstance(expr, Parameter):
        return expr
    if isinstance(expr, Literal) and expr.value is not None:
        return expr
    return None


def _is_column_of(expr: Expr, alias: str) -> bool:
    return isinstance(expr, ColumnRef) and expr.table == alias


_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


@dataclass
class _Range:
    """Every bound seen on one column, and the conjuncts they encode."""

    lows: list = field(default_factory=list)   # (slot, inclusive)
    highs: list = field(default_factory=list)
    parts: list = field(default_factory=list)


def _split_sargable(
    parts: list[Expr], alias: str, prefix_params: Sequence[int] = ()
) -> tuple[dict[str, tuple], dict[str, _Range], dict[str, tuple], list[Expr]]:
    """Classify conjuncts comparing *alias* columns with value slots.

    Returns (equalities, ranges, in_lists, leftovers): equalities maps
    column -> (slot, conjunct) and in_lists column -> (slots, conjunct),
    each for the first such conjunct on the column (a second one stays a
    leftover); ranges maps column -> :class:`_Range`.
    """
    equalities: dict[str, tuple] = {}
    ranges: dict[str, _Range] = {}
    in_lists: dict[str, tuple] = {}
    leftovers: list[Expr] = []

    for part in parts:
        consumed = False
        if isinstance(part, Comparison):
            left, right, op = part.left, part.right, part.op
            if isinstance(right, ColumnRef) and not isinstance(left, ColumnRef):
                left, right, op = right, left, _FLIP.get(op, op)
            slot = _slot(right)
            if _is_column_of(left, alias) and slot is not None:
                if op == "=" and left.name not in equalities:
                    equalities[left.name] = (slot, part)
                    consumed = True
                elif op in _FLIP:
                    bounds = ranges.setdefault(left.name, _Range())
                    side = bounds.highs if op[0] == "<" else bounds.lows
                    side.append((slot, op.endswith("=")))
                    bounds.parts.append(part)
                    consumed = True
        elif isinstance(part, Between) and not part.negated:
            low, high = _slot(part.low), _slot(part.high)
            if _is_column_of(part.inner, alias) and low is not None and high is not None:
                bounds = ranges.setdefault(part.inner.name, _Range())
                bounds.lows.append((low, True))
                bounds.highs.append((high, True))
                bounds.parts.append(part)
                consumed = True
        elif isinstance(part, Like) and not part.negated:
            # LIKE 'abc%' narrows to the range ['abc', 'abc￿'); the
            # LIKE itself stays a residual filter so '_' semantics remain
            # exact.  A ``?`` pattern narrows when the caller planned for
            # a plain prefix in that slot.
            pattern = part.pattern
            if _is_column_of(part.inner, alias) and (
                (isinstance(pattern, Literal) and is_plain_prefix(pattern.value))
                or (isinstance(pattern, Parameter) and pattern.index in prefix_params)
            ):
                bounds = ranges.setdefault(part.inner.name, _Range())
                bounds.lows.append((_PrefixEnd(pattern, False), True))
                bounds.highs.append((_PrefixEnd(pattern, True), False))
        elif isinstance(part, InList) and not part.negated:
            slots = tuple(_slot(option) for option in part.options)
            if (
                _is_column_of(part.inner, alias)
                and slots
                and all(s is not None for s in slots)
                and part.inner.name not in in_lists
            ):
                in_lists[part.inner.name] = (slots, part)
                consumed = True
        if not consumed:
            leftovers.append(part)
    return equalities, ranges, in_lists, leftovers


def choose_access_path(
    table: Table,
    alias: str,
    where_parts: list[Expr],
    prefix_params: Sequence[int] = (),
) -> AccessPath:
    """Pick the best access path for *table* given conjuncts on it."""
    equalities, ranges, in_lists, _ = _split_sargable(where_parts, alias, prefix_params)

    best: Optional[AccessPath] = None
    best_score: tuple = ()
    best_parts: list[Expr] = []  # the conjuncts the chosen path encodes
    for index_def in table.index_defs():
        cols = index_def.columns
        prefix_len = 0
        while prefix_len < len(cols) and cols[prefix_len] in equalities:
            prefix_len += 1
        full_unique = index_def.unique and prefix_len == len(cols)
        range_col = cols[prefix_len] if prefix_len < len(cols) else None
        has_range = range_col is not None and range_col in ranges
        if prefix_len == 0 and not has_range:
            # Maybe an IN on the first index column.
            if cols[0] in in_lists:
                score = (1, 0, 0, 0)
                if best is None or score > best_score:
                    slots, part = in_lists[cols[0]]
                    best = AccessPath(
                        table=table.name,
                        alias=alias,
                        kind="index_in",
                        index=index_def.name,
                        in_values=slots,
                    )
                    best_score, best_parts = score, [part]
            continue
        # Tie-break equal prefix lengths by whether the equality prefix
        # covers the whole index: a fully-covered (attr, value) index is
        # far more selective than the same-length prefix of a wider one.
        fully_covered = 1 if prefix_len == len(cols) else 0
        score = (
            3 if full_unique else 2,
            prefix_len,
            1 if has_range else 0,
            fully_covered,
        )
        if best is not None and score <= best_score:
            continue
        eq_values = tuple(equalities[c][0] for c in cols[:prefix_len])
        best_parts = [equalities[c][1] for c in cols[:prefix_len]]
        if has_range:
            bounds = ranges[range_col]
            best = AccessPath(
                table=table.name,
                alias=alias,
                kind="index_range",
                index=index_def.name,
                eq_values=eq_values,
                low=tuple(bounds.lows),
                high=tuple(bounds.highs),
            )
            best_parts += bounds.parts
        else:
            best = AccessPath(
                table=table.name,
                alias=alias,
                kind="index_eq",
                index=index_def.name,
                eq_values=eq_values,
            )
        best_score = score

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


def plan_select(
    catalog: Catalog, stmt: Select, prefix_params: Sequence[int] = ()
) -> SelectPlan:
    """Plan *stmt* as a template: bind it with :func:`bind_plan`.

    ``prefix_params`` lists the ``LIKE ?`` slots whose bound pattern will
    be a plain prefix.
    """
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
    where = resolver.resolve(stmt.where) if stmt.where is not None else None
    where_parts = conjuncts(where)

    # Partition WHERE conjuncts by the single alias they touch; multi-alias
    # conjuncts are applied as soon as every referenced alias is joined.
    available = [tables[0][0]]
    base_parts = _parts_for(where_parts, {tables[0][0]})
    consumed = set(id(p) for p in base_parts)

    base_table = catalog.table(tables[0][1])
    base = choose_access_path(base_table, tables[0][0], base_parts, prefix_params)

    join_steps: list[JoinStep] = []
    for join in stmt.joins:
        alias = join.table.effective_alias
        inner_table = catalog.table(join.table.name)
        condition = resolver.resolve(join.condition) if join.condition is not None else None
        cond_parts = conjuncts(condition)
        # WHERE conjuncts now evaluable (touch only joined aliases + this one)
        newly = [
            p
            for p in where_parts
            if id(p) not in consumed
            and _aliases_of(p) <= set(available) | {alias}
        ]
        for p in newly:
            consumed.add(id(p))
        if join.kind == "left":
            # WHERE predicates filter the padded result, not the match
            # (x LEFT JOIN y ... WHERE y.c IS NULL must see the padding).
            step = _plan_join(
                inner_table, alias, cond_parts, set(available), join.kind,
                prefix_params,
            )
            step.post_filter = _combine(newly)
        else:
            step = _plan_join(
                inner_table, alias, cond_parts + newly, set(available), join.kind,
                prefix_params,
            )
        join_steps.append(step)
        available.append(alias)

    leftover = [p for p in where_parts if id(p) not in consumed]
    if leftover:
        # Conjuncts referencing aliases never joined (shouldn't happen) —
        # fold into the last step / base residual.
        extra = _combine(leftover)
        if join_steps:
            join_steps[-1].condition = _combine(
                [c for c in (join_steps[-1].condition, extra) if c is not None]
            )
        else:
            base.residual = _combine(
                [c for c in (base.residual, extra) if c is not None]
            )

    # Projection items
    items: list[ProjectionItem] = []
    star_aliases: list[str] = []
    aggregate_mode = bool(stmt.group_by) or any(i.aggregate for i in stmt.items)
    for item in stmt.items:
        if item.star:
            if aggregate_mode:
                raise ProgrammingError("cannot mix * with aggregates")
            if item.star_table is not None:
                if item.star_table not in seen_aliases:
                    raise ProgrammingError(f"unknown alias {item.star_table!r} in select")
                star_aliases.append(item.star_table)
            else:
                star_aliases.extend(alias for alias, _ in tables)
            continue
        expr = resolver.resolve(item.expr) if item.expr is not None else None
        name = item.alias or (str(expr) if expr is not None else "count")
        if item.expr is not None and isinstance(item.expr, ColumnRef) and item.alias is None:
            name = item.expr.name
        if item.aggregate and item.alias is None:
            inner = item.expr.name if isinstance(item.expr, ColumnRef) else ("*" if item.count_star else "expr")
            name = f"{item.aggregate.lower()}({inner})"
        elif item.alias is None and count_parameters(expr):
            name = None  # named after the bound expression, by bind_plan
        items.append(
            ProjectionItem(
                expr=expr,
                name=name,
                aggregate=item.aggregate,
                count_star=item.count_star,
            )
        )

    group_by = [resolver.resolve(g) for g in stmt.group_by]
    having = resolver.resolve(stmt.having, lenient=True) if stmt.having is not None else None
    order_by = [OrderItem(_resolve_order(resolver, o.expr, items), o.descending) for o in stmt.order_by]

    layout: dict[str, tuple[str, ...]] = {}
    for alias, table_name in tables:
        cols = catalog.table(table_name).definition.column_names
        layout[alias] = tuple(f"{alias}.{c}" for c in cols)

    output_names: list[str] = []
    for alias in star_aliases:
        table_name = dict(tables)[alias]
        output_names.extend(catalog.table(table_name).definition.column_names)
    output_names.extend(i.name for i in items)

    return SelectPlan(
        base=base,
        joins=join_steps,
        items=items,
        star_aliases=star_aliases,
        group_by=group_by,
        having=having,
        order_by=order_by,
        order_on_output=aggregate_mode,
        limit=stmt.limit,
        offset=stmt.offset,
        distinct=stmt.distinct,
        column_layout=layout,
        output_names=tuple(output_names),
    )


def _resolve_order(resolver: _Resolver, expr: Expr, items: list[ProjectionItem]) -> Expr:
    """Resolve an ORDER BY expression; bare names may match output aliases."""
    if isinstance(expr, ColumnRef) and expr.table is None:
        for item in items:
            if item.name == expr.name and item.expr is not None and item.aggregate is None:
                return item.expr
    return resolver.resolve(expr, lenient=True)


def _aliases_of(expr: Expr) -> set[str]:
    return {c.table for c in expr.columns() if c.table is not None}


def _parts_for(parts: list[Expr], aliases: set[str]) -> list[Expr]:
    return [p for p in parts if _aliases_of(p) <= aliases and _aliases_of(p)]


def _plan_join(
    inner: Table,
    alias: str,
    parts: list[Expr],
    outer_aliases: set[str],
    kind: str,
    prefix_params: Sequence[int] = (),
) -> JoinStep:
    """Plan one join of *inner* against the already-joined aliases."""
    left_outer = kind == "left"
    # Find equi-join conjuncts: inner.col = <expr over outer aliases>
    equi: list[tuple[str, Expr]] = []  # (inner col, outer expr)
    local_parts: list[Expr] = []      # touch only the inner alias
    residual: list[Expr] = []
    for part in parts:
        placed = False
        if isinstance(part, Comparison) and part.op == "=":
            for left, right in ((part.left, part.right), (part.right, part.left)):
                if (
                    isinstance(left, ColumnRef)
                    and left.table == alias
                    and _aliases_of(right) <= outer_aliases
                    and not (isinstance(right, ColumnRef) and right.table == alias)
                ):
                    # Constant right side belongs to local parts instead.
                    if _aliases_of(right):
                        equi.append((left.name, right))
                        placed = True
                        break
        if placed:
            continue
        refs = _aliases_of(part)
        if refs <= {alias}:
            local_parts.append(part)
        else:
            residual.append(part)

    # Try an index on the inner table covering a prefix of the equi columns
    # (plus local equality slots).
    local_eq, _, _, _ = _split_sargable(local_parts, alias)
    best_index = None
    best_exprs: list[Expr] = []
    best_len = 0
    best_equi_cols: set[str] = set()
    best_local_cols: set[str] = set()
    for index_def in inner.index_defs():
        exprs: list[Expr] = []
        equi_cols: set[str] = set()
        local_cols: set[str] = set()
        for col in index_def.columns:
            matched = next((expr for c, expr in equi if c == col), None)
            if matched is not None:
                exprs.append(matched)
                equi_cols.add(col)
            elif col in local_eq:
                exprs.append(local_eq[col][0])
                local_cols.add(col)
            else:
                break
        # Require at least one outer-driven key, else it's not a join index.
        if exprs and any(_aliases_of(e) for e in exprs) and len(exprs) > best_len:
            best_index = index_def.name
            best_exprs = exprs
            best_len = len(exprs)
            best_equi_cols = equi_cols
            best_local_cols = local_cols

    if best_index is not None:
        # A predicate is dropped only when the index key consumed it from
        # the matching source: equi column vs. local slot.
        rest = [
            Comparison("=", ColumnRef(c, table=alias), e)
            for c, e in equi
            if c not in best_equi_cols
        ]
        encoded = {id(local_eq[c][1]) for c in best_local_cols}
        local_rest = [p for p in local_parts if id(p) not in encoded]
        cond = _combine(rest + local_rest + residual)
        access = AccessPath(table=inner.name, alias=alias, kind="index_eq", index=best_index)
        return JoinStep(
            kind="index_nl",
            access=access,
            left_outer=left_outer,
            outer_key_exprs=tuple(best_exprs),
            condition=cond,
        )

    access = choose_access_path(inner, alias, local_parts, prefix_params)
    if equi:
        return JoinStep(
            kind="hash",
            access=access,
            left_outer=left_outer,
            hash_outer=tuple(e for _, e in equi),
            hash_inner=tuple(ColumnRef(c, table=alias) for c, _ in equi),
            condition=_combine(residual),
        )
    return JoinStep(
        kind="nested",
        access=access,
        left_outer=left_outer,
        condition=_combine(residual),
    )


def plan_mutation(
    catalog: Catalog,
    table_name: str,
    where: Optional[Expr],
    prefix_params: Sequence[int] = (),
) -> AccessPath:
    """Plan row selection for UPDATE/DELETE on a single table (a template)."""
    table = catalog.table(table_name)
    resolver = _Resolver(catalog, [(table_name, table_name)])
    resolved = resolver.resolve(where) if where is not None else None
    return choose_access_path(table, table_name, conjuncts(resolved), prefix_params)


# --------------------------------------------------------------------------
# Binding a template
# --------------------------------------------------------------------------


class _NoMatch(Exception):
    """A NULL reached a key slot: ``col = NULL`` and friends are never true."""


def _raw(slot: Any, params: Sequence[Any]) -> Any:
    if isinstance(slot, Parameter):
        return params[slot.index]
    if isinstance(slot, _PrefixEnd):
        prefix = _raw(slot.pattern, params)[:-1]
        return prefix + "\uffff" if slot.high else prefix
    return slot.value


def _value(slot: Any, params: Sequence[Any]) -> Any:
    value = _raw(slot, params)
    if value is None:
        raise _NoMatch
    return value


def _tightest(
    bounds: Optional[tuple], params: Sequence[Any], tighter: Callable[[Any, Any], bool]
) -> tuple[Any, bool]:
    """Intersect ``(slot, inclusive)`` bounds into the tightest one."""
    best, best_inclusive = None, True
    for slot, inclusive in bounds or ():
        value = _value(slot, params)
        if best is None or tighter(sort_key(value), sort_key(best)):
            best, best_inclusive = value, inclusive
        elif sort_key(value) == sort_key(best) and not inclusive:
            best_inclusive = False
    return best, best_inclusive


def bind_access(path: AccessPath, params: Sequence[Any]) -> AccessPath:
    """A copy of the template *path* with *params* bound into its slots."""
    residual = None if path.residual is None else bind_parameters(path.residual, params)
    if path.kind == "seq":
        return AccessPath(path.table, path.alias, "seq", residual=residual)
    # IN drops its NULL options (they match nothing) and duplicates.
    in_values = tuple(
        {sort_key(v): v for v in (_raw(s, params) for s in path.in_values) if v is not None}.values()
    )
    try:
        eq_values = tuple(_value(s, params) for s in path.eq_values)
        low, low_inclusive = _tightest(path.low, params, operator.gt)
        high, high_inclusive = _tightest(path.high, params, operator.lt)
    except _NoMatch:
        return AccessPath(path.table, path.alias, "empty", residual=residual)
    if path.kind == "index_in" and not in_values:
        return AccessPath(path.table, path.alias, "empty", residual=residual)
    return AccessPath(
        path.table, path.alias, path.kind, path.index, eq_values, in_values,
        low, high, low_inclusive, high_inclusive, residual,
    )


def bind_plan(plan: SelectPlan, params: Sequence[Any]) -> SelectPlan:
    """A copy of the template *plan* with *params* bound.

    Templates are shared across threads: binding builds new nodes and
    never modifies the template.
    """

    def bind(expr: Optional[Expr]) -> Any:
        return None if expr is None else bind_parameters(expr, params)

    joins = [
        JoinStep(
            kind=step.kind,
            access=bind_access(step.access, params),
            left_outer=step.left_outer,
            outer_key_exprs=tuple(bind(e) for e in step.outer_key_exprs),
            hash_outer=tuple(bind(e) for e in step.hash_outer),
            hash_inner=step.hash_inner,
            condition=bind(step.condition),
            post_filter=bind(step.post_filter),
        )
        for step in plan.joins
    ]
    items = []
    for item in plan.items:
        expr = bind(item.expr)
        name = item.name if item.name is not None else str(expr)
        items.append(ProjectionItem(expr, name, item.aggregate, item.count_star))
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
        group_by=[bind(g) for g in plan.group_by],
        having=bind(plan.having),
        order_by=[OrderItem(bind(o.expr), o.descending) for o in plan.order_by],
        order_on_output=plan.order_on_output,
        limit=plan.limit,
        offset=plan.offset,
        distinct=plan.distinct,
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
    elif path.kind == "index_range":
        low = "-inf" if path.low is None else repr(path.low)
        high = "+inf" if path.high is None else repr(path.high)
        base = (
            f"INDEX RANGE SCAN {path.table} AS {path.alias} "
            f"USING {path.index} PREFIX {path.eq_values!r} IN [{low}, {high}]"
        )
    elif path.kind == "index_in":
        base = (
            f"INDEX IN-LIST {path.table} AS {path.alias} "
            f"USING {path.index} VALUES {path.in_values!r}"
        )
    elif path.kind == "empty":
        base = f"EMPTY {path.table} AS {path.alias} (NULL key)"
    else:  # pragma: no cover - exhaustive
        base = f"? {path.kind}"
    if path.residual is not None:
        base += f" FILTER {path.residual}"
    return base


def describe_plan(plan: SelectPlan) -> list[str]:
    """Human-readable physical plan, one operator per line."""
    lines = [describe_access(plan.base)]
    for step in plan.joins:
        label = {
            "index_nl": "INDEX NESTED LOOP JOIN",
            "hash": "HASH JOIN",
            "nested": "NESTED LOOP JOIN",
        }[step.kind]
        if step.left_outer:
            label = "LEFT " + label
        detail = describe_access(step.access)
        if step.kind == "index_nl":
            keys = ", ".join(str(e) for e in step.outer_key_exprs)
            detail += f" KEYS ({keys})"
        elif step.kind == "hash":
            keys = ", ".join(str(e) for e in step.hash_outer)
            detail += f" HASH ({keys})"
        line = f"{label} -> {detail}"
        if step.condition is not None:
            line += f" ON {step.condition}"
        if step.post_filter is not None:
            line += f" POST-FILTER {step.post_filter}"
        lines.append(line)
    if plan.group_by or any(i.aggregate for i in plan.items):
        group = ", ".join(str(g) for g in plan.group_by) or "<all rows>"
        lines.append(f"AGGREGATE BY {group}")
        if plan.having is not None:
            lines.append(f"HAVING {plan.having}")
    if plan.distinct:
        lines.append("DISTINCT")
    if plan.order_by:
        keys = ", ".join(
            f"{o.expr}{' DESC' if o.descending else ''}" for o in plan.order_by
        )
        lines.append(f"SORT BY {keys}")
    if plan.limit is not None or plan.offset:
        lines.append(f"LIMIT {plan.limit} OFFSET {plan.offset or 0}")
    lines.append(f"PROJECT {', '.join(plan.output_names)}")
    return lines
