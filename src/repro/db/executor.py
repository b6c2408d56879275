"""Iterator-model execution of physical plans.

Rows flow through the pipeline as *scopes*: dicts mapping qualified column
keys (``alias.col``) to values.  The top of the pipeline projects scopes
into output tuples.
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Iterator

from repro.db.errors import ProgrammingError
from repro.db.expr import Expr
from repro.db.functions import make_aggregate
from repro.db.planner import AccessPath, JoinStep, SelectPlan
from repro.db.storage import Catalog, Table
from repro.db.types import sort_key


# --------------------------------------------------------------------------
# Access paths
# --------------------------------------------------------------------------


def iter_rowids(table: Table, path: AccessPath) -> Iterator[int]:
    """Candidate rowids for an access path (before residual filtering)."""
    if path.kind == "seq":
        yield from list(table.rows.keys())
        return
    if path.kind == "empty":
        return
    assert path.index is not None
    tree = table.indexes[path.index]
    index_cols = next(d.columns for d in table.index_defs() if d.name == path.index)
    if path.kind == "index_eq":
        if len(path.eq_values) == len(index_cols):
            yield from tree.get(path.eq_values)
        else:
            yield from tree.prefix(path.eq_values)
        return
    if path.kind == "index_in":
        for value in path.in_values:
            if len(index_cols) == 1:
                yield from tree.get((value,))
            else:
                yield from tree.prefix((value,))
        return
    if path.kind == "index_range":
        # The index yields candidates; the row's own value decides, since
        # NULL keys sort first and a 1-tuple bound cuts composite keys short.
        range_col = index_cols[len(path.eq_values)]
        col_idx = table.definition.column_index(range_col)
        if path.eq_values:
            candidates = tree.prefix(path.eq_values)
        else:
            low = (path.low,) if path.low is not None else None
            high = None
            if path.high is not None and (len(index_cols) == 1 or not path.high_inclusive):
                high = (path.high,)
            candidates = tree.range(low, high, True, path.high_inclusive)
        for rowid in candidates:
            value = table.rows[rowid][col_idx]
            if value is None:
                continue
            if path.low is not None:
                if path.low_inclusive:
                    if sort_key(value) < sort_key(path.low):
                        continue
                elif sort_key(value) <= sort_key(path.low):
                    continue
            if path.high is not None:
                if path.high_inclusive:
                    if sort_key(value) > sort_key(path.high):
                        continue
                elif sort_key(value) >= sort_key(path.high):
                    continue
            yield rowid
        return
    raise ProgrammingError(f"unknown access kind {path.kind!r}")  # pragma: no cover


def _scan_scopes(
    catalog: Catalog, path: AccessPath, layout: dict[str, tuple[str, ...]]
) -> Iterator[dict[str, Any]]:
    table = catalog.table(path.table)
    keys = layout[path.alias]
    residual = path.residual
    for rowid in iter_rowids(table, path):
        scope = dict(zip(keys, table.rows[rowid]))
        if residual is None or residual.eval(scope) is True:
            yield scope


# --------------------------------------------------------------------------
# Joins
# --------------------------------------------------------------------------


def _null_scope(keys: tuple[str, ...]) -> dict[str, Any]:
    return {k: None for k in keys}


def _apply_join(
    catalog: Catalog,
    step: JoinStep,
    outer: Iterator[dict[str, Any]],
    layout: dict[str, tuple[str, ...]],
) -> Iterator[dict[str, Any]]:
    produced = _apply_join_inner(catalog, step, outer, layout)
    if step.post_filter is None:
        return produced
    post = step.post_filter
    return (s for s in produced if post.eval(s) is True)


def _apply_join_inner(
    catalog: Catalog,
    step: JoinStep,
    outer: Iterator[dict[str, Any]],
    layout: dict[str, tuple[str, ...]],
) -> Iterator[dict[str, Any]]:
    table = catalog.table(step.access.table)
    keys = layout[step.access.alias]

    if step.kind == "index_nl":
        assert step.access.index is not None
        tree = table.indexes[step.access.index]
        index_cols = next(
            d.columns for d in table.index_defs() if d.name == step.access.index
        )
        full_key = len(step.outer_key_exprs) == len(index_cols)
        for outer_scope in outer:
            key = tuple(e.eval(outer_scope) for e in step.outer_key_exprs)
            matched = False
            if not any(v is None for v in key):
                rowids = tree.get(key) if full_key else list(tree.prefix(key))
                for rowid in rowids:
                    scope = dict(outer_scope)
                    scope.update(zip(keys, table.rows[rowid]))
                    if step.condition is None or step.condition.eval(scope) is True:
                        matched = True
                        yield scope
            if not matched and step.left_outer:
                scope = dict(outer_scope)
                scope.update(_null_scope(keys))
                yield scope
        return

    if step.kind == "hash":
        # Build side: inner rows passing the local access path.
        build: dict[tuple, list[dict[str, Any]]] = {}
        for inner_scope in _scan_scopes(catalog, step.access, layout):
            key = tuple(sort_key(e.eval(inner_scope)) for e in step.hash_inner)
            build.setdefault(key, []).append(inner_scope)
        for outer_scope in outer:
            raw = tuple(e.eval(outer_scope) for e in step.hash_outer)
            matched = False
            if not any(v is None for v in raw):
                key = tuple(sort_key(v) for v in raw)
                for inner_scope in build.get(key, ()):
                    scope = dict(outer_scope)
                    scope.update(inner_scope)
                    if step.condition is None or step.condition.eval(scope) is True:
                        matched = True
                        yield scope
            if not matched and step.left_outer:
                scope = dict(outer_scope)
                scope.update(_null_scope(keys))
                yield scope
        return

    if step.kind == "nested":
        inner_scopes = list(_scan_scopes(catalog, step.access, layout))
        for outer_scope in outer:
            matched = False
            for inner_scope in inner_scopes:
                scope = dict(outer_scope)
                scope.update(inner_scope)
                if step.condition is None or step.condition.eval(scope) is True:
                    matched = True
                    yield scope
            if not matched and step.left_outer:
                scope = dict(outer_scope)
                scope.update(_null_scope(keys))
                yield scope
        return

    raise ProgrammingError(f"unknown join kind {step.kind!r}")  # pragma: no cover


# --------------------------------------------------------------------------
# SELECT execution
# --------------------------------------------------------------------------


def execute_select(catalog: Catalog, plan: SelectPlan) -> tuple[tuple[str, ...], list[tuple]]:
    """Run a SELECT plan; returns (column names, rows)."""
    scopes: Iterator[dict[str, Any]] = _scan_scopes(catalog, plan.base, plan.column_layout)
    for step in plan.joins:
        scopes = _apply_join(catalog, step, scopes, plan.column_layout)

    aggregate_mode = bool(plan.group_by) or any(i.aggregate for i in plan.items)

    if aggregate_mode:
        rows = _execute_aggregate(plan, scopes)
    else:
        if plan.order_by:
            materialized = list(scopes)
            materialized.sort(
                key=lambda s: tuple(
                    _order_key(o.expr.eval(s), o.descending) for o in plan.order_by
                )
            )
            scopes = iter(materialized)
        elif plan.limit is not None and not plan.distinct:
            # No ordering means any N matching rows are a valid page, so
            # stop pulling from the (lazy) scan as soon as it is full —
            # existence probes like ``... LIMIT 2`` stay O(limit) instead
            # of O(matches).
            scopes = islice(scopes, plan.limit + (plan.offset or 0))
        rows = [_project(plan, scope) for scope in scopes]

    if plan.distinct:
        seen: set[tuple] = set()
        unique_rows: list[tuple] = []
        for row in rows:
            marker = tuple(sort_key(v) for v in row)
            if marker not in seen:
                seen.add(marker)
                unique_rows.append(row)
        rows = unique_rows

    if aggregate_mode and plan.order_by:
        name_to_idx = {name: i for i, name in enumerate(plan.output_names)}
        def agg_sort_key(row: tuple):
            out = []
            mapping = dict(zip(plan.output_names, row))
            for o in plan.order_by:
                out.append(_order_key(o.expr.eval(mapping), o.descending))
            return tuple(out)
        rows.sort(key=agg_sort_key)

    if plan.offset:
        rows = rows[plan.offset :]
    if plan.limit is not None:
        rows = rows[: plan.limit]
    return plan.output_names, rows


class _Desc:
    """Inverts comparison order for DESC sort keys."""

    __slots__ = ("key",)

    def __init__(self, key: tuple) -> None:
        self.key = key

    def __lt__(self, other: "_Desc") -> bool:
        return self.key > other.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Desc) and self.key == other.key


def _order_key(value: Any, descending: bool):
    key = sort_key(value)
    return _Desc(key) if descending else key


def _project(plan: SelectPlan, scope: dict[str, Any]) -> tuple:
    out: list[Any] = []
    for alias in plan.star_aliases:
        out.extend(scope[k] for k in plan.column_layout[alias])
    for item in plan.items:
        assert item.expr is not None
        out.append(item.expr.eval(scope))
    return tuple(out)


def _execute_aggregate(plan: SelectPlan, scopes: Iterator[dict[str, Any]]) -> list[tuple]:
    groups: dict[tuple, dict[str, Any]] = {}
    order: list[tuple] = []
    for scope in scopes:
        key = tuple(sort_key(g.eval(scope)) for g in plan.group_by)
        state = groups.get(key)
        if state is None:
            state = {
                "rep": scope,
                "aggs": [
                    make_aggregate(i.aggregate, i.count_star) if i.aggregate else None
                    for i in plan.items
                ],
            }
            groups[key] = state
            order.append(key)
        for agg, item in zip(state["aggs"], plan.items):
            if agg is None:
                continue
            if item.count_star:
                agg.add(1)
            else:
                assert item.expr is not None
                agg.add(item.expr.eval(scope))

    if not groups and not plan.group_by:
        # Aggregates over an empty input produce one row (COUNT -> 0 etc).
        state = {
            "rep": {},
            "aggs": [
                make_aggregate(i.aggregate, i.count_star) if i.aggregate else None
                for i in plan.items
            ],
        }
        groups[()] = state
        order.append(())

    rows: list[tuple] = []
    for key in order:
        state = groups[key]
        rep = state["rep"]
        out: list[Any] = []
        for agg, item in zip(state["aggs"], plan.items):
            if agg is not None:
                out.append(agg.result())
            else:
                assert item.expr is not None
                out.append(item.expr.eval(rep) if rep else None)
        if plan.having is not None:
            mapping = dict(rep)
            mapping.update(zip(plan.output_names, out))
            if plan.having.eval(mapping) is not True:
                continue
        rows.append(tuple(out))
    return rows


# --------------------------------------------------------------------------
# Mutation row selection
# --------------------------------------------------------------------------


def select_rowids(catalog: Catalog, path: AccessPath) -> list[int]:
    """Rowids matched by a mutation plan's access path (residual applied)."""
    table = catalog.table(path.table)
    names = table.definition.column_names
    qualified = tuple(f"{path.alias}.{c}" for c in names)
    out: list[int] = []
    for rowid in iter_rowids(table, path):
        if path.residual is not None:
            row = table.rows[rowid]
            scope = dict(zip(qualified, row))
            if path.residual.eval(scope) is not True:
                continue
        out.append(rowid)
    return out
