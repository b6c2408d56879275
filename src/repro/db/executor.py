"""Iterator-model execution of physical plans.

Rows flow through the pipeline as *scopes*: dicts mapping qualified column
keys (``alias.col``) to values.  The top of the pipeline projects scopes
into output tuples.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.db.planner import AccessPath, JoinStep, SelectPlan
from repro.db.storage import Catalog, Table
from repro.db.types import sort_key


def iter_rowids(table: Table, path: AccessPath) -> Iterator[int]:
    """Candidate rowids for an access path (before residual filtering)."""
    if path.kind == "seq":
        return iter(list(table.rows.keys()))
    if path.kind == "empty":
        return iter(())
    assert path.index is not None
    tree = table.indexes[path.index]
    if len(path.eq_values) == _width(table, path.index):
        return iter(tree.get(path.eq_values))
    return tree.prefix(path.eq_values)


def _width(table: Table, index: str) -> int:
    return len(next(d.columns for d in table.index_defs() if d.name == index))


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


def _apply_join(
    catalog: Catalog,
    step: JoinStep,
    outer: Iterator[dict[str, Any]],
    layout: dict[str, tuple[str, ...]],
) -> Iterator[dict[str, Any]]:
    """Probe the inner index once per outer row (an inner join)."""
    table = catalog.table(step.access.table)
    keys = layout[step.access.alias]
    assert step.access.index is not None
    tree = table.indexes[step.access.index]
    full_key = len(step.outer_key_exprs) == _width(table, step.access.index)
    condition = step.condition
    for outer_scope in outer:
        key = tuple(e.eval(outer_scope) for e in step.outer_key_exprs)
        if None in key:
            continue
        rowids = tree.get(key) if full_key else list(tree.prefix(key))
        for rowid in rowids:
            scope = dict(outer_scope)
            scope.update(zip(keys, table.rows[rowid]))
            if condition is None or condition.eval(scope) is True:
                yield scope


def execute_select(catalog: Catalog, plan: SelectPlan) -> tuple[tuple[str, ...], list[tuple]]:
    """Run a SELECT plan; returns (column names, rows)."""
    scopes: Iterator[dict[str, Any]] = _scan_scopes(catalog, plan.base, plan.column_layout)
    for step in plan.joins:
        scopes = _apply_join(catalog, step, scopes, plan.column_layout)
    if plan.counts:
        # COUNT(*): one row; any other item reads the first matching row.
        matched = list(scopes)
        first = matched[0] if matched else None
        row = tuple(
            len(matched) if item.count_star
            else (None if first is None else item.expr.eval(first))  # type: ignore[union-attr]
            for item in plan.items
        )
        return plan.output_names, [row]
    if plan.order_by:
        materialized = list(scopes)
        materialized.sort(
            key=lambda s: tuple(
                _order_key(o.expr.eval(s), o.descending) for o in plan.order_by
            )
        )
        scopes = iter(materialized)
    return plan.output_names, [_project(plan, scope) for scope in scopes]


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
