"""Query execution: three answer-equivalent leaf strategies + set algebra.

**The equivalence contract.**  Every strategy returns a leaf's matches
as ``(sort key, name)`` pairs — the key is the statement's ``order by``
column.  Downstream, results are reduced to a mapping ``name →
representative key`` (the smallest key under the engine's total order,
:func:`repro.db.types.sort_key`, so multi-version files dedup
identically everywhere), combined with set algebra over names, then
ordered by a stable two-pass sort: name ascending first, then a stable
sort on the key.  Offset/limit slice last.  Because each stage is
deterministic given the *set* of pairs, indexed vs join vs scan — and
one shard vs a scatter over many — produce byte-identical answers; the
``-m mql`` and ``-m shard`` lanes enforce exactly that.

Leaf limits are deliberately **not** pushed down: a per-leaf ``LIMIT n``
under SQL's unspecified tie order could keep different name sets per
strategy.  Pagination is only applied after the global sort.

Every leaf result, whatever the strategy, is cached through the
catalog's generation-stamped query cache under one key shape
(:func:`_leaf_key`): the strict-consistency story of every query the
catalog answers.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Optional, Sequence

from repro.cache.keyed import KeyedDependency
from repro.core.errors import QueryError
from repro.core.model import AttributeDef, ObjectType
from repro.core.query import _OBJECT_TABLE, AttributeCondition, _predefined_column
from repro.db.expr import Between, Comparison, ColumnRef, Expr, Like, Literal
from repro.db.types import sort_key
from repro.mql.compiler import DEFAULT_ORDER_FIELD, Algebra, CompiledStatement, Leaf
from repro.mql.planner import LeafPlan
from repro.obs.metrics import counter as _obs_counter

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.catalog import MetadataCatalog
    from repro.db.engine import Connection

_LEAVES = _obs_counter(
    "mcs_mql_leaves_total",
    "MQL leaf executions by chosen strategy",
    labels=("strategy",),
)
_INTERSECTIONS = _obs_counter(
    "mcs_index_intersections_total",
    "Secondary-index probe-set intersections performed",
)

#: IN-list chunk size for the index strategy's final fetch.
_FETCH_CHUNK = 400

#: A leaf result: (order-key value, object name) pairs, in no order.
LeafRows = Sequence[tuple]

#: Pluggable leaf evaluation — the shard router swaps in scatter/gather.
LeafRunner = Callable[[Leaf], LeafRows]


# --------------------------------------------------------------------------
# Statement-level evaluation (shared by single catalog and shard router)
# --------------------------------------------------------------------------


def execute_compiled(
    compiled: CompiledStatement, leaf_runner: LeafRunner
) -> list[str]:
    """Run the algebra tree and return the final ordered name list."""
    table = _eval_node(compiled.root, leaf_runner)
    if compiled.order_field == DEFAULT_ORDER_FIELD:
        # The key is the name itself: one sort does the work of both passes.
        names = sorted(table, reverse=compiled.descending)
    else:
        items = sorted(table.items())  # name ascending
        # Stable second pass on the key keeps the name order for equal
        # keys, in both directions — the cross-strategy/cross-shard tiebreak.
        items.sort(key=lambda kv: sort_key(kv[1]), reverse=compiled.descending)
        names = [name for name, _key in items]
    start = compiled.offset or 0
    if start:
        names = names[start:]
    if compiled.limit is not None:
        names = names[: compiled.limit]
    return names


def _eval_node(node: Any, leaf_runner: LeafRunner) -> dict[str, Any]:
    if isinstance(node, Leaf):
        return _reduce_pairs(leaf_runner(node))
    if isinstance(node, Algebra):
        left = _eval_node(node.left, leaf_runner)
        right = _eval_node(node.right, leaf_runner)
        if node.op == "union":
            for name, key in right.items():
                if name not in left or sort_key(key) < sort_key(left[name]):
                    left[name] = key
            return left
        if node.op == "intersect":
            return {
                name: min((key, right[name]), key=sort_key)
                for name, key in left.items()
                if name in right
            }
        if node.op == "minus":
            return {
                name: key for name, key in left.items() if name not in right
            }
        raise QueryError(f"unknown set operation {node.op!r}")
    raise QueryError(f"unsupported MQL plan node {type(node).__name__!r}")


def _reduce_pairs(pairs: LeafRows) -> dict[str, Any]:
    """name → representative (minimal) sort key."""
    table: dict[str, Any] = {}
    for key, name in pairs:
        if name not in table or sort_key(key) < sort_key(table[name]):
            table[name] = key
    return table


# --------------------------------------------------------------------------
# Leaf strategies
# --------------------------------------------------------------------------


def run_leaf(catalog: "MetadataCatalog", leaf: Leaf, plan: LeafPlan) -> LeafRows:
    """Answer one conjunctive leaf as *plan* says, through the result cache."""
    _LEAVES.labels(plan.strategy).inc()
    key = ("leaf", plan.strategy, _leaf_key(leaf, plan))
    # The plan's snapshot precedes every catalog read the rows depend
    # on: the definitions (read by the planner) and the collection id
    # (read by lowering).  A leaf with user conditions is keyed by rows.
    token = catalog.cache.lookup_query(
        catalog._conn,
        key,
        leaf.query.touched_tables(),
        generations=plan.generations,
        counters=plan.counters,
        dependency=(
            (lambda: _leaf_dependency(leaf, plan)) if plan.definitions else None
        ),
    )
    if token.hit:
        return token.value
    rows = tuple(_STRATEGIES[plan.strategy](catalog, _lower(catalog, leaf, plan)))
    token.store(rows)
    return rows


def _leaf_dependency(leaf: Leaf, plan: LeafPlan) -> KeyedDependency:
    """What committed attribute rows can change the leaf's answer.

    A changed row of attribute B alters a conjunctive leaf only if the
    leaf has a condition on B that the row's old or new value satisfies;
    invalidating on any one of several conditions on B is correct.
    ``=`` is matched by value (Python equality contains the engine's,
    which compares sort keys), every other operator by a test.
    """
    equalities = []
    tests = []
    for condition, definition in zip(leaf.query.conditions, plan.definitions):
        value = condition.value
        if condition.op == "=" and _hashable(value):
            equalities.append((definition.id, value))
        else:
            tests.append((definition.id, _value_test(condition)))
    return KeyedDependency(equalities=equalities, tests=tests)


def _hashable(value: Any) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


_COMPARE: dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _value_test(condition: AttributeCondition) -> Callable[[Any], bool]:
    """Whether a stored non-NULL value satisfies *condition*, erring
    towards yes.

    Residual filters evaluate :mod:`repro.db.expr`; index probes compare
    sort keys, which differ from it only where a bool or a NULL bound
    meets a value, so those count as satisfied.  A comparison that
    raises (incomparable types) counts as satisfied too.
    """
    op, wanted = condition.op, condition.value
    if op == "like":
        expr = _condition_expr(condition)
        return lambda value: expr.eval({"v": value}) is True
    bounds = tuple(wanted) if op == "between" else (wanted,)
    if any(bound is None or isinstance(bound, bool) for bound in bounds):
        return lambda value: True
    if op == "between":
        low, high = bounds

        def between(value: Any) -> bool:
            return isinstance(value, bool) or low <= value <= high

        return between
    compare = _COMPARE[op]

    def test(value: Any) -> bool:
        return isinstance(value, bool) or compare(value, wanted)

    return test


def join_plan_lines(
    catalog: "MetadataCatalog", leaf: Leaf, plan: LeafPlan
) -> list[str]:
    """The engine's EXPLAIN of the join strategy's SQL for *leaf*."""
    sql, params = _join_sql(_lower(catalog, leaf, plan))
    return [row[0] for row in catalog._conn.execute("EXPLAIN " + sql, params)]


def _leaf_key(leaf: Leaf, plan: LeafPlan) -> tuple:
    """Every field of the leaf that changes its rows, conditions in plan order."""
    query = leaf.query
    assert query.order is not None  # both front ends set the sort key
    return (
        query.object_type.value,
        tuple(_condition_key(query.conditions[i]) for i in plan.order),
        tuple(_condition_key(c) for c in query.predefined),
        query.collection,
        query.valid_only,
        query.order[0],
    )


def _condition_key(condition: AttributeCondition) -> tuple:
    value = condition.value
    return (
        condition.attribute,
        condition.op,
        tuple(value) if isinstance(value, list) else value,
    )


class _Lowered(NamedTuple):
    """A leaf as the strategies see it."""

    object_type: ObjectType
    #: User conditions with their attribute definitions, in plan order.
    conditions: list[tuple[AttributeCondition, AttributeDef]]
    #: (object-table column, condition): the predefined conditions plus
    #: the query's collection and valid_only, as ordinary filters.
    filters: list[tuple[str, AttributeCondition]]
    key_column: str


def _lower(catalog: "MetadataCatalog", leaf: Leaf, plan: LeafPlan) -> _Lowered:
    """Pair conditions with the plan's definitions; resolve the collection id.

    Runs before a strategy opens its read transaction: the lookup is
    cached and must not race the lock acquisition there.
    """
    query = leaf.query
    object_type = query.object_type
    definitions = plan.definitions
    filters = [
        (_predefined_column(object_type, c.attribute), c) for c in query.predefined
    ]
    if query.collection is not None:
        if object_type is not ObjectType.FILE:
            raise QueryError("collection filter applies only to file queries")
        collection_id = catalog._collection_id(catalog._conn, query.collection)
        filters.append(
            ("collection_id", AttributeCondition("collection_id", "=", collection_id))
        )
    if query.valid_only:
        if object_type is not ObjectType.FILE:
            raise QueryError("valid_only applies only to file queries")
        filters.append(("valid", AttributeCondition("valid", "=", True)))
    assert query.order is not None
    return _Lowered(
        object_type,
        [(query.conditions[i], definitions[i]) for i in plan.order],
        filters,
        _predefined_column(object_type, query.order[0]),
    )


def _value_clause(column: str, condition: AttributeCondition) -> tuple[str, list]:
    if condition.op == "between":
        low, high = condition.value
        return f"{column} BETWEEN ? AND ?", [low, high]
    if condition.op == "like":
        return f"{column} LIKE ?", [condition.value]
    return f"{column} {condition.op} ?", [condition.value]


def _join_sql(leaf: _Lowered) -> tuple[str, tuple]:
    """The EAV self-join: ``(key, name)`` of every matching object row.

    The first (most selective) condition is the base table, its
    (attr_id, value) index supplying the candidate set; the object table
    and the remaining conditions join against it.  An attribute holds
    one value per object, so the join yields one row per object version;
    ordering and name dedup happen downstream.
    """
    table = _OBJECT_TABLE[leaf.object_type]
    type_text = leaf.object_type.value
    select = f"SELECT obj.{leaf.key_column}, obj.name FROM"
    # Placeholders bind by lexical position: JOIN clauses, then WHERE.
    join_params: list[Any] = []
    where_params: list[Any] = []
    wheres: list[str] = []
    if leaf.conditions:
        condition, definition = leaf.conditions[0]
        clause, params = _value_clause(
            f"a0.{definition.value_type.value_column}", condition
        )
        sql = f"{select} attribute_value a0 JOIN {table} obj ON obj.id = a0.object_id"
        wheres += ["a0.attr_id = ?", "a0.object_type = ?", clause]
        where_params += [definition.id, type_text, *params]
        for pos, (condition, definition) in enumerate(leaf.conditions[1:], start=1):
            alias = f"a{pos}"
            clause, params = _value_clause(
                f"{alias}.{definition.value_type.value_column}", condition
            )
            sql += (
                f" JOIN attribute_value {alias} ON {alias}.object_type = ? "
                f"AND {alias}.object_id = obj.id AND {alias}.attr_id = ? "
                f"AND {clause}"
            )
            join_params += [type_text, definition.id, *params]
    else:
        sql = f"{select} {table} obj"
    for column, condition in leaf.filters:
        clause, params = _value_clause(f"obj.{column}", condition)
        wheres.append(clause)
        where_params += params
    if wheres:
        sql += " WHERE " + " AND ".join(wheres)
    return sql, tuple(join_params + where_params)


def _join_leaf(catalog: "MetadataCatalog", leaf: _Lowered) -> LeafRows:
    sql, params = _join_sql(leaf)
    return catalog._conn.execute(sql, params).fetchall()


def _index_leaf(catalog: "MetadataCatalog", leaf: _Lowered) -> LeafRows:
    """Probe the av_<type> index per condition, intersect, then fetch."""
    if not leaf.conditions:
        raise QueryError(
            "index strategy requires at least one user-attribute condition"
        )
    table = _OBJECT_TABLE[leaf.object_type]
    conn = catalog._conn
    # One read transaction around every probe: the intersection must see
    # a single snapshot, or a concurrent writer could tear the result.
    conn.begin()
    try:
        conn.lock_tables(read=("attribute_value", table))
        candidate_ids: Optional[set[int]] = None
        for condition, definition in leaf.conditions:
            clause, params = _value_clause(
                definition.value_type.value_column, condition
            )
            rows = conn.execute(
                "SELECT object_id FROM attribute_value WHERE attr_id = ? "
                f"AND object_type = ? AND {clause}",
                (definition.id, leaf.object_type.value, *params),
            ).fetchall()
            ids = {row[0] for row in rows}
            if candidate_ids is None:
                candidate_ids = ids
            else:
                candidate_ids &= ids
                _INTERSECTIONS.inc()
            if not candidate_ids:
                break
        result = _fetch_rows(conn, table, leaf, sorted(candidate_ids or ()))
    except Exception:
        conn.rollback()
        raise
    conn.commit()
    return result


def _fetch_rows(
    conn: "Connection", table: str, leaf: _Lowered, object_ids: list[int]
) -> LeafRows:
    """(key, name) rows for the surviving ids, object-table filters applied."""
    filters = ""
    filter_params: list[Any] = []
    for column, condition in leaf.filters:
        clause, params = _value_clause(f"obj.{column}", condition)
        filters += f" AND {clause}"
        filter_params += params
    out: list[tuple] = []
    for start in range(0, len(object_ids), _FETCH_CHUNK):
        chunk = object_ids[start : start + _FETCH_CHUNK]
        placeholders = ", ".join("?" for _ in chunk)
        out += conn.execute(
            f"SELECT obj.{leaf.key_column}, obj.name FROM {table} obj "
            f"WHERE obj.id IN ({placeholders}){filters}",
            (*chunk, *filter_params),
        ).fetchall()
    return out


_VALUE_COLUMNS = ("string", "int", "float", "date", "time", "datetime")


def _scan_leaf(catalog: "MetadataCatalog", leaf: _Lowered) -> LeafRows:
    """Full EAV + object-table pass, evaluated with engine semantics.

    Deliberately WHERE-free SQL: this is the cost baseline the paper's
    complex-query figures describe and the oracle the equivalence lane
    trusts — every predicate is applied in Python via
    :mod:`repro.db.expr`, the engine's own three-valued evaluator.
    """
    table = _OBJECT_TABLE[leaf.object_type]
    type_text = leaf.object_type.value
    definitions = {definition.id: definition for _c, definition in leaf.conditions}
    select_cols = ["id", "name", leaf.key_column, *(col for col, _c in leaf.filters)]

    conn = catalog._conn
    conn.begin()
    try:
        conn.lock_tables(read=("attribute_value", table))
        # The genuine full scan: every attribute_value row, no WHERE.
        value_rows = conn.execute(
            "SELECT attr_id, object_type, object_id, value_string, "
            "value_int, value_float, value_date, value_time, value_datetime "
            "FROM attribute_value"
        ).fetchall()
        object_rows = conn.execute(
            f"SELECT {', '.join(select_cols)} FROM {table}"
        ).fetchall()
    except Exception:
        conn.rollback()
        raise
    conn.commit()

    by_object: dict[int, dict[int, Any]] = {}
    for row in value_rows:
        attr_id = row[0]
        if row[1] != type_text or attr_id not in definitions:
            continue
        value_type = definitions[attr_id].value_type
        value = row[3 + _VALUE_COLUMNS.index(value_type.value)]
        by_object.setdefault(row[2], {})[attr_id] = value

    user_exprs = [
        (definition.id, _condition_expr(condition))
        for condition, definition in leaf.conditions
    ]
    filter_exprs = [_condition_expr(condition) for _col, condition in leaf.filters]

    out: list[tuple[Any, str]] = []
    for row in object_rows:
        attrs = by_object.get(row[0], {})
        # Missing attribute → NULL → three-valued "unknown" → reject,
        # exactly like the join's inner-join-on-missing-row.
        if all(
            expr.eval({"v": attrs.get(attr_id)}) is True
            for attr_id, expr in user_exprs
        ) and all(
            expr.eval({"v": row[3 + position]}) is True
            for position, expr in enumerate(filter_exprs)
        ):
            out.append((row[2], row[1]))
    return out


def _condition_expr(condition: AttributeCondition) -> Expr:
    """Engine expression for one condition over scope key ``v``."""
    ref = ColumnRef("v")
    if condition.op == "between":
        low, high = condition.value
        return Between(ref, Literal(low), Literal(high))
    if condition.op == "like":
        return Like(ref, Literal(condition.value))
    return Comparison(condition.op, ref, Literal(condition.value))


_STRATEGIES: dict[str, Callable[["MetadataCatalog", _Lowered], LeafRows]] = {
    "index": _index_leaf,
    "join": _join_leaf,
    "scan": _scan_leaf,
}
