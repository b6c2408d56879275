"""Query execution: two answer-equivalent leaf strategies + set algebra.

One index strategy plus the scan oracle: ``index`` reads the engine's
B+trees under one statement's read locks (``Connection.read``), ``scan``
is a full pass; both decide every condition with the engine's ``Expr``.

**The equivalence contract.**  Every strategy returns a leaf's matches
as ``(sort key, name)`` pairs — the key is the statement's ``order by``
column.  Downstream, results are reduced to a mapping ``name →
representative key`` (the smallest key under the engine's total order,
:func:`repro.db.types.sort_key`, so multi-version files dedup
identically everywhere), combined with set algebra over names, then
ordered by a stable two-pass sort: name ascending first, then a stable
sort on the key.  Offset/limit slice last.  Because each stage is
deterministic given the *set* of pairs, index vs scan — and one shard
vs a scatter over many — produce byte-identical answers; the ``-m mql``
and ``-m shard`` lanes enforce exactly that.

Leaf limits are deliberately **not** pushed down: a per-leaf limit
under an unspecified tie order could keep different name sets per
strategy.  Pagination is only applied after the global sort.

Every leaf result, whatever the strategy, is cached through the
catalog's generation-stamped query cache under one key shape
(:func:`_leaf_key`): the strict-consistency story of every query the
catalog answers.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from repro.cache.keyed import KeyedDependency
from repro.core.errors import QueryError
from repro.core.model import AttributeDef, ObjectType
from repro.core.query import _OBJECT_TABLE, AttributeCondition, _predefined_column
from repro.db.errors import SchemaError
from repro.db.expr import Between, Comparison, ColumnRef, Expr, Like, Literal
from repro.db.types import sort_key
from repro.mql.compiler import DEFAULT_ORDER_FIELD, Algebra, CompiledStatement, Leaf
from repro.mql.planner import LeafPlan
from repro.obs.metrics import counter as _obs_counter

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.catalog import MetadataCatalog
    from repro.db.engine import ReadView

_LEAVES = _obs_counter(
    "mcs_mql_leaves_total",
    "MQL leaf executions by chosen strategy",
    labels=("strategy",),
)
#: The attribute table's primary key: one row per (object, attribute).
_BY_OBJECT = ("object_type", "object_id", "attr_id")
#: ``av_value``: the attribute table's (attribute, value) tree.
_BY_VALUE = ("attr_id", "value")

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

    Runs before a strategy takes its read locks: the lookup is cached
    and must not race the lock acquisition there.
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


def _drive_key(condition: AttributeCondition, definition: AttributeDef) -> tuple:
    """Where the first condition enters ``av_value``: the whole
    ``(attr_id, value)`` key for ``=``, else the ``attr_id`` prefix."""
    return (definition.id, condition.value) if _exact(condition) else (definition.id,)


def _exact(condition: AttributeCondition) -> bool:
    """An ``=`` a sort-key probe decides like the engine's ``=``: not on
    NULL or a bool (``1 = true`` holds, their sort keys differ)."""
    value = condition.value
    return condition.op == "=" and value is not None and not isinstance(value, bool)


def _filter_drive(view: "ReadView", table: str, leaf: _Lowered):
    """(index, key) for the first exact ``=`` filter on an indexed column."""
    for column, condition in leaf.filters:
        if _exact(condition):
            try:
                return view.index(table, (column,)), (condition.value,)
            except SchemaError:
                continue
    return None


def _index_leaf(catalog: "MetadataCatalog", leaf: _Lowered) -> LeafRows:
    """Read the engine's trees under one statement's read locks.

    The first (most selective) condition's postings propose candidates;
    the others are probed through the attribute table's primary key and
    the object row is fetched through its own.  Without conditions an
    exact ``=`` filter on an indexed column drives, or the object rows
    are walked.  :func:`_condition_expr` decides every condition and
    filter, exactly as in :func:`_scan_leaf`.
    """
    table = _OBJECT_TABLE[leaf.object_type]
    tables = (table, "attribute_value") if leaf.conditions else (table,)
    with catalog._conn.read(*tables) as view:
        columns = view.columns(table)
        filters = [(columns.index(c), _condition_expr(f)) for c, f in leaf.filters]
        if leaf.conditions:
            objects: Iterable[tuple] = _matching_objects(view, leaf, table)
        elif (drive := _filter_drive(view, table, leaf)) is not None:
            objects = map(view.fetch(table), drive[0].prefix(drive[1]))
        else:
            objects = view.rows(table)
        key_pos, name_pos = columns.index(leaf.key_column), columns.index("name")
        return [
            (row[key_pos], row[name_pos])
            for row in objects
            if all(expr.eval({"v": row[pos]}) is True for pos, expr in filters)
        ]


def _matching_objects(view: "ReadView", leaf: _Lowered, table: str) -> Iterator[tuple]:
    """Object rows whose attribute rows satisfy every user condition."""
    columns = view.columns("attribute_value")
    type_pos, object_pos = columns.index("object_type"), columns.index("object_id")
    value_pos = columns.index("value")
    type_text = leaf.object_type.value
    value_row, object_row = view.fetch("attribute_value"), view.fetch(table)
    by_object = view.index("attribute_value", _BY_OBJECT).get
    by_id = view.index(table, ("id",)).get
    (_id, drive_expr), *rest = [(d.id, _condition_expr(c)) for c, d in leaf.conditions]
    drive = view.index("attribute_value", _BY_VALUE)
    key = _drive_key(*leaf.conditions[0])
    for rowid in drive.get(key) if len(key) == 2 else drive.prefix(key):
        row = value_row(rowid)
        if row[type_pos] != type_text or drive_expr.eval({"v": row[value_pos]}) is not True:
            continue
        for attr_id, expr in rest:
            hits = by_object((type_text, row[object_pos], attr_id))
            # No row: NULL, three-valued unknown, rejected.
            if not hits or expr.eval({"v": value_row(hits[0])[value_pos]}) is not True:
                break
        else:
            hits = by_id((row[object_pos],))
            if hits:
                yield object_row(hits[0])


def index_plan_lines(catalog: "MetadataCatalog", leaf: Leaf, plan: LeafPlan) -> list[str]:
    """What :func:`_index_leaf` reads for *leaf*: drive, probes, fetch."""
    lowered = _lower(catalog, leaf, plan)
    table = _OBJECT_TABLE[lowered.object_type]
    checks = " AND ".join(f"{column} {c.op} ?" for column, c in lowered.filters)
    tail = f" FILTER {checks}" if checks else ""
    tables = (table, "attribute_value") if lowered.conditions else (table,)
    with catalog._conn.read(*tables) as view:
        if not lowered.conditions:
            drive = _filter_drive(view, table, lowered)
            if drive is None:
                return [f"WALK {table}{tail}"]
            return [f"DRIVE {table} USING {drive[0].name} PREFIX {_key_text(drive[1])}{tail}"]
        (first, definition), *rest = lowered.conditions
        names = [view.index("attribute_value", cols).name for cols in (_BY_VALUE, _BY_OBJECT)]
        names.append(view.index(table, ("id",)).name)
    key = _drive_key(first, definition)
    type_text = repr(lowered.object_type.value)
    return [
        f"DRIVE attribute_value USING {names[0]} {'KEY' if len(key) == 2 else 'PREFIX'} "
        f"{_key_text(key)} FILTER object_type = {type_text} AND {first.attribute} {first.op} ?",
        *(
            f"PROBE attribute_value USING {names[1]} KEY ({type_text}, object_id, "
            f"{d.id}) FILTER {c.attribute} {c.op} ?"
            for c, d in rest
        ),
        f"FETCH {table} USING {names[2]} KEY (object_id){tail}",
    ]


def _key_text(key: tuple) -> str:
    return "(" + ", ".join(map(repr, key)) + ")"


def _scan_leaf(catalog: "MetadataCatalog", leaf: _Lowered) -> LeafRows:
    """Full EAV + object-table pass, evaluated with engine semantics.

    Deliberately WHERE-free SQL: this is the cost baseline the paper's
    complex-query figures describe and the oracle the equivalence lane
    trusts — every predicate is applied in Python via
    :mod:`repro.db.expr`, the engine's own three-valued evaluator.
    """
    table = _OBJECT_TABLE[leaf.object_type]
    type_text = leaf.object_type.value
    attr_ids = {definition.id for _c, definition in leaf.conditions}
    select_cols = ["id", "name", leaf.key_column, *(col for col, _c in leaf.filters)]

    conn = catalog._conn
    # Both statements under one hold of the locks: one snapshot.
    with conn.read("attribute_value", table):
        # The genuine full scan: every attribute_value row, no WHERE.
        value_rows = conn.execute(
            "SELECT attr_id, object_type, object_id, value FROM attribute_value"
        ).fetchall()
        object_rows = conn.execute(
            f"SELECT {', '.join(select_cols)} FROM {table}"
        ).fetchall()

    by_object: dict[int, dict[int, Any]] = {}
    for attr_id, object_type, object_id, value in value_rows:
        if object_type == type_text and attr_id in attr_ids:
            by_object.setdefault(object_id, {})[attr_id] = value

    user_exprs = [
        (definition.id, _condition_expr(condition))
        for condition, definition in leaf.conditions
    ]
    filter_exprs = [_condition_expr(condition) for _col, condition in leaf.filters]

    out: list[tuple[Any, str]] = []
    for row in object_rows:
        attrs = by_object.get(row[0], {})
        # Missing attribute → NULL → three-valued "unknown" → reject.
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
    "scan": _scan_leaf,
}
