"""Query compiler: both front ends → dataset algebra over ObjectQuery leaves.

:func:`compile_statement` lowers parsed MQL; :func:`compile_object_query`
wraps an API-level :class:`~repro.core.query.ObjectQuery` as a statement
of one leaf.  Everything downstream (planner, strategies, dedup/sort/
slice, scatter/gather) sees only the compiled form.

The executor only knows how to answer *conjunctive* queries (the shape
:class:`repro.core.query.ObjectQuery` has always had), so compilation
normalizes the predicate tree:

1. **Negation push-down** rewrites ``not`` into inverted comparison
   operators (``=``/``!=``, ``<``/``>=``, ``>``/``<=``) and De Morgan's
   laws; ``not between`` becomes an ``or`` of the two open ranges.
   ``not like`` has no operator inverse in the engine and is rejected.
2. **DNF expansion** flattens the result into an ``or`` of conjunctions,
   capped at :data:`MAX_DNF_CONJUNCTS` branches so adversarial inputs
   cannot explode the plan.
3. Each conjunction becomes one **leaf**: an ``ObjectQuery`` whose
   conditions are split into predefined object columns versus
   user-defined EAV attributes (predefined names win on collision).
   Multiple branches recombine as a leaf-level ``union`` — exact under
   the executor's name-dedup contract.

Ordering and pagination stay *outside* the leaves: every leaf carries
the statement's sort field (so per-shard streams can merge on the key)
but no limit/offset — those apply once, after set algebra, in the
executor.  Nested parenthesized statements with their own ``order by``/
``limit``/``offset`` parse fine but are rejected here: modifiers are
only meaningful at the top level.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Any, Optional, Union

from repro.core.errors import QueryError
from repro.core.model import ObjectType
from repro.core.query import _PREDEFINED_FILE_FIELDS, ObjectQuery
from repro.mql import ast

#: Upper bound on DNF disjuncts; past this the predicate is rejected.
MAX_DNF_CONJUNCTS = 64

#: Predefined (object-table) column names per object type; anything else
#: is a user-defined attribute resolved through ``attribute_def``.
_PREDEFINED_FIELDS = {
    ObjectType.FILE: frozenset(_PREDEFINED_FILE_FIELDS),
    ObjectType.COLLECTION: frozenset({"name", "creator", "description"}),
    ObjectType.VIEW: frozenset({"name", "creator", "description"}),
}

_INVERTED_OP = {"=": "!=", "!=": "=", "<": ">=", ">=": "<", ">": "<=", "<=": ">"}

#: Default sort: ascending object name, the one field every type has.
DEFAULT_ORDER_FIELD = "name"


@dataclass(frozen=True)
class Leaf:
    """One conjunctive branch, executable by any of the three strategies."""

    index: int
    query: ObjectQuery

    @property
    def object_type(self) -> ObjectType:
        return self.query.object_type


@dataclass(frozen=True)
class Algebra:
    """A set operation over compiled subtrees (``Leaf`` or ``Algebra``)."""

    op: str  # "union" | "intersect" | "minus"
    left: Union["Algebra", Leaf]
    right: Union["Algebra", Leaf]


@dataclass
class CompiledStatement:
    """The executable form of one statement (of either front end)."""

    text: str  # canonical MQL; empty for an ObjectQuery
    root: Union[Algebra, Leaf]
    leaves: list[Leaf] = dc_field(default_factory=list)
    order_field: str = DEFAULT_ORDER_FIELD
    descending: bool = False
    limit: Optional[int] = None
    offset: Optional[int] = None

    @property
    def object_types(self) -> frozenset[ObjectType]:
        return frozenset(leaf.object_type for leaf in self.leaves)


def compile_statement(statement: ast.Statement) -> CompiledStatement:
    """Lower a parsed :class:`repro.mql.ast.Statement` to algebra leaves."""
    compiled = CompiledStatement(
        text=ast.to_mql(statement),
        root=None,  # type: ignore[arg-type]  # filled in below
        order_field=statement.order_by or DEFAULT_ORDER_FIELD,
        descending=statement.descending,
        limit=statement.limit,
        offset=statement.offset,
    )
    compiled.root = _compile_node(statement.source, compiled)
    return compiled


def compile_object_query(query: ObjectQuery) -> CompiledStatement:
    """One leaf for *query*, its ordering defaulted and pagination lifted out.

    The leaf shares the caller's condition lists; nothing downstream
    mutates a leaf.
    """
    order_field, descending = query.order or (DEFAULT_ORDER_FIELD, False)
    leaf = Leaf(
        index=0,
        query=ObjectQuery(
            query.object_type,
            query.conditions,
            query.predefined,
            query.collection,
            query.valid_only,
            order=(order_field, descending),
        ),
    )
    return CompiledStatement(
        text="",
        root=leaf,
        leaves=[leaf],
        order_field=order_field,
        descending=descending,
        limit=query.max_results,
        offset=query.skip_results,
    )


def _compile_node(
    node: Any, compiled: CompiledStatement
) -> Union[Algebra, Leaf]:
    if isinstance(node, ast.Statement):
        # The parser unwraps modifier-free parenthesized statements, so
        # reaching one here means it carried order/limit/offset.
        raise QueryError(
            "order by / limit / offset are only allowed at the top level "
            "of an MQL statement, not inside a parenthesized subquery"
        )
    if isinstance(node, ast.SetOp):
        left = _compile_node(node.left, compiled)
        right = _compile_node(node.right, compiled)
        return Algebra(op=node.op, left=left, right=right)
    if isinstance(node, ast.Query):
        return _compile_query(node, compiled)
    raise QueryError(f"unsupported MQL source node {type(node).__name__!r}")


def _compile_query(
    query: ast.Query, compiled: CompiledStatement
) -> Union[Algebra, Leaf]:
    object_type = ObjectType(query.object_type)
    if query.where is None:
        branches: list[list[ast.Condition]] = [[]]
    else:
        branches = _dnf(_push_not(query.where, negate=False))
        if len(branches) > MAX_DNF_CONJUNCTS:
            raise QueryError(
                f"predicate expands to {len(branches)} conjunctive branches "
                f"(limit {MAX_DNF_CONJUNCTS}); simplify the query"
            )
    node: Optional[Union[Algebra, Leaf]] = None
    for branch in branches:
        leaf = _build_leaf(object_type, branch, compiled)
        node = leaf if node is None else Algebra("union", node, leaf)
    assert node is not None
    return node


def _build_leaf(
    object_type: ObjectType,
    conditions: list[ast.Condition],
    compiled: CompiledStatement,
) -> Leaf:
    query = ObjectQuery(object_type=object_type)
    predefined = _PREDEFINED_FIELDS[object_type]
    for condition in conditions:
        if condition.field in predefined:
            query.where_field(condition.field, condition.op, condition.value)
        else:
            query.where(condition.field, condition.op, condition.value)
    # Every leaf carries the statement's sort key so each strategy (and
    # each shard) emits (name, key) pairs that merge deterministically.
    # order_by also validates the field against this leaf's object type.
    query.order_by(compiled.order_field, compiled.descending)
    leaf = Leaf(index=len(compiled.leaves), query=query)
    compiled.leaves.append(leaf)
    return leaf


# --------------------------------------------------------------------------
# Predicate normalization
# --------------------------------------------------------------------------


def _push_not(pred: ast.Predicate, negate: bool) -> ast.Predicate:
    """Rewrite to negation normal form: ``not`` only via inverted ops."""
    if isinstance(pred, ast.Not):
        return _push_not(pred.inner, not negate)
    if isinstance(pred, ast.And):
        parts = tuple(_push_not(part, negate) for part in pred.parts)
        return ast.Or(parts) if negate else ast.And(parts)
    if isinstance(pred, ast.Or):
        parts = tuple(_push_not(part, negate) for part in pred.parts)
        return ast.And(parts) if negate else ast.Or(parts)
    if isinstance(pred, ast.Condition):
        if not negate:
            return pred
        return _negate_condition(pred)
    raise QueryError(f"unsupported MQL predicate node {type(pred).__name__!r}")


def _negate_condition(condition: ast.Condition) -> ast.Predicate:
    if condition.op in _INVERTED_OP:
        return ast.Condition(
            condition.field, _INVERTED_OP[condition.op], condition.value
        )
    if condition.op == "between":
        low, high = condition.value
        return ast.Or(
            (
                ast.Condition(condition.field, "<", low),
                ast.Condition(condition.field, ">", high),
            )
        )
    raise QueryError(
        f"cannot negate {condition.op!r} on {condition.field!r}: "
        "rewrite the query without 'not ... like'"
    )


def _dnf(pred: ast.Predicate) -> list[list[ast.Condition]]:
    """Disjunctive normal form of an NNF predicate, with branch cap."""
    if isinstance(pred, ast.Condition):
        return [[pred]]
    if isinstance(pred, ast.Or):
        out: list[list[ast.Condition]] = []
        for part in pred.parts:
            out.extend(_dnf(part))
            if len(out) > MAX_DNF_CONJUNCTS:
                break  # caller reports the overflow with the final count
        return out
    if isinstance(pred, ast.And):
        product: list[list[ast.Condition]] = [[]]
        for part in pred.parts:
            branches = _dnf(part)
            product = [
                existing + branch
                for existing in product
                for branch in branches
            ]
            if len(product) > MAX_DNF_CONJUNCTS:
                # Keep expanding is pointless; the cap check in
                # _compile_query rejects with the count we have.
                return product
        return product
    raise QueryError(f"unsupported MQL predicate node {type(pred).__name__!r}")
