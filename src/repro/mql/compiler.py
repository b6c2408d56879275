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

MQL text reaches the compiler through :class:`ShapeCache`: a statement
is parsed and compiled once per *shape* (its token stream with each
literal replaced by its kind), with slots for the literals, and every
text of that shape binds its own values into a fresh copy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field
from typing import TYPE_CHECKING, Any, Optional, Union

from repro import mql
from repro.cache.lru import LRUCache
from repro.core.errors import QueryError
from repro.core.model import ObjectType
from repro.core.query import _PREDEFINED_FILE_FIELDS, AttributeCondition, ObjectQuery
from repro.mql import ast
from repro.obs.metrics import counter as _obs_counter, histogram as _obs_histogram

if TYPE_CHECKING:  # pragma: no cover
    from repro.mql.lexer import Token
    from repro.mql.parser import Conversion

# The lexer and parser are reached through the package at call time:
# importing them here would close the cycle repro.mql.errors ->
# repro.core -> catalog -> compiler -> lexer -> repro.mql.errors.

_SHAPE_CACHE = _obs_counter(
    "mcs_mql_plan_cache_total",
    "MQL shape-cache lookups by result",
    labels=("result",),
)
_MQL_PARSE = _obs_histogram(
    "mcs_mql_parse_seconds",
    "Wall time to parse + compile one MQL statement (cache misses)",
)

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


class ShapeCache:
    """Compiled MQL statements, one template per statement shape.

    The key is :func:`repro.mql.lexer.shape_key`.  A miss parses and
    compiles the text once, with a slot per literal; a hit does neither.
    Either way this text's literals go through the template's
    conversions (an invalid ISO literal fails at its own token, as in
    a cold parse) into a fresh :class:`CompiledStatement` with this
    text's canonical MQL; the template itself is never modified.
    """

    def __init__(self, capacity: int = 128) -> None:
        self._templates: LRUCache[str, _Template] = LRUCache(capacity)

    def compile(self, text: str) -> CompiledStatement:
        tokens = mql.lexer.tokenize(text)
        key = mql.lexer.shape_key(tokens)
        template = self._templates.get(key)
        _SHAPE_CACHE.labels("miss" if template is None else "hit").inc()
        if template is None:
            started = time.perf_counter()
            conversions: list["Conversion"] = []
            compiled = compile_statement(mql.parse(text, tokens, conversions))
            template = _Template(compiled, conversions, tokens)
            _MQL_PARSE.observe(time.perf_counter() - started)
            self._templates.put(key, template)
        return template.bind(text, tokens)

    def clear(self) -> None:
        self._templates.clear()


class _Template:
    """One shape's compiled statement, a :class:`~repro.mql.ast.Slot`
    wherever a literal's value goes."""

    def __init__(
        self,
        compiled: CompiledStatement,
        conversions: list["Conversion"],
        tokens: list["Token"],
    ) -> None:
        self.compiled = compiled
        # Every text of the shape has its literals at the same positions.
        positions = [
            i for i, token in enumerate(tokens) if token[0] in mql.lexer.LITERAL_KINDS
        ]
        #: (token position, conversion) per slot, in slot order.
        self.literals = list(zip(positions, conversions))
        parts = compiled.text.split(ast.SLOT_MARK)
        self.text_parts = parts[0::2]
        self.text_slots = [int(index) for index in parts[1::2]]

    def bind(self, source: str, tokens: list["Token"]) -> CompiledStatement:
        values = [convert(source, tokens[i]) for i, convert in self.literals]
        text = [self.text_parts[0]]
        for index, part in zip(self.text_slots, self.text_parts[1:]):
            text += (ast.format_value(values[index]), part)
        template = self.compiled
        leaves = [_bind_leaf(leaf, values) for leaf in template.leaves]
        return CompiledStatement(
            text="".join(text),
            root=_bind_node(template.root, leaves),
            leaves=leaves,
            order_field=template.order_field,
            descending=template.descending,
            limit=_bound(template.limit, values),
            offset=_bound(template.offset, values),
        )


def _bound(value: Any, values: list[Any]) -> Any:
    if isinstance(value, ast.Slot):
        return values[value.index]
    if isinstance(value, tuple):  # between's (low, high)
        return tuple(_bound(part, values) for part in value)
    return value


def _bind_condition(
    condition: AttributeCondition, values: list[Any]
) -> AttributeCondition:
    return AttributeCondition(
        condition.attribute, condition.op, _bound(condition.value, values)
    )


def _bind_leaf(leaf: Leaf, values: list[Any]) -> Leaf:
    query = leaf.query
    return Leaf(
        leaf.index,
        ObjectQuery(
            query.object_type,
            [_bind_condition(c, values) for c in query.conditions],
            [_bind_condition(c, values) for c in query.predefined],
            order=query.order,
        ),
    )


def _bind_node(node: Union[Algebra, Leaf], leaves: list[Leaf]) -> Union[Algebra, Leaf]:
    if isinstance(node, Leaf):
        return leaves[node.index]
    return Algebra(node.op, _bind_node(node.left, leaves), _bind_node(node.right, leaves))


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
