"""Strategy and condition order for compiled leaves.

Each conjunctive leaf can be answered two ways, both returning the same
``(sort key, name)`` pairs:

* **index** — read the engine's trees directly: drive from the most
  selective condition's ``av_value`` postings, probe the other
  conditions through the attribute table's primary key, fetch the
  object row through its own (a leaf with no user conditions drives
  from an indexed object column or walks the object rows);
* **scan** — a genuine full pass over ``attribute_value`` plus the
  object table, evaluated in Python with the engine's own expression
  semantics: the equivalence-lane oracle, used only when forced
  (``MetadataCatalog.mql_strategy``).

Every unforced leaf plans ``index``: for the catalogs this service holds
the index read is the cheaper one on every query the workloads issue
(at 1 500 files x 10 attributes, at most 750 x 10 = 7 500 postings
against 2 x 15 000 rows for the scan).

The order the index strategy takes the conditions in comes from counts
the engine's B+trees keep as they change
(:meth:`repro.db.engine.Connection.index_counts`): per attribute, rows
and distinct non-NULL values under its ``attr_id`` in ``av_value``.  The
counts are exact and reading them is no statement, so planning is
arithmetic and every query is planned against current statistics.
Counts are per attribute, not per (attribute, object type): an
``av_value`` probe walks every object type's rows of the attribute, so
that is its true cost.  Selectivity model, deliberately simple:

* equality → ``rows / distinct``;
* range / between / prefix-``like`` → ``rows / 3``;
* ``!=`` and wildcard-leading ``like`` → ``rows``.

Statistics are advisory (a transaction in flight shows in them until it
ends): a bad estimate costs time, never correctness.

The plan names the order the strategies take the leaf's conditions in
(most selective first); the leaf itself is never modified, so one leaf
can be planned concurrently by many threads and shards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from repro.core.errors import QueryError
from repro.core.model import AttributeDef
from repro.core.query import AttributeCondition
from repro.db.types import sort_key
from repro.mql.compiler import CompiledStatement, Leaf

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.catalog import MetadataCatalog

STRATEGIES = ("index", "scan")

_NO_STATS = (0.0, 0.0)

#: Estimate divisor for range-shaped predicates (between, < > <= >=,
#: prefix LIKE) when no finer information exists.
_RANGE_FRACTION = 3.0


class ConditionEstimate(NamedTuple):
    attribute: str
    op: str
    rows: float


class LeafPlan(NamedTuple):
    """The chosen strategy (and its reasoning) for one leaf."""

    strategy: str
    #: Positions in ``leaf.query.conditions``, most selective first.
    order: tuple[int, ...]
    estimates: tuple[ConditionEstimate, ...]  # in ``order``
    #: The attribute definition of each user condition, in leaf order.
    definitions: tuple[AttributeDef, ...]
    #: What the leaf's result is stamped with: the generations of its
    #: cache counters (``ObjectQuery.cache_counters``), taken before the
    #: definitions were read.
    counters: tuple[str, ...]
    generations: tuple[int, ...]


@dataclass
class StatementPlan:
    """A compiled statement plus one :class:`LeafPlan` per leaf."""

    compiled: CompiledStatement
    leaf_plans: list[LeafPlan]

    def plan_for(self, leaf: Leaf) -> LeafPlan:
        return self.leaf_plans[leaf.index]


def plan_statement(
    catalog: "MetadataCatalog",
    compiled: CompiledStatement,
    strategy: Optional[str] = None,
) -> StatementPlan:
    """Plan every leaf (under a forced *strategy*, if given)."""
    return StatementPlan(
        compiled, [plan_leaf(catalog, leaf, strategy) for leaf in compiled.leaves]
    )


def plan_leaf(
    catalog: "MetadataCatalog", leaf: Leaf, forced: Optional[str] = None
) -> LeafPlan:
    """Pick a condition order for one leaf; the strategy is ``index``
    unless *forced*."""
    if forced is not None and forced not in STRATEGIES:
        raise QueryError(
            f"unknown MQL strategy {forced!r}; expected one of {STRATEGIES}"
        )
    # Snapshot before the definitions are read: a later snapshot could
    # stamp a result built on pre-commit definitions with post-commit
    # generations.
    counters = leaf.query.cache_counters()
    generations = catalog.cache.generations.snapshot(counters)
    conditions = leaf.query.conditions
    order: tuple[int, ...] = ()
    estimates: list[ConditionEstimate] = []
    definitions: tuple[AttributeDef, ...] = ()
    if conditions:
        definitions = resolve_definitions(catalog, leaf)
        estimates = [
            _estimate(condition, attribute_counts(catalog, definition))
            for condition, definition in zip(conditions, definitions)
        ]
        # The full condition breaks ties, so the order (and with it the
        # result-cache key and the EXPLAIN) does not depend on the order
        # the caller listed the conditions in.
        order = tuple(
            sorted(
                range(len(estimates)),
                key=lambda i: (
                    estimates[i].rows,
                    estimates[i].attribute,
                    estimates[i].op,
                    repr(conditions[i].value),
                ),
            )
        )
        estimates = [estimates[i] for i in order]
    return LeafPlan(
        forced or "index", order, tuple(estimates), definitions, counters, generations
    )


def resolve_definitions(
    catalog: "MetadataCatalog", leaf: Leaf
) -> tuple[AttributeDef, ...]:
    """The definition of each user condition's attribute, in leaf order."""
    definitions = []
    for condition in leaf.query.conditions:
        definition = catalog.get_attribute_def(condition.attribute)
        if leaf.object_type not in definition.object_types:
            raise QueryError(
                f"attribute {condition.attribute!r} does not apply to "
                f"{leaf.object_type.value}s"
            )
        definitions.append(definition)
    return tuple(definitions)


def attribute_counts(
    catalog: "MetadataCatalog", definition: AttributeDef
) -> tuple[float, float]:
    """(rows, distinct non-NULL values) of one attribute, all object types."""
    counts = catalog._conn.index_counts("attribute_value", ("attr_id", "value"))
    rows, distinct = counts.get(sort_key(definition.id), _NO_STATS)
    return float(rows), float(distinct)


def _estimate(
    condition: AttributeCondition, stat: tuple[float, float]
) -> ConditionEstimate:
    rows, distinct = stat
    if condition.op == "=":
        est = rows / distinct if distinct else rows
    elif condition.op in ("<", "<=", ">", ">=", "between"):
        est = rows / _RANGE_FRACTION
    elif condition.op == "like":
        prefix = isinstance(condition.value, str) and condition.value[:1] not in (
            "%",
            "_",
        )
        est = rows / _RANGE_FRACTION if prefix else rows
    else:  # !=
        est = rows
    return ConditionEstimate(condition.attribute, condition.op, max(est, 0.0))


# --------------------------------------------------------------------------
# EXPLAIN rendering
# --------------------------------------------------------------------------


def explain_lines(
    plan: StatementPlan, index_detail: Callable[[Leaf, LeafPlan], list[str]]
) -> list[str]:
    """Human-readable physical plan, stable enough for golden tests.

    *index_detail* supplies what an index leaf reads (its drive, probes
    and fetch), printed indented under that leaf.
    """
    compiled = plan.compiled
    lines = [f"MQL: {compiled.text}"] if compiled.text else []
    for leaf, leaf_plan in zip(compiled.leaves, plan.leaf_plans):
        query = leaf.query
        conds = len(query.conditions)
        # An ObjectQuery's collection / valid_only are predefined filters too.
        pre = len(query.predefined) + (query.collection is not None) + query.valid_only
        lines.append(
            f"leaf {leaf.index} [{leaf.object_type.value}]: "
            f"strategy={leaf_plan.strategy} "
            f"(conditions={conds} predefined={pre})"
        )
        if leaf_plan.strategy == "index":
            lines.extend(f"    {line}" for line in index_detail(leaf, leaf_plan))
        for estimate in leaf_plan.estimates:
            lines.append(
                f"  {estimate.attribute} {estimate.op} ? "
                f"(est {estimate.rows:.1f} rows)"
            )
    lines.append(f"algebra: {_algebra_text(compiled.root)}")
    direction = "desc" if compiled.descending else "asc"
    modifiers = f"order by {compiled.order_field} {direction}"
    if compiled.limit is not None:
        modifiers += f" limit {compiled.limit}"
    if compiled.offset is not None:
        modifiers += f" offset {compiled.offset}"
    lines.append(modifiers)
    return lines


def _algebra_text(node) -> str:
    if isinstance(node, Leaf):
        return f"leaf{node.index}"
    return f"{node.op}({_algebra_text(node.left)}, {_algebra_text(node.right)})"
