"""Attribute-based query model.

The paper's MCS client "issues queries using the MySQL query language to
the MySQL relational database backend"; the MCS server converts API-level
attribute queries into SQL.  :class:`ObjectQuery` is that API-level form,
a conjunction of:

* conditions on *predefined* attributes (data type, creator, validity,
  collection membership, name patterns), which filter the object table;
* conditions on *user-defined* attributes, each of which constrains one
  row of the EAV ``attribute_value`` table — the physical shape whose
  cost the paper's "complex query" experiments (Figures 7, 10, 11)
  characterize.

It is also the leaf of the query pipeline: the catalog wraps one in a
:class:`repro.mql.compiler.Leaf`, MQL compiles to several, and
:mod:`repro.mql.planner` / :mod:`repro.mql.executor` answer them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.cache.keyed import leaf_counters
from repro.core.errors import QueryError
from repro.core.model import ObjectType

_OPS = ("=", "!=", "<", "<=", ">", ">=", "like", "between")

_PREDEFINED_FILE_FIELDS = {
    "name": "name",
    "version": "version",
    "data_type": "data_type",
    "valid": "valid",
    "creator": "creator",
    "last_modifier": "last_modifier",
    "container_id": "container_id",
    "master_copy": "master_copy",
}

_OBJECT_TABLE = {
    ObjectType.FILE: "logical_file",
    ObjectType.COLLECTION: "logical_collection",
    ObjectType.VIEW: "logical_view",
}


@dataclass(frozen=True)
class AttributeCondition:
    """One predicate: ``<attribute> <op> <value>``.

    ``op`` is one of ``= != < <= > >= like between``; for ``between`` the
    value must be a 2-sequence (low, high).
    """

    attribute: str
    op: str
    value: Any

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise QueryError(f"unsupported operator {self.op!r}")
        if self.op == "between":
            try:
                low, high = self.value
            except (TypeError, ValueError):
                raise QueryError("between requires a (low, high) pair") from None


@dataclass
class ObjectQuery:
    """A conjunctive attribute query over one object type.

    The single client-facing query entry point.  Build it fluently::

        ObjectQuery().where("experiment", "=", "pulsar") \\
                     .where_field("data_type", "=", "binary") \\
                     .order_by("name").limit(50).offset(100)

    ``limit``/``offset``/``order_by`` thread through the SOAP envelope,
    so pagination happens server-side.  Without ``order_by`` names come
    back ascending.
    """

    object_type: ObjectType = ObjectType.FILE
    conditions: list[AttributeCondition] = field(default_factory=list)
    predefined: list[AttributeCondition] = field(default_factory=list)
    collection: Optional[str] = None
    valid_only: bool = False
    max_results: Optional[int] = None
    skip_results: Optional[int] = None
    order: Optional[tuple[str, bool]] = None  # (predefined field, descending)

    def where(self, attribute: str, op: str, value: Any) -> "ObjectQuery":
        """Fluent helper: add a user-attribute condition."""
        self.conditions.append(AttributeCondition(attribute, op, value))
        return self

    def where_equal(self, conditions: dict[str, Any]) -> "ObjectQuery":
        """Fluent helper: one ``=`` user-attribute condition per item."""
        for attribute, value in conditions.items():
            self.where(attribute, "=", value)
        return self

    def where_field(self, fieldname: str, op: str, value: Any) -> "ObjectQuery":
        """Fluent helper: add a predefined-attribute condition."""
        self.predefined.append(AttributeCondition(fieldname, op, value))
        return self

    def limit(self, n: Optional[int]) -> "ObjectQuery":
        """Return at most *n* names (``None`` clears the limit)."""
        if n is not None and int(n) < 0:
            raise QueryError("limit must be non-negative")
        self.max_results = None if n is None else int(n)
        return self

    def offset(self, n: Optional[int]) -> "ObjectQuery":
        """Skip the first *n* names (``None`` clears the offset).

        Pages are cut from the ordered, name-deduplicated answer.
        """
        if n is not None and int(n) < 0:
            raise QueryError("offset must be non-negative")
        self.skip_results = None if n is None else int(n)
        return self

    def order_by(self, fieldname: str, descending: bool = False) -> "ObjectQuery":
        """Order results by a predefined field (e.g. ``name``)."""
        # Validate eagerly so a bad field fails at build time, not at run time.
        _predefined_column(self.object_type, fieldname)
        self.order = (fieldname, bool(descending))
        return self

    def touched_tables(self) -> tuple[str, ...]:
        """Tables this query's result depends on (sorted, deduplicated).

        Answering resolves attribute-definition ids and the collection
        id, so those tables count as dependencies whenever the query
        references them — the read-cache invalidation contract.
        """
        tables = {_OBJECT_TABLE[self.object_type]}
        if self.conditions:
            tables.add("attribute_value")
            tables.add("attribute_def")
        if self.collection is not None:
            tables.add("logical_collection")
        return tuple(sorted(tables))

    def cache_counters(self) -> tuple[str, ...]:
        """The generation counters a cached answer of this query stamps.

        With user-attribute conditions the answer is keyed by rows
        (:mod:`repro.cache.keyed`): committed attribute rows invalidate it
        only where they satisfy a condition, so it stamps just the
        counters of what no row image explains.  Without, it stays
        table-level: :meth:`touched_tables`.
        """
        if not self.conditions:
            return self.touched_tables()
        return leaf_counters(self.touched_tables(), _OBJECT_TABLE[self.object_type])


def _predefined_column(object_type: ObjectType, fieldname: str) -> str:
    if object_type is ObjectType.FILE:
        allowed = _PREDEFINED_FILE_FIELDS
    else:
        allowed = {"name": "name", "creator": "creator", "description": "description"}
    column = allowed.get(fieldname)
    if column is None:
        raise QueryError(
            f"{fieldname!r} is not a queryable predefined attribute of "
            f"{object_type.value}s"
        )
    return column
