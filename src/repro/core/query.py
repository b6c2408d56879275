"""Attribute-based query model → SQL translation.

The paper's MCS client "issues queries using the MySQL query language to
the MySQL relational database backend"; the MCS server converts API-level
attribute queries into SQL.  :class:`ObjectQuery` is that API-level form:

* conditions on *predefined* attributes (data type, creator, validity,
  collection membership, name patterns) become WHERE clauses on the
  object table;
* each condition on a *user-defined* attribute adds one join against the
  EAV ``attribute_value`` table — the physical shape whose cost the
  paper's "complex query" experiments (Figures 7, 10, 11) characterize.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from repro.core.errors import QueryError
from repro.core.model import AttributeType, ObjectType

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.catalog import MetadataCatalog

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

    ``limit``/``offset``/``order_by`` thread through the SOAP envelope
    and into the generated SQL, so pagination happens server-side.
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

        Pair with :meth:`order_by` for stable pagination — without an
        order the engine's row order is unspecified.
        """
        if n is not None and int(n) < 0:
            raise QueryError("offset must be non-negative")
        self.skip_results = None if n is None else int(n)
        return self

    def order_by(self, fieldname: str, descending: bool = False) -> "ObjectQuery":
        """Order results by a predefined field (e.g. ``name``)."""
        # Validate eagerly so a bad field fails at build time, not in to_sql.
        _predefined_column(self.object_type, fieldname)
        self.order = (fieldname, bool(descending))
        return self

    def touched_tables(self) -> tuple[str, ...]:
        """Tables this query's result depends on (sorted, deduplicated).

        The compiled SQL embeds attribute-definition ids and the resolved
        collection id, so those tables count as dependencies whenever the
        query references them — the read-cache invalidation contract.
        """
        tables = {_OBJECT_TABLE[self.object_type]}
        if self.conditions:
            tables.add("attribute_value")
            tables.add("attribute_def")
        if self.collection is not None:
            tables.add("logical_collection")
        return tuple(sorted(tables))

    # -- SQL generation -----------------------------------------------------

    def to_sql(
        self, catalog: "MetadataCatalog", select_key: bool = False
    ) -> tuple[str, tuple]:
        """Translate to (sql, params).

        Join order matters for the physical plan: the first user-attribute
        condition is the base table (its (attr_id, value) index supplies
        the candidate set); the object table and remaining attribute
        conditions join against it.

        ``select_key=True`` also selects the ``order_by`` column, so a
        scatter/gather router can k-way merge per-shard streams on the
        sort key.  (With DISTINCT the result is distinct over the
        *(name, key)* pair — identical to name-distinct unless versions
        of one name differ in the key column.)
        """
        table = _OBJECT_TABLE[self.object_type]
        select_cols = "obj.name"
        if select_key and self.order is not None:
            order_col = _predefined_column(self.object_type, self.order[0])
            select_cols = f"obj.name, obj.{order_col}"
        # Placeholders bind by lexical position, so parameters are collected
        # in textual order: JOIN clauses first, then the WHERE clause.
        join_params: list[Any] = []
        where_params: list[Any] = []
        joins: list[str] = []
        wheres: list[str] = []

        attr_infos = []
        for condition in self.conditions:
            definition = catalog.get_attribute_def(condition.attribute)
            if self.object_type not in definition.object_types:
                raise QueryError(
                    f"attribute {condition.attribute!r} does not apply to "
                    f"{self.object_type.value}s"
                )
            attr_infos.append((condition, definition))

        if attr_infos:
            first_cond, first_def = attr_infos[0]
            sql = [f"SELECT DISTINCT {select_cols} FROM attribute_value a0"]
            wheres.append("a0.attr_id = ?")
            where_params.append(first_def.id)
            wheres.append("a0.object_type = ?")
            where_params.append(self.object_type.value)
            clause, cond_params = _condition_sql(
                "a0", first_def.value_type, first_cond
            )
            wheres.append(clause)
            where_params.extend(cond_params)
            joins.append(f"JOIN {table} obj ON obj.id = a0.object_id")
            for pos, (condition, definition) in enumerate(attr_infos[1:], start=1):
                alias = f"a{pos}"
                clause, cond_params = _condition_sql(
                    alias, definition.value_type, condition
                )
                joins.append(
                    f"JOIN attribute_value {alias} ON {alias}.object_type = ? "
                    f"AND {alias}.object_id = obj.id AND {alias}.attr_id = ? "
                    f"AND {clause}"
                )
                join_params.append(self.object_type.value)
                join_params.append(definition.id)
                join_params.extend(cond_params)
        else:
            sql = [f"SELECT {select_cols} FROM {table} obj"]

        for condition in self.predefined:
            column = _predefined_column(self.object_type, condition.attribute)
            clause, cond_params = _plain_condition_sql(f"obj.{column}", condition)
            wheres.append(clause)
            where_params.extend(cond_params)

        if self.collection is not None:
            if self.object_type is not ObjectType.FILE:
                raise QueryError("collection filter applies only to file queries")
            collection_id = catalog.get_collection(self.collection).id
            wheres.append("obj.collection_id = ?")
            where_params.append(collection_id)

        if self.valid_only:
            if self.object_type is not ObjectType.FILE:
                raise QueryError("valid_only applies only to file queries")
            wheres.append("obj.valid = ?")
            where_params.append(True)

        text = " ".join(sql + joins)
        if wheres:
            text += " WHERE " + " AND ".join(wheres)
        if self.order is not None:
            fieldname, descending = self.order
            column = _predefined_column(self.object_type, fieldname)
            text += f" ORDER BY obj.{column}{' DESC' if descending else ''}"
        if self.max_results is not None:
            text += f" LIMIT {int(self.max_results)}"
        elif self.skip_results is not None:
            # The grammar only accepts OFFSET after LIMIT; an explicit
            # huge limit expresses "no limit, skip n".
            text += f" LIMIT {2 ** 62}"
        if self.skip_results is not None:
            text += f" OFFSET {int(self.skip_results)}"
        return text, tuple(join_params + where_params)


def _condition_sql(
    alias: str, value_type: AttributeType, condition: AttributeCondition
) -> tuple[str, list]:
    column = f"{alias}.{value_type.value_column}"
    return _plain_condition_sql(column, condition)


def _plain_condition_sql(column: str, condition: AttributeCondition) -> tuple[str, list]:
    if condition.op == "between":
        low, high = condition.value
        return f"{column} BETWEEN ? AND ?", [low, high]
    if condition.op == "like":
        return f"{column} LIKE ?", [condition.value]
    return f"{column} {condition.op} ?", [condition.value]


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
