"""Statement AST produced by the parser and consumed by the planner."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.db.expr import Expr
from repro.db.schema import ForeignKey, Column


class Statement:
    """Base class for parsed SQL statements."""

    #: Number of ``?`` placeholders in the text (set by the parser).
    param_count = 0


@dataclass
class CreateTable(Statement):
    """CREATE TABLE statement."""

    name: str
    columns: list[Column]
    primary_key: tuple[str, ...]
    unique: list[tuple[str, ...]]
    foreign_keys: list[ForeignKey]
    if_not_exists: bool = False


@dataclass
class CreateIndex(Statement):
    """CREATE [UNIQUE] INDEX statement."""

    name: str
    table: str
    columns: tuple[str, ...]
    unique: bool = False
    if_not_exists: bool = False


@dataclass
class DropTable(Statement):
    """DROP TABLE statement."""

    name: str
    if_exists: bool = False


@dataclass
class DropIndex(Statement):
    """DROP INDEX statement."""

    name: str
    table: Optional[str] = None
    if_exists: bool = False


@dataclass
class Insert(Statement):
    """INSERT INTO ... VALUES statement (possibly multi-row)."""

    table: str
    columns: tuple[str, ...]
    rows: list[tuple[Expr, ...]]


@dataclass
class Update(Statement):
    """UPDATE ... SET ... [WHERE] statement."""

    table: str
    assignments: list[tuple[str, Expr]]
    where: Optional[Expr] = None


@dataclass
class Delete(Statement):
    """DELETE FROM ... [WHERE] statement."""

    table: str
    where: Optional[Expr] = None


@dataclass
class TableRef:
    """FROM-clause table with optional alias."""

    name: str
    alias: Optional[str] = None

    @property
    def effective_alias(self) -> str:
        return self.alias or self.name


@dataclass
class Join:
    """A join step applied to the running FROM result."""

    table: TableRef
    kind: str  # "inner", "left", "cross"
    condition: Optional[Expr] = None


@dataclass
class SelectItem:
    """One projection item: expression with optional output alias.

    ``star`` marks ``*`` or ``alias.*``; ``aggregate`` is the aggregate
    function name when the item is e.g. ``COUNT(x)``.
    """

    expr: Optional[Expr] = None
    alias: Optional[str] = None
    star: bool = False
    star_table: Optional[str] = None
    aggregate: Optional[str] = None
    count_star: bool = False


@dataclass
class OrderItem:
    """One ORDER BY key with direction."""

    expr: Expr
    descending: bool = False


@dataclass
class Select(Statement):
    """SELECT statement with joins, grouping, ordering and limits."""

    items: list[SelectItem]
    table: Optional[TableRef] = None
    joins: list[Join] = field(default_factory=list)
    where: Optional[Expr] = None
    group_by: list[Expr] = field(default_factory=list)
    having: Optional[Expr] = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None
    offset: Optional[int] = None
    distinct: bool = False


@dataclass
class Explain(Statement):
    """EXPLAIN <select>: returns the physical plan as text rows."""

    inner: Statement


@dataclass
class BeginTransaction(Statement):
    """BEGIN [TRANSACTION]."""

    pass


@dataclass
class CommitTransaction(Statement):
    """COMMIT [TRANSACTION]."""

    pass


@dataclass
class RollbackTransaction(Statement):
    """ROLLBACK [TRANSACTION]."""

    pass
