"""Statement AST produced by the parser and consumed by the planner."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.db.expr import Expr


class Statement:
    """Base class for parsed SQL statements."""

    #: Number of ``?`` placeholders in the text (set by the parser).
    param_count = 0


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
    """An inner join applied to the running FROM result."""

    table: TableRef
    condition: Expr


@dataclass
class SelectItem:
    """One projection item: expression with optional output alias.

    ``star`` marks ``*`` or ``alias.*``; ``count_star`` marks ``COUNT(*)``.
    """

    expr: Optional[Expr] = None
    alias: Optional[str] = None
    star: bool = False
    star_table: Optional[str] = None
    count_star: bool = False


@dataclass
class OrderItem:
    """One ORDER BY key with direction."""

    expr: Expr
    descending: bool = False


@dataclass
class Select(Statement):
    """SELECT statement with inner joins and ordering."""

    items: list[SelectItem]
    table: Optional[TableRef] = None
    joins: list[Join] = field(default_factory=list)
    where: Optional[Expr] = None
    order_by: list[OrderItem] = field(default_factory=list)


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
