"""MQL abstract syntax tree and the canonical ``to_mql()`` printer.

Nodes are frozen dataclasses so structural equality works out of the
box — the Hypothesis round-trip property (AST → ``to_mql()`` → parser →
AST) compares whole trees with ``==``.

The printer is *canonical*: it parenthesizes exactly where the grammar
needs parentheses to reparse into the identical tree (nested boolean
combinators, set-operation operands, negated compound predicates), and
renders every value in a form the lexer maps back to the same Python
value (typed ``date``/``time``/``datetime`` literals, escaped strings).
A :class:`Slot` prints as a marker, so a statement template's text is
split once and re-joined around each run's values.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass
from typing import Any, Optional, Union

#: Comparison operators shared with ``repro.core.query`` (between/like
#: are rendered with their keyword forms).
OPS = ("=", "!=", "<", "<=", ">", ">=", "like", "between")

_OBJECT_WORDS = {"file": "files", "collection": "collections", "view": "views"}

#: Brackets a slot's index in printed text; no MQL token contains it.
SLOT_MARK = "\x00"


@dataclass(frozen=True)
class Slot:
    """The place of a statement's *index*-th literal in a template.

    :func:`repro.mql.parser.parse` puts slots where values go when it
    builds a template (see :class:`repro.mql.compiler.ShapeCache`).
    """

    index: int

    def __str__(self) -> str:
        return f"{SLOT_MARK}{self.index}{SLOT_MARK}"


@dataclass(frozen=True)
class Condition:
    """One predicate leaf: ``<field> <op> <value>``.

    ``between`` stores a ``(low, high)`` tuple in ``value``.  Whether
    ``field`` is a predefined column or a user-defined attribute is
    resolved by the compiler, not here.
    """

    field: str
    op: str
    value: Any


@dataclass(frozen=True)
class And:
    parts: tuple


@dataclass(frozen=True)
class Or:
    parts: tuple


@dataclass(frozen=True)
class Not:
    inner: Any


Predicate = Union[Condition, And, Or, Not]


@dataclass(frozen=True)
class Query:
    """One object-type source with an optional predicate."""

    object_type: str  # "file" | "collection" | "view"
    where: Optional[Predicate] = None


@dataclass(frozen=True)
class SetOp:
    """Dataset algebra: ``union`` / ``intersect`` / ``minus`` (left-assoc)."""

    op: str
    left: Any
    right: Any


@dataclass(frozen=True)
class Statement:
    """A full statement: a source tree plus ordering and pagination."""

    source: Any  # Query | SetOp | Statement (nested, parenthesized)
    order_by: Optional[str] = None
    descending: bool = False
    limit: Optional[int] = None
    offset: Optional[int] = None

    def has_modifiers(self) -> bool:
        return (
            self.order_by is not None
            or self.limit is not None
            or self.offset is not None
        )


# --------------------------------------------------------------------------
# Canonical printing
# --------------------------------------------------------------------------


def format_value(value: Any) -> str:
    """Render a literal so the lexer parses it back to the same value."""
    if isinstance(value, Slot):
        return str(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        escaped = (
            value.replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
            .replace("\t", "\\t")
            .replace("\r", "\\r")
        )
        return f'"{escaped}"'
    if isinstance(value, _dt.datetime):
        return f'datetime "{value.isoformat()}"'
    if isinstance(value, _dt.date):
        return f'date "{value.isoformat()}"'
    if isinstance(value, _dt.time):
        return f'time "{value.isoformat()}"'
    raise TypeError(f"no MQL literal form for {type(value).__name__}")


def _pred_text(pred: Predicate) -> str:
    if isinstance(pred, Condition):
        if pred.op == "between":
            low, high = pred.value
            return (
                f"{pred.field} between {format_value(low)} "
                f"and {format_value(high)}"
            )
        return f"{pred.field} {pred.op} {format_value(pred.value)}"
    if isinstance(pred, Not):
        inner = _pred_text(pred.inner)
        if isinstance(pred.inner, (And, Or)):
            inner = f"({inner})"
        return f"not {inner}"
    if isinstance(pred, And):
        rendered = []
        for part in pred.parts:
            text = _pred_text(part)
            # Nested combinators must keep their grouping on reparse.
            if isinstance(part, (And, Or)):
                text = f"({text})"
            rendered.append(text)
        return " and ".join(rendered)
    if isinstance(pred, Or):
        rendered = []
        for part in pred.parts:
            text = _pred_text(part)
            # ``or`` binds loosest, so only a nested Or needs parens;
            # an And operand reparses into the same grouping bare.
            if isinstance(part, Or):
                text = f"({text})"
            rendered.append(text)
        return " or ".join(rendered)
    raise TypeError(f"not an MQL predicate: {pred!r}")


def _source_text(node: Any) -> str:
    if isinstance(node, Query):
        text = _OBJECT_WORDS[node.object_type]
        if node.where is not None:
            text += f" where {_pred_text(node.where)}"
        return text
    if isinstance(node, SetOp):
        left = _source_text(node.left)
        if isinstance(node.left, (SetOp, Statement)):
            left = f"({left})"
        right = _source_text(node.right)
        if isinstance(node.right, (SetOp, Statement)):
            right = f"({right})"
        return f"{left} {node.op} {right}"
    if isinstance(node, Statement):
        return to_mql(node)
    raise TypeError(f"not an MQL source node: {node!r}")


def to_mql(statement: Statement) -> str:
    """Canonical MQL text for *statement* (reparses to an equal tree)."""
    text = _source_text(statement.source)
    if statement.order_by is not None:
        text += f" order by {statement.order_by}"
        if statement.descending:
            text += " desc"
    if statement.limit is not None:
        text += f" limit {statement.limit}"
    if statement.offset is not None:
        text += f" offset {statement.offset}"
    return text


__all__ = [
    "OPS",
    "And",
    "Condition",
    "Not",
    "Or",
    "Predicate",
    "Query",
    "SLOT_MARK",
    "SetOp",
    "Slot",
    "Statement",
    "format_value",
    "to_mql",
]
