"""Expression AST shared by the SQL layer, planner and executor.

Expressions evaluate against a *row scope*: a mapping from column reference
(``name`` or ``alias.name``) to value.  Evaluation follows SQL three-valued
logic: comparisons with NULL yield ``None`` (unknown); ``AND``/``OR``/``NOT``
combine unknowns per the standard truth tables; a WHERE clause accepts a row
only when the predicate evaluates to ``True`` exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, Optional, Sequence

from repro.db.errors import ProgrammingError
from repro.db.types import sort_key


class Expr:
    """Base expression node."""

    def eval(self, scope: Mapping[str, Any]) -> Any:  # pragma: no cover - abstract
        raise NotImplementedError

    def columns(self) -> Iterator["ColumnRef"]:
        """Yield every column reference in the subtree."""
        return iter(())


@dataclass(frozen=True)
class Literal(Expr):
    """A constant value."""

    value: Any

    def eval(self, scope: Mapping[str, Any]) -> Any:
        return self.value

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class Parameter(Expr):
    """A ``?`` placeholder, bound before execution."""

    index: int

    def eval(self, scope: Mapping[str, Any]) -> Any:
        raise ProgrammingError(f"unbound parameter ?{self.index}")

    def __str__(self) -> str:
        return "?"


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A column reference, optionally qualified with a table alias."""

    name: str
    table: Optional[str] = None

    @property
    def key(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name

    def eval(self, scope: Mapping[str, Any]) -> Any:
        key = self.key
        if key in scope:
            return scope[key]
        if self.table is None:
            raise ProgrammingError(f"unknown column {self.name!r}")
        # Fall back to unqualified lookup (single-table queries).
        if self.name in scope:
            return scope[self.name]
        raise ProgrammingError(f"unknown column {self.key!r}")

    def columns(self) -> Iterator["ColumnRef"]:
        yield self

    def __str__(self) -> str:
        return self.key


_CMP_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: sort_key(a) < sort_key(b),
    "<=": lambda a, b: sort_key(a) <= sort_key(b),
    ">": lambda a, b: sort_key(a) > sort_key(b),
    ">=": lambda a, b: sort_key(a) >= sort_key(b),
}

@dataclass(frozen=True)
class Comparison(Expr):
    """Binary comparison (=, !=, <, <=, >, >=) with SQL NULL semantics."""

    op: str  # one of = != < <= > >=
    left: Expr
    right: Expr

    def eval(self, scope: Mapping[str, Any]) -> Optional[bool]:
        lhs = self.left.eval(scope)
        rhs = self.right.eval(scope)
        if lhs is None or rhs is None:
            return None
        try:
            return _CMP_OPS[self.op](lhs, rhs)
        except TypeError:
            # Incomparable types: fall back to total order for </>; equality
            # between different types is simply False.
            if self.op in ("=", "!="):
                return (lhs == rhs) if self.op == "=" else (lhs != rhs)
            raise

    def columns(self) -> Iterator[ColumnRef]:
        yield from self.left.columns()
        yield from self.right.columns()

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class And(Expr):
    """N-ary conjunction under three-valued logic."""

    parts: tuple[Expr, ...]

    def eval(self, scope: Mapping[str, Any]) -> Optional[bool]:
        saw_null = False
        for part in self.parts:
            value = part.eval(scope)
            if value is False:
                return False
            if value is None:
                saw_null = True
        return None if saw_null else True

    def columns(self) -> Iterator[ColumnRef]:
        for part in self.parts:
            yield from part.columns()

    def __str__(self) -> str:
        return "(" + " AND ".join(str(p) for p in self.parts) + ")"


@dataclass(frozen=True)
class Or(Expr):
    """N-ary disjunction under three-valued logic."""

    parts: tuple[Expr, ...]

    def eval(self, scope: Mapping[str, Any]) -> Optional[bool]:
        saw_null = False
        for part in self.parts:
            value = part.eval(scope)
            if value is True:
                return True
            if value is None:
                saw_null = True
        return None if saw_null else False

    def columns(self) -> Iterator[ColumnRef]:
        for part in self.parts:
            yield from part.columns()

    def __str__(self) -> str:
        return "(" + " OR ".join(str(p) for p in self.parts) + ")"


@dataclass(frozen=True)
class Not(Expr):
    """Logical negation; NOT NULL is NULL."""

    inner: Expr

    def eval(self, scope: Mapping[str, Any]) -> Optional[bool]:
        value = self.inner.eval(scope)
        if value is None:
            return None
        return not value

    def columns(self) -> Iterator[ColumnRef]:
        yield from self.inner.columns()

    def __str__(self) -> str:
        return f"(NOT {self.inner})"


@dataclass(frozen=True)
class IsNull(Expr):
    """IS [NOT] NULL test (always two-valued)."""

    inner: Expr
    negated: bool = False

    def eval(self, scope: Mapping[str, Any]) -> bool:
        value = self.inner.eval(scope)
        return (value is not None) if self.negated else (value is None)

    def columns(self) -> Iterator[ColumnRef]:
        yield from self.inner.columns()

    def __str__(self) -> str:
        return f"({self.inner} IS {'NOT ' if self.negated else ''}NULL)"


@dataclass(frozen=True)
class InList(Expr):
    """value [NOT] IN (options) with SQL NULL semantics."""

    inner: Expr
    options: tuple[Expr, ...]
    negated: bool = False

    def eval(self, scope: Mapping[str, Any]) -> Optional[bool]:
        value = self.inner.eval(scope)
        if value is None:
            return None
        found = False
        saw_null = False
        for option in self.options:
            candidate = option.eval(scope)
            if candidate is None:
                saw_null = True
            elif candidate == value:
                found = True
                break
        if found:
            return not self.negated
        if saw_null:
            return None
        return self.negated

    def columns(self) -> Iterator[ColumnRef]:
        yield from self.inner.columns()
        for option in self.options:
            yield from option.columns()

    def __str__(self) -> str:
        opts = ", ".join(str(o) for o in self.options)
        return f"({self.inner} {'NOT ' if self.negated else ''}IN ({opts}))"


@dataclass(frozen=True)
class Between(Expr):
    """value [NOT] BETWEEN low AND high (inclusive)."""

    inner: Expr
    low: Expr
    high: Expr
    negated: bool = False

    def eval(self, scope: Mapping[str, Any]) -> Optional[bool]:
        value = self.inner.eval(scope)
        low = self.low.eval(scope)
        high = self.high.eval(scope)
        if value is None or low is None or high is None:
            return None
        result = sort_key(low) <= sort_key(value) <= sort_key(high)
        return (not result) if self.negated else result

    def columns(self) -> Iterator[ColumnRef]:
        yield from self.inner.columns()
        yield from self.low.columns()
        yield from self.high.columns()

    def __str__(self) -> str:
        return f"({self.inner} BETWEEN {self.low} AND {self.high})"


def like_to_regex(pattern: str) -> "re.Pattern[str]":
    """Compile a SQL LIKE pattern (% and _ wildcards) to a regex."""
    out: list[str] = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("^" + "".join(out) + "$", re.DOTALL)


@dataclass(frozen=True)
class Like(Expr):
    """string [NOT] LIKE pattern (% and _ wildcards)."""

    inner: Expr
    pattern: Expr
    negated: bool = False

    def eval(self, scope: Mapping[str, Any]) -> Optional[bool]:
        value = self.inner.eval(scope)
        pattern = self.pattern.eval(scope)
        if value is None or pattern is None:
            return None
        if not isinstance(value, str) or not isinstance(pattern, str):
            return False if not self.negated else True
        matched = like_to_regex(pattern).match(value) is not None
        return (not matched) if self.negated else matched

    def columns(self) -> Iterator[ColumnRef]:
        yield from self.inner.columns()
        yield from self.pattern.columns()

    def __str__(self) -> str:
        return f"({self.inner} {'NOT ' if self.negated else ''}LIKE {self.pattern})"


def bind_parameters(expr: Expr, params: Sequence[Any]) -> Expr:
    """Return a copy of *expr* with ``Parameter`` nodes replaced by literals."""
    if isinstance(expr, Parameter):
        if expr.index >= len(params):
            raise ProgrammingError(
                f"statement requires at least {expr.index + 1} parameters, got {len(params)}"
            )
        return Literal(params[expr.index])
    if isinstance(expr, Comparison):
        return Comparison(expr.op, bind_parameters(expr.left, params), bind_parameters(expr.right, params))
    if isinstance(expr, And):
        return And(tuple(bind_parameters(p, params) for p in expr.parts))
    if isinstance(expr, Or):
        return Or(tuple(bind_parameters(p, params) for p in expr.parts))
    if isinstance(expr, Not):
        return Not(bind_parameters(expr.inner, params))
    if isinstance(expr, IsNull):
        return IsNull(bind_parameters(expr.inner, params), expr.negated)
    if isinstance(expr, InList):
        return InList(
            bind_parameters(expr.inner, params),
            tuple(bind_parameters(o, params) for o in expr.options),
            expr.negated,
        )
    if isinstance(expr, Between):
        return Between(
            bind_parameters(expr.inner, params),
            bind_parameters(expr.low, params),
            bind_parameters(expr.high, params),
            expr.negated,
        )
    if isinstance(expr, Like):
        return Like(
            bind_parameters(expr.inner, params),
            bind_parameters(expr.pattern, params),
            expr.negated,
        )
    return expr


def conjuncts(expr: Optional[Expr]) -> list[Expr]:
    """Flatten an expression into its top-level AND conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, And):
        out: list[Expr] = []
        for part in expr.parts:
            out.extend(conjuncts(part))
        return out
    return [expr]


def count_parameters(expr: Optional[Expr]) -> int:
    """Highest parameter index + 1 appearing in the expression tree."""
    if expr is None:
        return 0
    highest = -1

    def walk(node: Expr) -> None:
        nonlocal highest
        if isinstance(node, Parameter):
            highest = max(highest, node.index)
        elif isinstance(node, Comparison):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, (And, Or)):
            for part in node.parts:
                walk(part)
        elif isinstance(node, Not):
            walk(node.inner)
        elif isinstance(node, IsNull):
            walk(node.inner)
        elif isinstance(node, InList):
            walk(node.inner)
            for option in node.options:
                walk(option)
        elif isinstance(node, Between):
            walk(node.inner)
            walk(node.low)
            walk(node.high)
        elif isinstance(node, Like):
            walk(node.inner)
            walk(node.pattern)

    walk(expr)
    return highest + 1
