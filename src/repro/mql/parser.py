"""Recursive-descent MQL parser.

Grammar (EBNF; keywords are case-insensitive)::

    statement   = expr [ "order" "by" ident [ "asc" | "desc" ] ]
                       [ "limit" int ] [ "offset" int ] ;
    expr        = term { ( "union" | "minus" ) term } ;          (* left-assoc *)
    term        = factor { "intersect" factor } ;                (* left-assoc *)
    factor      = "(" statement ")" | query ;
    query       = ( "files" | "collections" | "views" ) [ "where" pred ] ;
    pred        = conj { "or" conj } ;
    conj        = unary { "and" unary } ;
    unary       = "not" unary | "(" pred ")" | condition ;
    condition   = ident comparator value
                | ident "like" string
                | ident "between" value "and" value
                | ident ;                                 (* sugar: = true *)
    comparator  = "=" | "!=" | "<" | "<=" | ">" | ">=" ;
    value       = string | [ "-" ] number | "true" | "false"
                | "date" string | "time" string | "datetime" string ;

A parenthesized sub-statement with no order/limit/offset unwraps to its
bare source, so ``(files where a = 1) union files`` builds a plain
:class:`SetOp` over two :class:`Query` nodes.  Ordering and pagination
are syntactically legal on nested statements; the *compiler* restricts
them to the top level.

Every failure raises :class:`repro.mql.errors.MQLSyntaxError` with the
offending line/column and a caret snippet — never a bare ``ValueError``.

A literal becomes a value through a *conversion* (the token's value,
its negation after ``-``, or an ISO ``date``/``time``/``datetime``),
run where the parser meets it.  Asked for a template, :func:`parse`
runs the same conversions (so a bad value fails where it always does)
but puts a :class:`~repro.mql.ast.Slot` in the tree and hands back the
conversion, for :class:`repro.mql.compiler.ShapeCache` to rerun on
every text of the shape.
"""

from __future__ import annotations

import datetime as _dt
from typing import Any, Callable, Optional

from repro.mql.ast import (
    And,
    Condition,
    Not,
    Or,
    Predicate,
    Query,
    SetOp,
    Slot,
    Statement,
)
from repro.mql.errors import MQLSyntaxError
from repro.mql.lexer import Token, syntax_error, tokenize

_OBJECT_TYPES = {"files": "file", "collections": "collection", "views": "view"}
_COMPARATORS = ("=", "!=", "<", "<=", ">", ">=")

#: ``(source, literal token) -> value``; raises :class:`MQLSyntaxError`.
Conversion = Callable[[str, Token], Any]


def _token_error(source: str, message: str, token: Token) -> MQLSyntaxError:
    """*message* at *token*, naming what was found there."""
    shown = token[3] or "end of input"
    return syntax_error(source, token[2], f"{message} (found {shown!r})")


def _literal(_source: str, token: Token) -> Any:
    return token[1]


def _negated(_source: str, token: Token) -> Any:
    return -token[1]


def _iso(kind: str, from_iso: Callable[[str], Any]) -> Conversion:
    def convert(source: str, token: Token) -> Any:
        try:
            return from_iso(token[1])
        except ValueError:
            raise _token_error(
                source, f"invalid ISO {kind} literal {token[1]!r}", token
            ) from None

    return convert


_TEMPORAL = {
    "date": _iso("date", _dt.date.fromisoformat),
    "time": _iso("time", _dt.time.fromisoformat),
    "datetime": _iso("datetime", _dt.datetime.fromisoformat),
}


class _Parser:
    def __init__(
        self, source: str, tokens: list[Token], slots: Optional[list[Conversion]]
    ) -> None:
        self.source = source
        self.tokens = tokens
        self._pos = 0
        self._slots = slots

    # -- token plumbing ----------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self._pos]

    def _advance(self) -> Token:
        token = self.tokens[self._pos]
        if token[0] != "eof":
            self._pos += 1
        return token

    def _at_keyword(self, *words: str) -> bool:
        kind, value, _offset, _text = self.tokens[self._pos]
        return kind == "keyword" and value in words

    def _at_symbol(self, *symbols: str) -> bool:
        kind, value, _offset, _text = self.tokens[self._pos]
        return kind == "symbol" and value in symbols

    def _at_kind(self, *kinds: str) -> bool:
        return self.tokens[self._pos][0] in kinds

    def _take_keyword(self, word: str) -> Token:
        if not self._at_keyword(word):
            raise self._error(f"expected {word!r}")
        return self._advance()

    def _take_symbol(self, symbol: str) -> Token:
        if not self._at_symbol(symbol):
            raise self._error(f"expected {symbol!r}")
        return self._advance()

    def _error(self, message: str) -> MQLSyntaxError:
        return _token_error(self.source, message, self.current)

    def _value(self, convert: Conversion) -> Any:
        """Convert the literal at the cursor (a slot for it, in a template)."""
        value = convert(self.source, self._advance())
        if self._slots is None:
            return value
        self._slots.append(convert)
        return Slot(len(self._slots) - 1)

    # -- grammar -----------------------------------------------------------

    def parse_statement(self, top_level: bool = False) -> Statement:
        source = self._parse_expr()
        order_by: Optional[str] = None
        descending = False
        limit: Optional[int] = None
        offset: Optional[int] = None
        if self._at_keyword("order"):
            self._advance()
            self._take_keyword("by")
            if not self._at_kind("ident"):
                raise self._error("expected a field name after 'order by'")
            order_by = str(self._advance()[1])
            if self._at_keyword("asc", "desc"):
                descending = self._advance()[1] == "desc"
        if self._at_keyword("limit"):
            self._advance()
            limit = self._parse_count("limit")
        if self._at_keyword("offset"):
            self._advance()
            offset = self._parse_count("offset")
        if top_level and not self._at_kind("eof"):
            raise self._error("unexpected trailing input")
        return Statement(
            source=source,
            order_by=order_by,
            descending=descending,
            limit=limit,
            offset=offset,
        )

    def _parse_count(self, keyword: str) -> int:
        if not self._at_kind("int"):
            raise self._error(f"expected a non-negative integer after {keyword!r}")
        return self._value(_literal)

    def _parse_expr(self) -> Any:
        node = self._parse_term()
        while self._at_keyword("union", "minus"):
            op = str(self._advance()[1])
            node = SetOp(op=op, left=node, right=self._parse_term())
        return node

    def _parse_term(self) -> Any:
        node = self._parse_factor()
        while self._at_keyword("intersect"):
            self._advance()
            node = SetOp(op="intersect", left=node, right=self._parse_factor())
        return node

    def _parse_factor(self) -> Any:
        if self._at_symbol("("):
            self._advance()
            inner = self.parse_statement()
            self._take_symbol(")")
            if inner.has_modifiers():
                return inner
            return inner.source
        if self._at_keyword(*_OBJECT_TYPES):
            object_type = _OBJECT_TYPES[str(self._advance()[1])]
            where: Optional[Predicate] = None
            if self._at_keyword("where"):
                self._advance()
                where = self._parse_pred()
            return Query(object_type=object_type, where=where)
        raise self._error("expected 'files', 'collections', 'views' or '('")

    def _parse_pred(self) -> Predicate:
        parts = [self._parse_conj()]
        while self._at_keyword("or"):
            self._advance()
            parts.append(self._parse_conj())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def _parse_conj(self) -> Predicate:
        parts = [self._parse_unary()]
        while self._at_keyword("and"):
            self._advance()
            parts.append(self._parse_unary())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def _parse_unary(self) -> Predicate:
        if self._at_keyword("not"):
            self._advance()
            return Not(self._parse_unary())
        if self._at_symbol("("):
            self._advance()
            inner = self._parse_pred()
            self._take_symbol(")")
            return inner
        return self._parse_condition()

    def _parse_condition(self) -> Condition:
        if not self._at_kind("ident"):
            raise self._error("expected a field name")
        fieldname = str(self._advance()[1])
        if self._at_symbol(*_COMPARATORS):
            op = str(self._advance()[1])
            return Condition(fieldname, op, self._parse_value())
        if self._at_keyword("like"):
            self._advance()
            if not self._at_kind("string"):
                raise self._error("expected a string pattern after 'like'")
            return Condition(fieldname, "like", self._value(_literal))
        if self._at_keyword("between"):
            self._advance()
            low = self._parse_value()
            self._take_keyword("and")
            high = self._parse_value()
            return Condition(fieldname, "between", (low, high))
        # Bare identifier: boolean sugar for ``<field> = true``.
        return Condition(fieldname, "=", True)

    def _parse_value(self) -> Any:
        if self._at_kind("string", "int", "float"):
            return self._value(_literal)
        if self._at_symbol("-"):
            self._advance()
            if not self._at_kind("int", "float"):
                raise self._error("expected a number after '-'")
            return self._value(_negated)
        if self._at_keyword("true", "false"):
            return self._advance()[1] == "true"
        if self._at_keyword(*_TEMPORAL):
            kind = str(self._advance()[1])
            if not self._at_kind("string"):
                raise self._error(f"expected a quoted ISO {kind} literal")
            return self._value(_TEMPORAL[kind])
        raise self._error("expected a value")


def parse(
    source: str,
    tokens: Optional[list[Token]] = None,
    slots: Optional[list[Conversion]] = None,
) -> Statement:
    """Parse one MQL statement; raises :class:`MQLSyntaxError` on failure.

    *tokens* is ``tokenize(source)``, if the caller has lexed it already.
    Given a list as *slots*, the tree is a template: the *i*-th literal
    is ``Slot(i)`` and its conversion is appended to *slots*.
    """
    if tokens is None:
        tokens = tokenize(source)
    return _Parser(source, tokens, slots).parse_statement(top_level=True)
