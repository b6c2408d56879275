"""MQL lexer: source text → located tokens.

Hand-written single-pass scanner.  Every token carries its 1-based line
and column so the parser (and :class:`repro.mql.errors.MQLSyntaxError`)
can point a caret at the exact offending character.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.mql.errors import MQLSyntaxError

#: Reserved words (matched case-insensitively; canonical form is lower).
KEYWORDS = frozenset(
    {
        "files",
        "collections",
        "views",
        "where",
        "and",
        "or",
        "not",
        "like",
        "between",
        "order",
        "by",
        "asc",
        "desc",
        "limit",
        "offset",
        "union",
        "intersect",
        "minus",
        "true",
        "false",
        "date",
        "time",
        "datetime",
    }
)

#: Multi- and single-character operator/punctuation tokens.
_SYMBOLS = ("!=", "<=", ">=", "=", "<", ">", "(", ")", "-")

_ESCAPES = {"\\": "\\", '"': '"', "'": "'", "n": "\n", "t": "\t", "r": "\r"}


@dataclass(frozen=True)
class Token:
    """One lexeme: ``kind`` is ``ident``, ``keyword``, ``string``,
    ``int``, ``float``, ``symbol`` or ``eof``; ``value`` is the decoded
    payload (text for idents/keywords/symbols, the parsed value for
    literals)."""

    kind: str
    value: Any
    line: int
    column: int
    text: str = ""


class Lexer:
    """Scan an MQL string into a token list (ending with ``eof``)."""

    def __init__(self, source: str) -> None:
        self.source = source
        self._pos = 0
        self._line = 1
        self._col = 1

    # -- helpers -----------------------------------------------------------

    def _peek(self, offset: int = 0) -> str:
        index = self._pos + offset
        return self.source[index] if index < len(self.source) else ""

    def _advance(self, n: int = 1) -> None:
        for _ in range(n):
            if self._pos < len(self.source) and self.source[self._pos] == "\n":
                self._line += 1
                self._col = 1
            else:
                self._col += 1
            self._pos += 1

    def _source_line(self, line: int) -> Optional[str]:
        lines = self.source.splitlines()
        if 1 <= line <= len(lines):
            return lines[line - 1]
        return None

    def _error(self, message: str, line: int, column: int) -> MQLSyntaxError:
        return MQLSyntaxError(message, line, column, self._source_line(line))

    # -- scanning ----------------------------------------------------------

    def tokens(self) -> list[Token]:
        out: list[Token] = []
        while True:
            token = self._next_token()
            out.append(token)
            if token.kind == "eof":
                return out

    def _next_token(self) -> Token:
        while self._peek().isspace():
            self._advance()
        line, col = self._line, self._col
        ch = self._peek()
        if ch == "":
            return Token("eof", None, line, col, "")
        if ch.isalpha() or ch == "_":
            return self._scan_word(line, col)
        if ch.isdigit():
            return self._scan_number(line, col)
        if ch in ('"', "'"):
            return self._scan_string(line, col)
        for symbol in _SYMBOLS:
            if self.source.startswith(symbol, self._pos):
                self._advance(len(symbol))
                return Token("symbol", symbol, line, col, symbol)
        raise self._error(f"unexpected character {ch!r}", line, col)

    def _scan_word(self, line: int, col: int) -> Token:
        start = self._pos
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        text = self.source[start : self._pos]
        lowered = text.lower()
        if lowered in KEYWORDS:
            return Token("keyword", lowered, line, col, text)
        return Token("ident", text, line, col, text)

    def _scan_number(self, line: int, col: int) -> Token:
        start = self._pos
        while self._peek().isdigit():
            self._advance()
        is_float = False
        if self._peek() == "." and self._peek(1).isdigit():
            is_float = True
            self._advance()
            while self._peek().isdigit():
                self._advance()
        if self._peek() in ("e", "E") and (
            self._peek(1).isdigit()
            or (self._peek(1) in ("+", "-") and self._peek(2).isdigit())
        ):
            is_float = True
            self._advance()
            if self._peek() in ("+", "-"):
                self._advance()
            while self._peek().isdigit():
                self._advance()
        text = self.source[start : self._pos]
        if self._peek().isalpha() or self._peek() == "_":
            raise self._error(
                f"malformed number {text + self._peek()!r}", line, col
            )
        value = float(text) if is_float else int(text)
        return Token("float" if is_float else "int", value, line, col, text)

    def _scan_string(self, line: int, col: int) -> Token:
        start = self._pos
        quote = self._peek()
        self._advance()
        parts: list[str] = []
        while True:
            ch = self._peek()
            if ch == "" or ch == "\n":
                raise self._error("unterminated string literal", line, col)
            if ch == quote:
                self._advance()
                break
            if ch == "\\":
                esc_line, esc_col = self._line, self._col
                self._advance()
                escaped = self._peek()
                if escaped not in _ESCAPES:
                    bad = "\\" + escaped
                    raise self._error(
                        f"invalid string escape {bad!r}", esc_line, esc_col
                    )
                parts.append(_ESCAPES[escaped])
                self._advance()
                continue
            parts.append(ch)
            self._advance()
        text = self.source[start : self._pos]
        return Token("string", "".join(parts), line, col, text)


def tokenize(source: str) -> list[Token]:
    """Lex *source*; raises :class:`MQLSyntaxError` on bad input."""
    return Lexer(source).tokens()
