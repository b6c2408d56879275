"""Tokenizer for the SQL subset.

Token kinds: keywords/identifiers, string/number literals, operators,
punctuation, and ``?`` parameter placeholders.  Strings use single quotes
with ``''`` escaping (MySQL/standard style).  Comments: ``--`` to end of
line and ``/* ... */`` blocks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any

from repro.db.errors import SQLSyntaxError

# Words of clauses the dialect refuses (DDL, GROUP BY, LIMIT, LEFT JOIN,
# DISTINCT ...) stay reserved: such a statement fails at that word instead
# of reading it as an alias.
KEYWORDS = {
    "SELECT", "FROM", "WHERE", "INSERT", "INTO", "VALUES", "UPDATE", "SET",
    "DELETE", "CREATE", "DROP", "TABLE", "INDEX", "UNIQUE", "ON", "PRIMARY",
    "KEY", "NOT", "NULL", "DEFAULT", "AUTOINCREMENT", "REFERENCES", "FOREIGN",
    "AND", "OR", "IN", "IS", "LIKE", "BETWEEN", "ORDER", "BY", "ASC", "DESC",
    "LIMIT", "OFFSET", "GROUP", "HAVING", "DISTINCT", "AS", "JOIN", "INNER",
    "LEFT", "OUTER", "CROSS", "BEGIN", "COMMIT", "ROLLBACK", "TRANSACTION",
    "TRUE", "FALSE", "IF", "EXISTS", "CONSTRAINT", "EXPLAIN",
}

OPERATORS = ("<=", ">=", "!=", "<>", "=", "<", ">", "+", "-", "*", "/", "%")
PUNCTUATION = ("(", ")", ",", ".", ";", "?")


class TokenType(enum.Enum):
    """Lexical category of a token."""

    KEYWORD = "KEYWORD"
    IDENT = "IDENT"
    STRING = "STRING"
    NUMBER = "NUMBER"
    OPERATOR = "OPERATOR"
    PUNCT = "PUNCT"
    EOF = "EOF"


@dataclass(frozen=True)
class Token:
    """One lexed token with its source offset."""

    type: TokenType
    text: str
    value: Any
    position: int

    def is_keyword(self, *names: str) -> bool:
        return self.type is TokenType.KEYWORD and self.text in names

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.type.value}:{self.text}"


def tokenize(sql: str) -> list[Token]:
    """Tokenize *sql*, always ending with an EOF token."""
    tokens: list[Token] = []
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch == "-" and sql.startswith("--", i):
            end = sql.find("\n", i)
            i = n if end == -1 else end + 1
            continue
        if ch == "/" and sql.startswith("/*", i):
            end = sql.find("*/", i + 2)
            if end == -1:
                raise SQLSyntaxError("unterminated block comment", i)
            i = end + 2
            continue
        if ch == "'":
            text, value, consumed = _read_string(sql, i)
            tokens.append(Token(TokenType.STRING, text, value, i))
            i += consumed
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and sql[i + 1].isdigit()):
            text, value, consumed = _read_number(sql, i)
            tokens.append(Token(TokenType.NUMBER, text, value, i))
            i += consumed
            continue
        if ch.isalpha() or ch == "_" or ch == "`":
            text, consumed, quoted = _read_identifier(sql, i)
            upper = text.upper()
            if not quoted and upper in KEYWORDS:
                tokens.append(Token(TokenType.KEYWORD, upper, upper, i))
            else:
                tokens.append(Token(TokenType.IDENT, text, text, i))
            i += consumed
            continue
        matched = False
        for op in OPERATORS:
            if sql.startswith(op, i):
                canonical = "!=" if op == "<>" else op
                tokens.append(Token(TokenType.OPERATOR, canonical, canonical, i))
                i += len(op)
                matched = True
                break
        if matched:
            continue
        if ch in PUNCTUATION:
            tokens.append(Token(TokenType.PUNCT, ch, ch, i))
            i += 1
            continue
        raise SQLSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(Token(TokenType.EOF, "", None, n))
    return tokens


def _read_string(sql: str, start: int) -> tuple[str, str, int]:
    out: list[str] = []
    i = start + 1
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch == "'":
            if i + 1 < n and sql[i + 1] == "'":
                out.append("'")
                i += 2
                continue
            text = sql[start : i + 1]
            return text, "".join(out), i + 1 - start
        out.append(ch)
        i += 1
    raise SQLSyntaxError("unterminated string literal", start)


def _read_number(sql: str, start: int) -> tuple[str, Any, int]:
    i = start
    n = len(sql)
    seen_dot = False
    seen_exp = False
    while i < n:
        ch = sql[i]
        if ch.isdigit():
            i += 1
        elif ch == "." and not seen_dot and not seen_exp:
            seen_dot = True
            i += 1
        elif ch in "eE" and not seen_exp and i > start:
            seen_exp = True
            i += 1
            if i < n and sql[i] in "+-":
                i += 1
        else:
            break
    text = sql[start:i]
    try:
        value: Any = float(text) if (seen_dot or seen_exp) else int(text)
    except ValueError as exc:
        raise SQLSyntaxError(f"bad numeric literal {text!r}", start) from exc
    return text, value, i - start


def _read_identifier(sql: str, start: int) -> tuple[str, int, bool]:
    if sql[start] == "`":
        end = sql.find("`", start + 1)
        if end == -1:
            raise SQLSyntaxError("unterminated quoted identifier", start)
        return sql[start + 1 : end], end + 1 - start, True
    i = start
    n = len(sql)
    while i < n and (sql[i].isalnum() or sql[i] == "_"):
        i += 1
    return sql[start:i], i - start, False
