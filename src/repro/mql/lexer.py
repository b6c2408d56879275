"""MQL lexer: source text → offset tokens.

One compiled regular expression, matched lexeme by lexeme.  A token is
a plain tuple ``(kind, value, offset, text)``: ``kind`` is ``ident``,
``keyword``, ``string``, ``int``, ``float``, ``symbol`` or ``eof``;
``value`` the decoded payload (lower-cased for keywords, the parsed
value for literals); ``offset`` where the lexeme starts in the source.
Line and column are computed from the offset only when an error is
built (:func:`syntax_error`), with ``str.splitlines`` semantics, so the
caret, the line number and the snippet always agree (``\\r\\n`` is one
break; ``\\r``, ``\\v``, ``\\f`` and ``\\u2028`` are breaks too).
Numbers are ASCII digits only.

:func:`shape_key` is the token stream with every literal replaced by
its kind: texts that differ only in their literal values share it, and
with it one compiled template (:class:`repro.mql.compiler.ShapeCache`).
"""

from __future__ import annotations

import math
import re
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

#: ``(kind, value, offset, text)``.
Token = tuple[str, Any, int, str]

#: A literal's part of a shape key: its kind, spelled as no identifier,
#: keyword or symbol can be.
_KEY_OF_KIND = {"string": '"', "int": "0", "float": "0.0"}

#: Kinds whose value is a literal: one slot each in a statement template.
LITERAL_KINDS = frozenset(_KEY_OF_KIND)

# Alternatives in priority order; ``bad`` catches whatever starts no
# lexeme (a stray character, or a quote whose string does not close).
_TOKEN = re.compile(
    r"""\s*(?:
        (?P<float>[0-9]+(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+))
      | (?P<int>[0-9]+)
      | (?P<word>\w+)
      | (?P<string>"[^"\\\n]*(?:\\[\\"'ntr][^"\\\n]*)*"
                  |'[^'\\\n]*(?:\\[\\"'ntr][^'\\\n]*)*')
      | (?P<symbol>[!<>]=|[=<>()-])
      | (?P<eof>\Z)
      | (?P<bad>.|\n)
    )""",
    re.VERBOSE,
)

#: A string literal up to its first problem: end of line, end of input
#: or an invalid escape.
_STRING_HEAD = {
    quote: re.compile(rf"{quote}[^{quote}\\\n]*(?:\\[\\\"'ntr][^{quote}\\\n]*)*")
    for quote in "\"'"
}

_ESCAPE = re.compile(r"\\(.)")
_ESCAPES = {"\\": "\\", '"': '"', "'": "'", "n": "\n", "t": "\t", "r": "\r"}


def syntax_error(source: str, offset: int, message: str) -> MQLSyntaxError:
    """An :class:`MQLSyntaxError` located at *offset* of *source*."""
    # The sentinel keeps a break just before *offset* from being dropped.
    before = (source[:offset] + "^").splitlines()
    line, column = len(before), len(before[-1])
    lines = source.splitlines()
    source_line: Optional[str] = lines[line - 1] if line <= len(lines) else None
    return MQLSyntaxError(message, line, column, source_line)


def tokenize(source: str) -> list[Token]:
    """Lex *source*, ending with an ``eof`` token; raises :class:`MQLSyntaxError`."""
    tokens: list[Token] = []
    append = tokens.append
    # Every character starts some alternative, so the matches tile the
    # source and the last one is ``eof``.
    for found in _TOKEN.finditer(source):
        kind = found.lastgroup
        text = found[kind]
        start = found.start(kind)
        if kind == "word":
            lowered = text.lower()
            if lowered in KEYWORDS:
                append(("keyword", lowered, start, text))
            elif text[0].isalpha() or text[0] == "_":
                append(("ident", text, start, text))
            else:
                raise syntax_error(source, start, f"unexpected character {text[0]!r}")
        elif kind == "symbol":
            append(("symbol", text, start, text))
        elif kind == "string":
            value = text[1:-1]
            if "\\" in value:
                value = _ESCAPE.sub(lambda m: _ESCAPES[m[1]], value)
            append(("string", value, start, text))
        elif kind == "int" or kind == "float":
            after = source[found.end() : found.end() + 1]
            if after.isalpha() or after == "_":
                raise syntax_error(source, start, f"malformed number {text + after!r}")
            if kind == "float":
                number = float(text)
                if math.isinf(number):  # overflowed; inf has no literal to print
                    raise syntax_error(source, start, "float literal out of range")
            else:
                try:
                    number = int(text)
                except ValueError:  # more digits than int() converts
                    raise syntax_error(source, start, "integer literal too long") from None
            append((kind, number, start, text))
        elif kind == "eof":
            append(("eof", None, start, ""))
            break
        elif text in _STRING_HEAD:
            end = _STRING_HEAD[text].match(source, start).end()
            if source[end : end + 1] == "\\":
                bad = source[end : end + 2]
                raise syntax_error(source, end, f"invalid string escape {bad!r}")
            raise syntax_error(source, start, "unterminated string literal")
        else:
            raise syntax_error(source, start, f"unexpected character {text!r}")
    return tokens


def shape_key(tokens: list[Token]) -> str:
    """The statement's shape: every literal replaced by its kind."""
    return " ".join(
        [_KEY_OF_KIND.get(kind) or value for kind, value, _offset, _text in tokens[:-1]]
    )
