"""Fuzzing the MQL front end: arbitrary text must fail *cleanly*.

Whatever arrives — Unicode digits, line separators, stray quotes,
keyword soup — ``parse`` returns a statement or raises
:class:`MQLSyntaxError`, never anything else, and the error's line,
column and snippet agree with ``str.splitlines`` of the source.  A text
that parses compiles the same through a warm shape cache as cold.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import QueryError
from repro.mql import MQLSyntaxError, Statement, parse
from repro.mql.compiler import ShapeCache, compile_statement

pytestmark = pytest.mark.mql

#: Characters the lexer treats specially, or that once tripped it.
_TRICKY = list(
    "0123456789.eE+-_\"'\\ \t\n\r\v\f=<>!()"
    "\u00b2\u00bd\u0661\u0662\u0966\u2028\u2029\u0085\u00a0\u3000\u1d7c"
)

texts = st.text(
    alphabet=st.one_of(st.characters(), st.sampled_from(_TRICKY)), max_size=80
)

_MQL_WORDS = st.sampled_from(
    "files collections views where and or not like between order by asc desc "
    "limit offset union intersect minus true false date time datetime "
    "( ) = != < <= > >= - run site x_1 7 0 3.5 1e3 2.5e-2 \"s\" 'q' "
    '"2003-11-15" "12:30:00" "2003-11-15T12:30:00" "bad" \u00b2 \u0661\u0662 '
    "3nope \"open \\q".split(" ")
)
_SEPARATORS = st.sampled_from([" ", "  ", "\n", "\r", "\r\n", "\u2028", "\t", "\f"])


@st.composite
def mql_soup(draw):
    words = draw(st.lists(_MQL_WORDS, max_size=20))
    text = ""
    for word in words:
        text += word + draw(_SEPARATORS)
    return text


def _check(text):
    try:
        statement = parse(text)
    except MQLSyntaxError as err:
        lines = text.splitlines()
        assert err.line >= 1 and err.column >= 1
        if err.line <= len(lines):
            assert err.source_line == lines[err.line - 1]
            assert err.column <= len(err.source_line) + 1
        else:  # only the end of input sits past the last line
            assert err.source_line is None
        return None
    assert isinstance(statement, Statement)
    return statement


@settings(max_examples=300, deadline=None)
@given(texts)
def test_parse_is_total_on_arbitrary_text(text):
    _check(text)


@settings(max_examples=300, deadline=None)
@given(mql_soup(), mql_soup())
def test_parse_is_total_on_mql_shaped_soup(text, other):
    statement = _check(text)
    if statement is None:
        return
    # A valid text compiles alike cold and warm, after any other text.
    shapes = ShapeCache()
    try:
        shapes.compile(other)
    except QueryError:
        pass
    try:
        cold = compile_statement(statement)
    except QueryError as err:
        with pytest.raises(QueryError) as excinfo:
            shapes.compile(text)
        assert str(excinfo.value) == str(err)
        return
    assert shapes.compile(text) == cold
    assert shapes.compile(text) == cold
