"""Hypothesis round-trip: AST → ``to_mql()`` → parser → identical AST.

The printer is documented as *canonical* — it emits text that reparses
into a structurally equal tree.  The generator below builds arbitrary
well-formed statements (nested boolean combinators, negation, dataset
algebra, every literal type the lexer knows, order/limit/offset) and
the property closes the loop with plain ``==`` over frozen dataclasses.

The second half is the parse-error corpus: every syntactically broken
input must surface as :class:`MQLSyntaxError` carrying a 1-based
line/column and a caret snippet pointing at the offending token, and
must map onto the existing ``MCS.Query`` wire fault.
"""

import datetime as dt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import QueryError, fault_code_for
from repro.mql import MQLSyntaxError, parse, to_mql
from repro.mql.ast import And, Condition, Not, Or, Query, SetOp, Statement
from repro.mql.lexer import KEYWORDS

pytestmark = pytest.mark.mql

# -- AST generation ----------------------------------------------------------

idents = st.from_regex(r"[a-z][a-z0-9_]{0,11}", fullmatch=True).filter(
    lambda s: s not in KEYWORDS
)

# Text restricted to characters the printer escapes or passes through
# verbatim; covers the escape table (backslash, quotes, \n, \t, \r).
string_values = st.text(
    alphabet=st.sampled_from(
        list("abcdefghijklmnopqrstuvwxyz0123456789 _-%\"'\\\n\t\r")
    ),
    max_size=12,
)

# Exponent-form floats up to the largest double, where one more decimal
# exponent would overflow: each prints as repr and lexes back exactly.
exponent_floats = st.builds(
    lambda mantissa, exponent: float(f"{mantissa}e{exponent}"),
    st.integers(min_value=1, max_value=17976931348623157),
    st.integers(min_value=-324, max_value=292),
)

scalar_values = st.one_of(
    st.booleans(),
    st.integers(min_value=-(10**12), max_value=10**12),
    st.floats(allow_nan=False, allow_infinity=False),
    exponent_floats,
    string_values,
    st.dates(),
    st.times(),
    st.datetimes(),
)


@st.composite
def conditions(draw):
    op = draw(st.sampled_from(("=", "!=", "<", "<=", ">", ">=", "like", "between")))
    fieldname = draw(idents)
    if op == "like":
        return Condition(fieldname, "like", draw(string_values))
    if op == "between":
        low = draw(scalar_values)
        high = draw(scalar_values)
        return Condition(fieldname, "between", (low, high))
    return Condition(fieldname, op, draw(scalar_values))


predicates = st.recursive(
    conditions(),
    lambda inner: st.one_of(
        inner.map(Not),
        st.lists(inner, min_size=2, max_size=3).map(lambda ps: And(tuple(ps))),
        st.lists(inner, min_size=2, max_size=3).map(lambda ps: Or(tuple(ps))),
    ),
    max_leaves=6,
)


@st.composite
def queries(draw):
    return Query(
        object_type=draw(st.sampled_from(("file", "collection", "view"))),
        where=draw(st.none() | predicates),
    )


@st.composite
def modified_statements(draw, source):
    """A Statement with at least one modifier (so parens survive)."""
    return Statement(
        source=draw(source),
        order_by=draw(idents),
        descending=draw(st.booleans()),
        limit=draw(st.none() | st.integers(min_value=0, max_value=999)),
        offset=draw(st.none() | st.integers(min_value=0, max_value=999)),
    )


sources = st.recursive(
    queries(),
    lambda inner: st.builds(
        SetOp,
        op=st.sampled_from(("union", "intersect", "minus")),
        left=inner | modified_statements(inner),
        right=inner | modified_statements(inner),
    ),
    max_leaves=4,
)


@st.composite
def statements(draw):
    order_by = draw(st.none() | idents)
    return Statement(
        source=draw(sources),
        order_by=order_by,
        # desc is only printable when an order field is present.
        descending=draw(st.booleans()) if order_by is not None else False,
        limit=draw(st.none() | st.integers(min_value=0, max_value=999)),
        offset=draw(st.none() | st.integers(min_value=0, max_value=999)),
    )


@given(statements())
@settings(max_examples=200, deadline=None)
def test_roundtrip_identical_ast(statement):
    text = to_mql(statement)
    assert parse(text) == statement


@given(statements())
@settings(max_examples=50, deadline=None)
def test_printing_is_idempotent(statement):
    text = to_mql(statement)
    assert to_mql(parse(text)) == text


def test_roundtrip_spot_checks():
    for text in (
        "files",
        'files where run = 7 and (site like "ligo-%" or valid) '
        "order by name limit 50",
        "files where not (a = 1 and b = 2)",
        "files where size between 1 and 9 order by size desc limit 3 offset 1",
        '(files where run = 1) union (collections where name like "c%")',
        "files intersect (files where x != 2) minus files",
        'files where t > datetime "2003-11-15T12:30:00" or d = date "2003-11-15"',
    ):
        assert to_mql(parse(text)) == to_mql(parse(to_mql(parse(text))))


# -- parse-error corpus ------------------------------------------------------

#: (source, expected (line, column), message fragment)
ERROR_CORPUS = [
    ("", (1, 1), "expected 'files'"),
    ("wibble", (1, 1), "expected 'files'"),
    ("files where", (1, 12), "expected a field name"),
    ("files where = 7", (1, 13), "expected a field name"),
    ("files where run =", (1, 18), "expected a value"),
    ("files where run = 7 order by", (1, 29), "after 'order by'"),
    ("files where run between 1", (1, 26), "expected 'and'"),
    ("files where site like 7", (1, 23), "string pattern"),
    ("files where run = 7 limit x", (1, 27), "non-negative integer"),
    ("(files where run = 7", (1, 21), "expected ')'"),
    ("files where run = 7 trailing", (1, 21), "unexpected trailing input"),
    ('files where d = date "not-a-date"', (1, 22), "invalid ISO date"),
    ("files where run = 3nope", (1, 19), "malformed number"),
    ('files where s = "unterminated', (1, 17), "unterminated string"),
    ("files\n  where run ~ 7", (2, 13), "unexpected character"),
    # Numbers are ASCII digits: other digits are not numbers.
    ("files where a = \u00b2", (1, 17), "unexpected character"),
    ("files where a = \u0661\u0662", (1, 17), "unexpected character"),
    # Line and column follow str.splitlines, the snippet's own rule.
    ("files where a = 1\rand = 2", (2, 5), "expected a field name"),
    ("files where a = 1\u2028and = 2", (2, 5), "expected a field name"),
    ("files where a = 1\r\nand = 2", (2, 5), "expected a field name"),
    # A bad value is reported at its own literal, after good ones.
    (
        'files where t between time "10:00" and time "25:00"',
        (1, 45),
        "invalid ISO time",
    ),
    (
        'files where d = date "2003-11-15" or\n  s = datetime "2003-11-15T12:61"',
        (2, 16),
        "invalid ISO datetime",
    ),
    # A float literal past the largest double is refused where it stands.
    ("files where a = 1e999", (1, 17), "float literal out of range"),
]


@pytest.mark.parametrize("source, location, fragment", ERROR_CORPUS)
def test_error_corpus_location_and_caret(source, location, fragment):
    with pytest.raises(MQLSyntaxError) as excinfo:
        parse(source)
    err = excinfo.value
    assert (err.line, err.column) == location
    assert fragment in str(err)
    rendered = str(err).splitlines()
    assert rendered[0].startswith(
        f"MQL syntax error at line {err.line}, column {err.column}:"
    )
    if err.source_line is not None:
        # Caret sits under the offending column (two-space indent).
        assert rendered[2] == "  " + " " * (err.column - 1) + "^"


@pytest.mark.parametrize("source, location, fragment", ERROR_CORPUS)
def test_errors_are_never_bare_valueerrors(source, location, fragment):
    try:
        parse(source)
    except MQLSyntaxError as err:
        assert not isinstance(err, ValueError)
        assert isinstance(err, QueryError)
        assert fault_code_for(err) == "MCS.Query"
    else:  # pragma: no cover - corpus entries must fail
        raise AssertionError(f"{source!r} unexpectedly parsed")
