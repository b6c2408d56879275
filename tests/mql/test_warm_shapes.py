"""A warm statement shape answers exactly like a cold parse.

:class:`repro.mql.compiler.ShapeCache` parses and compiles a statement
once per shape (its tokens with each literal replaced by its kind) and
binds every later text's literals into a fresh copy.  The properties:

* two literal variants of one generated statement (the round-trip
  strategy, its fields mapped onto a real catalog's attributes) share a
  shape; the second, compiled warm, equals ``compile_statement(parse())``
  of its own text, and so do its ``explain_mql`` lines and its answers
  under every strategy; recompiling the first afterwards shows none of
  the second's literals;
* every entry of the parse-error corpus fails with the same line,
  column and message after a valid text of its shape warmed the cache.
"""

import datetime as dt
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import MetadataCatalog
from repro.core.errors import MCSError, QueryError
from repro.mql import MQLSyntaxError, parse, to_mql
from repro.mql.ast import And, Condition, Not, Or, Query, SetOp, Statement
from repro.mql.compiler import ShapeCache, compile_statement
from repro.mql.lexer import shape_key, tokenize
from repro.mql.planner import plan_statement
from tests.mql.test_parser_roundtrip import ERROR_CORPUS, statements, string_values

pytestmark = pytest.mark.mql

STRATEGIES = (None, "index", "scan")

#: Condition fields: the catalog's attributes, predefined columns, and
#: one name nothing defines.
FIELDS = ("run", "site", "gain", "day", "name", "creator", "nosuch")
ORDER_FIELDS = ("name", "name", "creator", "version", "nosuch")


@pytest.fixture(scope="module")
def catalog():
    cat = MetadataCatalog()
    cat.define_attribute("run", "int")
    cat.define_attribute("site", "string")
    cat.define_attribute("gain", "float")
    cat.define_attribute("day", "date")
    for i in range(12):
        cat.create_file(
            f"f{i:02d}",
            attributes={
                "run": i % 4 - 1,
                "site": f"s{i % 3}",
                "gain": i * 0.5 - 2.0,
                "day": dt.date(2003, 11, 1 + i),
            },
        )
    for i in range(3):
        cat.create_collection(f"c{i}", attributes={"run": i})
    # Every answer below is computed, none served from the result cache.
    cat.cache.enabled = False
    yield cat
    cat.db.close()


# -- generating two variants of one shape ------------------------------------


def _rewrite(node, value, field=lambda name: name, order=lambda name: name, flat=False):
    """*node* with each literal passed through *value*, fields renamed.

    *flat* drops the modifiers of nested statements, which the compiler
    rejects (most generated set operations have one).
    """

    def rewrite(child):
        if flat and isinstance(child, Statement):
            child = child.source
        return _rewrite(child, value, field, order, flat)

    if isinstance(node, Statement):
        return Statement(
            source=rewrite(node.source),
            order_by=None if node.order_by is None else order(node.order_by),
            descending=node.descending,
            limit=None if node.limit is None else value(node.limit, count=True),
            offset=None if node.offset is None else value(node.offset, count=True),
        )
    if isinstance(node, SetOp):
        return SetOp(node.op, rewrite(node.left), rewrite(node.right))
    if isinstance(node, Query):
        return Query(node.object_type, None if node.where is None else rewrite(node.where))
    if isinstance(node, Not):
        return Not(rewrite(node.inner))
    if isinstance(node, (And, Or)):
        return type(node)(tuple(rewrite(part) for part in node.parts))
    assert isinstance(node, Condition)
    if node.op == "between":
        literal = tuple(value(v) for v in node.value)
    else:
        literal = value(node.value)
    return Condition(field(node.field), node.op, literal)


def _same_kind(value, count=False):
    """Values that print as the same kind of token(s) as *value*."""
    if count:
        return st.integers(min_value=0, max_value=999)
    if isinstance(value, bool):  # true / false are keywords, not literals
        return st.just(value)
    if isinstance(value, int):
        if value >= 0:
            return st.integers(min_value=0, max_value=10**12)
        return st.integers(min_value=-(10**12), max_value=-1)
    if isinstance(value, float):  # the sign decides whether a '-' is printed
        sign = math.copysign(1.0, value)
        return st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).map(
            lambda f: math.copysign(f, sign)
        )
    if isinstance(value, str):
        return string_values
    if isinstance(value, dt.datetime):
        return st.datetimes()
    if isinstance(value, dt.date):
        return st.dates()
    assert isinstance(value, dt.time)
    return st.times()


@st.composite
def variant_pairs(draw):
    fields = {}
    orders = {}
    first = _rewrite(
        draw(statements()),
        value=lambda v, count=False: v,
        field=lambda name: fields.setdefault(name, draw(st.sampled_from(FIELDS))),
        order=lambda name: orders.setdefault(name, draw(st.sampled_from(ORDER_FIELDS))),
        flat=draw(st.integers(0, 3)) > 0,
    )
    second = _rewrite(first, value=lambda v, count=False: draw(_same_kind(v, count)))
    return to_mql(first), to_mql(second)


def _outcome(run):
    """What *run* returns, or the type and text of what it raises."""
    try:
        return "ok", run()
    except MCSError as err:  # QueryError, or an undefined attribute
        return type(err).__name__, str(err)


def _cold(text):
    return compile_statement(parse(text))


@given(variant_pairs())
@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
def test_a_warm_shape_compiles_runs_and_explains_like_a_cold_parse(catalog, pair):
    first, second = pair
    assert shape_key(tokenize(first)) == shape_key(tokenize(second))

    shapes = ShapeCache()
    warm_first = _outcome(lambda: shapes.compile(first))
    assert warm_first == _outcome(lambda: _cold(first))
    assert _outcome(lambda: shapes.compile(second)) == _outcome(lambda: _cold(second))
    # The template kept none of the second text's literals.
    assert _outcome(lambda: shapes.compile(first)) == warm_first

    for strategy in STRATEGIES:
        catalog.mql_strategy = strategy
        try:
            catalog._mql_shapes.clear()
            _outcome(lambda: catalog.query_mql(first))  # warms the shape
            warm = (
                _outcome(lambda: catalog.query_mql(second)),
                _outcome(lambda: catalog.explain_mql(second)),
            )
            catalog._mql_shapes.clear()

            def fresh_plan():
                return plan_statement(catalog, _cold(second), strategy=strategy)

            cold = (
                _outcome(lambda: catalog._run_plan(fresh_plan())),
                _outcome(lambda: catalog._explain_plan(fresh_plan())),
            )
        finally:
            catalog.mql_strategy = None
        assert warm == cold, strategy


def test_the_pool_shapes_share_one_template():
    """Texts that differ in literal values only compile once."""
    shapes = ShapeCache()
    texts = [
        f'files where run = {run} and site = "s{run}" and day = date "2003-11-0{run}"'
        f" order by name limit {run * 10}"
        for run in range(1, 8)
    ]
    for text in texts:
        assert shapes.compile(text) == _cold(text)
    assert len(shapes._templates) == 1
    assert shapes.compile("files where run = -3").leaves[0].query.conditions[0].value == -3


# -- errors on a warm shape ---------------------------------------------------

_VALID_LITERAL = {
    "date": '"2003-11-15"',
    "time": '"12:30:00"',
    "datetime": '"2003-11-15T12:30:00"',
}


def _valid_sibling(source):
    """A text of *source*'s shape that compiles, if there is one.

    Only a value can make a text of a valid shape fail: its ISO
    literals are swapped for good ones.
    """
    try:
        tokens = tokenize(source)
    except MQLSyntaxError:
        return None  # lexing fails before any shape is looked up
    text, end = "", 0
    for before, token in zip(tokens, tokens[1:]):
        kind, _value, offset, lexeme = token
        if kind == "string" and before[0] == "keyword" and before[1] in _VALID_LITERAL:
            text += source[end:offset] + _VALID_LITERAL[before[1]]
            end = offset + len(lexeme)
    text += source[end:]
    try:
        _cold(text)
    except QueryError:
        return None
    return text


def _error(run):
    with pytest.raises(MQLSyntaxError) as excinfo:
        run()
    err = excinfo.value
    return err.line, err.column, str(err)


@pytest.mark.parametrize("source, location, fragment", ERROR_CORPUS)
def test_a_warm_shape_fails_where_a_cold_parse_does(source, location, fragment):
    cold = _error(lambda: parse(source))
    shapes = ShapeCache()
    sibling = _valid_sibling(source)
    if "invalid ISO" in fragment:
        assert sibling is not None, "a value error has a valid shape"
    if sibling is not None:
        assert shape_key(tokenize(sibling)) == shape_key(tokenize(source))
        shapes.compile(sibling)
    assert _error(lambda: shapes.compile(source)) == cold
    assert cold[:2] == location
    # A failure leaves no template behind: the cache holds the sibling's only.
    assert len(shapes._templates) == (sibling is not None)
