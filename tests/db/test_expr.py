"""Tests for expression evaluation (three-valued logic, binding)."""

import pytest

from repro.db.errors import ProgrammingError
from repro.db.expr import (
    And,
    Between,
    ColumnRef,
    Comparison,
    InList,
    IsNull,
    Like,
    Literal,
    Not,
    Or,
    Parameter,
    bind_parameters,
    conjuncts,
    count_parameters,
    like_to_regex,
)


def col(name):
    return ColumnRef(name)


class TestComparison:
    def test_equality(self):
        assert Comparison("=", col("a"), Literal(1)).eval({"a": 1}) is True
        assert Comparison("=", col("a"), Literal(1)).eval({"a": 2}) is False

    def test_null_is_unknown(self):
        assert Comparison("=", col("a"), Literal(1)).eval({"a": None}) is None

    def test_ordering(self):
        assert Comparison("<", col("a"), Literal(5)).eval({"a": 3}) is True
        assert Comparison(">=", col("a"), Literal(5)).eval({"a": 5}) is True

    def test_cross_type_equality_false(self):
        assert Comparison("=", col("a"), Literal("1")).eval({"a": 1}) is False

    def test_cross_type_ordering_total(self):
        # ints sort before strings in the engine's total order
        assert Comparison("<", col("a"), Literal("x")).eval({"a": 10**6}) is True


class TestLogic:
    def test_and_truth_table(self):
        t, f, n = Literal(True), Literal(False), Literal(None)
        eq = lambda v: Comparison("=", v, Literal(True))
        assert And((eq(t), eq(t))).eval({}) is True
        assert And((eq(t), eq(f))).eval({}) is False
        # False AND NULL is False (short-circuit semantics)
        assert And((eq(f), eq(n))).eval({}) is False
        assert And((eq(t), eq(n))).eval({}) is None

    def test_or_truth_table(self):
        t, f, n = Literal(True), Literal(False), Literal(None)
        eq = lambda v: Comparison("=", v, Literal(True))
        assert Or((eq(f), eq(t))).eval({}) is True
        assert Or((eq(f), eq(f))).eval({}) is False
        assert Or((eq(t), eq(n))).eval({}) is True
        assert Or((eq(f), eq(n))).eval({}) is None

    def test_not(self):
        eq = Comparison("=", col("a"), Literal(1))
        assert Not(eq).eval({"a": 2}) is True
        assert Not(eq).eval({"a": None}) is None


class TestPredicates:
    def test_is_null(self):
        assert IsNull(col("a")).eval({"a": None}) is True
        assert IsNull(col("a")).eval({"a": 1}) is False
        assert IsNull(col("a"), negated=True).eval({"a": 1}) is True

    def test_in_list(self):
        expr = InList(col("a"), (Literal(1), Literal(2)))
        assert expr.eval({"a": 1}) is True
        assert expr.eval({"a": 3}) is False
        assert expr.eval({"a": None}) is None

    def test_in_list_with_null_option(self):
        expr = InList(col("a"), (Literal(1), Literal(None)))
        assert expr.eval({"a": 1}) is True
        assert expr.eval({"a": 3}) is None  # unknown, per SQL

    def test_not_in(self):
        expr = InList(col("a"), (Literal(1),), negated=True)
        assert expr.eval({"a": 2}) is True
        assert expr.eval({"a": 1}) is False

    def test_between(self):
        expr = Between(col("a"), Literal(1), Literal(10))
        assert expr.eval({"a": 5}) is True
        assert expr.eval({"a": 11}) is False
        assert expr.eval({"a": None}) is None
        assert Between(col("a"), Literal(1), Literal(10), negated=True).eval({"a": 11}) is True

    def test_like(self):
        expr = Like(col("a"), Literal("ab%"))
        assert expr.eval({"a": "abc"}) is True
        assert expr.eval({"a": "xbc"}) is False
        assert Like(col("a"), Literal("a_c")).eval({"a": "abc"}) is True
        assert expr.eval({"a": None}) is None

    def test_like_special_chars_escaped(self):
        assert Like(col("a"), Literal("a.c")).eval({"a": "abc"}) is False
        assert Like(col("a"), Literal("a.c")).eval({"a": "a.c"}) is True

    def test_like_to_regex(self):
        assert like_to_regex("%x_z%").match("AAxYzBB")


class TestColumnRef:
    def test_qualified_lookup(self):
        ref = ColumnRef("a", table="t")
        assert ref.eval({"t.a": 5}) == 5

    def test_qualified_falls_back_to_bare(self):
        ref = ColumnRef("a", table="t")
        assert ref.eval({"a": 5}) == 5

    def test_missing_raises(self):
        with pytest.raises(ProgrammingError):
            ColumnRef("a").eval({})


class TestBinding:
    def test_bind_simple(self):
        expr = Comparison("=", col("a"), Parameter(0))
        bound = bind_parameters(expr, (42,))
        assert bound.right == Literal(42)
        # Original untouched (statements are cached and shared)
        assert expr.right == Parameter(0)

    def test_bind_nested(self):
        expr = And((
            InList(col("a"), (Parameter(0), Parameter(1))),
            Between(col("b"), Parameter(2), Literal(10)),
        ))
        bound = bind_parameters(expr, (1, 2, 3))
        assert bound.parts[0].options == (Literal(1), Literal(2))
        assert bound.parts[1].low == Literal(3)

    def test_too_few_params(self):
        with pytest.raises(ProgrammingError):
            bind_parameters(Parameter(2), (1,))

    def test_unbound_parameter_eval_raises(self):
        with pytest.raises(ProgrammingError):
            Parameter(0).eval({})

    def test_count_parameters(self):
        expr = And((
            Comparison("=", col("a"), Parameter(0)),
            Like(col("b"), Parameter(3)),
        ))
        assert count_parameters(expr) == 4
        assert count_parameters(None) == 0


class TestConjuncts:
    def test_flattening(self):
        a = Comparison("=", col("a"), Literal(1))
        b = Comparison("=", col("b"), Literal(2))
        c = Comparison("=", col("c"), Literal(3))
        nested = And((a, And((b, c))))
        assert conjuncts(nested) == [a, b, c]

    def test_or_not_flattened(self):
        o = Or((Comparison("=", col("a"), Literal(1)),))
        assert conjuncts(o) == [o]

    def test_none(self):
        assert conjuncts(None) == []
