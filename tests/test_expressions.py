"""Tests for the scalar expression language."""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.algebra.expressions import (
    Arithmetic,
    BagExpr,
    BooleanExpr,
    Comparison,
    Const,
    FunctionCall,
    Path,
    StructExpr,
    Var,
    conjunction,
    contains_subquery,
    split_conjuncts,
    walk_expr,
)
from repro.algebra.logical import BagLiteral
from repro.algebra.unparser import logical_to_oql
from repro.datamodel.values import Bag, Struct
from repro.errors import QueryExecutionError
from repro.oql.parser import parse_query


def x_salary() -> Path:
    return Path(Var("x"), "salary")


ENV = {"x": Struct({"name": "Mary", "salary": 200})}


class TestEvaluation:
    def test_const_and_var(self):
        assert Const(5).evaluate({}) == 5
        assert Var("x").evaluate(ENV).name == "Mary"

    def test_unbound_variable_raises(self):
        with pytest.raises(QueryExecutionError):
            Var("y").evaluate(ENV)

    def test_path_over_struct_and_dict(self):
        assert x_salary().evaluate(ENV) == 200
        assert Path(Var("x"), "salary").evaluate({"x": {"salary": 50}}) == 50

    def test_path_missing_attribute_raises(self):
        with pytest.raises(QueryExecutionError):
            Path(Var("x"), "age").evaluate(ENV)

    def test_comparisons(self):
        assert Comparison(">", x_salary(), Const(10)).evaluate(ENV)
        assert not Comparison("<", x_salary(), Const(10)).evaluate(ENV)
        assert Comparison("=", Path(Var("x"), "name"), Const("Mary")).evaluate(ENV)
        assert Comparison("!=", Path(Var("x"), "name"), Const("Sam")).evaluate(ENV)

    def test_comparison_with_none_is_false(self):
        assert not Comparison(">", Const(None), Const(1)).evaluate({})

    def test_comparison_with_incompatible_types_is_false(self):
        assert not Comparison(">", Const("abc"), Const(1)).evaluate({})

    def test_boolean_connectives(self):
        t = Comparison(">", x_salary(), Const(10))
        f = Comparison("<", x_salary(), Const(10))
        assert BooleanExpr("and", (t, t)).evaluate(ENV)
        assert not BooleanExpr("and", (t, f)).evaluate(ENV)
        assert BooleanExpr("or", (f, t)).evaluate(ENV)
        assert BooleanExpr("not", (f,)).evaluate(ENV)

    def test_arithmetic(self):
        assert Arithmetic("+", x_salary(), Const(50)).evaluate(ENV) == 250
        assert Arithmetic("*", Const(3), Const(4)).evaluate({}) == 12
        with pytest.raises(QueryExecutionError):
            Arithmetic("/", Const(1), Const(0)).evaluate({})

    def test_struct_constructor(self):
        expr = StructExpr((("name", Path(Var("x"), "name")), ("double", Arithmetic("*", x_salary(), Const(2)))))
        assert expr.evaluate(ENV) == Struct({"name": "Mary", "double": 400})

    def test_bag_constructor_flattens_nested_bags(self):
        expr = BagExpr((Const(1), Const(2)))
        assert expr.evaluate({}) == Bag([1, 2])

    def test_aggregates(self):
        bag = Const(Bag([1, 2, 3]))
        assert FunctionCall("sum", (bag,)).evaluate({}) == 6
        assert FunctionCall("count", (bag,)).evaluate({}) == 3
        assert FunctionCall("min", (bag,)).evaluate({}) == 1
        assert FunctionCall("max", (bag,)).evaluate({}) == 3
        assert FunctionCall("avg", (bag,)).evaluate({}) == 2

    def test_aggregates_over_empty_bag(self):
        empty = Const(Bag())
        assert FunctionCall("sum", (empty,)).evaluate({}) == 0
        assert FunctionCall("count", (empty,)).evaluate({}) == 0
        assert FunctionCall("min", (empty,)).evaluate({}) is None

    def test_flatten_and_union_functions(self):
        nested = Const(Bag([Bag([1]), Bag([2, 3])]))
        assert FunctionCall("flatten", (nested,)).evaluate({}) == Bag([1, 2, 3])
        assert FunctionCall("union", (Const(Bag([1])), Const(Bag([2])))).evaluate({}) == Bag([1, 2])

    def test_unknown_function_raises(self):
        with pytest.raises(QueryExecutionError):
            FunctionCall("nope", (Const(1),)).evaluate({})


class TestStaticAnalysis:
    def test_free_variables(self):
        expr = BooleanExpr("and", (Comparison(">", x_salary(), Const(10)), Comparison("=", Path(Var("y"), "id"), Path(Var("x"), "id"))))
        assert expr.free_variables() == {"x", "y"}

    def test_attribute_paths(self):
        expr = Comparison("=", Path(Var("x"), "id"), Path(Var("y"), "dept"))
        assert expr.attribute_paths() == {("x", "id"), ("y", "dept")}

    def test_rename_attributes(self):
        expr = Comparison(">", Path(Var("x"), "s"), Const(10))
        renamed = expr.rename_attributes({"s": "salary"})
        assert renamed.to_oql() == "x.salary > 10"

    def test_to_oql_round_trip_text(self):
        expr = BooleanExpr("and", (Comparison(">", x_salary(), Const(10)), Comparison("=", Path(Var("x"), "name"), Const("Mary"))))
        assert expr.to_oql() == '(x.salary > 10 and x.name = "Mary")'

    def test_walk_expr_visits_every_node(self):
        expr = StructExpr((("a", Arithmetic("+", x_salary(), Const(1))),))
        kinds = [type(node).__name__ for node in walk_expr(expr)]
        assert "StructExpr" in kinds and "Arithmetic" in kinds and "Const" in kinds

    def test_contains_subquery_false_for_plain_expressions(self):
        assert not contains_subquery(x_salary())

    def test_equality_is_structural(self):
        assert Comparison(">", x_salary(), Const(10)) == Comparison(">", x_salary(), Const(10))
        assert Comparison(">", x_salary(), Const(10)) != Comparison(">", x_salary(), Const(11))


class TestConjunctions:
    def test_conjunction_of_none_and_single(self):
        assert conjunction([]) is None
        single = Comparison(">", x_salary(), Const(10))
        assert conjunction([single]) is single

    def test_split_conjuncts_flattens_nested_ands(self):
        a = Comparison(">", x_salary(), Const(10))
        b = Comparison("<", x_salary(), Const(100))
        c = Comparison("=", Path(Var("x"), "name"), Const("Mary"))
        combined = BooleanExpr("and", (a, BooleanExpr("and", (b, c))))
        assert split_conjuncts(combined) == [a, b, c]

    def test_split_conjuncts_of_none(self):
        assert split_conjuncts(None) == []

    @given(st.integers(min_value=-1000, max_value=1000), st.integers(min_value=-1000, max_value=1000))
    def test_comparison_matches_python_semantics(self, left, right):
        env = {}
        assert Comparison("<", Const(left), Const(right)).evaluate(env) == (left < right)
        assert Comparison(">=", Const(left), Const(right)).evaluate(env) == (left >= right)
        assert Comparison("=", Const(left), Const(right)).evaluate(env) == (left == right)

    @given(st.integers(min_value=-100, max_value=100), st.integers(min_value=1, max_value=100))
    def test_arithmetic_matches_python_semantics(self, a, b):
        assert Arithmetic("+", Const(a), Const(b)).evaluate({}) == a + b
        assert Arithmetic("-", Const(a), Const(b)).evaluate({}) == a - b
        assert Arithmetic("*", Const(a), Const(b)).evaluate({}) == a * b
        assert Arithmetic("/", Const(a), Const(b)).evaluate({}) == a / b


#: every value a delivered row can hold that OQL has a literal for (non-finite
#: floats have none).
LITERAL_VALUES = st.one_of(
    st.text(), st.integers(), st.floats(allow_nan=False, allow_infinity=False)
)


class TestLiteralRoundTrip:
    """What the writer emits, the reader accepts: a partial answer *is* a query."""

    @settings(derandomize=True)
    @given(LITERAL_VALUES)
    def test_const_text_parses_back_to_the_same_const(self, value):
        assert parse_query(Const(value).to_oql()).expression == Const(value)

    @settings(derandomize=True)
    @given(st.lists(st.tuples(LITERAL_VALUES, LITERAL_VALUES), max_size=4))
    def test_unparsed_bag_of_structs_parses_back_to_the_same_rows(self, pairs):
        literal = BagLiteral(tuple(Struct({"a": a, "b": b}) for a, b in pairs))
        parsed = parse_query(logical_to_oql(literal))
        assert parsed.items == tuple(
            StructExpr((("a", Const(a)), ("b", Const(b)))) for a, b in pairs
        )
