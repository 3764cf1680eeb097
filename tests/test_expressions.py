"""Tests for the scalar expression language."""

import math
from collections.abc import Mapping

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
    InList,
    Path,
    StructExpr,
    Subquery,
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


#: every scalar a delivered row can hold (an infinity is written as an
#: overflowing exponent, ``nan``, which has no literal, as infinity minus itself).
LITERAL_VALUES = st.one_of(
    st.text(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
)


def read_back(value):
    """What the text written for ``value`` parses to: its ``Const``, or the
    value it computes (``nan``), which equals nothing and is compared as nan."""
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return Const(value)


def as_read(expression):
    """:func:`read_back`'s counterpart for a parsed expression."""
    if isinstance(expression, Arithmetic):
        value = expression.compile()({})
        assert math.isnan(value)
        return "nan"
    return expression


class TestLiteralRoundTrip:
    """What the writer emits, the reader accepts: a partial answer *is* a query."""

    @settings(derandomize=True)
    @given(LITERAL_VALUES)
    def test_const_text_parses_back_to_the_same_const(self, value):
        assert as_read(parse_query(Const(value).to_oql()).expression) == read_back(value)

    @settings(derandomize=True)
    @given(st.lists(st.tuples(LITERAL_VALUES, LITERAL_VALUES), max_size=4))
    def test_unparsed_bag_of_structs_parses_back_to_the_same_rows(self, pairs):
        literal = BagLiteral(tuple(Struct({"a": a, "b": b}) for a, b in pairs))
        parsed = parse_query(logical_to_oql(literal))
        assert [
            tuple((name, as_read(field)) for name, field in item.fields) for item in parsed.items
        ] == [(("a", read_back(a)), ("b", read_back(b))) for a, b in pairs]


# -- the compiled evaluator against the interpreter it replaced -----------------------------------
def reference_evaluate(expr, env, evaluator=None):
    """The per-class ``evaluate`` bodies ``compile`` replaced, kept as the reference.

    A tree walk per call, operator looked up per call, ``in`` compared item by
    item: slow and obviously right.  ``Expr.compile`` must agree with it on
    every value and on every ``QueryExecutionError`` message.
    """
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        if expr.name not in env:
            raise QueryExecutionError(f"unbound variable {expr.name!r}")
        return env[expr.name]
    if isinstance(expr, Path):
        value = reference_evaluate(expr.base, env, evaluator)
        if isinstance(value, (Struct, Mapping)):
            try:
                return value[expr.attribute]
            except KeyError:
                raise QueryExecutionError(
                    f"object {value!r} has no attribute {expr.attribute!r}"
                ) from None
        if hasattr(value, expr.attribute):
            return getattr(value, expr.attribute)
        raise QueryExecutionError(f"cannot access {expr.attribute!r} on {value!r}")
    if isinstance(expr, Comparison):
        if expr.op not in REFERENCE_COMPARISONS:
            raise QueryExecutionError(f"unknown comparison operator {expr.op!r}")
        left = reference_evaluate(expr.left, env, evaluator)
        right = reference_evaluate(expr.right, env, evaluator)
        if left is None or right is None:
            return False
        try:
            return REFERENCE_COMPARISONS[expr.op](left, right)
        except TypeError:
            return False
    if isinstance(expr, InList):
        value = reference_evaluate(expr.operand, env, evaluator)
        if value is None:
            return False
        for item in expr.items:
            candidate = reference_evaluate(item, env, evaluator)
            if candidate is None:
                continue
            try:
                if value == candidate:
                    return True
            except TypeError:
                continue
        return False
    if isinstance(expr, BooleanExpr):
        operands = (reference_evaluate(o, env, evaluator) for o in expr.operands)
        if expr.op == "and":
            return all(operands)
        if expr.op == "or":
            return any(operands)
        if expr.op == "not":
            return not next(operands)
        raise QueryExecutionError(f"unknown boolean operator {expr.op!r}")
    if isinstance(expr, Arithmetic):
        if expr.op not in REFERENCE_ARITHMETIC:
            raise QueryExecutionError(f"unknown arithmetic operator {expr.op!r}")
        left = reference_evaluate(expr.left, env, evaluator)
        right = reference_evaluate(expr.right, env, evaluator)
        try:
            return REFERENCE_ARITHMETIC[expr.op](left, right)
        except (TypeError, ZeroDivisionError) as exc:
            raise QueryExecutionError(f"cannot compute {expr.to_oql()}: {exc}") from exc
    if isinstance(expr, StructExpr):
        return Struct(
            {name: reference_evaluate(field, env, evaluator) for name, field in expr.fields}
        )
    if isinstance(expr, BagExpr):
        result = Bag()
        for item in expr.items:
            value = reference_evaluate(item, env, evaluator)
            if isinstance(value, Bag):
                result.extend(value)
            else:
                result.add(value)
        return result
    if isinstance(expr, FunctionCall):
        values = [reference_evaluate(arg, env, evaluator) for arg in expr.args]
        return _reference_call(expr.name, values)
    if isinstance(expr, Subquery):
        if evaluator is None:
            raise QueryExecutionError("no evaluator available for nested subquery")
        return evaluator(expr.query, env)
    raise AssertionError(f"no reference for {type(expr).__name__}")


REFERENCE_COMPARISONS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}
REFERENCE_ARITHMETIC = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


def _reference_call(function, values):
    name = function.lower()
    if name in ("sum", "count", "min", "max", "avg"):
        if len(values) != 1:
            raise QueryExecutionError(f"aggregate {name!r} takes exactly one argument")
        collection = values[0]
        items = list(collection) if isinstance(collection, (Bag, list, tuple)) else [collection]
        if name == "count":
            return len(items)
        if not items:
            return 0 if name == "sum" else None
        if name == "sum":
            return sum(items)
        if name == "min":
            return min(items)
        if name == "max":
            return max(items)
        return sum(items) / len(items)
    if name == "flatten":
        collection = values[0]
        return collection.flatten() if isinstance(collection, Bag) else Bag(collection).flatten()
    if name == "abs":
        return abs(values[0])
    if name == "ratio":
        if len(values) != 2:
            raise QueryExecutionError("ratio takes exactly two arguments")
        numerator, denominator = values
        if numerator is None or denominator is None or denominator == 0:
            return None
        return numerator / denominator
    if name == "union":
        result = Bag()
        for value in values:
            result.extend(value if isinstance(value, (Bag, list, tuple)) else [value])
        return result
    raise QueryExecutionError(f"unknown function {function!r}")


def canon(value):
    """A comparable form in which a NaN equals itself and 1, 1.0 and true differ."""
    if isinstance(value, (Struct, dict)):
        return (type(value).__name__, tuple((k, canon(v)) for k, v in value.items()))
    if isinstance(value, Bag):
        return ("Bag", tuple(sorted((canon(v) for v in value), key=repr)))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, tuple(canon(v) for v in value))
    return (type(value).__name__, repr(value))


def outcome(thunk):
    """What a call did: its canonical value, or the exception's type and message."""
    try:
        return ("value", canon(thunk()))
    except Exception as exc:  # the two evaluators must also fail alike
        return ("raised", type(exc).__name__, str(exc))


def echo_subquery(query, env):
    """A stand-in for the run-time system: the answer names the query and what it saw."""
    return (query, tuple(sorted(env)))


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=3),
    st.floats(allow_nan=True, allow_infinity=True, width=16),
    st.sampled_from(["", "1", "a", "Mary"]),
)
FIELD_NAMES = st.sampled_from(["v", "w", "k"])
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(FIELD_NAMES, inner, max_size=3),
        st.dictionaries(FIELD_NAMES, inner, max_size=3).map(Struct),
        st.lists(inner, max_size=3).map(Bag),
    ),
    max_leaves=6,
)
#: The failing choices (``z`` is never bound, no row has ``missing``, the last
#: operator of each list does not exist) are kept rare so that most trees
#: evaluate to a value; ``real`` is an attribute of the numbers (the getattr arm).
VARIABLES = st.sampled_from(["x"] * 5 + ["y"] * 4 + ["z"])
ATTRIBUTES = st.sampled_from(["v", "w", "k"] * 4 + ["missing", "real"])
ROWS = st.fixed_dictionaries({"v": VALUES, "w": VALUES, "k": SCALARS})
ENVIRONMENTS = st.fixed_dictionaries({"x": st.one_of(ROWS, ROWS.map(Struct)), "y": VALUES})
COMPARISONS = st.sampled_from([*REFERENCE_COMPARISONS] * 3 + ["~"])
CONNECTIVES = st.sampled_from(["and", "or", "not"] * 5 + ["xor"])
ARITHMETICS = st.sampled_from([*REFERENCE_ARITHMETIC] * 4 + ["%"])


def _trees(inner):
    some = st.lists(inner, min_size=1, max_size=4).map(tuple)
    return st.one_of(
        st.builds(Path, inner, ATTRIBUTES),
        st.builds(Comparison, COMPARISONS, inner, inner),
        st.builds(InList, inner, some),
        st.builds(InList, inner, st.lists(VALUES.map(Const), max_size=5).map(tuple)),
        st.builds(BooleanExpr, CONNECTIVES, some),
        st.builds(Arithmetic, ARITHMETICS, inner, inner),
        st.builds(StructExpr, st.lists(st.tuples(FIELD_NAMES, inner), max_size=3).map(tuple)),
        st.builds(BagExpr, st.lists(inner, max_size=3).map(tuple)),
        st.builds(
            FunctionCall,
            st.sampled_from(["sum", "COUNT", "min", "max", "avg", "flatten", "abs", "ratio", "union", "nope"]),
            st.lists(inner, max_size=3).map(tuple),
        ),
    )


EXPRESSIONS = st.recursive(
    st.one_of(
        VALUES.map(Const),
        st.builds(Var, VARIABLES),
        st.builds(Path, st.builds(Var, VARIABLES), ATTRIBUTES),
        st.builds(Subquery, st.sampled_from(["q1", "q2"])),
    ),
    _trees,
    max_leaves=12,
)


class TestCompiledAgainstReference:
    """``compile()(env)`` is the old interpreter, minus the per-row tree walk."""

    @settings(derandomize=True, max_examples=600, deadline=None)
    @given(EXPRESSIONS, ENVIRONMENTS, st.sampled_from([True, True, True, False]))
    def test_every_tree_gives_the_reference_outcome(self, expr, env, with_evaluator):
        evaluator = echo_subquery if with_evaluator else None
        expected = outcome(lambda: reference_evaluate(expr, env, evaluator))
        run = outcome(lambda: expr.compile(evaluator))
        if run[0] == "value":  # compiling never fails where evaluating would not
            run = outcome(lambda: expr.compile(evaluator)(env))
        assert run == expected
        assert outcome(lambda: expr.evaluate(env, evaluator)) == expected

    def test_a_compiled_expression_is_reusable_across_rows(self):
        holds = InList(Path(Var("x"), "v"), (Const(1), Const("a"))).compile()
        rows = [{"v": 1}, {"v": 2}, {"v": "a"}, {"v": None}, {"v": [1]}]
        assert [holds({"x": row}) for row in rows] == [True, False, True, False, False]

    def test_nothing_is_kept_on_the_node(self):
        expr = InList(Path(Var("x"), "v"), (Const(1), Const(2)))
        before = dict(vars(expr))
        assert expr.compile()({"x": {"v": 2}}) is True
        assert vars(expr) == before == {"operand": expr.operand, "items": expr.items}

    MIXED = (Const(1), Const(1.0), Const(True), Const("1"), Const(None))

    @pytest.mark.parametrize(
        "value, member", [(1, True), (1.0, True), (True, True), ("1", True), (None, False), (2, False)]
    )
    def test_mixed_type_in_list(self, value, member):
        """``1 = 1.0 = true`` and ``"1" != 1``: hashing must not change what ``=`` says."""
        expr = InList(Path(Var("x"), "v"), self.MIXED)
        env = {"x": Struct({"v": value})}
        assert expr.evaluate(env) is member
        assert reference_evaluate(expr, env) is member
        assert InList(Path(Var("x"), "v"), (Const("1"),)).evaluate({"x": {"v": 1}}) is False

    def test_a_nan_key_matches_nothing(self):
        """A set finds a NaN by identity; ``=`` never does, so NaN items are left out."""
        nan = float("nan")
        expr = InList(Path(Var("x"), "v"), (Const(nan), Const(2)))
        assert expr.evaluate({"x": {"v": nan}}) is False
        assert expr.evaluate({"x": {"v": 2}}) is True
        assert reference_evaluate(expr, {"x": {"v": nan}}) is False

    def test_unhashable_items_and_operands_take_the_linear_path(self):
        listed = InList(Path(Var("x"), "v"), (Const([1, 2]), Const(3)))
        assert listed.evaluate({"x": {"v": [1, 2]}}) is True
        assert listed.evaluate({"x": {"v": 3}}) is True
        assert listed.evaluate({"x": {"v": [2]}}) is False
        # hashable items, unhashable operand value: a dict equals the struct item
        structs = InList(Path(Var("x"), "v"), (Const(Struct({"a": 1})), Const(3)))
        assert structs.evaluate({"x": {"v": {"a": 1}}}) is True
        assert structs.evaluate({"x": {"v": {"a": 2}}}) is False

    def test_constant_items_are_hashed_not_compiled_and_the_fallbacks_hold(self, monkeypatch):
        """An all-constant list compiles none of its items.  Its nil and NaN
        items match nothing, and an unhashable item (no member set) or
        operand value (a miss in it) is compared with the constants one by
        one; a list that reads the row compiles its items and does the same."""
        compiled = []
        compile_const = Const.compile
        monkeypatch.setattr(
            Const, "compile", lambda self, evaluator=None: compiled.append(self) or compile_const(self, evaluator)
        )
        nan = float("nan")
        hashed = InList(x_salary(), (Const(None), Const(nan), Const(Struct({"a": 1})), Const(3)))
        unhashable = InList(x_salary(), (Const(None), Const(nan), Const([1, 2]), Const(3)))
        row_read = InList(x_salary(), (Const(None), Path(Var("x"), "other"), Const([1, 2]), Const(3)))
        runs = [hashed.compile(), unhashable.compile()]
        assert compiled == []
        runs.append(row_read.compile())
        assert len(compiled) == 3
        # salary -> (in hashed, in unhashable, in row_read), where ``other`` is NaN
        absent = (False, False, False)
        cases = [(3, (True, True, True)), (None, absent), (nan, absent), ("3", absent)]
        cases += [({"a": 1}, (True, False, False)), ([1, 2], (False, True, True)), ([3], absent)]
        for salary, members in cases:
            env = {"x": {"salary": salary, "other": nan}}
            assert tuple(run(env) for run in runs) == members
            assert tuple(reference_evaluate(e, env) for e in (hashed, unhashable, row_read)) == members

    @pytest.mark.parametrize(
        "expr, message",
        [
            (Var("z"), "unbound variable 'z'"),
            (Path(Var("x"), "age"), "object struct(v: 1) has no attribute 'age'"),
            (Path(Const(3), "age"), "cannot access 'age' on 3"),
            (Comparison("~", Var("z"), Const(1)), "unknown comparison operator '~'"),
            (BooleanExpr("xor", (Var("z"),)), "unknown boolean operator 'xor'"),
            (Arithmetic("%", Var("z"), Const(1)), "unknown arithmetic operator '%'"),
            (Arithmetic("/", Const(1), Const(0)), "cannot compute 1 / 0: division by zero"),
            (Subquery("q"), "no evaluator available for nested subquery"),
            (FunctionCall("nope", ()), "unknown function 'nope'"),
        ],
    )
    def test_error_messages_are_the_parents(self, expr, message):
        env = {"x": Struct({"v": 1})}
        with pytest.raises(QueryExecutionError) as compiled:
            expr.evaluate(env)
        with pytest.raises(QueryExecutionError) as reference:
            reference_evaluate(expr, env)
        assert str(compiled.value) == str(reference.value) == message

    def test_an_unknown_operator_fails_per_row_not_at_compile(self):
        """An operator over no rows never evaluated its predicate; it still does not."""
        holds = BooleanExpr("and", (Const(False), Comparison("~", Const(1), Const(1)))).compile()
        assert holds({}) is False
