"""Tests for the OQL lexer and parser, driven by the paper's own queries."""

import pytest

from repro.algebra.expressions import (
    Arithmetic,
    BooleanExpr,
    Comparison,
    Const,
    FunctionCall,
    Path,
    StructExpr,
    Subquery,
    Var,
)
from repro.errors import ParseError
from repro.lexing import OQL, tokenize
from repro.oql.ast import (
    BagLiteralQuery,
    CollectionRef,
    DefineStatement,
    ExprQuery,
    FlattenQuery,
    SelectQuery,
    UnionQuery,
)
from repro.oql.parser import parse_query, parse_statement
from repro.oql.printer import pretty, query_to_oql


class TestLexer:
    def test_keywords_are_case_insensitive(self):
        tokens = tokenize(OQL, "SELECT x FROM x IN person")
        assert [t.kind for t in tokens[:2]] == ["KEYWORD", "IDENT"]

    def test_bag_capitalised_is_the_bag_keyword(self):
        tokens = tokenize(OQL, 'Bag("Sam")')
        assert tokens[0].is_keyword("bag")

    def test_string_escapes(self):
        tokens = tokenize(OQL, '"a\\"b"')
        assert tokens[0].text == 'a"b'

    def test_comments_are_skipped(self):
        tokens = tokenize(OQL, "select x // comment\nfrom x in person")
        assert any(t.is_keyword("from") for t in tokens)

    def test_unterminated_string_raises(self):
        with pytest.raises(ParseError):
            tokenize(OQL, '"oops')

    def test_error_reports_position(self):
        with pytest.raises(ParseError) as excinfo:
            tokenize(OQL, "select @")
        assert excinfo.value.line == 1

    def test_error_position_is_computed_from_the_offset(self):
        with pytest.raises(ParseError) as excinfo:
            tokenize(OQL, "select x from\nx in person where @")
        assert (excinfo.value.line, excinfo.value.column) == (2, 19)

    def test_numbers_take_a_fraction_and_an_exponent_but_one_dot_only(self):
        texts = [t.text for t in tokenize(OQL, "1 1. 1.5 1e-07 1.5e+20 1.2.3")]
        assert texts == ["1", "1.", "1.5", "1e-07", "1.5e+20", "1.2", ".", "3", ""]


class TestParserPaperQueries:
    def test_introduction_query(self):
        query = parse_query(
            "select x.name from x in person where x.salary > 10"
        )
        assert isinstance(query, SelectQuery)
        assert query.bindings[0].variable == "x"
        assert isinstance(query.bindings[0].collection, CollectionRef)
        assert query.bindings[0].collection.name == "person"
        assert isinstance(query.item, Path)
        assert isinstance(query.where, Comparison)

    def test_partial_answer_query(self):
        query = parse_query(
            'union(select y.name from y in person0 where y.salary > 10, Bag("Sam"))'
        )
        assert isinstance(query, UnionQuery)
        assert isinstance(query.parts[0], SelectQuery)
        assert isinstance(query.parts[1], BagLiteralQuery)

    def test_explicit_union_in_from(self):
        query = parse_query(
            "select x.name from x in union(person0, person1) where x.salary > 10"
        )
        assert isinstance(query.bindings[0].collection, UnionQuery)

    def test_metaextent_definition_query(self):
        query = parse_query(
            "flatten(select x.e from x in metaextent where x.interface = Person)"
        )
        assert isinstance(query, FlattenQuery)
        assert isinstance(query.child, SelectQuery)

    def test_recursive_extent_star(self):
        query = parse_query("select x.name from x in person*")
        assert query.bindings[0].collection.recursive

    def test_double_view_query(self):
        query = parse_query(
            "select struct(name: x.name, salary: x.salary + y.salary) "
            "from x in person0 and y in person1 where x.id = y.id"
        )
        assert len(query.bindings) == 2
        assert query.bindings[1].variable == "y"
        assert isinstance(query.item, StructExpr)
        assert isinstance(query.item.fields[1][1], Arithmetic)

    def test_multiple_view_query_with_aggregate_subquery(self):
        query = parse_query(
            "select struct(name: x.name, salary: sum(select z.salary from z in person "
            "where x.id = z.id)) from x in person*"
        )
        aggregate = query.item.fields[1][1]
        assert isinstance(aggregate, FunctionCall)
        assert isinstance(aggregate.args[0], Subquery)

    def test_personnew_view_query(self):
        query = parse_query(
            "bag(select struct(name: x.name, salary: x.salary) from x in person, "
            "select struct(name: x.name, salary: x.regular + x.consult) from x in persontwo0)"
        )
        assert isinstance(query, BagLiteralQuery)
        assert all(isinstance(item, Subquery) for item in query.items)

    def test_define_statement(self):
        statement = parse_statement(
            "define double as select struct(name: x.name, salary: x.salary + y.salary) "
            "from x in person0 and y in person1 where x.id = y.id"
        )
        assert isinstance(statement, DefineStatement)
        assert statement.name == "double"
        assert isinstance(statement.query, SelectQuery)


class TestParserGeneral:
    def test_distinct(self):
        assert parse_query("select distinct x.name from x in person").distinct

    def test_where_with_and_or_not(self):
        query = parse_query(
            "select x from x in person where x.salary > 10 and not (x.name = \"Sam\" or x.salary < 5)"
        )
        assert isinstance(query.where, BooleanExpr)
        assert query.where.op == "and"

    def test_and_in_where_vs_and_between_bindings(self):
        query = parse_query(
            "select x.name from x in person0 and y in person1 where x.id = y.id and x.salary > 10"
        )
        assert len(query.bindings) == 2
        assert isinstance(query.where, BooleanExpr)

    def test_arithmetic_precedence(self):
        query = parse_query("select x.a + x.b * 2 from x in t")
        assert isinstance(query.item, Arithmetic)
        assert query.item.op == "+"
        assert isinstance(query.item.right, Arithmetic)

    def test_scalar_query(self):
        query = parse_query("sum(select z.salary from z in person)")
        assert isinstance(query, ExprQuery)

    def test_bare_collection_query(self):
        query = parse_query("person")
        assert isinstance(query, CollectionRef)

    def test_nested_select_in_parentheses(self):
        query = parse_query("select y.name from y in (select x from x in person)")
        assert isinstance(query.bindings[0].collection, SelectQuery)

    def test_trailing_semicolon_is_accepted(self):
        parse_query("select x from x in person;")

    def test_trailing_garbage_raises(self):
        with pytest.raises(ParseError):
            parse_query("select x from x in person garbage")

    def test_missing_from_raises(self):
        with pytest.raises(ParseError):
            parse_query("select x where x.salary > 10")

    def test_literals(self):
        query = parse_query('select struct(a: 1, b: 2.5, c: "s", d: true, e: nil) from x in t')
        values = [value.value for _, value in query.item.fields]
        assert values == [1, 2.5, "s", True, None]

    def test_signed_and_exponent_literals(self):
        query = parse_query("select struct(a: -200, b: 1e-07, c: -1.5e+20, d: 1.) from x in t")
        values = [value.value for _, value in query.item.fields]
        assert values == [-200, 1e-07, -1.5e20, 1.0]
        assert [type(value) for value in values] == [int, float, float, float]

    def test_unary_minus_on_a_non_literal_is_zero_minus_it(self):
        query = parse_query("select -x.salary from x in person where x.salary - -1 > 0")
        assert query.item == Arithmetic("-", Const(0), Path(Var("x"), "salary"))
        assert query.where.left == Arithmetic("-", Path(Var("x"), "salary"), Const(-1))

    def test_malformed_number_is_a_positioned_parse_error(self):
        with pytest.raises(ParseError) as excinfo:
            parse_query("select x from x in person where x.salary > 1.2.3")
        assert (excinfo.value.line, excinfo.value.column) == (1, 47)
        with pytest.raises(ParseError, match="limit takes a non-negative integer"):
            parse_query("select x from x in person limit 1e3")


class TestPrinter:
    def test_round_trip_through_text(self):
        text = "select x.name from x in person where x.salary > 10"
        query = parse_query(text)
        assert parse_query(query_to_oql(query)) == query

    def test_round_trip_multi_binding(self):
        text = (
            "select struct(name: x.name, salary: x.salary + y.salary) "
            "from x in person0, y in person1 where x.id = y.id"
        )
        query = parse_query(text)
        assert parse_query(query_to_oql(query)) == query

    def test_pretty_layout_has_clause_lines(self):
        query = parse_query("select x.name from x in person where x.salary > 10")
        lines = pretty(query).splitlines()
        assert lines[0].startswith("select")
        assert lines[1].startswith("from")
        assert lines[2].startswith("where")

    def test_pretty_union(self):
        query = parse_query("union(select x from x in a, select y from y in b)")
        assert pretty(query).startswith("union(")


class TestLimitClause:
    def test_limit_is_parsed_onto_the_select(self):
        query = parse_query("select x.name from x in person limit 10")
        assert isinstance(query, SelectQuery)
        assert query.limit == 10

    def test_no_limit_means_none(self):
        assert parse_query("select x from x in person").limit is None

    def test_limit_round_trips_through_text(self):
        text = "select x.name from x in person where x.salary > 10 limit 5"
        query = parse_query(text)
        assert query.to_oql() == text
        assert parse_query(query_to_oql(query)) == query

    def test_limit_zero_round_trips(self):
        query = parse_query("select x from x in person limit 0")
        assert query.limit == 0
        assert parse_query(query_to_oql(query)) == query

    def test_limit_with_distinct_and_where(self):
        query = parse_query(
            "select distinct x.name from x in person where x.salary > 10 limit 3"
        )
        assert query.distinct and query.limit == 3 and query.where is not None

    def test_limit_inside_subquery_collection(self):
        query = parse_query("select y from y in (select x from x in person limit 2)")
        inner = query.bindings[0].collection
        assert isinstance(inner, SelectQuery) and inner.limit == 2

    def test_limit_requires_an_integer(self):
        with pytest.raises(ParseError):
            parse_query("select x from x in person limit 1.5")
        with pytest.raises(ParseError):
            parse_query("select x from x in person limit -3")
        with pytest.raises(ParseError):
            parse_query("select x from x in person limit many")

    def test_pretty_prints_the_limit_line(self):
        query = parse_query("select x.name from x in person where x.salary > 10 limit 7")
        assert pretty(query).splitlines()[-1].strip() == "limit 7"
