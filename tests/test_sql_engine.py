"""Tests for the miniature SQL dialect: lexer, parser and engine."""

import pytest

from repro.errors import ParseError, QueryExecutionError
from repro.lexing import SQL, tokenize
from repro.sources.relational_engine import RelationalEngine
from repro.sources.sql import SqlEngine, SqlParser
from repro.sources.sql.parser import ColumnRef, Comparison, Literal


def sample_engine() -> SqlEngine:
    storage = RelationalEngine("storage")
    storage.create_table(
        "person0",
        rows=[
            {"id": 1, "name": "Mary", "salary": 200},
            {"id": 2, "name": "Sam", "salary": 50},
            {"id": 3, "name": "Ana", "salary": 10},
        ],
    )
    storage.create_table(
        "dept",
        rows=[{"id": 1, "dept": "db"}, {"id": 2, "dept": "os"}],
    )
    return SqlEngine(storage)


class TestSqlLexer:
    def test_tokenizes_keywords_operators_and_literals(self):
        tokens = tokenize(SQL, "SELECT name FROM t WHERE salary >= 10")
        kinds = [token.kind for token in tokens]
        assert kinds == ["KEYWORD", "IDENT", "KEYWORD", "IDENT", "KEYWORD", "IDENT", "OP", "NUMBER", "EOF"]

    def test_string_literal_with_escaped_quote(self):
        tokens = tokenize(SQL, "SELECT * FROM t WHERE name = 'O''Brien'")
        strings = [token.text for token in tokens if token.kind == "STRING"]
        assert strings == ["O'Brien"]

    def test_unterminated_string_raises(self):
        with pytest.raises(ParseError):
            tokenize(SQL, "SELECT * FROM t WHERE name = 'oops")

    def test_unexpected_character_raises(self):
        with pytest.raises(ParseError):
            tokenize(SQL, "SELECT # FROM t")

    def test_error_position_is_a_real_line_and_column(self):
        with pytest.raises(ParseError) as excinfo:
            tokenize(SQL, "SELECT name FROM t\nWHERE salary >= #")
        assert (excinfo.value.line, excinfo.value.column) == (2, 17)
        assert "line 2, column 17" in str(excinfo.value)


class TestSqlParser:
    def test_parse_star_select(self):
        statement = SqlParser("SELECT * FROM person0").parse()
        assert statement.columns is None
        assert statement.table == "person0"
        assert statement.where is None

    def test_parse_projection_and_where(self):
        statement = SqlParser("SELECT name, salary FROM person0 WHERE salary > 10").parse()
        assert [c.name for c in statement.columns] == ["name", "salary"]
        assert isinstance(statement.where, Comparison)
        assert statement.where.op == ">"

    def test_parse_join(self):
        statement = SqlParser("SELECT name FROM person0 JOIN dept ON id = id").parse()
        assert len(statement.joins) == 1
        assert statement.joins[0].table == "dept"

    def test_parse_boolean_combination(self):
        statement = SqlParser(
            "SELECT * FROM person0 WHERE salary > 10 AND NOT (name = 'Sam' OR name = 'Ana')"
        ).parse()
        assert statement.where is not None

    def test_trailing_input_raises(self):
        with pytest.raises(ParseError):
            SqlParser("SELECT * FROM t garbage").parse()

    def test_numeric_literals_read_back_what_repr_writes(self):
        for value in (-3, 1e-07, 1.5e20, -2.5e-09, 1.0):
            statement = SqlParser(f"SELECT * FROM t WHERE a > {Literal(value).render()}").parse()
            assert statement.where.right == Literal(value)
            assert type(statement.where.right.value) is type(value)

    def test_malformed_number_is_a_positioned_parse_error(self):
        with pytest.raises(ParseError) as excinfo:
            SqlParser("SELECT * FROM t WHERE a > 1.2.3").parse()
        assert (excinfo.value.line, excinfo.value.column) == (1, 30)
        for limit in ("1.5", "-1", "1e3"):
            with pytest.raises(ParseError, match="LIMIT takes a non-negative integer"):
                SqlParser(f"SELECT * FROM t LIMIT {limit}").parse()

    def test_literal_rendering_round_trip(self):
        assert Literal("O'Brien").render() == "'O''Brien'"
        assert Literal(None).render() == "NULL"
        assert Literal(True).render() == "TRUE"
        assert ColumnRef("name", table="t").render() == "t.name"


class TestSqlEngine:
    def test_select_star(self):
        assert len(sample_engine().execute("SELECT * FROM person0")) == 3

    def test_projection(self):
        rows = sample_engine().execute("SELECT name FROM person0")
        assert all(set(row) == {"name"} for row in rows)

    def test_where_filters(self):
        rows = sample_engine().execute("SELECT name FROM person0 WHERE salary > 10")
        assert {row["name"] for row in rows} == {"Mary", "Sam"}

    def test_string_equality(self):
        rows = sample_engine().execute("SELECT id FROM person0 WHERE name = 'Mary'")
        assert rows == [{"id": 1}]

    def test_and_or_not(self):
        rows = sample_engine().execute(
            "SELECT name FROM person0 WHERE salary > 5 AND (name = 'Sam' OR name = 'Ana')"
        )
        assert {row["name"] for row in rows} == {"Sam", "Ana"}
        rows = sample_engine().execute("SELECT name FROM person0 WHERE NOT salary > 10")
        assert {row["name"] for row in rows} == {"Ana"}

    def test_join(self):
        rows = sample_engine().execute(
            "SELECT name, dept FROM person0 JOIN dept ON id = id WHERE salary > 10"
        )
        assert {(row["name"], row["dept"]) for row in rows} == {("Mary", "db"), ("Sam", "os")}

    def test_comparison_with_unknown_column_raises(self):
        with pytest.raises(QueryExecutionError):
            sample_engine().execute("SELECT name FROM person0 WHERE age > 10")

    def test_comparisons_with_incompatible_types_are_false(self):
        rows = sample_engine().execute("SELECT name FROM person0 WHERE name > 10")
        assert rows == []

    def test_cardinality_and_table_names(self):
        engine = sample_engine()
        assert engine.cardinality("person0") == 3
        assert set(engine.table_names()) == {"person0", "dept"}
