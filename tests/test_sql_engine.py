"""Tests for the miniature SQL dialect: lexer, parser and engine."""

import pytest

from repro.errors import ParseError, QueryExecutionError
from repro.lexing import SQL, tokenize
from repro.sources.sql import SqlEngine, SqlParser


def sample_engine() -> SqlEngine:
    storage = SqlEngine("storage")
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
    return storage


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
    """A statement reads into the algebra: one node per clause, in SQL's order."""

    def reads(self, sql: str) -> str:
        return SqlParser(sql).parse().to_text()

    def test_parse_star_select(self):
        assert self.reads("SELECT * FROM person0") == "get(person0)"

    def test_parse_projection_and_where(self):
        assert self.reads("SELECT name, salary FROM person0 WHERE salary > 10") == (
            "project(name,salary, select(r: r.salary > 10, get(person0)))"
        )

    def test_parse_join(self):
        assert self.reads("SELECT name FROM person0 JOIN dept ON person0.id = id") == (
            "project(name, join(get(person0), get(dept), id=id))"
        )

    def test_parse_boolean_combination(self):
        assert self.reads(
            "SELECT * FROM person0 WHERE salary > 10 AND NOT (name = 'Sam' OR name <> 'Ana')"
        ) == (
            'select(r: (r.salary > 10 and not ((r.name = "Sam" or r.name != "Ana"))), get(person0))'
        )

    def test_parse_aliases_derived_tables_grouping_and_limit(self):
        assert self.reads("SELECT * FROM (SELECT id, nm AS cat FROM t_cat) LIMIT 3") == (
            "limit(3, rename(id,nm as cat, get(t_cat)))"
        )
        assert self.reads(
            "SELECT salary AS s, COUNT(*) AS n, AVG(id) FROM person0 GROUP BY salary"
        ) == "groupby(r: [s: r.salary] [n: count(r),avg: avg(r.id)], get(person0))"
        # The SELECT list narrows (and orders) the group outputs with a project.
        assert self.reads("SELECT MAX(id) AS m FROM person0 WHERE id IN (1, 2) GROUP BY name") == (
            "project(m, groupby(r: [name: r.name] [m: max(r.id)], "
            "select(r: r.id in (1, 2), get(person0))))"
        )

    def test_trailing_input_raises(self):
        with pytest.raises(ParseError):
            SqlParser("SELECT * FROM t garbage").parse()

    def test_malformed_number_is_a_positioned_parse_error(self):
        with pytest.raises(ParseError) as excinfo:
            SqlParser("SELECT * FROM t WHERE a > 1.2.3").parse()
        assert (excinfo.value.line, excinfo.value.column) == (1, 30)
        for limit in ("1.5", "-1", "1e3"):
            with pytest.raises(ParseError, match="LIMIT takes a non-negative integer"):
                SqlParser(f"SELECT * FROM t LIMIT {limit}").parse()


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

    def test_a_null_join_key_matches_nothing(self):
        """``JOIN ... ON a = b`` is an equality: NULL = NULL is not true."""
        engine = sample_engine()
        engine.table("person0").insert({"id": None, "name": "Nil", "salary": 1})
        engine.table("dept").insert({"id": None, "dept": "none"})
        rows = engine.execute("SELECT name, dept FROM person0 JOIN dept ON id = id")
        assert {(row["name"], row["dept"]) for row in rows} == {("Mary", "db"), ("Sam", "os")}

    @pytest.mark.parametrize(
        "value, member", [(1, True), (1.0, True), (True, True), ("1", True), (None, False), (2, False)]
    )
    def test_mixed_type_in_list(self, value, member):
        """Hashing the items must answer what ``=`` answers: 1 = 1.0 = TRUE, '1' <> 1."""
        engine = SqlEngine("storage")
        engine.create_table("t", rows=[{"v": value}])
        rows = engine.execute("SELECT * FROM t WHERE v IN (1, 1.0, TRUE, '1', NULL)")
        assert rows == ([{"v": value}] if member else [])
        assert engine.execute("SELECT * FROM t WHERE v IN ('1')") == (
            [{"v": value}] if value == "1" else []
        )

    def test_comparison_with_unknown_column_raises(self):
        with pytest.raises(QueryExecutionError):
            sample_engine().execute("SELECT name FROM person0 WHERE age > 10")

    def test_projecting_a_column_the_table_lacks_answers_nil(self):
        """As at every other source: a missing attribute reads as nil."""
        assert sample_engine().execute("SELECT name, age FROM person0 WHERE id = 1") == [
            {"name": "Mary", "age": None}
        ]

    def test_an_in_list_takes_at_least_one_literal(self):
        for sql in ("SELECT * FROM t WHERE a IN ()", "SELECT * FROM t WHERE a IN (b)"):
            with pytest.raises(ParseError):
                SqlParser(sql).parse()

    def test_comparisons_with_incompatible_types_are_false(self):
        rows = sample_engine().execute("SELECT name FROM person0 WHERE name > 10")
        assert rows == []

    def test_cardinality_and_table_names(self):
        engine = sample_engine()
        assert engine.cardinality("person0") == 3
        assert set(engine.table_names()) == {"person0", "dept"}
