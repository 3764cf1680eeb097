"""Tests for the miniature SQL dialect: lexer, parser and engine."""

import pytest

from repro.errors import ParseError, QueryExecutionError
from repro.lexing import SQL, tokenize
from repro.sources.relational_engine import RelationalEngine
from repro.sources.sql import SqlEngine, SqlParser
from repro.sources.sql.parser import ColumnRef, Comparison, InPredicate, Literal, SelectStatement
from tests.conftest import CountedKey


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

    def test_a_null_join_key_matches_nothing(self):
        """``JOIN ... ON a = b`` is an equality: NULL = NULL is not true."""
        engine = sample_engine()
        engine.engine.table("person0").insert({"id": None, "name": "Nil", "salary": 1})
        engine.engine.table("dept").insert({"id": None, "dept": "none"})
        rows = engine.execute("SELECT name, dept FROM person0 JOIN dept ON id = id")
        assert {(row["name"], row["dept"]) for row in rows} == {("Mary", "db"), ("Sam", "os")}

    @pytest.mark.parametrize(
        "value, member", [(1, True), (1.0, True), (True, True), ("1", True), (None, False), (2, False)]
    )
    def test_mixed_type_in_list(self, value, member):
        """Hashing the items must answer what ``=`` answers: 1 = 1.0 = TRUE, '1' <> 1."""
        storage = RelationalEngine("storage")
        storage.create_table("t", rows=[{"v": value}])
        rows = SqlEngine(storage).execute("SELECT * FROM t WHERE v IN (1, 1.0, TRUE, '1', NULL)")
        assert rows == ([{"v": value}] if member else [])
        assert SqlEngine(storage).execute("SELECT * FROM t WHERE v IN ('1')") == (
            [{"v": value}] if value == "1" else []
        )

    def test_in_list_nan_and_unhashable_values_compare_one_by_one(self):
        nan = float("nan")
        storage = RelationalEngine("storage")
        storage.create_table("t", rows=[{"v": nan}, {"v": [1, 2]}, {"v": 3}])

        def matching(*items):
            where = InPredicate(ColumnRef("v"), tuple(Literal(item) for item in items))
            return SqlEngine(storage).execute_statement(SelectStatement(None, "t", where=where))

        assert matching(nan, 3) == [{"v": 3}]  # the same NaN object still equals nothing
        assert matching([1, 2], 3) == [{"v": [1, 2]}, {"v": 3}]  # an unhashable item
        assert matching(4, 3) == [{"v": 3}]  # an unhashable column value against a set

    def test_in_list_is_probed_by_hash_not_compared_item_by_item(self):
        """500 rows against 256 items: about one ``==`` per row, not a hundred."""
        storage = RelationalEngine("storage")
        storage.create_table("t", rows=[{"k": CountedKey(i)} for i in range(500)])
        items = tuple(Literal(CountedKey(2 * i)) for i in range(256))
        statement = SelectStatement(None, "t", where=InPredicate(ColumnRef("k"), items))
        CountedKey.comparisons = 0
        rows = SqlEngine(storage).execute_statement(statement)
        assert len(rows) == 250
        # one self-comparison per item while the set is built, then one per matching row
        assert CountedKey.comparisons <= len(items) + 500

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
