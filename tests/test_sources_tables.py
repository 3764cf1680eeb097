"""Tests for the in-memory table and relational-engine substrates."""

import pytest

from repro.errors import QueryExecutionError, SchemaError
from repro.sources.relational_engine import RelationalEngine
from repro.sources.table import Column, Table, TableSchema


class TestTableSchema:
    def test_of_builds_typed_and_untyped_columns(self):
        schema = TableSchema.of("name", ("salary", int))
        assert schema.column_names() == ["name", "salary"]
        assert schema.columns[1].py_type is int

    def test_validate_row_rejects_missing_column(self):
        schema = TableSchema.of(("name", str), ("salary", int))
        with pytest.raises(SchemaError):
            schema.validate_row({"name": "Mary"})

    def test_validate_row_rejects_bad_type(self):
        schema = TableSchema.of(("salary", int))
        with pytest.raises(SchemaError):
            schema.validate_row({"salary": "lots"})

    def test_float_column_accepts_int(self):
        Column("value", float).check(3)

    def test_untyped_column_accepts_anything(self):
        Column("x").check(object())


class TestTable:
    def test_insert_and_iterate(self):
        table = Table("person", rows=[{"name": "Mary"}])
        table.insert({"name": "Sam"})
        assert len(table) == 2
        assert sorted(row["name"] for row in table) == ["Mary", "Sam"]

    def test_rows_are_immutable_and_uncopied(self):
        table = Table("person", rows=[{"name": "Mary"}])
        row = next(table.rows())
        with pytest.raises(TypeError):
            row["name"] = "Hacked"
        assert list(table.rows()) == [{"name": "Mary"}]
        assert next(table.rows()) is row

    def test_a_scan_reads_a_snapshot(self):
        table = Table("person", rows=[{"salary": 10}, {"salary": 100}])
        scan = table.rows()
        table.insert({"salary": 1000})
        table.delete_where(lambda row: row["salary"] == 10)
        assert list(scan) == [{"salary": 10}, {"salary": 100}]
        assert list(table.rows()) == [{"salary": 100}, {"salary": 1000}]

    def test_schema_is_enforced_on_insert(self):
        table = Table("person", schema=TableSchema.of(("salary", int)))
        with pytest.raises(SchemaError):
            table.insert({"salary": "x"})

    def test_delete_where(self):
        table = Table("person", rows=[{"salary": 10}, {"salary": 100}])
        removed = table.delete_where(lambda row: row["salary"] < 50)
        assert removed == 1
        assert len(table) == 1

    def test_column_values_and_cardinality(self):
        table = Table("person", rows=[{"salary": 10}, {"salary": 20}])
        assert table.column_values("salary") == [10, 20]
        assert table.cardinality() == 2

    def test_column_values_unknown_column_raises(self):
        table = Table("person", rows=[{"salary": 10}])
        with pytest.raises(QueryExecutionError):
            table.column_values("age")

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Table("")


class TestRelationalEngine:
    def engine(self):
        engine = RelationalEngine("db")
        engine.create_table(
            "employee",
            rows=[
                {"name": "Mary", "dept": "db", "salary": 200},
                {"name": "Sam", "dept": "os", "salary": 50},
                {"name": "Ana", "dept": "db", "salary": 120},
            ],
        )
        engine.create_table(
            "manager",
            rows=[{"name": "Pat", "dept": "db"}, {"name": "Lou", "dept": "ai"}],
        )
        return engine

    def test_create_and_scan(self):
        engine = self.engine()
        assert len(engine.scan("employee")) == 3
        assert engine.has_table("manager")
        assert set(engine.table_names()) == {"employee", "manager"}

    def test_duplicate_table_raises(self):
        engine = self.engine()
        with pytest.raises(SchemaError):
            engine.create_table("employee")

    def test_unknown_table_raises(self):
        with pytest.raises(QueryExecutionError):
            self.engine().scan("nope")

    def test_drop_table(self):
        engine = self.engine()
        engine.drop_table("manager")
        assert not engine.has_table("manager")
        with pytest.raises(SchemaError):
            engine.drop_table("manager")

    def test_statistics(self):
        stats = self.engine().statistics()
        assert stats == {"employee": 3, "manager": 2}
