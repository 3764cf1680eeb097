"""Tests for the key-value, text-search and CSV data sources."""

import pytest

from repro.errors import QueryExecutionError, SchemaError
from repro.sources.csv_store import CsvStore
from repro.sources.keyvalue_store import KeyValueStore
from repro.sources.text_store import Document, TextStore, tokenize


class TestKeyValueStore:
    def store(self):
        store = KeyValueStore("kv")
        store.create_collection("person0")
        store.put_many(
            "person0",
            [(1, {"name": "Mary", "salary": 200}), (2, {"name": "Sam", "salary": 50})],
        )
        return store

    def test_put_get_scan(self):
        store = self.store()
        assert store.get("person0", 1)["name"] == "Mary"
        assert len(store.scan("person0")) == 2
        assert store.cardinality("person0") == 2

    def test_put_replaces_existing_key(self):
        store = self.store()
        store.put("person0", 1, {"name": "Maria", "salary": 210})
        assert store.get("person0", 1)["name"] == "Maria"
        assert store.cardinality("person0") == 2

    def test_duplicate_collection_raises(self):
        store = self.store()
        with pytest.raises(SchemaError):
            store.create_collection("person0")

    def test_unknown_collection_and_key_raise(self):
        store = self.store()
        with pytest.raises(QueryExecutionError):
            store.scan("nope")
        with pytest.raises(QueryExecutionError):
            store.get("person0", 99)

    def test_scan_rows_are_immutable_and_uncopied(self):
        store = self.store()
        record = store.get("person0", 1)
        with pytest.raises(TypeError):
            store.scan("person0")[0]["name"] = "Hacked"
        assert store.get("person0", 1) == {"name": "Mary", "salary": 200}
        assert store.scan("person0")[0] is record
        assert store.get("person0", 1) is record


class TestTextStore:
    def store(self):
        store = TextStore("wais")
        store.create_collection("reports")
        store.add_documents(
            "reports",
            [
                Document("d1", "water quality in the Seine is acceptable", {"site": "Seine"}),
                Document("d2", "nitrates rising in the Loire basin", {"site": "Loire"}),
                Document("d3", "Seine turbidity measurements", {"site": "Seine"}),
            ],
        )
        return store

    def test_tokenize_lowercases_and_splits(self):
        assert tokenize("Water-Quality 2024!") == ["water", "quality", "2024"]

    def test_scan_returns_all_documents_as_rows(self):
        rows = self.store().scan("reports")
        assert len(rows) == 3
        assert {"doc_id", "body", "site"} <= set(rows[0])

    def test_search_requires_all_keywords(self):
        store = self.store()
        assert {row["doc_id"] for row in store.search("reports", "seine")} == {"d1", "d3"}
        assert {row["doc_id"] for row in store.search("reports", "seine quality")} == {"d1"}
        assert store.search("reports", "absent") == []

    def test_search_with_empty_keywords_scans(self):
        assert len(self.store().search("reports", "")) == 3

    def test_search_matches_string_fields_too(self):
        assert {row["doc_id"] for row in self.store().search("reports", "loire")} == {"d2"}

    def test_unknown_collection_raises(self):
        with pytest.raises(QueryExecutionError):
            self.store().scan("nope")

    def test_rows_are_stored_once_immutable_and_handed_out_uncopied(self):
        store = self.store()
        row = store.scan("reports")[0]
        assert store.scan("reports")[0] is row
        with pytest.raises(TypeError):
            row["site"] = "Rhine"
        assert row == {"doc_id": "d1", "body": "water quality in the Seine is acceptable", "site": "Seine"}
        assert store.search("reports", "quality")[0] is row
        assert {id(found) for found in store.search("reports", "seine")} <= {id(r) for r in store.scan("reports")}


class TestCsvStore:
    def test_write_and_scan_round_trip(self, tmp_path):
        store = CsvStore(tmp_path)
        store.write_collection("person0", [{"name": "Mary", "salary": 200, "active": True}])
        rows = store.scan("person0")
        assert rows == [{"name": "Mary", "salary": 200, "active": True}]

    def test_scan_with_projection(self, tmp_path):
        store = CsvStore(tmp_path)
        store.write_collection("person0", [{"name": "Mary", "salary": 200}])
        assert store.scan("person0", columns=["name"]) == [{"name": "Mary"}]

    def test_projection_unknown_column_raises(self, tmp_path):
        store = CsvStore(tmp_path)
        store.write_collection("person0", [{"name": "Mary"}])
        with pytest.raises(QueryExecutionError):
            store.scan("person0", columns=["age"])

    def test_overwrite_flag(self, tmp_path):
        store = CsvStore(tmp_path)
        store.write_collection("person0", [{"name": "Mary"}])
        with pytest.raises(SchemaError):
            store.write_collection("person0", [{"name": "Sam"}])
        store.write_collection("person0", [{"name": "Sam"}], overwrite=True)
        assert store.scan("person0") == [{"name": "Sam"}]

    def test_unknown_collection_raises(self, tmp_path):
        with pytest.raises(QueryExecutionError):
            CsvStore(tmp_path).scan("nope")

    def test_empty_collection(self, tmp_path):
        store = CsvStore(tmp_path)
        store.write_collection("empty", [])
        assert store.scan("empty") == []
        assert store.cardinality("empty") == 0

    def test_collection_names(self, tmp_path):
        store = CsvStore(tmp_path)
        store.write_collection("b", [{"x": 1}])
        store.write_collection("a", [{"x": 1}])
        assert store.collection_names() == ["a", "b"]

    def test_numeric_coercion(self, tmp_path):
        store = CsvStore(tmp_path)
        store.write_collection("m", [{"value": 3.5, "day": 12, "site": "Seine"}])
        row = store.scan("m")[0]
        assert isinstance(row["value"], float)
        assert isinstance(row["day"], int)
        assert isinstance(row["site"], str)
