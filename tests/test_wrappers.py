"""Tests for every wrapper: capability grammars, execution, translation."""

import pytest

from repro.algebra.capabilities import CapabilitySet
from repro.algebra.expressions import BooleanExpr, Comparison, Const, InList, Path, Var
from repro.algebra.logical import Get, Join, Project, Select, Union
from repro.baselines.no_pushdown import GetOnlyWrapper
from repro.errors import CapabilityError, UnavailableSourceError, WrapperError
from repro.sources.csv_store import CsvStore
from repro.sources.keyvalue_store import KeyValueStore
from repro.sources.relational_engine import RelationalEngine
from repro.sources.server import SimulatedServer
from repro.sources.sql.engine import SqlEngine
from repro.sources.text_store import Document, TextStore
from repro.wrappers import (
    CsvWrapper,
    KeyValueWrapper,
    RelationalWrapper,
    SqlWrapper,
    TextSearchWrapper,
)
from tests.conftest import CountedKey

PERSON_ROWS = [
    {"id": 1, "name": "Mary", "salary": 200},
    {"id": 2, "name": "Sam", "salary": 50},
    {"id": 3, "name": "Ana", "salary": 5},
]


def salary_filter(threshold=10):
    return Comparison(">", Path(Var("x"), "salary"), Const(threshold))


def relational_server() -> SimulatedServer:
    engine = RelationalEngine("db")
    engine.create_table("person0", rows=PERSON_ROWS)
    engine.create_table("manager0", rows=[{"id": 1, "dept": "db"}, {"id": 2, "dept": "os"}])
    return SimulatedServer("host", engine)


class TestRelationalWrapper:
    def test_get_returns_all_rows(self):
        wrapper = RelationalWrapper("w0", relational_server())
        assert len(wrapper.submit(Get("person0"))) == 3

    def test_pushed_select_and_project(self):
        wrapper = RelationalWrapper("w0", relational_server())
        rows = wrapper.submit(Project(("name",), Select("x", salary_filter(), Get("person0"))))
        assert sorted(row["name"] for row in rows) == ["Mary", "Sam"]
        assert all(set(row) == {"name"} for row in rows)

    def test_pushed_join(self):
        wrapper = RelationalWrapper("w0", relational_server())
        rows = wrapper.submit(Join(Get("person0"), Get("manager0"), "id"))
        assert {row["dept"] for row in rows} == {"db", "os"}

    def test_pushed_join_never_matches_a_nil_key(self):
        """The source joins as the mediator does: a pushed join and a
        mediator-side one must not disagree on nil-keyed rows."""
        server = relational_server()
        server.store.table("person0").insert({"id": None, "name": "Nil", "salary": 1})
        server.store.table("manager0").insert({"id": None, "dept": "none"})
        rows = RelationalWrapper("w0", server).submit(Join(Get("person0"), Get("manager0"), "id"))
        assert {(row["name"], row["dept"]) for row in rows} == {("Mary", "db"), ("Sam", "os")}

    def test_pushed_in_list_is_probed_by_hash_not_compared_item_by_item(self):
        """A 256-key probe batch over 500 rows: about one ``==`` per row, not a hundred."""
        engine = RelationalEngine("db")
        engine.create_table("t", rows=[{"k": CountedKey(i)} for i in range(500)])
        wrapper = RelationalWrapper("w0", SimulatedServer("host", engine))
        items = tuple(Const(CountedKey(2 * i)) for i in range(256))
        probe = Select("x", InList(Path(Var("x"), "k"), items), Get("t"))
        CountedKey.comparisons = 0
        assert len(wrapper.submit(probe)) == 250
        # one self-comparison per item while the set is built, then one per matching row
        assert CountedKey.comparisons <= len(items) + 500

    def test_pushed_union(self):
        wrapper = RelationalWrapper("w0", relational_server())
        rows = wrapper.submit(Union((Get("person0"), Get("person0"))))
        assert len(rows) == 6

    def test_capability_restriction_is_enforced(self):
        wrapper = RelationalWrapper(
            "w0", relational_server(), capabilities=CapabilitySet.of("get", "project")
        )
        with pytest.raises(CapabilityError):
            wrapper.submit(Select("x", salary_filter(), Get("person0")))

    def test_unavailable_server_propagates(self):
        server = relational_server()
        server.take_down()
        wrapper = RelationalWrapper("w0", server)
        with pytest.raises(UnavailableSourceError):
            wrapper.submit(Get("person0"))

    def test_metadata_helpers(self):
        wrapper = RelationalWrapper("w0", relational_server())
        assert set(wrapper.source_collections()) == {"person0", "manager0"}
        assert wrapper.source_attributes("person0") == ["id", "name", "salary"]
        assert wrapper.cardinality("person0") == 3
        assert wrapper.cardinality("missing") is None
        assert wrapper.describe()["operators"] == sorted(CapabilitySet.full().operators)

    def test_one_submit_is_one_server_round_trip(self):
        server = relational_server()
        wrapper = RelationalWrapper("w0", server)
        wrapper.submit(Project(("name",), Select("x", salary_filter(), Get("person0"))))
        assert server.statistics.requests == 1


class TestSqlWrapper:
    def sql_server(self) -> SimulatedServer:
        engine = SqlEngine(name="pg")
        engine.create_table("person0", rows=PERSON_ROWS)
        engine.create_table("dept0", rows=[{"id": 1, "dept": "db"}])
        return SimulatedServer("pg-host", engine)

    def test_translates_get_to_select_star(self):
        wrapper = SqlWrapper("pg", self.sql_server())
        assert wrapper.to_sql(Get("person0")) == "SELECT * FROM person0"

    def test_translates_project_select(self):
        wrapper = SqlWrapper("pg", self.sql_server())
        sql = wrapper.to_sql(Project(("name",), Select("x", salary_filter(), Get("person0"))))
        assert sql == "SELECT name FROM person0 WHERE salary > 10"

    def test_translates_boolean_predicates(self):
        wrapper = SqlWrapper("pg", self.sql_server())
        predicate = BooleanExpr(
            "and",
            (salary_filter(), Comparison("!=", Path(Var("x"), "name"), Const("Sam"))),
        )
        sql = wrapper.to_sql(Select("x", predicate, Get("person0")))
        assert "WHERE (salary > 10 AND name <> 'Sam')" in sql

    def test_translates_join(self):
        wrapper = SqlWrapper("pg", self.sql_server())
        sql = wrapper.to_sql(Join(Get("person0"), Get("dept0"), "id"))
        assert sql == "SELECT * FROM person0 JOIN dept0 ON id = id"

    def test_executes_through_sql_engine(self):
        wrapper = SqlWrapper("pg", self.sql_server())
        rows = wrapper.submit(Project(("name",), Select("x", salary_filter(), Get("person0"))))
        assert sorted(row["name"] for row in rows) == ["Mary", "Sam"]

    def test_untranslatable_predicate_raises_wrapper_error(self):
        wrapper = SqlWrapper("pg", self.sql_server())
        predicate = Comparison(">", Path(Var("x"), "salary"), Path(Var("x"), "id"))
        sql_expr = Select("x", predicate, Get("person0"))
        # column-to-column comparison translates fine; a computed operand does not
        from repro.algebra.expressions import Arithmetic

        bad = Select("x", Comparison(">", Arithmetic("+", Path(Var("x"), "salary"), Const(1)), Const(10)), Get("person0"))
        assert wrapper.to_sql(sql_expr)
        with pytest.raises(WrapperError):
            wrapper.to_sql(bad)

    def test_string_literals_are_escaped(self):
        wrapper = SqlWrapper("pg", self.sql_server())
        sql = wrapper.to_sql(
            Select("x", Comparison("=", Path(Var("x"), "name"), Const("O'Brien")), Get("person0"))
        )
        assert "'O''Brien'" in sql


    def test_exponent_floats_are_pushed_not_degraded(self):
        """The wrapper writes small and large floats the way ``repr`` does
        (``1e-07``, ``1.5e+20``); the engine's reader accepts exactly that, so
        the pushed select runs at the source instead of degrading to a scan."""
        from repro import Mediator

        rows = [{"id": 1, "v": 0.0}, {"id": 2, "v": 0.5}, {"id": 3, "v": 3e20}]
        engine = SqlEngine(name="pg")
        engine.create_table("m0", rows=rows)
        with Mediator(name="floats") as mediator:
            mediator.register_wrapper("w0", SqlWrapper("w0", SimulatedServer("pg-host", engine)))
            mediator.define_interface("M", [("id", "Long"), ("v", "Float")], extent_name="m")
            mediator.create_repository("r0", host="pg-host")
            mediator.add_extent("m0", "M", "w0", "r0")
            for bound, expected in (("0.0000001", [2, 3]), ("150000000000000000000.0", [3])):
                result = mediator.query(f"select x.id from x in m0 where x.v > {bound}")
                assert sorted(result.rows()) == expected
                assert [report.degraded_to for report in result.reports] == [None]
                assert result.reports[0].rows == len(expected)  # filtered at the source


class TestKeyValueWrapper:
    def kv_server(self) -> SimulatedServer:
        store = KeyValueStore("kv")
        store.create_collection("person0")
        store.put_many("person0", [(row["id"], row) for row in PERSON_ROWS])
        return SimulatedServer("kv-host", store)

    def test_get_scans_collection(self):
        wrapper = KeyValueWrapper("kv", self.kv_server())
        assert len(wrapper.submit(Get("person0"))) == 3

    def test_everything_else_is_rejected_by_grammar(self):
        wrapper = KeyValueWrapper("kv", self.kv_server())
        with pytest.raises(CapabilityError):
            wrapper.submit(Project(("name",), Get("person0")))

    def test_metadata(self):
        wrapper = KeyValueWrapper("kv", self.kv_server())
        assert wrapper.source_collections() == ["person0"]
        assert set(wrapper.source_attributes("person0")) == {"id", "name", "salary"}
        assert wrapper.cardinality("person0") == 3


class TestTextSearchWrapper:
    def text_server(self) -> SimulatedServer:
        store = TextStore("wais")
        store.create_collection("reports")
        store.add_documents(
            "reports",
            [
                Document("d1", "ph measurements", {"site": "Seine", "value": 7.1}),
                Document("d2", "nitrates", {"site": "Loire", "value": 3.0}),
            ],
        )
        return SimulatedServer("wais-host", store)

    def test_get_scans_documents(self):
        wrapper = TextSearchWrapper("wais", self.text_server())
        assert len(wrapper.submit(Get("reports"))) == 2

    def test_equality_select_is_mapped_to_keyword_search(self):
        wrapper = TextSearchWrapper("wais", self.text_server())
        rows = wrapper.submit(
            Select("x", Comparison("=", Path(Var("x"), "site"), Const("Seine")), Get("reports"))
        )
        assert [row["doc_id"] for row in rows] == ["d1"]

    def test_non_keyword_predicate_falls_back_to_scan_and_filter(self):
        wrapper = TextSearchWrapper("wais", self.text_server())
        rows = wrapper.submit(
            Select("x", Comparison(">", Path(Var("x"), "value"), Const(5)), Get("reports"))
        )
        assert [row["doc_id"] for row in rows] == ["d1"]

    def test_composition_is_rejected_by_grammar(self):
        wrapper = TextSearchWrapper("wais", self.text_server())
        nested = Select(
            "x",
            Comparison("=", Path(Var("x"), "site"), Const("Seine")),
            Select("x", Comparison("=", Path(Var("x"), "site"), Const("Seine")), Get("reports")),
        )
        with pytest.raises(CapabilityError):
            wrapper.submit(nested)


class TestCsvWrapper:
    def csv_server(self, tmp_path) -> SimulatedServer:
        store = CsvStore(tmp_path)
        store.write_collection("person0", PERSON_ROWS)
        return SimulatedServer("csv-host", store)

    def test_get_and_project(self, tmp_path):
        wrapper = CsvWrapper("csv", self.csv_server(tmp_path))
        assert len(wrapper.submit(Get("person0"))) == 3
        rows = wrapper.submit(Project(("name",), Get("person0")))
        assert all(set(row) == {"name"} for row in rows)

    def test_select_is_rejected(self, tmp_path):
        wrapper = CsvWrapper("csv", self.csv_server(tmp_path))
        with pytest.raises(CapabilityError):
            wrapper.submit(Select("x", salary_filter(), Get("person0")))

    def test_metadata(self, tmp_path):
        wrapper = CsvWrapper("csv", self.csv_server(tmp_path))
        assert wrapper.source_collections() == ["person0"]
        assert wrapper.cardinality("person0") == 3


class TestGetOnlyWrapper:
    def test_wraps_and_restricts_an_inner_wrapper(self):
        inner = RelationalWrapper("w0", relational_server())
        wrapper = GetOnlyWrapper(inner)
        assert len(wrapper.submit(Get("person0"))) == 3
        with pytest.raises(CapabilityError):
            wrapper.submit(Project(("name",), Get("person0")))
        assert wrapper.source_collections() == inner.source_collections()
        assert wrapper.cardinality("person0") == 3
