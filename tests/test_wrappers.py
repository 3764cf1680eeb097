"""Tests for every wrapper: capability grammars, execution, translation."""

import pytest

from repro.algebra.capabilities import CapabilitySet
from repro.algebra.expressions import Arithmetic, BooleanExpr, Comparison, Const, InList, Path, Var
from repro.algebra.logical import Get, GroupBy, Join, Limit, Project, Select, Union
from repro.baselines.no_pushdown import GetOnlyWrapper
from repro.errors import CapabilityError, UnavailableSourceError, WrapperError
from repro.sources.csv_store import CsvStore
from repro.sources.keyvalue_store import KeyValueStore
from repro.sources.relational_engine import RelationalEngine
from repro.sources.server import SimulatedServer
from repro.sources.sql import SqlEngine, SqlParser
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

    def test_literals_read_back_as_the_constants_written(self):
        """Every constant the wrapper writes, the SQL parser reads back as an
        equal constant of the same type."""
        wrapper = SqlWrapper("pg", self.sql_server())
        for value in ("O'Brien", 1e-07, 1.5e20, -3, -2.5e-09, 1.0, True, None):
            predicate = Comparison(">", Path(Var("x"), "salary"), Const(value))
            sql = wrapper.to_sql(Select("x", predicate, Get("person0")))
            read = SqlParser(sql).parse()
            assert isinstance(read, Select) and read.predicate.right == Const(value), sql
            assert type(read.predicate.right.value) is type(value)

    @staticmethod
    def sql_mediator(rows):
        """A mediator over one ``SqlWrapper`` extent ``m0`` holding ``rows``."""
        from repro import Mediator

        engine = SqlEngine(name="pg")
        engine.create_table("m0", rows=rows)
        mediator = Mediator(name="sqlm")
        mediator.register_wrapper("w0", SqlWrapper("w0", SimulatedServer("pg-host", engine)))
        mediator.define_interface("M", [("id", "Long"), ("v", "Float")], extent_name="m")
        mediator.create_repository("r0", host="pg-host")
        mediator.add_extent("m0", "M", "w0", "r0")
        return mediator

    def test_exponent_floats_are_pushed_not_degraded(self):
        """The wrapper writes small and large floats the way ``repr`` does
        (``1e-07``, ``1.5e+20``); the engine's reader accepts exactly that, so
        the pushed select runs at the source instead of degrading to a scan."""
        rows = [{"id": 1, "v": 0.0}, {"id": 2, "v": 0.5}, {"id": 3, "v": 3e20}]
        with self.sql_mediator(rows) as mediator:
            for bound, expected in (("0.0000001", [2, 3]), ("150000000000000000000.0", [3])):
                result = mediator.query(f"select x.id from x in m0 where x.v > {bound}")
                assert sorted(result.rows()) == expected
                assert [report.degraded_to for report in result.reports] == [None]
                assert result.reports[0].rows == len(expected)  # filtered at the source

    def test_infinite_bounds_are_pushed_and_read_back(self):
        """``1e999`` is infinity: the wrapper writes it back that way, not as
        ``inf`` (a column name to SQL) or ``-inf`` (not a number at all)."""
        rows = [{"id": 1, "v": 0.5}, {"id": 2, "v": 7.0}, {"id": 3, "v": None}]
        with self.sql_mediator(rows) as mediator:
            for query in (
                "select x.id from x in m0 where x.v < 1e999",
                "select x.id from x in m0 where x.v > -1e999",
            ):
                result = mediator.query(query)
                assert not result.is_partial, result.errors()
                assert sorted(result.rows()) == [1, 2]
                assert [report.degraded_to for report in result.reports] == [None]
                assert result.reports[0].rows == 2  # filtered at the source

    @pytest.mark.parametrize("predicate", ["x.v + 1 > 2", "x.v > 1 + 1"])
    def test_a_predicate_sql_cannot_write_stays_at_the_mediator(self, predicate):
        """The planner asks the renderer before it pushes a select: a computed
        operand has no SQL spelling, so the select runs at the mediator over
        the shipped rows and the answer is complete -- not a partial answer
        that fails the same way on every resubmission.  (No nil ``v`` here:
        ``nil + 1`` is an error wherever it is evaluated.)"""
        rows = [{"id": 1, "v": 0.5}, {"id": 2, "v": 7.0}, {"id": 3, "v": -4.0}]
        with self.sql_mediator(rows) as mediator:
            query = f"select x.id from x in m0 where {predicate}"
            result = mediator.query(query)
            assert not result.is_partial, result.errors()
            assert result.rows() == [2]
            streamed = mediator.query_stream(query)
            assert list(streamed.iter_rows()) == [2]
            assert not streamed.is_partial, streamed.errors()

    @pytest.mark.parametrize(
        "query, expected",
        [
            ("select struct(s: x.v + 1, n: count(x)) from x in m0 group by s: x.v + 1",
             [{"s": 1.5, "n": 1}, {"s": 8.0, "n": 2}]),
            ("select struct(s: x.v, n: sum(x.id * 2)) from x in m0 group by s: x.v",
             [{"s": 0.5, "n": 2}, {"s": 7.0, "n": 10}]),
            ("select sum(x.id + 1) from x in m0", [9]),
        ],
    )
    def test_a_grouping_sql_cannot_write_stays_at_the_mediator(self, query, expected):
        """A computed grouping key or aggregate argument has no SQL spelling
        either: the source ships its rows and the mediator groups them."""
        rows = [{"id": 1, "v": 0.5}, {"id": 2, "v": 7.0}, {"id": 3, "v": 7.0}]
        with self.sql_mediator(rows) as mediator:
            result = mediator.query(query)
            assert not result.is_partial, result.errors()
            assert sorted(result.rows(), key=repr) == expected
            assert [report.expression for report in result.reports] == ["get(m0)"]

    def test_a_projection_above_a_limited_grouping_renders(self):
        """``project(limit(groupby))``, the order a re-plan may push, is the
        same statement as ``limit(project(groupby))``."""
        wrapper = SqlWrapper("pg", self.sql_server())
        grouped = GroupBy(
            "x", (("s", Path(Var("x"), "salary")),), (("n", "count", Var("x")),), Get("person0")
        )
        for expression in (
            Project(("n",), Limit(2, grouped)),
            Limit(2, Project(("n",), grouped)),
        ):
            sql = wrapper.to_sql(expression)
            assert sql == "SELECT COUNT(*) AS n FROM person0 GROUP BY salary LIMIT 2"
            assert wrapper.submit(expression) == [{"n": 1}, {"n": 1}]

    def test_capabilities_accept_only_what_the_renderer_writes(self):
        capabilities = SqlWrapper("pg", self.sql_server()).submit_functionality()
        v = Path(Var("x"), "v")
        assert capabilities.accepts(Select("x", salary_filter(), Get("person0")))
        for refused in (
            Comparison(">", Arithmetic("+", v, Const(1)), Const(2)),
            InList(v, (Const(1), Path(Var("x"), "id"))),  # IN takes literals only
            Comparison("=", v, Const((1, 2))),
        ):
            assert not capabilities.accepts(Select("x", refused, Get("person0"))), refused
        # SQL filters before it limits: a selection above a limit has no statement.
        assert not capabilities.accepts(Select("x", salary_filter(), Limit(2, Get("person0"))))
        # A capability set handed in keeps its operators and gains the same check.
        narrowed = SqlWrapper("pg", self.sql_server(), CapabilitySet.of("select"))
        assert narrowed.submit_functionality().operators == frozenset({"select"})
        assert not narrowed.submit_functionality().accepts(
            Select("x", Comparison(">", Arithmetic("+", v, Const(1)), Const(2)), Get("person0"))
        )


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
