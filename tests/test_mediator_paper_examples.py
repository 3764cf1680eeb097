"""Integration tests: every worked example from the paper, end to end."""

import pytest

from repro import Bag, LocalTransformationMap, Mediator, RelationalWrapper, Struct
from repro.errors import NameResolutionError, TypeConflictError
from repro.sources import RelationalEngine, SimulatedServer, TableSchema
from tests.conftest import build_paper_mediator, build_person_engine, build_person_federation


class TestSection12DataModel:
    """Section 1.2: the mediator data model and the introductory query."""

    def test_query_over_implicit_extent_returns_mary_and_sam(self, paper_mediator):
        result = paper_mediator.query(
            "select x.name from x in person where x.salary > 10"
        )
        assert result.data == Bag(["Mary", "Sam"])

    def test_query_over_single_extent_returns_mary(self, paper_mediator):
        result = paper_mediator.query(
            "select x.name from x in person0 where x.salary > 10"
        )
        assert result.data == Bag(["Mary"])

    def test_explicit_union_of_extents(self, paper_mediator):
        result = paper_mediator.query(
            "select x.name from x in union(person0, person1) where x.salary > 10"
        )
        assert result.data == Bag(["Mary", "Sam"])

    def test_adding_a_source_changes_no_query(self, paper_mediator):
        """Section 1.2: 'The same query would then access three data sources.'"""
        _, server2 = build_person_engine(2, [{"id": 9, "name": "Olga", "salary": 80}])
        paper_mediator.register_wrapper("w2", RelationalWrapper("w2", server2))
        paper_mediator.create_repository("r2")
        paper_mediator.add_extent("person2", "Person", "w2", "r2")
        result = paper_mediator.query(
            "select x.name from x in person where x.salary > 10"
        )
        assert result.data == Bag(["Mary", "Sam", "Olga"])

    def test_metaextent_collection_lists_every_extent(self, paper_mediator):
        result = paper_mediator.query("select m.name from m in metaextent")
        assert result.data == Bag(["person0", "person1"])

    def test_metaextent_filtered_by_interface(self, paper_mediator):
        result = paper_mediator.query(
            'select m.name from m in metaextent where m.interface = "Person"'
        )
        assert result.data == Bag(["person0", "person1"])


class TestSection13PartialEvaluation:
    """Section 1.3 / Section 4: query processing with unavailable data."""

    def test_unavailable_source_yields_partial_answer(self, paper_mediator_with_servers):
        mediator, servers = paper_mediator_with_servers
        servers[0].take_down()
        result = mediator.query("select x.name from x in person where x.salary > 10")
        assert result.is_partial
        assert result.unavailable_sources == ("person0",)
        assert result.data == Bag()
        assert result.partial_query == (
            'union(select x0.name from x0 in person0 where x0.salary > 10, Bag("Sam"))'
        )

    def test_partial_answer_resubmitted_after_recovery_gives_full_answer(
        self, paper_mediator_with_servers
    ):
        mediator, servers = paper_mediator_with_servers
        servers[0].take_down()
        partial = mediator.query("select x.name from x in person where x.salary > 10")
        servers[0].bring_up()
        recovered = mediator.resubmit(partial)
        assert not recovered.is_partial
        assert recovered.data == Bag(["Mary", "Sam"])

    def test_partial_answer_text_can_be_issued_as_a_new_query(
        self, paper_mediator_with_servers
    ):
        """The answer is a query: submitting its text returns the original answer."""
        mediator, servers = paper_mediator_with_servers
        servers[0].take_down()
        partial = mediator.query("select x.name from x in person where x.salary > 10")
        servers[0].bring_up()
        assert mediator.query(partial.partial_query).data == Bag(["Mary", "Sam"])

    def test_partial_answer_text_survives_every_literal_a_row_can_hold(self):
        """Delivered rows are written as OQL literals; the reader must accept
        what the writer wrote -- negative numbers, exponents, infinities,
        quotes and backslashes included -- or the partial answer is not a
        query."""
        rows = [
            {"id": 1, "name": "Mary", "salary": -200},
            {"id": 2, "name": 'say "hi"', "salary": 1.5e20},
            {"id": 3, "name": "C:\\new", "salary": 1e-07},
            {"id": 4, "name": "trailing\\", "salary": 0},
            {"id": 6, "name": "unbounded", "salary": float("inf")},
            {"id": 7, "name": "bottomless", "salary": float("-inf")},
        ]
        engine0 = RelationalEngine(name="persondb0")
        engine0.create_table(
            "person0",
            schema=TableSchema.of(("id", int), ("name", str), ("salary", float)),
            rows=rows,
        )
        server0 = SimulatedServer(name="host0", store=engine0)
        _, server1 = build_person_engine(1, [{"id": 5, "name": "Sam", "salary": 50}])
        with Mediator(name="literals") as mediator:
            mediator.register_wrapper("w0", RelationalWrapper("w0", server0))
            mediator.register_wrapper("w1", RelationalWrapper("w1", server1))
            mediator.define_interface(
                "Person", [("id", "Long"), ("name", "String"), ("salary", "Float")],
                extent_name="person",
            )
            mediator.create_repository("r0", host="rodin")
            mediator.create_repository("r1", host="umiacs")
            mediator.add_extent("person0", "Person", "w0", "r0")
            mediator.add_extent("person1", "Person", "w1", "r1")
            query = "select struct(n: x.name, s: x.salary) from x in person"
            full = mediator.query(query).data
            assert len(full) == 7
            server1.take_down()
            partial = mediator.query(query)
            assert partial.is_partial
            server1.bring_up()
            assert mediator.query(partial.partial_query).data == full

    def test_partial_answer_text_holding_a_nan_runs_like_resubmit(self):
        """``nan`` has no OQL literal: written as a name, the partial answer's
        text failed with "unbound variable 'nan'" while ``resubmit`` worked."""
        engine0 = RelationalEngine(name="persondb0")
        engine0.create_table(
            "person0",
            schema=TableSchema.of(("id", int), ("name", str), ("salary", float)),
            rows=[{"id": 1, "name": "Mary", "salary": float("nan")}],
        )
        server0 = SimulatedServer(name="host0", store=engine0)
        _, server1 = build_person_engine(1, [{"id": 2, "name": "Sam", "salary": 50}])
        with Mediator(name="nan") as mediator:
            mediator.register_wrapper("w0", RelationalWrapper("w0", server0))
            mediator.register_wrapper("w1", RelationalWrapper("w1", server1))
            mediator.define_interface(
                "Person", [("id", "Long"), ("name", "String"), ("salary", "Float")],
                extent_name="person",
            )
            mediator.create_repository("r0", host="rodin")
            mediator.create_repository("r1", host="umiacs")
            mediator.add_extent("person0", "Person", "w0", "r0")
            mediator.add_extent("person1", "Person", "w1", "r1")
            server1.take_down()
            partial = mediator.query("select x.salary from x in person")
            assert partial.is_partial
            server1.bring_up()
            rerun = mediator.query(partial.partial_query).data
            resubmitted = mediator.resubmit(partial).data
            # nan equals nothing, itself included: compare the written values
            assert sorted(map(repr, rerun)) == sorted(map(repr, resubmitted)) == ["50", "nan"]

    def test_all_sources_down_returns_pure_query(self, paper_mediator_with_servers):
        mediator, servers = paper_mediator_with_servers
        for server in servers:
            server.take_down()
        result = mediator.query("select x.name from x in person where x.salary > 10")
        assert result.is_partial
        assert set(result.unavailable_sources) == {"person0", "person1"}
        assert "person0" in result.partial_query and "person1" in result.partial_query

    @pytest.mark.parametrize("down", [1, 2, 4])
    def test_some_of_many_sources_down_are_each_named_and_recovered(self, down):
        mediator, servers = build_person_federation(8, rows_per_source=40)
        query = "select x.name from x in person where x.salary > 250"
        complete = mediator.query(query).data
        for server in servers[:down]:
            server.take_down()
        partial = mediator.query(query)
        assert partial.is_partial and partial.sources_contacted() == 8
        assert sorted(partial.unavailable_sources) == [f"person{i}" for i in range(down)]
        for server in servers[:down]:
            server.bring_up()
        assert mediator.resubmit(partial).data == complete
        mediator.close()

    def test_resubmitting_a_complete_result_is_a_no_op(self, paper_mediator):
        result = paper_mediator.query("select x.name from x in person")
        assert paper_mediator.resubmit(result) is result


class TestSection22SubtypingAndMaps:
    """Section 2.2: subtyping, person*, and the PersonPrime map."""

    def mediator_with_students(self):
        mediator, servers = build_paper_mediator()
        engine = RelationalEngine("studentdb")
        engine.create_table(
            "student0",
            rows=[{"id": 7, "name": "Nina", "salary": 30, "university": "UMD"}],
        )
        server = SimulatedServer("student-host", engine)
        mediator.register_wrapper("w2", RelationalWrapper("w2", server))
        mediator.create_repository("r2")
        mediator.define_interface("Student", [("university", "String")], supertype="Person",
                                  extent_name="student")
        mediator.add_extent("student0", "Student", "w2", "r2")
        return mediator

    def test_person_extent_excludes_subtype_extents(self):
        mediator = self.mediator_with_students()
        result = mediator.query("select x.name from x in person")
        assert result.data == Bag(["Mary", "Sam"])

    def test_person_star_includes_subtype_extents(self):
        mediator = self.mediator_with_students()
        result = mediator.query("select x.name from x in person*")
        assert result.data == Bag(["Mary", "Sam", "Nina"])

    def test_personprime_without_map_is_a_type_conflict(self, paper_mediator):
        paper_mediator.define_interface(
            "PersonPrime", [("n", "String"), ("s", "Short")], extent_name="personprime"
        )
        paper_mediator.add_extent(
            "personprime0", "PersonPrime", "w0", "r0", source_collection="person0"
        )
        with pytest.raises(TypeConflictError):
            paper_mediator.query("select x.n from x in personprime0")

    def test_personprime_with_map_resolves_the_conflict(self, paper_mediator):
        """Section 2.2.2: map ((person0=personprime0),(name=n),(salary=s))."""
        paper_mediator.define_interface(
            "PersonPrime", [("n", "String"), ("s", "Short")], extent_name="personprime"
        )
        mapping = LocalTransformationMap.from_pairs(
            [("person0", "personprime0"), ("name", "n"), ("salary", "s")]
        )
        paper_mediator.add_extent("personprime0", "PersonPrime", "w0", "r0", map=mapping)
        result = paper_mediator.query("select x.n from x in personprime0 where x.s > 10")
        assert result.data == Bag(["Mary"])


class TestSection23Views:
    """Sections 2.2.3 and 2.3: views, reconciliation functions, dissimilar structures."""

    def test_double_view_sums_salaries_across_sources(self, paper_mediator):
        paper_mediator.define_view(
            "double",
            "select struct(name: x.name, salary: x.salary + y.salary) "
            "from x in person0 and y in person1 where x.id = y.id",
        )
        result = paper_mediator.query("double")
        assert result.data == Bag([Struct({"name": "Mary", "salary": 250})])

    def test_multiple_view_aggregates_over_person_star(self, paper_mediator):
        paper_mediator.define_view(
            "multiple",
            "select struct(name: x.name, salary: sum(select z.salary from z in person "
            "where x.id = z.id)) from x in person*",
        )
        result = paper_mediator.query("multiple")
        assert result.data == Bag(
            [
                Struct({"name": "Mary", "salary": 250}),
                Struct({"name": "Sam", "salary": 250}),
            ]
        )

    def test_personnew_view_reconciles_dissimilar_structures(self, paper_mediator):
        """Section 2.3: PersonTwo has regular and consult instead of salary."""
        engine = RelationalEngine("persontwodb")
        engine.create_table(
            "persontwo0",
            rows=[{"name": "Olga", "regular": 40, "consult": 15}],
        )
        server = SimulatedServer("persontwo-host", engine)
        paper_mediator.register_wrapper("w5", RelationalWrapper("w5", server))
        paper_mediator.create_repository("r5")
        paper_mediator.define_interface(
            "PersonTwo",
            [("name", "String"), ("regular", "Short"), ("consult", "Short")],
            extent_name="persontwo",
        )
        paper_mediator.add_extent("persontwo0", "PersonTwo", "w5", "r5")
        paper_mediator.define_view(
            "personnew",
            "bag(select struct(name: x.name, salary: x.salary) from x in person, "
            "select struct(name: x.name, salary: x.regular + x.consult) from x in persontwo0)",
        )
        result = paper_mediator.query("select p.name from p in flatten(personnew)")
        assert result.data == Bag(["Mary", "Sam", "Olga"])

    def test_view_over_view(self, paper_mediator):
        paper_mediator.define_view("rich", "select x from x in person where x.salary > 100")
        paper_mediator.define_view("rich_names", "select r.name from r in rich")
        assert paper_mediator.query("rich_names").data == Bag(["Mary"])

    def test_statement_updates_define_views(self, paper_mediator):
        paper_mediator.execute_statement(
            "define cheap as select x.name from x in person where x.salary < 100"
        )
        assert paper_mediator.query("cheap").data == Bag(["Sam"])


class TestScalarQueriesAndErrors:
    def test_aggregate_query_returns_scalar(self, paper_mediator):
        assert paper_mediator.query("sum(select z.salary from z in person)").data == 250
        assert paper_mediator.query("count(select z from z in person)").data == 2

    def test_unknown_collection_is_a_name_resolution_error(self, paper_mediator):
        with pytest.raises(NameResolutionError):
            paper_mediator.query("select x from x in nowhere")

    def test_explain_reports_plans_without_executing(self, paper_mediator_with_servers):
        mediator, servers = paper_mediator_with_servers
        planned = mediator.explain("select x.name from x in person where x.salary > 10")
        assert planned.optimized is not None
        assert "submit" in planned.optimized.logical.to_text()
        assert servers[0].statistics.requests == 0

    def test_statistics_report(self, paper_mediator):
        paper_mediator.query("select x.name from x in person")
        stats = paper_mediator.statistics()
        assert stats["exec_signatures"] >= 2
        assert stats["schema_version"] > 0
