"""Tests for the registry, catalog, session, baselines and mediator composition."""

import pytest

from repro import Bag, Catalog, Mediator, MediatorWrapper, RelationalWrapper, Session
from repro.baselines import (
    BlockingSemantics,
    GetOnlyWrapper,
    UnifiedSchemaIntegrator,
    complete_answer_probability,
)
from repro.errors import NameResolutionError, SchemaError, UnavailableSourceError
from repro.sources.workload import WorkloadConfig, build_person_sources
from tests.conftest import build_paper_mediator, build_person_engine, build_person_federation


class TestRegistry:
    def test_schema_version_bumps_on_extent_changes(self, paper_mediator):
        registry = paper_mediator.registry
        version = registry.schema_version
        registry.add_extent("extra", "Person", "w0", "r0", source_collection="person0")
        assert registry.schema_version == version + 1
        registry.drop_extent("extra")
        assert registry.schema_version == version + 2

    def test_resolve_collection_kinds(self, paper_mediator):
        registry = paper_mediator.registry
        assert registry.resolve_collection("person0").kind == "extents"
        assert registry.resolve_collection("person").kind == "extents"
        assert registry.resolve_collection("metaextent").kind == "metaextent"
        paper_mediator.define_view("v", "select x from x in person")
        assert registry.resolve_collection("v").kind == "view"
        with pytest.raises(NameResolutionError):
            registry.resolve_collection("nothing")

    def test_interface_name_is_an_alias_for_its_extent(self, paper_mediator):
        resolved = paper_mediator.registry.resolve_collection("Person")
        assert {meta.name for meta in resolved.extents} == {"person0", "person1"}

    def test_metaextent_rows_expose_wrapper_and_repository(self, paper_mediator):
        rows = paper_mediator.registry.metaextent_rows()
        by_name = {row["name"]: row for row in rows}
        assert by_name["person0"]["repository"] == "r0"
        assert by_name["person1"]["wrapper"] == "w1"

    def test_plan_cache_is_invalidated_by_schema_change(self, paper_mediator):
        query = "select x.name from x in person"
        assert not paper_mediator.query(query).from_plan_cache
        assert paper_mediator.query(query).from_plan_cache
        stats = paper_mediator.statistics()
        assert stats["plan_cache_hits"] >= 1
        _, server = build_person_engine(2, [{"id": 5, "name": "Olga", "salary": 20}])
        paper_mediator.register_wrapper("w2", RelationalWrapper("w2", server))
        paper_mediator.create_repository("r2")
        paper_mediator.add_extent("person2", "Person", "w2", "r2")
        result = paper_mediator.query(query)
        assert not result.from_plan_cache
        assert result.data == Bag(["Mary", "Sam", "Olga"])

    def test_duplicate_definitions_are_rejected(self, paper_mediator):
        with pytest.raises(SchemaError):
            paper_mediator.create_repository("r0")
        with pytest.raises(SchemaError):
            paper_mediator.add_extent("person0", "Person", "w0", "r0")


class TestCatalog:
    def test_registering_components_and_overview(self, paper_mediator):
        catalog = Catalog()
        catalog.register_mediator(paper_mediator)
        catalog.register_wrapper("w0", paper_mediator.registry.wrapper_object("w0"))
        catalog.register_repository(paper_mediator.registry.repository("r0"))
        overview = catalog.overview()
        assert overview["mediators"] == ["paper"]
        assert overview["wrappers"] == ["w0"]
        assert overview["repositories"] == ["r0"]

    def test_find_and_interface_lookup(self, paper_mediator):
        catalog = Catalog()
        catalog.register_mediator(paper_mediator)
        assert catalog.find("mediator", "paper") is not None
        assert catalog.find("mediator", "ghost") is None
        assert catalog.mediators_serving_interface("Person") == ["paper"]
        assert catalog.mediators_serving_interface("Sensor") == []


class TestSession:
    def test_session_records_history(self, paper_mediator):
        session = Session(paper_mediator)
        session.query("select x.name from x in person")
        assert session.last() is not None
        assert len(session.history) == 1
        assert session.partial_answers() == []

    def test_query_with_retry_recovers_after_source_returns(self):
        mediator, servers = build_paper_mediator()
        session = Session(mediator)
        servers[0].availability.fail_next(1)
        result = session.query_with_retry(
            "select x.name from x in person where x.salary > 10", retries=2
        )
        assert not result.is_partial
        assert result.data == Bag(["Mary", "Sam"])
        assert len(session.partial_answers()) == 1


class TestBaselines:
    def test_complete_answer_probability_decays_with_sources(self):
        assert complete_answer_probability(0.95, 1) == pytest.approx(0.95)
        assert complete_answer_probability(0.95, 32) < 0.25
        assert complete_answer_probability(1.0, 100) == 1.0
        with pytest.raises(ValueError):
            complete_answer_probability(1.5, 2)

    def test_blocking_semantics_raises_when_a_source_is_down(self):
        mediator, servers = build_paper_mediator()
        blocking = BlockingSemantics(mediator)
        servers[0].take_down()
        with pytest.raises(UnavailableSourceError):
            blocking.query("select x.name from x in person")
        assert blocking.answered("select x.name from x in person") is False
        servers[0].bring_up()
        assert blocking.answered("select x.name from x in person") is True

    def test_blocking_semantics_can_return_empty_results_instead(self):
        mediator, servers = build_paper_mediator()
        blocking = BlockingSemantics(mediator, raise_on_unavailable=False)
        servers[1].take_down()
        result = blocking.query("select x.name from x in person")
        assert result.is_partial and result.data is None

    def test_unified_schema_integration_cost_grows_with_sources(self):
        integrator = UnifiedSchemaIntegrator()
        costs = [
            integrator.integrate_source(f"s{i}", "Person", ("name", "salary")).statements_touched
            for i in range(10)
        ]
        assert costs[-1] > costs[0]
        assert integrator.total_statements() == sum(costs)
        assert len(integrator.cumulative_statements()) == 10
        assert integrator.classes()[0].member_sources == [f"s{i}" for i in range(10)]

    def test_the_kth_source_costs_disco_a_constant_and_a_unified_schema_more(self):
        """Sections 1.2 and 2: one more source of a known type is one wrapper,
        one repository and one extent, whatever is already integrated, and the
        query that was running keeps answering -- now with the new rows too."""
        mediator, _ = build_person_federation(1, rows_per_source=5)
        unified = UnifiedSchemaIntegrator()
        disco_costs, unified_costs = [], []
        servers = build_person_sources(WorkloadConfig(sources=12, rows_per_source=5))
        for index, server in enumerate(servers[1:], start=1):
            before = mediator.registry.statement_count()
            mediator.register_wrapper(f"w{index}", RelationalWrapper(f"w{index}", server))
            mediator.create_repository(f"r{index}", host=server.name)
            mediator.add_extent(f"person{index}", "Person", f"w{index}", f"r{index}")
            disco_costs.append(mediator.registry.statement_count() - before)
            report = unified.integrate_source(f"s{index}", "Person", ("id", "name", "salary"))
            unified_costs.append(report.statements_touched)
            result = mediator.query("select x.name from x in person")
            assert len(result.rows()) == 5 * (index + 1)
            assert result.sources_contacted() == index + 1
        assert len(set(disco_costs)) == 1
        # The first source founds the global class; every later one costs more
        # than the one before it.
        assert all(a < b for a, b in zip(unified_costs[1:], unified_costs[2:]))
        assert unified_costs[-1] > unified_costs[0] and unified_costs[-1] > disco_costs[-1]
        mediator.close()

    def test_every_attempt_is_answered_when_calls_fail_one_time_in_ten(self):
        """Section 1: with many sources some are always missing; DISCO still
        returns an answer every time, the complete one or a partial one."""
        healthy, _ = build_person_federation(8, rows_per_source=20)
        flaky, _ = build_person_federation(8, rows_per_source=20, failure_probability=0.1)
        query = "select x.name from x in person where x.salary > 250"
        complete = healthy.query(query).data
        results = [flaky.query(query) for _ in range(20)]
        for result in results:
            if result.is_partial:
                assert result.unavailable_sources and result.partial_query
            else:
                assert result.data == complete
        # The per-source failure draws are seeded: both outcomes occur.
        assert 0 < sum(result.is_partial for result in results) < 20
        healthy.close()
        flaky.close()

    def test_unified_schema_counts_conflicts(self):
        integrator = UnifiedSchemaIntegrator()
        report = integrator.integrate_source(
            "s0", "Person", ("name", "salary"), conflicting_attributes=3
        )
        assert report.conflicts_resolved == 3


class TestDistributedMediators:
    @staticmethod
    def parent_over(child):
        """A parent whose one extent mirrors the child's *implicit* extent
        ``person``, which unions the child's own data sources."""
        parent = Mediator(name="parent")
        parent.register_wrapper("child", MediatorWrapper("child", child))
        parent.create_repository("child_repo")
        parent.define_interface(
            "Person", [("id", "Long"), ("name", "String"), ("salary", "Short")],
            extent_name="person",
        )
        parent.add_extent("child_people", "Person", "child", "child_repo",
                          source_collection="person")
        return parent

    def test_mediator_wrapper_composes_mediators(self, paper_mediator):
        """Figure 1: a parent mediator federates a child mediator as one source."""
        parent = self.parent_over(paper_mediator)
        result = parent.query("select x.name from x in person where x.salary > 10")
        assert result.data == Bag(["Mary", "Sam"])

    def test_child_mediator_unavailability_yields_partial_answer(self, paper_mediator):
        parent = self.parent_over(paper_mediator)
        wrapper = parent.registry.wrapper_object("child")
        wrapper.set_available(False)
        result = parent.query("select x.name from x in person")
        assert result.is_partial
        wrapper.set_available(True)
        recovered = parent.resubmit(result)
        assert recovered.data == Bag(["Mary", "Sam"])

    @pytest.mark.parametrize("entry", ["query", "query_stream"])
    def test_partial_child_answer_is_an_unavailable_child_not_an_empty_one(self, entry):
        """A child with one source down answers partially; the parent must not
        read that empty bag as the child's complete answer."""
        child, servers = build_paper_mediator()
        parent = self.parent_over(child)
        servers[1].take_down()
        result = getattr(parent, entry)("select x.name from x in person")
        assert result.rows() == []  # no rows invented, none half-reported
        assert result.is_partial
        assert result.unavailable_sources == ("child_people",)
        assert "person1" in result.errors()["child_people"]
        servers[1].bring_up()
        if entry == "query":  # a stream builds no resubmittable partial query
            assert parent.resubmit(result).data == Bag(["Mary", "Sam"])
