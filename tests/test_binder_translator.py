"""Tests for name binding (extents, views, person*, metaextent) and translation."""

import pytest

from repro import Mediator, RelationalWrapper
from repro.algebra.logical import Apply, BagLiteral, Project, Select, Submit, Union, walk
from repro.errors import NameResolutionError, QueryExecutionError, ViewDefinitionError
from repro.oql.ast import BoundExtent, ExprQuery, MetaExtentCollection, SelectQuery, UnionQuery
from repro.oql.binder import Binder
from repro.oql.parser import parse_query
from repro.oql.translator import Translator
from tests.conftest import PERSON_ATTRIBUTES, build_paper_mediator, build_person_engine


@pytest.fixture
def registry():
    mediator, _ = build_paper_mediator()
    mediator.define_interface("Student", supertype="Person", extent_name="student")
    mediator.add_extent("student0", "Student", "w0", "r0", source_collection="person0")
    mediator.define_view("rich", "select x from x in person where x.salary > 100")
    return mediator.registry


@pytest.fixture
def binder(registry):
    return Binder(registry)


class TestBinder:
    def test_explicit_extent_binds_to_single_source(self, binder):
        bound = binder.bind(parse_query("select x.name from x in person0"))
        collection = bound.bindings[0].collection
        assert isinstance(collection, BoundExtent)
        assert collection.meta.name == "person0"

    def test_implicit_type_extent_binds_to_union_of_extents(self, binder):
        bound = binder.bind(parse_query("select x.name from x in person"))
        collection = bound.bindings[0].collection
        assert isinstance(collection, UnionQuery)
        names = {part.meta.name for part in collection.parts}
        assert names == {"person0", "person1"}

    def test_recursive_extent_includes_subtype_extents(self, binder):
        bound = binder.bind(parse_query("select x.name from x in person*"))
        collection = bound.bindings[0].collection
        names = {part.meta.name for part in collection.parts}
        assert names == {"person0", "person1", "student0"}

    def test_view_expands_to_its_query(self, binder):
        bound = binder.bind(parse_query("select y.name from y in rich"))
        collection = bound.bindings[0].collection
        assert isinstance(collection, SelectQuery)

    def test_metaextent_collection(self, binder):
        bound = binder.bind(parse_query("select m.name from m in metaextent"))
        assert isinstance(bound.bindings[0].collection, MetaExtentCollection)

    def test_unknown_collection_raises(self, binder):
        with pytest.raises(NameResolutionError):
            binder.bind(parse_query("select x from x in nowhere"))

    def test_cyclic_views_are_rejected(self, registry):
        registry.define_view_text("a_view", "select x from x in b_view")
        registry.define_view_text("b_view", "select x from x in a_view")
        binder = Binder(registry)
        with pytest.raises(ViewDefinitionError):
            binder.bind(parse_query("select x from x in a_view"))

    def test_view_referencing_view_is_allowed(self, registry):
        registry.define_view_text("richer", "select y from y in rich where y.salary > 150")
        binder = Binder(registry)
        bound = binder.bind(parse_query("select z.name from z in richer"))
        assert isinstance(bound.bindings[0].collection, SelectQuery)

    def test_subquery_expressions_are_bound(self, binder):
        bound = binder.bind(
            parse_query(
                "select struct(name: x.name, total: sum(select z.salary from z in person "
                "where x.id = z.id)) from x in person"
            )
        )
        subquery = bound.item.fields[1][1].args[0].query
        assert isinstance(subquery.bindings[0].collection, UnionQuery)

    def test_type_with_no_extents_binds_to_empty_bag(self, registry):
        registry.define_interface = None  # not used; keep registry intact
        mediator, _ = build_paper_mediator()
        mediator.define_interface("Sensor", [("id", "Long")], extent_name="sensor")
        binder = Binder(mediator.registry)
        bound = binder.bind(parse_query("select s from s in sensor"))
        from repro.oql.ast import BagLiteralQuery

        assert isinstance(bound.bindings[0].collection, BagLiteralQuery)


class TestTranslator:
    def translate(self, registry, text):
        binder = Binder(registry)
        translator = Translator(metaextent_rows=registry.metaextent_rows)
        return translator.translate(binder.bind(parse_query(text)))

    def test_extent_reference_becomes_submit_of_get(self, registry):
        plan = self.translate(registry, "select x from x in person0")
        assert isinstance(plan, Submit)
        assert plan.to_text() == "submit(r0, get(person0))"

    def test_implicit_extent_becomes_union_of_submits(self, registry):
        plan = self.translate(registry, "select x from x in person")
        assert isinstance(plan, Union)
        assert {child.source for child in plan.children()} == {"r0", "r1"}

    def test_where_clause_becomes_select_operator(self, registry):
        plan = self.translate(registry, "select x from x in person0 where x.salary > 10")
        assert isinstance(plan, Select)

    def test_path_item_becomes_apply_over_project(self, registry):
        plan = self.translate(registry, "select x.name from x in person0")
        assert isinstance(plan, Apply)
        assert isinstance(plan.child, Project)
        assert plan.child.attributes == ("name",)

    def test_matching_struct_item_is_pure_projection(self, registry):
        plan = self.translate(
            registry, "select struct(name: x.name, salary: x.salary) from x in person0"
        )
        assert isinstance(plan, Project)
        assert plan.attributes == ("name", "salary")

    def test_renaming_struct_item_requires_apply(self, registry):
        plan = self.translate(registry, "select struct(n: x.name) from x in person0")
        assert isinstance(plan, Apply)

    def test_multi_binding_query_uses_bindjoin(self, registry):
        plan = self.translate(
            registry,
            "select struct(name: x.name, salary: x.salary + y.salary) "
            "from x in person0 and y in person1 where x.id = y.id",
        )
        assert "bindjoin" in {node.op_name for node in walk(plan)}

    def test_metaextent_rows_are_inlined(self, registry):
        plan = self.translate(registry, "select m.name from m in metaextent")
        literals = [node for node in [plan] if isinstance(node, BagLiteral)]
        # the metaextent collection appears somewhere in the tree
        assert "bag" in {node.op_name for node in walk(plan)} or literals

    def test_scalar_query_is_not_translated(self, registry):
        binder = Binder(registry)
        translator = Translator(metaextent_rows=registry.metaextent_rows)
        bound = binder.bind(parse_query("sum(select z.salary from z in person)"))
        assert isinstance(bound, ExprQuery)
        with pytest.raises(QueryExecutionError):
            translator.translate(bound)

    def test_bag_literal_query_with_constants(self, registry):
        binder = Binder(registry)
        translator = Translator()
        plan = translator.translate(binder.bind(parse_query('bag("Mary", "Sam")')))
        assert isinstance(plan, BagLiteral)
        assert set(plan.values) == {"Mary", "Sam"}

    def test_distinct_wraps_plan(self, registry):
        plan = self.translate(registry, "select distinct x.name from x in person0")
        assert plan.op_name == "distinct"


class TestSubqueryInsideAnInList:
    """A nested select in an ``in``-list is bound like one anywhere else.

    The binder rebuilds expressions over their operands, so no expression
    kind can hide a subquery from it; the parent skipped ``InList`` and
    failed this query with "collection 'person0' was not bound".
    """

    QUERY = (
        "select x.name from x in person "
        "where count(select z from z in person0 where z.id = x.id) in (1, 2)"
    )

    @pytest.fixture
    def mediator(self):
        """The quickstart federation: Mary (id 1) at r0, Sam (id 2) at r1."""
        _, server0 = build_person_engine(0, [{"id": 1, "name": "Mary", "salary": 200}])
        _, server1 = build_person_engine(1, [{"id": 2, "name": "Sam", "salary": 50}])
        mediator = Mediator(name="quickstart")
        mediator.register_wrapper("w0", RelationalWrapper("w0", server0))
        mediator.register_wrapper("w1", RelationalWrapper("w1", server1))
        mediator.create_repository("r0", host="rodin")
        mediator.create_repository("r1", host="umiacs")
        mediator.define_interface("Person", PERSON_ATTRIBUTES, extent_name="person")
        mediator.add_extent("person0", "Person", "w0", "r0")
        mediator.add_extent("person1", "Person", "w1", "r1")
        yield mediator
        mediator.close()

    def test_query_and_query_stream_answer_mary(self, mediator):
        assert list(mediator.query(self.QUERY).data) == ["Mary"]
        assert list(mediator.query_stream(self.QUERY).iter_rows()) == ["Mary"]
        # the same count compared with ``=`` always answered this
        assert list(mediator.query(self.QUERY.replace("in (1, 2)", "= 1")).data) == ["Mary"]

    def test_the_subquery_in_the_list_operand_is_bound(self, binder):
        where = binder.bind(parse_query(self.QUERY)).where
        (subquery,) = where.operand.args
        assert isinstance(subquery.query.bindings[0].collection, BoundExtent)
