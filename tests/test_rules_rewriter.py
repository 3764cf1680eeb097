"""Tests for the transformation rules and the rewrite engine."""

from itertools import product

import pytest

from repro import Mediator, RelationalWrapper
from repro.algebra.capabilities import CapabilitySet, grammar_for
from repro.algebra.expressions import Comparison, Const, Path, StructExpr, Subquery, Var, conjunction
from repro.algebra.logical import BindJoin, Get, Limit, Project, Select, Submit, Union
from repro.algebra.rewriter import Rewriter
from repro.algebra.rules import CommuteSelectProject, DistributeOverUnion, PushIntoSubmit


def full_capabilities(submit):
    return grammar_for({"get", "project", "select"})


def get_only_capabilities(submit):
    return grammar_for({"get"})


def submit0() -> Submit:
    return Submit("r0", Get("person0"), extent_name="person0")


def salary_predicate():
    return Comparison(">", Path(Var("x"), "salary"), Const(10))


class TestPushdownRules:
    def test_push_project_into_submit_when_supported(self):
        node = Project(("name",), submit0())
        results = PushIntoSubmit().apply(node, full_capabilities)
        assert len(results) == 1
        assert results[0].to_text() == "submit(r0, project(name, get(person0)))"

    def test_push_project_refused_for_get_only_wrapper(self):
        node = Project(("name",), submit0())
        assert PushIntoSubmit().apply(node, get_only_capabilities) == []

    def test_push_select_into_submit_when_supported(self):
        node = Select("x", salary_predicate(), submit0())
        results = PushIntoSubmit().apply(node, full_capabilities)
        assert results[0].to_text() == "submit(r0, select(x: x.salary > 10, get(person0)))"

    def test_push_select_refused_when_predicate_references_other_variables(self):
        predicate = Comparison("=", Path(Var("x"), "id"), Path(Var("y"), "id"))
        node = Select("x", predicate, submit0())
        assert PushIntoSubmit().apply(node, full_capabilities) == []

    def test_push_select_refused_when_predicate_contains_subquery(self):
        predicate = Comparison(">", Path(Var("x"), "salary"), Subquery(object()))
        node = Select("x", predicate, submit0())
        assert PushIntoSubmit().apply(node, full_capabilities) == []

    def test_a_join_of_same_source_submits_is_never_pushed(self):
        """The paper's employee/manager example: one submit ranges over one
        extent, so the join stays at the mediator whatever the wrapper declares."""
        join = BindJoin(
            Submit("r0", Get("employee0"), extent_name="employee0"),
            Submit("r0", Get("manager0"), extent_name="manager0"),
            "x",
            "y",
            Comparison("=", Path(Var("x"), "dept"), Path(Var("y"), "dept")),
        )
        assert PushIntoSubmit().apply(join, lambda submit: CapabilitySet.full()) == []

    def test_push_project_and_select_through_union(self):
        union = Union((submit0(), Submit("r1", Get("person1"), extent_name="person1")))
        projected = Project(("name",), union)
        distributed = DistributeOverUnion().apply(projected, full_capabilities)[0]
        assert isinstance(distributed, Union)
        assert all(child.op_name == "project" for child in distributed.children())
        selected = Select("x", salary_predicate(), union)
        distributed = DistributeOverUnion().apply(selected, full_capabilities)[0]
        assert all(child.op_name == "select" for child in distributed.children())

    def test_commute_select_project_requires_surviving_attributes(self):
        inner = Project(("name", "salary"), Get("person0"))
        node = Select("x", salary_predicate(), inner)
        results = CommuteSelectProject().apply(node, full_capabilities)
        assert results and results[0].op_name == "project"
        narrow = Select("x", salary_predicate(), Project(("name",), Get("person0")))
        assert CommuteSelectProject().apply(narrow, full_capabilities) == []

    def test_commute_select_project_declines_a_predicate_reading_the_element_whole(self):
        """Below the projection the variable is the unprojected element: a
        predicate comparing it whole would see another value there."""
        projected = Project(("name",), Get("person0"))
        mary = StructExpr((("name", Const("Mary")),))
        whole = Select("y", Comparison("=", Var("y"), mary), projected)
        assert CommuteSelectProject().apply(whole, full_capabilities) == []
        kept = Comparison("=", Path(Var("y"), "name"), Const("Mary"))
        assert CommuteSelectProject().apply(Select("y", kept, projected), full_capabilities)
        both = conjunction([kept, Comparison("=", Var("y"), mary)])
        assert CommuteSelectProject().apply(Select("y", both, projected), full_capabilities) == []


def projected_person_mediator() -> Mediator:
    """One relational extent holding Mary and Sam, and a projecting view over it."""
    from repro.sources import RelationalEngine, SimulatedServer

    engine = RelationalEngine("db0")
    engine.create_table(
        "person0",
        rows=[{"id": 1, "name": "Mary", "salary": 200}, {"id": 2, "name": "Sam", "salary": 50}],
    )
    mediator = Mediator(name="projected")
    mediator.register_wrapper("w0", RelationalWrapper("w0", SimulatedServer(name="host0", store=engine)))
    mediator.create_repository("r0", host="host0")
    mediator.load_odl(
        """
        interface Person (extent person) {
            attribute Long id;
            attribute String name;
            attribute Short salary;
        }
        extent person0 of Person wrapper w0 repository r0;
        """
    )
    mediator.define_view("names", "select struct(name: x.name) from x in person")
    return mediator


@pytest.mark.parametrize(
    "source",
    ["(select struct(name: x.name) from x in person)", "names"],
    ids=["subquery", "view"],
)
def test_a_select_reading_a_projected_element_whole_is_answered_over_the_projection(source):
    """Regression: the select used to cross the project and compare the
    unprojected source row with the struct, so it matched nothing."""
    text = f'select y from y in {source} where y = struct(name: "Mary")'
    mediator = projected_person_mediator()
    try:
        assert [dict(row) for row in mediator.query(text).rows()] == [{"name": "Mary"}]
        assert [dict(row) for row in mediator.query_stream(text).iter_rows()] == [{"name": "Mary"}]
    finally:
        mediator.close()


def trees(memo, group):
    """Every tree a memo group holds: each member over its operands' trees."""
    found = {}
    for member, operands in memo.members(group):
        for combination in product(*(trees(memo, operand) for operand in operands)):
            tree = member.with_children(combination) if operands else member
            found.setdefault(tree.to_text(), tree)
    return list(found.values())


def groups(memo):
    """The groups reachable from a memo's root, each once."""
    found, pending = [], [memo.root]
    while pending:
        group = memo.find(pending.pop())
        if group not in found:
            found.append(group)
            pending.extend(operand for _, operands in memo.members(group) for operand in operands)
    return found


class TestRewriter:
    def paper_query_plan(self):
        """project over select over union of two submits (the translated query)."""
        union = Union(
            (
                Submit("r0", Get("person0"), extent_name="person0"),
                Submit("r1", Get("person1"), extent_name="person1"),
            )
        )
        return Project(("name",), Select("x", salary_predicate(), union))

    def test_greedy_rewrite_reaches_full_pushdown(self):
        rewriter = Rewriter(full_capabilities)
        result = rewriter.rewrite_greedy(self.paper_query_plan())
        assert result.to_text() == (
            "union(submit(r0, project(name, select(x: x.salary > 10, get(person0)))), "
            "submit(r1, project(name, select(x: x.salary > 10, get(person1)))))"
        )

    def test_greedy_rewrite_respects_get_only_wrappers(self):
        rewriter = Rewriter(get_only_capabilities)
        result = rewriter.rewrite_greedy(self.paper_query_plan())
        # The work distributes over the union but stays at the mediator.
        assert result.to_text().count("submit(r0, get(person0))") == 1
        assert "submit(r0, project" not in result.to_text()
        assert "submit(r0, select" not in result.to_text()

    def test_mixed_capabilities_paper_example(self):
        """r0 supports {get, project, compose} while r1 supports only {get}."""

        def caps(submit):
            if submit.source == "r0":
                return grammar_for({"get", "project"})
            return grammar_for({"get"})

        plan = Union(
            (
                Project(("name",), Submit("r0", Get("person0"), extent_name="person0")),
                Project(("name",), Submit("r1", Get("person1"), extent_name="person1")),
            )
        )
        result = Rewriter(caps).rewrite_greedy(plan)
        assert result.to_text() == (
            "union(submit(r0, project(name, get(person0))), "
            "project(name, submit(r1, get(person1))))"
        )

    def test_alternatives_contains_original_and_rewrites(self):
        rewriter = Rewriter(full_capabilities)
        plan = self.paper_query_plan()
        memo = rewriter.alternatives(plan)
        texts = {tree.to_text() for tree in trees(memo, memo.root)}
        assert plan.to_text() in texts
        assert rewriter.rewrite_greedy(plan).to_text() in texts
        assert len(texts) > 1

    def test_alternatives_keep_each_subtree_once(self):
        """One member per distinct subtree: a union branch's rewrites are not
        repeated for every whole plan the branch appears in."""
        union = Union(
            tuple(Submit(f"r{i}", Get(f"person{i}"), extent_name=f"person{i}") for i in range(4))
        )
        memo = Rewriter(full_capabilities).alternatives(
            Project(("name",), Select("x", salary_predicate(), union))
        )
        assert memo.size * 2 < len(trees(memo, memo.root))

    def test_alternatives_are_unique(self):
        """No two members are one operator over the same groups -- also after
        collapsing nested limits merges groups, which turns a member over the
        merged-away group into one over the group it joined."""
        limits = grammar_for({"get", "select", "project", "limit"})
        nested = Limit(5, Limit(10, Limit(10, Union((submit0(), Submit("r1", Get("dept0")), submit0())))))
        for capabilities, plan in ((full_capabilities, self.paper_query_plan()), (lambda _s: limits, nested)):
            memo = Rewriter(capabilities).alternatives(plan)
            keys = [
                member.with_children([Get(f"#{memo.find(o)}") for o in operands]).to_text()
                if operands else member.to_text()
                for group in groups(memo)
                for member, operands in memo.members(group)
            ]
            assert len(keys) == len(set(keys))
        merged = [g for g in groups(memo) for _, operands in memo.members(g) if g in map(memo.find, operands)]
        assert merged, "no group became its own operand"
