"""Tests for logical and physical operator trees."""

from repro.algebra import logical as log
from repro.algebra import physical as phys
from repro.algebra.expressions import Comparison, Const, Path, Var


def paper_logical_plan() -> log.LogicalOp:
    """The paper's example: union of two projected submits."""
    return log.Union(
        (
            log.Project(("name",), log.Submit("r0", log.Get("person0"), extent_name="person0")),
            log.Project(("name",), log.Submit("r1", log.Get("person1"), extent_name="person1")),
        )
    )


class TestLogicalTrees:
    def test_to_text_matches_paper_notation(self):
        plan = paper_logical_plan()
        assert plan.to_text() == (
            "union(project(name, submit(r0, get(person0))), "
            "project(name, submit(r1, get(person1))))"
        )

    def test_equality_is_structural(self):
        assert paper_logical_plan() == paper_logical_plan()
        other = log.Project(("name",), log.Get("person0"))
        assert paper_logical_plan() != other

    def test_walk_visits_all_nodes(self):
        kinds = [node.op_name for node in log.walk(paper_logical_plan())]
        assert kinds.count("submit") == 2
        assert kinds.count("project") == 2
        assert kinds[0] == "union"

    def test_walk_names_every_operator_and_submits_in_finds_the_submits(self):
        plan = paper_logical_plan()
        assert {node.op_name for node in log.walk(plan)} == {"union", "project", "submit", "get"}
        assert [s.source for s in log.submits_in(plan)] == ["r0", "r1"]
        assert log.submits_in(log.Get("person0")) == []

    def test_with_children_rebuilds_nodes(self):
        plan = paper_logical_plan()
        swapped = plan.with_children(tuple(reversed(plan.children())))
        assert isinstance(swapped, log.Union)
        assert swapped.children()[0].children()[0].source == "r1"

    def test_transform_bottom_up_replaces_nodes(self):
        plan = paper_logical_plan()

        def visit(node: log.LogicalOp) -> log.LogicalOp:
            if isinstance(node, log.Get):
                return log.Get(node.collection.upper())
            return node

        transformed = log.transform_bottom_up(plan, visit)
        assert "PERSON0" in transformed.to_text()
        # The original tree is untouched.
        assert "PERSON0" not in plan.to_text()

    def test_select_and_apply_text(self):
        predicate = Comparison(">", Path(Var("x"), "salary"), Const(10))
        select = log.Select("x", predicate, log.Get("person0"))
        assert select.to_text() == "select(x: x.salary > 10, get(person0))"
        apply = log.Apply("x", Path(Var("x"), "name"), select)
        assert apply.to_text().startswith("apply(x: x.name")

    def test_join_on(self):
        """The join is the bind join: its condition is written out, ``true``
        when it has none."""
        condition = Comparison("=", Path(Var("x"), "dept"), Path(Var("y"), "pid"))
        join = log.BindJoin(log.Get("a"), log.Get("b"), "x", "y", condition)
        assert join.to_text() == "bindjoin(x: get(a), y: get(b), x.dept = y.pid)"
        cross = log.BindJoin(log.Get("a"), log.Get("b"), "x", "y")
        assert cross.to_text() == "bindjoin(x: get(a), y: get(b), true)"

    def test_bindjoin_text_and_children(self):
        condition = Comparison("=", Path(Var("x"), "id"), Path(Var("y"), "id"))
        bind = log.BindJoin(log.Get("a"), log.Get("b"), "x", "y", condition=condition)
        assert bind.children() == (log.Get("a"), log.Get("b"))
        rebuilt = bind.with_children((log.Get("c"), log.Get("d")))
        assert rebuilt.condition == condition


class TestPhysicalTrees:
    def paper_physical_plan(self) -> phys.PhysicalOp:
        """The paper's physical example: mkunion(exec(...), mkproj(exec(...)))."""
        return phys.MkUnion(
            (
                phys.Exec(
                    phys.Field("r0"),
                    log.Project(("name",), log.Get("person0")),
                    extent_name="person0",
                ),
                phys.MkProj(
                    ("name",),
                    phys.Exec(phys.Field("r1"), log.Get("person1"), extent_name="person1"),
                ),
            )
        )

    def test_to_text_matches_paper_notation(self):
        assert self.paper_physical_plan().to_text() == (
            "mkunion(exec(field(r0), project(name, get(person0))), "
            "mkproj(name, exec(field(r1), get(person1))))"
        )

    def test_execs_in_finds_every_call(self):
        execs = phys.execs_in(self.paper_physical_plan())
        assert [e.extent_name for e in execs] == ["person0", "person1"]

    def test_exec_keeps_logical_argument(self):
        exec_node = phys.execs_in(self.paper_physical_plan())[0]
        assert isinstance(exec_node.expression, log.LogicalOp)

    def test_equality_and_with_children(self):
        plan = self.paper_physical_plan()
        assert plan == self.paper_physical_plan()
        swapped = plan.with_children(tuple(reversed(plan.children())))
        assert swapped != plan

    def test_join_algorithm_nodes(self):
        left = phys.MkBag((1,))
        right = phys.MkBag((2,))
        on = Comparison("=", Path(Var("x"), "a"), Path(Var("y"), "b"))
        assert phys.MkBindJoin(left, right, "x", "y", on).to_text() == (
            "mkbindjoin(x: mkbag(1), y: mkbag(2), x.a = y.b)"
        )
        probe = phys.Exec(phys.Field("r0"), log.Get("b"), extent_name="b")
        assert phys.ProbeJoin(left, probe, "x", "y", on).to_text() == (
            "probejoin(x: mkbag(1), y: exec(field(r0), get(b)), x.a = y.b)"
        )
