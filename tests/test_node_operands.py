"""One operand rule for every algebra node, checked against the code it replaced.

``children``/``with_children`` of logical operators, physical algorithms and
scalar expressions, and every generic map over an expression's operands
(``walk_expr``, ``free_variables``, ``attribute_paths``,
``rename_attributes``, the close-signature strip, variable substitution and
the translator's replacement), are derived from the node classes' field
types (:mod:`repro.algebra.nodes`).  The hand-written per-class methods and
``isinstance`` ladders they replaced are kept below, as they were, and the
derived versions must agree with them: on one instance of every class, and
on 600 generated expression trees.
"""

from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass, fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import logical as log
from repro.algebra import nodes
from repro.algebra import physical as phys
from repro.algebra.expressions import (
    Arithmetic,
    BagExpr,
    BooleanExpr,
    Comparison,
    Const,
    Expr,
    FunctionCall,
    InList,
    Path,
    StructExpr,
    Subquery,
    Var,
    walk_expr,
)
from repro.algebra.unparser import _substitute_variable
from repro.optimizer.history import _strip_constants_expr, close_signature
from repro.oql.translator import _replace_expressions
from tests.conftest import build_paper_mediator
from tests.test_expressions import EXPRESSIONS


# -- the parent's per-class ``children`` / ``with_children`` bodies, verbatim -------------------
def reference_children(node):
    """Each class's ``children`` body (``self`` is ``node``); the bases returned ``()``."""
    if isinstance(node, log.Submit):
        return (node.expression,)
    if isinstance(
        node,
        (
            log.Project, log.Select, log.Apply, log.Flatten, log.Distinct,
            log.Limit, log.GroupBy, phys.MkProj, phys.Filter, phys.MkApply,
            phys.MkFlatten, phys.MkDistinct, phys.MkGroupBy, phys.MkLimit,
        ),
    ):
        return (node.child,)
    if isinstance(node, (log.BindJoin, phys.MkBindJoin)):
        return (node.left, node.right)
    if isinstance(node, phys.ProbeJoin):
        return (node.left,)
    if isinstance(node, (log.Union, phys.MkUnion)):
        return node.inputs
    return ()


def reference_with_children(node, children):
    """Each class's ``with_children`` body; the bases returned the node itself."""
    if isinstance(node, log.Submit):
        (expression,) = children
        return log.Submit(node.source, expression, extent_name=node.extent_name)
    if isinstance(node, log.Project):
        (child,) = children
        return log.Project(node.attributes, child)
    if isinstance(node, log.Select):
        (child,) = children
        return log.Select(node.variable, node.predicate, child)
    if isinstance(node, log.Apply):
        (child,) = children
        return log.Apply(node.variable, node.expression, child)
    if isinstance(node, log.BindJoin):
        left, right = children
        return log.BindJoin(
            left,
            right,
            node.left_variable,
            node.right_variable,
            condition=node.condition,
        )
    if isinstance(node, log.Union):
        return log.Union(tuple(children))
    if isinstance(node, log.Flatten):
        (child,) = children
        return log.Flatten(child)
    if isinstance(node, log.Distinct):
        (child,) = children
        return log.Distinct(child)
    if isinstance(node, log.Limit):
        (child,) = children
        return log.Limit(node.count, child)
    if isinstance(node, log.GroupBy):
        (child,) = children
        return log.GroupBy(node.variable, node.keys, node.aggregates, child)
    if isinstance(node, phys.MkProj):
        (child,) = children
        return phys.MkProj(node.attributes, child)
    if isinstance(node, phys.Filter):
        (child,) = children
        return phys.Filter(node.variable, node.predicate, child)
    if isinstance(node, phys.MkApply):
        (child,) = children
        return phys.MkApply(node.variable, node.expression, child)
    if isinstance(node, phys.MkBindJoin):
        left, right = children
        return phys.MkBindJoin(
            left, right, node.left_variable, node.right_variable, condition=node.condition
        )
    if isinstance(node, phys.ProbeJoin):
        (left,) = children
        return phys.ProbeJoin(
            left,
            node.probe,
            node.left_variable,
            node.right_variable,
            node.condition,
        )
    if isinstance(node, phys.MkUnion):
        return phys.MkUnion(tuple(children))
    if isinstance(node, phys.MkFlatten):
        (child,) = children
        return phys.MkFlatten(child)
    if isinstance(node, phys.MkDistinct):
        (child,) = children
        return phys.MkDistinct(child)
    if isinstance(node, phys.MkGroupBy):
        (child,) = children
        return phys.MkGroupBy(node.variable, node.keys, node.aggregates, child)
    if isinstance(node, phys.MkLimit):
        (child,) = children
        return phys.MkLimit(node.count, child)
    if children:
        raise ValueError("takes no children")
    return node


# -- the parent's expression ladders and per-class analyses, verbatim -----------------------------
def reference_walk_expr(expr: Expr):
    """Yield ``expr`` and every sub-expression it contains (pre-order)."""
    yield expr
    if isinstance(expr, Path):
        yield from reference_walk_expr(expr.base)
    elif isinstance(expr, (Comparison, Arithmetic)):
        yield from reference_walk_expr(expr.left)
        yield from reference_walk_expr(expr.right)
    elif isinstance(expr, BooleanExpr):
        for operand in expr.operands:
            yield from reference_walk_expr(operand)
    elif isinstance(expr, InList):
        yield from reference_walk_expr(expr.operand)
        for item in expr.items:
            yield from reference_walk_expr(item)
    elif isinstance(expr, StructExpr):
        for _, value in expr.fields:
            yield from reference_walk_expr(value)
    elif isinstance(expr, (BagExpr, FunctionCall)):
        children = expr.items if isinstance(expr, BagExpr) else expr.args
        for child in children:
            yield from reference_walk_expr(child)


def reference_free_variables(expr: Expr) -> set[str]:
    """Each class's ``free_variables`` body; the base returned ``set()``."""
    if isinstance(expr, Var):
        return {expr.name}
    if isinstance(expr, Path):
        return reference_free_variables(expr.base)
    if isinstance(expr, (Comparison, Arithmetic)):
        return reference_free_variables(expr.left) | reference_free_variables(expr.right)
    if isinstance(expr, InList):
        result = set(reference_free_variables(expr.operand))
        for item in expr.items:
            result |= reference_free_variables(item)
        return result
    if isinstance(expr, (BooleanExpr, BagExpr, FunctionCall)):
        parts = {BooleanExpr: "operands", BagExpr: "items", FunctionCall: "args"}
        result: set[str] = set()
        for operand in getattr(expr, parts[type(expr)]):
            result |= reference_free_variables(operand)
        return result
    if isinstance(expr, StructExpr):
        result = set()
        for _, value in expr.fields:
            result |= reference_free_variables(value)
        return result
    if isinstance(expr, Subquery):
        free = getattr(expr.query, "free_variables", None)
        return free() if callable(free) else set()
    return set()


def reference_attribute_paths(expr: Expr) -> set[tuple[str, str]]:
    """Each class's ``attribute_paths`` body; the base returned ``set()``."""
    if isinstance(expr, Path):
        paths = set(reference_attribute_paths(expr.base))
        if isinstance(expr.base, Var):
            paths.add((expr.base.name, expr.attribute))
        return paths
    if isinstance(expr, (Comparison, Arithmetic)):
        return reference_attribute_paths(expr.left) | reference_attribute_paths(expr.right)
    if isinstance(expr, InList):
        result = set(reference_attribute_paths(expr.operand))
        for item in expr.items:
            result |= reference_attribute_paths(item)
        return result
    if isinstance(expr, (BooleanExpr, BagExpr, FunctionCall)):
        parts = {BooleanExpr: "operands", BagExpr: "items", FunctionCall: "args"}
        result: set[tuple[str, str]] = set()
        for operand in getattr(expr, parts[type(expr)]):
            result |= reference_attribute_paths(operand)
        return result
    if isinstance(expr, StructExpr):
        result = set()
        for _, value in expr.fields:
            result |= reference_attribute_paths(value)
        return result
    return set()


def reference_rename_attributes(expr: Expr, renames) -> Expr:
    """Each class's ``rename_attributes`` body; the base returned the node itself."""
    if isinstance(expr, Path):
        return Path(
            reference_rename_attributes(expr.base, renames),
            renames.get(expr.attribute, expr.attribute),
        )
    if isinstance(expr, Comparison):
        return Comparison(
            expr.op,
            reference_rename_attributes(expr.left, renames),
            reference_rename_attributes(expr.right, renames),
        )
    if isinstance(expr, InList):
        return InList(
            reference_rename_attributes(expr.operand, renames),
            tuple(reference_rename_attributes(item, renames) for item in expr.items),
        )
    if isinstance(expr, BooleanExpr):
        return BooleanExpr(
            expr.op, tuple(reference_rename_attributes(o, renames) for o in expr.operands)
        )
    if isinstance(expr, Arithmetic):
        return Arithmetic(
            expr.op,
            reference_rename_attributes(expr.left, renames),
            reference_rename_attributes(expr.right, renames),
        )
    if isinstance(expr, StructExpr):
        return StructExpr(
            tuple((name, reference_rename_attributes(e, renames)) for name, e in expr.fields)
        )
    if isinstance(expr, BagExpr):
        return BagExpr(tuple(reference_rename_attributes(item, renames) for item in expr.items))
    if isinstance(expr, FunctionCall):
        return FunctionCall(
            expr.name, tuple(reference_rename_attributes(arg, renames) for arg in expr.args)
        )
    return expr


def reference_strip_constants_expr(expression: Expr) -> Expr:
    """Replace every constant in ``expression`` by a placeholder."""
    if isinstance(expression, Const):
        return Const("?")
    if isinstance(expression, Path):
        return Path(reference_strip_constants_expr(expression.base), expression.attribute)
    if isinstance(expression, Comparison):
        return Comparison(
            expression.op,
            reference_strip_constants_expr(expression.left),
            reference_strip_constants_expr(expression.right),
        )
    if isinstance(expression, Arithmetic):
        return Arithmetic(
            expression.op,
            reference_strip_constants_expr(expression.left),
            reference_strip_constants_expr(expression.right),
        )
    if isinstance(expression, BooleanExpr):
        return BooleanExpr(
            expression.op,
            tuple(reference_strip_constants_expr(operand) for operand in expression.operands),
        )
    if isinstance(expression, InList):
        return InList(reference_strip_constants_expr(expression.operand), (Const("?"),))
    if isinstance(expression, StructExpr):
        return StructExpr(
            tuple(
                (name, reference_strip_constants_expr(value)) for name, value in expression.fields
            )
        )
    if isinstance(expression, BagExpr):
        return BagExpr(tuple(reference_strip_constants_expr(item) for item in expression.items))
    if isinstance(expression, FunctionCall):
        return FunctionCall(
            expression.name, tuple(reference_strip_constants_expr(arg) for arg in expression.args)
        )
    return expression


def reference_substitute_variable(expression: Expr, old: str, new: str) -> Expr:
    """Return ``expression`` with every reference to ``old`` replaced by ``new``."""
    if isinstance(expression, Var):
        return Var(new) if expression.name == old else expression
    if isinstance(expression, tuple):
        return tuple(reference_substitute_variable(item, old, new) for item in expression)
    if not isinstance(expression, Expr) or isinstance(expression, (Const, Subquery)):
        return expression
    operands = {
        field.name: reference_substitute_variable(getattr(expression, field.name), old, new)
        for field in fields(expression)
    }
    return replace(expression, **operands)


def reference_replace_expressions(expression: Expr, replacements) -> Expr:
    """Structurally replace sub-expressions (checked before recursion)."""
    replaced = replacements.get(expression)
    if replaced is not None:
        return replaced
    again = reference_replace_expressions
    if isinstance(expression, Path):
        return Path(again(expression.base, replacements), expression.attribute)
    if isinstance(expression, Comparison):
        return Comparison(
            expression.op,
            again(expression.left, replacements),
            again(expression.right, replacements),
        )
    if isinstance(expression, Arithmetic):
        return Arithmetic(
            expression.op,
            again(expression.left, replacements),
            again(expression.right, replacements),
        )
    if isinstance(expression, BooleanExpr):
        return BooleanExpr(
            expression.op,
            tuple(again(operand, replacements) for operand in expression.operands),
        )
    if isinstance(expression, InList):
        return InList(
            again(expression.operand, replacements),
            tuple(again(item, replacements) for item in expression.items),
        )
    if isinstance(expression, StructExpr):
        return StructExpr(
            tuple((name, again(value, replacements)) for name, value in expression.fields)
        )
    if isinstance(expression, BagExpr):
        return BagExpr(tuple(again(item, replacements) for item in expression.items))
    if isinstance(expression, FunctionCall):
        return FunctionCall(
            expression.name, tuple(again(arg, replacements) for arg in expression.args)
        )
    return expression


# -- one instance of every class ------------------------------------------------------------------
X_ID = Path(Var("x"), "id")
PREDICATE = Comparison("=", X_ID, Path(Var("y"), "id"))
KEYS = (("k", Path(Var("x"), "k")),)
AGGREGATES = (("n", "count", Var("x")),)
A, B, C = log.Get("a"), log.Get("b"), log.Get("c")
LEFT, RIGHT = phys.MkBag((1,)), phys.MkBag((2,))
EXEC = phys.Exec(phys.Field("r1"), B, "b")

LOGICAL = [
    A,
    log.Submit("r0", A, extent_name="a"),
    log.Project(("n",), A),
    log.Select("x", PREDICATE, A),
    log.Apply("x", X_ID, A),
    log.BindJoin(A, B, "x", "y", condition=PREDICATE),
    log.Union((A, B, C)),
    log.Flatten(A),
    log.Distinct(A),
    log.Limit(3, A),
    log.GroupBy("x", KEYS, AGGREGATES, A),
    log.BagLiteral((1, 2)),
]
PHYSICAL = [
    phys.Field("r0"),
    EXEC,
    phys.MkProj(("n",), LEFT),
    phys.Filter("x", PREDICATE, LEFT),
    phys.MkApply("x", X_ID, LEFT),
    phys.MkBindJoin(LEFT, RIGHT, "x", "y", condition=PREDICATE),
    phys.ProbeJoin(LEFT, EXEC, "x", "y", PREDICATE),
    phys.MkUnion((LEFT, RIGHT, LEFT)),
    phys.MkFlatten(LEFT),
    phys.MkDistinct(LEFT),
    phys.MkGroupBy("x", KEYS, AGGREGATES, LEFT),
    phys.MkLimit(3, LEFT),
    phys.MkBag((1, 2)),
]
EXPRESSION_SAMPLES = [
    Const(1),
    Var("x"),
    X_ID,
    PREDICATE,
    InList(X_ID, (Const(1), Var("y"))),
    BooleanExpr("and", (PREDICATE, Var("z"))),
    Arithmetic("+", X_ID, Const(2)),
    StructExpr((("a", X_ID), ("b", Const(3)))),
    BagExpr((Const(1), Var("y"))),
    FunctionCall("sum", (X_ID, Var("y"))),
    Subquery("select z from z in person"),
]


def library_classes(root):
    return {cls for cls in root.__subclasses__() if cls.__module__.startswith("repro.")}


def field_values(node):
    return (type(node), tuple(getattr(node, f.name) for f in fields(node)))


def replacements_for(node, root):
    """As many fresh stand-ins as ``node`` has children, of ``root``'s hierarchy."""
    count = len(node.children())
    if root is log.LogicalOp:
        return [log.Get(f"new{i}") for i in range(count)]
    if root is phys.PhysicalOp:
        return [phys.MkBag((f"new{i}",)) for i in range(count)]
    return [Var(f"new{i}") for i in range(count)]


class TestEveryClass:
    @pytest.mark.parametrize(
        "root, samples",
        [(log.LogicalOp, LOGICAL), (phys.PhysicalOp, PHYSICAL), (Expr, EXPRESSION_SAMPLES)],
        ids=["logical", "physical", "expr"],
    )
    def test_one_sample_per_class(self, root, samples):
        assert {type(sample) for sample in samples} == library_classes(root)

    @pytest.mark.parametrize("node", LOGICAL + PHYSICAL, ids=lambda n: type(n).__name__)
    def test_operator_children_and_rebuild_are_the_hand_written_ones(self, node):
        assert list(map(id, node.children())) == list(map(id, reference_children(node)))
        root = log.LogicalOp if isinstance(node, log.LogicalOp) else phys.PhysicalOp
        stand_ins = replacements_for(node, root)
        rebuilt = node.with_children(stand_ins)
        assert field_values(rebuilt) == field_values(reference_with_children(node, stand_ins))
        assert rebuilt.children() == tuple(stand_ins)
        if not stand_ins:
            assert rebuilt is node
            with pytest.raises(ValueError):
                node.with_children([A])

    @pytest.mark.parametrize("expr", EXPRESSION_SAMPLES, ids=lambda e: type(e).__name__)
    def test_expression_children_are_what_the_walk_visited_one_level_down(self, expr):
        below = list(reference_walk_expr(expr))[1:]
        direct = [node for node in below if any(node is c for c in expr.children())]
        assert list(map(id, expr.children())) == list(map(id, direct))
        stand_ins = replacements_for(expr, Expr)
        rebuilt = expr.with_children(stand_ins)
        renamed = {id(old): new for old, new in zip(expr.children(), stand_ins)}
        expected = reference_replace_expressions(
            expr, {old: renamed[id(old)] for old in expr.children()}
        )
        assert type(rebuilt) is type(expr) and rebuilt.to_oql() == expected.to_oql()
        assert rebuilt.children() == tuple(stand_ins)

    def test_the_three_non_operand_cases(self):
        """A field typed as another hierarchy, or as one node class, is carried."""
        assert log.Submit("r0", A).children() == (A,)
        assert EXEC.children() == ()
        probe = phys.ProbeJoin(LEFT, EXEC, "x", "y", PREDICATE)
        assert probe.children() == (LEFT,)
        assert Subquery("q").children() == ()
        assert log.BindJoin(A, B, "x", "y", condition=PREDICATE).children() == (A, B)

    def test_counterpart_builds_either_side(self):
        join = log.BindJoin(A, B, "p", "q", condition=PREDICATE)
        built = phys.counterpart(phys.MkBindJoin, join, [LEFT, RIGHT])
        assert field_values(built) == field_values(phys.MkBindJoin(LEFT, RIGHT, "p", "q", PREDICATE))
        back = phys.counterpart(log.BindJoin, built, [A, B])
        assert field_values(back) == field_values(join)
        project = phys.counterpart(phys.MkProj, log.Project(("n", "m"), A), [LEFT])
        assert field_values(project) == field_values(phys.MkProj(("n", "m"), LEFT))
        probe = phys.ProbeJoin(LEFT, EXEC, "x", "y", PREDICATE)
        bind = phys.counterpart(log.BindJoin, probe, [A, B])
        assert field_values(bind) == field_values(log.BindJoin(A, B, "x", "y", PREDICATE))


# -- 600 generated expression trees ---------------------------------------------------------------
def shape(expr: Expr):
    """Every node of the tree as (class, text), in the parent's walk order."""
    return [(type(node), node.to_oql()) for node in reference_walk_expr(expr)]


RENAMES = {"v": "w", "k": "v", "real": "imag"}


class TestGeneratedTrees:
    @settings(derandomize=True, max_examples=600, deadline=None)
    @given(EXPRESSIONS, st.data())
    def test_every_map_agrees_with_the_ladder_it_replaced(self, expr, data):
        assert list(map(id, walk_expr(expr))) == list(map(id, reference_walk_expr(expr)))
        assert expr.free_variables() == reference_free_variables(expr)
        assert expr.attribute_paths() == reference_attribute_paths(expr)
        assert shape(expr.rename_attributes(RENAMES)) == shape(
            reference_rename_attributes(expr, RENAMES)
        )
        assert shape(_strip_constants_expr(expr)) == shape(reference_strip_constants_expr(expr))
        stripped = log.Select("x", reference_strip_constants_expr(expr), A)
        assert close_signature("a", log.Select("x", expr, A)) == f"a|{stripped.to_text()}"
        for old in ("x", "y"):
            assert shape(_substitute_variable(expr, old, "w")) == shape(
                reference_substitute_variable(expr, old, "w")
            )
        target = data.draw(st.sampled_from(list(reference_walk_expr(expr))))
        replacements = {target: Var("replaced")}
        assert shape(_replace_expressions(expr, replacements)) == shape(
            reference_replace_expressions(expr, replacements)
        )


# -- resolved once per class, never per call ------------------------------------------------------
class Toy(nodes.Node):
    """A hierarchy root of this module's own: no library class is added to."""


@dataclass(frozen=True)
class Pair(Toy):
    label: str
    left: Toy
    right: Toy


@dataclass(frozen=True)
class Leaf(Toy):
    name: str


@pytest.fixture
def type_reads(monkeypatch):
    """Every call of ``dataclasses.fields``/``typing.get_type_hints``, wherever bound."""
    calls: list[str] = []

    def spy(name, real):
        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return counted

    for module, name in (
        (dataclasses, "fields"),
        (typing, "get_type_hints"),
        (nodes, "fields"),
        (nodes, "get_type_hints"),
    ):
        monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    return calls


class TestResolvedOncePerClass:
    def test_a_new_class_reads_its_field_types_on_first_use_only(self, type_reads):
        tree = Pair("p", Leaf("a"), Leaf("b"))
        assert tree.children() == (Leaf("a"), Leaf("b"))
        first = len(type_reads)
        assert "get_type_hints" in type_reads
        rebuilt = tree.with_children([Leaf("c"), tree])
        assert rebuilt == Pair("p", Leaf("c"), tree)
        assert Pair("q", tree, tree).children() == (tree, tree)
        assert len(type_reads) == first
        assert list(nodes.walk(tree)) == [tree, Leaf("a"), Leaf("b")]

    def test_planning_never_seen_texts_in_a_warm_process_reads_no_field_types(
        self, warm_mediator, type_reads, monkeypatch
    ):
        optimizer = warm_mediator.planner.optimizer
        optimized: list[str] = []
        real_optimize = optimizer.optimize
        monkeypatch.setattr(
            optimizer, "optimize", lambda plan: optimized.append("optimize") or real_optimize(plan)
        )
        for n in range(1, 4):
            for text in WARM_SHAPES:
                warm_mediator.query(text.format(n=n))
        assert len(optimized) == 3 * len(WARM_SHAPES)  # every text planned afresh
        assert type_reads == []


#: one query per operator mix; ``{n}`` makes each text new to the plan cache
WARM_SHAPES = [
    "select x.name from x in person where x.salary > {n}",
    "select struct(n: x.name, s: x.salary + {n}) from x in person0 where x.id in (1, {n})",
    "select x.name from x in person0, y in person1 where x.id = y.id and y.salary > {n}",
    "select struct(d: x.id, total: sum(x.salary)) from x in person "
    "where x.salary > {n} group by d: x.id",
    "select distinct x.name from x in person where "
    "count(select z from z in person0 where z.id = x.id) in (1, {n}) limit 5",
]


@pytest.fixture
def warm_mediator():
    """The paper's mediator after one query of each of :data:`WARM_SHAPES`."""
    mediator, _ = build_paper_mediator()
    for text in WARM_SHAPES:
        mediator.query(text.format(n=0))
    yield mediator
    mediator.close()
