"""Tests for wrapper capability sets and the grammars they describe (paper Section 3.2).

``CapabilitySet.accepts`` checks a tree directly.  The production-grammar
interpreter it replaced is kept below as a test-local reference: on random
operator sets and random trees the two must give the same verdicts, and the
set must render the reference's productions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import logical as log
from repro.algebra.capabilities import PUSHABLE_OPERATORS, CapabilitySet, grammar_for
from repro.algebra.expressions import (
    BooleanExpr,
    Comparison,
    Const,
    InList,
    Path,
    Var,
    walk_expr,
)
from repro.algebra.logical import Flatten, Get, Join, Project, Select, Union


def project_of_get() -> Project:
    return Project(("name",), Get("person0"))


def select_of_get() -> Select:
    return Select("x", Comparison(">", Path(Var("x"), "salary"), Const(10)), Get("person0"))


class TestCapabilitySet:
    def test_of_rejects_unknown_operator(self):
        with pytest.raises(ValueError):
            CapabilitySet.of("teleport")
        with pytest.raises(ValueError):
            grammar_for({"get", "teleport"})

    def test_presets(self):
        assert CapabilitySet.get_only().operators == frozenset({"get"})
        assert CapabilitySet.full().supports("join")

    def test_supports(self):
        caps = CapabilitySet.of("get", "project")
        assert caps.supports("project")
        assert not caps.supports("join")


class TestGrammarConstruction:
    def test_get_is_always_included(self):
        grammar = grammar_for({"project"})
        assert grammar.supports("get")

    def test_paper_non_composing_grammar(self):
        """The paper's wrapper that understands get and project but not composition."""
        grammar = grammar_for({"get", "project"}, compose=False)
        assert grammar.accepts(Get("person0"))
        assert grammar.accepts(project_of_get())
        # project over project requires composition
        assert not grammar.accepts(Project(("name",), project_of_get()))
        # select is not supported at all
        assert not grammar.accepts(select_of_get())

    def test_paper_composing_grammar(self):
        """The paper's wrapper that understands get, project and their composition."""
        grammar = grammar_for({"get", "project"}, compose=True)
        assert grammar.accepts(project_of_get())
        assert grammar.accepts(Project(("salary",), project_of_get()))

    def test_join_grammar(self):
        grammar = grammar_for({"get", "join"})
        join = Join(Get("employee0"), Get("manager0"), "dept")
        assert grammar.accepts(join)
        assert not grammar_for({"get"}).accepts(join)

    def test_select_project_composition(self):
        grammar = grammar_for({"get", "project", "select"})
        assert grammar.accepts(Project(("name",), select_of_get()))
        assert grammar.accepts(Select("x", Comparison(">", Path(Var("x"), "salary"), Const(10)), project_of_get()))

    def test_union_and_flatten(self):
        grammar = grammar_for({"get", "union", "flatten"})
        assert grammar.accepts(Union((Get("a"), Get("b"))))
        assert grammar.accepts(Flatten(Get("a")))
        assert not grammar.accepts(Union((project_of_get(), Get("b"))))

    def test_capability_set_to_grammar_round_trip(self):
        caps = CapabilitySet.of("get", "project", "select", compose=True)
        assert caps.supported_operators() == {"get", "project", "select"}
        assert CapabilitySet.of("project").supported_operators() == {"get", "project"}

    def test_render_produces_paper_style_productions(self):
        rendered = grammar_for({"get", "project"}, compose=False).render()
        assert "get OPEN SOURCE CLOSE" in rendered
        assert "project OPEN ATTRIBUTE COMMA SOURCE CLOSE" in rendered

    def test_render_composing_grammar_mentions_nonterminal(self):
        rendered = grammar_for({"get", "project"}, compose=True).render()
        assert "project OPEN ATTRIBUTE COMMA s CLOSE" in rendered
        assert "s :- SOURCE" in rendered


# -- the reference: the production-grammar interpreter the direct check replaced ---------------


@dataclass(frozen=True)
class Production:
    """``head :- operator(child_symbols...)`` or an alias ``head :- symbol``.

    ``operator`` is None for alias productions.  ``child_symbols`` are either
    nonterminal names or the terminal ``"SOURCE"`` which matches a bare
    ``get(source)`` node (the paper's SOURCE terminal).
    """

    head: str
    operator: str | None
    child_symbols: tuple[str, ...] = ()

    def render(self) -> str:
        if self.operator is None:
            return f"{self.head} :- {self.child_symbols[0]}"
        parts: list[str] = []
        if self.operator == "project":
            parts = ["ATTRIBUTE", "COMMA", self.child_symbols[0]]
        elif self.operator == "select":
            parts = ["PREDICATE", "COMMA", self.child_symbols[0]]
        elif self.operator == "limit":
            parts = ["COUNT", "COMMA", self.child_symbols[0]]
        elif self.operator == "rename":
            parts = ["ALIASES", "COMMA", self.child_symbols[0]]
        elif self.operator == "groupby":
            parts = ["KEYS", "COMMA", "AGGREGATES", "COMMA", self.child_symbols[0]]
        elif self.operator == "in":
            parts = ["PATH", "COMMA", "VALUES"]
        elif self.operator == "join":
            parts = [self.child_symbols[0], "COMMA", self.child_symbols[1], "COMMA", "ATTRIBUTE"]
        elif self.operator in ("union", "flatten", "get"):
            parts = list(self.child_symbols)
        return f"{self.head} :- {self.operator} OPEN " + " ".join(parts) + " CLOSE"


@dataclass(frozen=True)
class ReferenceGrammar:
    """A grammar over logical operator trees, walked production by production."""

    start: str = "a"
    productions: tuple[Production, ...] = ()

    def accepts(self, expr: log.LogicalOp, symbol: str | None = None) -> bool:
        symbol = symbol or self.start
        if symbol == "SOURCE":
            return isinstance(expr, Get)
        for production in self.productions:
            if production.head != symbol:
                continue
            if production.operator is None:
                if self.accepts(expr, production.child_symbols[0]):
                    return True
                continue
            if self._matches(expr, production):
                return True
        return False

    def _matches(self, expr: log.LogicalOp, production: Production) -> bool:
        operator = production.operator
        if operator == "get":
            return isinstance(expr, Get)
        if operator == "project":
            return isinstance(expr, Project) and self.accepts(expr.child, production.child_symbols[0])
        if operator == "select":
            if not isinstance(expr, Select):
                return False
            if not self.supports("in") and any(isinstance(node, InList) for node in walk_expr(expr.predicate)):
                return False
            return self.accepts(expr.child, production.child_symbols[0])
        if operator == "join":
            return (
                isinstance(expr, Join)
                and self.accepts(expr.left, production.child_symbols[0])
                and self.accepts(expr.right, production.child_symbols[1])
            )
        if operator == "union":
            return isinstance(expr, Union) and all(
                self.accepts(child, production.child_symbols[0]) for child in expr.inputs
            )
        if operator == "flatten":
            return isinstance(expr, Flatten) and self.accepts(expr.child, production.child_symbols[0])
        if operator == "limit":
            return isinstance(expr, log.Limit) and self.accepts(expr.child, production.child_symbols[0])
        if operator == "rename":
            return isinstance(expr, log.Rename) and self.accepts(expr.child, production.child_symbols[0])
        if operator == "groupby":
            return isinstance(expr, log.GroupBy) and self.accepts(expr.child, production.child_symbols[0])
        if operator == "bag":
            return isinstance(expr, log.BagLiteral)
        return False

    def supported_operators(self) -> set[str]:
        return {p.operator for p in self.productions if p.operator is not None}

    def supports(self, operator: str) -> bool:
        return operator in self.supported_operators()

    def render(self) -> str:
        return "\n".join(production.render() for production in self.productions)


def reference_grammar_for(operators: Iterable[str], compose: bool = True) -> ReferenceGrammar:
    operators = set(operators) | {"get"}
    child = "s" if compose else "SOURCE"
    productions: list[Production] = []
    nonterminals: list[str] = []
    for head, operator, children in (
        ("b", "get", ("SOURCE",)),
        ("c", "project", (child,)),
        ("d", "select", (child,)),
        ("e", "join", (child, child)),
        ("f", "union", (child,)),
        ("g", "flatten", (child,)),
        ("h", "limit", (child,)),
        ("i", "rename", (child,)),
        ("k", "groupby", (child,)),
    ):
        if operator in operators:
            productions.append(Production(head, operator, children))
            nonterminals.append(head)
    # ``in`` is predicate vocabulary: its head is left out of the
    # alias/composition nonterminals, so no tree is derived from it.
    in_productions = [Production("j", "in")] if "in" in operators else []
    aliases = [Production("a", None, (head,)) for head in nonterminals]
    composition: list[Production] = []
    if compose:
        composition = [Production("s", None, (head,)) for head in nonterminals]
        composition.append(Production("s", None, ("SOURCE",)))
    return ReferenceGrammar("a", tuple(aliases + productions + in_productions + composition))


# -- random operator sets and random trees of every logical class -------------------------------

X_ID = Path(Var("x"), "id")
PREDICATES = st.sampled_from(
    [
        Comparison(">", Path(Var("x"), "salary"), Const(10)),
        InList(X_ID, (Const(1), Const(2))),
        BooleanExpr("and", (Comparison("=", X_ID, Const(3)), InList(X_ID, (Const(4),)))),
        BooleanExpr("not", (InList(Path(Var("x"), "name"), (Const("a"),)),)),
    ]
)


def extend(children: st.SearchStrategy) -> st.SearchStrategy:
    """One node of any logical class over ``children``, two times in three of
    a class some wrapper may support."""
    one = children
    pushable = st.one_of(
        one.map(lambda child: log.Project(("n",), child)),
        st.builds(lambda predicate, child: log.Select("x", predicate, child), PREDICATES, one),
        one.map(lambda child: log.Rename((("n", "m"),), child)),
        st.builds(lambda left, right: log.Join(left, right, "id"), one, one),
        st.lists(one, max_size=3).map(lambda inputs: log.Union(tuple(inputs))),
        one.map(log.Flatten),
        one.map(lambda child: log.Limit(3, child)),
        one.map(lambda child: log.GroupBy("x", (("k", X_ID),), (("n", "count", Var("x")),), child)),
    )
    mediator_only = st.one_of(
        one.map(lambda child: log.Submit("r0", child, extent_name="a")),
        one.map(lambda child: log.Apply("x", X_ID, child)),
        st.builds(lambda left, right: log.BindJoin(left, right, "x", "y"), one, one),
        one.map(log.Distinct),
    )
    return st.sampled_from([pushable, pushable, mediator_only]).flatmap(lambda strategy: strategy)


TREES = st.recursive(
    st.sampled_from([Get("a"), Get("b"), Get("b"), log.BagLiteral((1, 2))]),
    extend,
    max_leaves=6,
)
#: any subset, or all but a few (most random trees need most operators)
OPERATORS = st.one_of(
    st.sets(st.sampled_from(list(PUSHABLE_OPERATORS))),
    st.sets(st.sampled_from(list(PUSHABLE_OPERATORS)), max_size=2).map(
        lambda missing: set(PUSHABLE_OPERATORS) - missing
    ),
)
UNKNOWN = st.sets(st.sampled_from(["bag", "apply", "distinct", "submit", "teleport"]), max_size=1)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(OPERATORS, UNKNOWN, st.booleans(), st.lists(TREES, min_size=1, max_size=8))
def test_the_direct_check_gives_the_production_grammars_verdicts(operators, unknown, compose, trees):
    reference = reference_grammar_for(operators | unknown, compose)
    if unknown:
        with pytest.raises(ValueError):
            grammar_for(operators | unknown, compose)
        # The reference ignores a name it has no production for.
        assert reference.render() == reference_grammar_for(operators, compose).render()
    capabilities = grammar_for(operators, compose)
    assert capabilities.render() == reference.render()
    assert capabilities.supported_operators() == reference.supported_operators()
    for name in [*PUSHABLE_OPERATORS, *unknown]:
        assert capabilities.supports(name) == reference.supports(name)
    for tree in trees:
        assert capabilities.accepts(tree) == reference.accepts(tree), tree.to_text()
        assert capabilities.admits(tree) == reference.accepts(tree), tree.to_text()
