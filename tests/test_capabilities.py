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

from repro import Mediator, RelationalWrapper
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
from repro.algebra.logical import BindJoin, Flatten, Get, Project, Select, Union
from repro.sources import RelationalEngine, SimulatedServer


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
        assert CapabilitySet.full().supported_operators() == set(PUSHABLE_OPERATORS)

    def test_supports(self):
        caps = CapabilitySet.of("get", "project")
        assert caps.supports("project")
        assert not caps.supports("select")


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

    def test_select_project_composition(self):
        grammar = grammar_for({"get", "project", "select"})
        assert grammar.accepts(Project(("name",), select_of_get()))
        assert grammar.accepts(Select("x", Comparison(">", Path(Var("x"), "salary"), Const(10)), project_of_get()))

    def test_union_and_flatten(self):
        """A submit ranges over one extent: no grammar derives a union, a
        flatten or a join, and none can be declared."""
        grammar = CapabilitySet.full()
        assert not grammar.accepts(Union((Get("a"), Get("b"))))
        assert not grammar.accepts(Flatten(Get("a")))
        assert not grammar.accepts(BindJoin(Get("a"), Get("b"), "x", "y"))
        for name in ("join", "union", "flatten", "rename"):
            with pytest.raises(ValueError):
                grammar_for({"get", name})

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
        elif self.operator == "groupby":
            parts = ["KEYS", "COMMA", "AGGREGATES", "COMMA", self.child_symbols[0]]
        elif self.operator == "in":
            parts = ["PATH", "COMMA", "VALUES"]
        elif self.operator == "get":
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
        if operator == "limit":
            return isinstance(expr, log.Limit) and self.accepts(expr.child, production.child_symbols[0])
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
        ("e", "limit", (child,)),
        ("f", "groupby", (child,)),
    ):
        if operator in operators:
            productions.append(Production(head, operator, children))
            nonterminals.append(head)
    # ``in`` is predicate vocabulary: its head is left out of the
    # alias/composition nonterminals, so no tree is derived from it.
    in_productions = [Production("g", "in")] if "in" in operators else []
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
        one.map(lambda child: log.Limit(3, child)),
        one.map(lambda child: log.GroupBy("x", (("k", X_ID),), (("n", "count", Var("x")),), child)),
    )
    mediator_only = st.one_of(
        one.map(lambda child: log.Submit("r0", child, extent_name="a")),
        one.map(lambda child: log.Apply("x", X_ID, child)),
        st.builds(lambda left, right: log.BindJoin(left, right, "x", "y"), one, one),
        one.map(log.Distinct),
        st.lists(one, max_size=3).map(lambda inputs: log.Union(tuple(inputs))),
        one.map(log.Flatten),
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
UNKNOWN = st.sets(
    st.sampled_from(["bag", "apply", "distinct", "submit", "join", "union", "flatten", "rename", "teleport"]),
    max_size=1,
)


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


# -- the vocabulary is the one the rules push ----------------------------------------------------


class SpyWrapper(RelationalWrapper):
    """A relational wrapper declaring every terminal that records what it is sent."""

    def __init__(self, name, server, received):
        super().__init__(name, server)
        self.received = received

    def _record(self, expression):
        for node in log.walk(expression):
            self.received.add(node.op_name)
            if isinstance(node, Select) and any(isinstance(e, InList) for e in walk_expr(node.predicate)):
                self.received.add("in")

    def submit(self, expression):
        self._record(expression)
        return super().submit(expression)

    def submit_stream(self, expression, resume_from=None):
        self._record(expression)
        return super().submit_stream(expression, resume_from)


def spy_mediator(received: set[str]) -> Mediator:
    """``person0`` and ``dept0`` on two spying wrappers; 40 departments, so a
    join from the six people probes ``dept0`` with ``in`` instead of shipping it."""
    mediator = Mediator(name="spy")
    for index, rows in enumerate(
        (
            [{"id": i, "name": f"p{i}", "salary": 10 * i} for i in range(6)],
            [{"id": i, "dname": f"d{i}"} for i in range(40)],
        )
    ):
        engine = RelationalEngine(name=f"db{index}")
        engine.create_table(f"t{index}", rows=rows)
        server = SimulatedServer(name=f"h{index}", store=engine)
        mediator.register_wrapper(f"w{index}", SpyWrapper(f"w{index}", server, received))
        mediator.create_repository(f"r{index}", host=server.name)
    mediator.define_interface(
        "Person", [("id", "Long"), ("name", "String"), ("salary", "Long")], extent_name="person"
    )
    mediator.define_interface("Dept", [("id", "Long"), ("dname", "String")], extent_name="dept")
    mediator.add_extent("person0", "Person", "w0", "r0", source_collection="t0")
    mediator.add_extent("dept0", "Dept", "w1", "r1", source_collection="t1")
    return mediator


#: name -> (OQL text, the terminals its submits carry, the answer's size)
VOCABULARY_TEXTS = {
    "filter": ("select x from x in person0 where x.salary > 20", {"get", "select"}, 3),
    "projection": ("select x.name from x in person0", {"get", "project"}, 6),
    "limit": ("select x from x in person0 limit 2", {"get", "limit"}, 2),
    "group-by": (
        "select struct(s: x.salary, n: count(x)) from x in person0 group by s: x.salary",
        {"get", "groupby"},
        6,
    ),
    "probing-bind-join": (
        "select struct(n: x.name, d: d.dname) from x in person0, d in dept0 where x.id = d.id",
        {"get", "select", "in"},
        6,
    ),
}


@pytest.mark.parametrize("name", sorted(VOCABULARY_TEXTS))
def test_an_oql_text_pushes_its_own_terminals(name):
    """Each shape of query reaches the source as the terminals that write it,
    and the answer computed from them is complete."""
    text, terminals, size = VOCABULARY_TEXTS[name]
    received: set[str] = set()
    mediator = spy_mediator(received)
    try:
        result = mediator.query(text)
        assert not result.is_partial and len(result.rows()) == size
    finally:
        mediator.close()
    assert received == terminals


def test_oql_texts_reach_exactly_the_pushable_vocabulary():
    """Filter, projection, ``limit``, ``group by`` and a probing bind join
    between them send every terminal a wrapper may declare, and nothing else:
    a terminal no rule pushes does not come back."""
    received: set[str] = set()
    mediator = spy_mediator(received)
    try:
        for text, _, _ in VOCABULARY_TEXTS.values():
            assert not mediator.query(text).is_partial, text
    finally:
        mediator.close()
    assert received == set(PUSHABLE_OPERATORS)


@pytest.mark.parametrize("name", ["join", "union", "flatten", "rename"])
def test_a_multi_extent_terminal_cannot_be_declared(name):
    """A submit ranges over one extent: the terminals that would combine or
    alias extents at a source are not in the vocabulary at all."""
    with pytest.raises(ValueError, match="unknown pushable operator"):
        CapabilitySet.of("get", name)
    assert not CapabilitySet.full().supports(name)
