"""Wrapper capability descriptions (paper Section 3.2).

A wrapper tells the mediator which logical operators it supports through the
``submit-functionality`` call.  The paper gives two representations:

* a flat set such as ``{get, project, compose}`` -- modelled by
  :class:`CapabilitySet`;
* a grammar whose terminals are the operators, which can additionally express
  whether operators *compose* -- modelled by :class:`CapabilityGrammar`.

Transformation rules consult these before pushing an operation into a
``submit``; the run-time system re-checks before calling a wrapper so an
illegal plan fails loudly rather than silently changing query semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.algebra.logical import (
    BagLiteral,
    Get,
    GroupBy,
    Join,
    Limit,
    LogicalOp,
    Project,
    Rename,
    Select,
    Union,
)

#: operator names a wrapper may support; ``apply`` is always mediator-side.
#: ``limit`` is the fetch-size terminal: a wrapper declaring it accepts a row
#: cap inside the submitted expression and stops producing server-side.
#: ``rename`` is the aliasing terminal (a project-with-aliases): the namespace
#: planner relies on it to keep colliding source attribute names apart when a
#: multi-extent expression is pushed to one source; wrappers that do not
#: declare it never receive aliased pushdowns (the executor splits the call
#: into per-leaf gets instead).
#: ``in`` is a *predicate vocabulary* terminal rather than a tree operator: a
#: wrapper declaring it accepts ``select`` predicates containing set-valued
#: membership tests (:class:`~repro.algebra.expressions.InList`), which is
#: what lets the mediator batch bind-join probe keys into one ``IN``-list
#: submit instead of one submit per key.
#: ``groupby`` is the summarization terminal: a wrapper declaring it accepts
#: grouped aggregation inside the submitted expression, so only group rows
#: (not raw extent rows) cross the wire; wrappers without it receive the
#: stripped expression and the mediator re-aggregates the shipped rows.
PUSHABLE_OPERATORS = (
    "get",
    "project",
    "select",
    "join",
    "union",
    "flatten",
    "limit",
    "rename",
    "in",
    "groupby",
)


@dataclass(frozen=True)
class CapabilitySet:
    """Flat description: which operators are supported, and whether they compose.

    ``compose=False`` reproduces the paper's restricted wrapper that
    "understands get and project of sources, but not the composition of these
    operations": each supported operator may only be applied directly to a
    source, never to the result of another operator.
    """

    operators: frozenset[str]
    compose: bool = True

    @classmethod
    def of(cls, *operators: str, compose: bool = True) -> "CapabilitySet":
        """Build a capability set from operator names."""
        unknown = [op for op in operators if op not in PUSHABLE_OPERATORS]
        if unknown:
            raise ValueError(f"unknown pushable operator(s) {unknown!r}")
        return cls(frozenset(operators), compose=compose)

    @classmethod
    def get_only(cls) -> "CapabilitySet":
        """The minimal wrapper: only ``get(source)``."""
        return cls.of("get")

    @classmethod
    def full(cls) -> "CapabilitySet":
        """A wrapper supporting every pushable operator with composition."""
        return cls(frozenset(PUSHABLE_OPERATORS), compose=True)

    def supports(self, operator: str) -> bool:
        """Return True when ``operator`` is in the supported set."""
        return operator in self.operators

    def to_grammar(self) -> "CapabilityGrammar":
        """Derive the equivalent grammar (the paper's second representation)."""
        return grammar_for(self.operators, compose=self.compose)


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
        """Render in the paper's ``a :- project OPEN ... CLOSE`` style."""
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
class CapabilityGrammar:
    """A grammar over logical operator trees.

    ``accepts(expr)`` decides whether the wrapper can evaluate ``expr`` --
    exactly the legality check the mediator performs before pushing an
    expression through ``submit``.  A grammar never changes once built, so a
    verdict on an (equally immutable) expression holds for as long as both
    objects do: :meth:`admits` keeps it on the expression.
    """

    start: str = "a"
    productions: tuple[Production, ...] = ()
    #: ``productions`` by head, in declaration order
    _by_head: dict[str, tuple[Production, ...]] = field(
        init=False, repr=False, compare=False
    )
    #: operator names appearing in any production
    _operators: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_head: dict[str, list[Production]] = {}
        for production in self.productions:
            by_head.setdefault(production.head, []).append(production)
        object.__setattr__(
            self, "_by_head", {head: tuple(group) for head, group in by_head.items()}
        )
        object.__setattr__(
            self,
            "_operators",
            frozenset(p.operator for p in self.productions if p.operator is not None),
        )

    def _productions_for(self, head: str) -> tuple[Production, ...]:
        return self._by_head.get(head, ())

    def admits(self, expr: LogicalOp) -> bool:
        """``accepts(expr)`` from the start symbol, walked once per tree.

        The grammars that accepted a tree are remembered *on the tree*, by
        identity, and nowhere else: an expression this very grammar object
        has not accepted before is walked in full, and the memory lives and
        dies with the expression.  (Grammars, plural: a wrapper delegating to
        an inner wrapper checks the same tree against both.)  Refusals are
        not remembered.
        """
        admitted_by = expr._admitted_by
        for grammar in admitted_by:
            if grammar is self:
                return True
        accepted = self.accepts(expr)
        if accepted:
            # Unlocked: a racing thread's entry may be lost, and is walked
            # for again.
            object.__setattr__(expr, "_admitted_by", admitted_by + (self,))
        return accepted

    def accepts(self, expr: LogicalOp, symbol: str | None = None) -> bool:
        """Return True when ``expr`` is derivable from ``symbol`` (default: start)."""
        symbol = symbol or self.start
        if symbol == "SOURCE":
            return isinstance(expr, Get)
        for production in self._productions_for(symbol):
            if production.operator is None:
                if self.accepts(expr, production.child_symbols[0]):
                    return True
                continue
            if self._matches(expr, production):
                return True
        return False

    def _matches(self, expr: LogicalOp, production: Production) -> bool:
        operator = production.operator
        if operator == "get":
            return isinstance(expr, Get)
        if operator == "project":
            return isinstance(expr, Project) and self.accepts(
                expr.child, production.child_symbols[0]
            )
        if operator == "select":
            if not isinstance(expr, Select):
                return False
            if not self._predicate_vocabulary_ok(expr.predicate):
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
            from repro.algebra.logical import Flatten

            return isinstance(expr, Flatten) and self.accepts(
                expr.child, production.child_symbols[0]
            )
        if operator == "limit":
            return isinstance(expr, Limit) and self.accepts(
                expr.child, production.child_symbols[0]
            )
        if operator == "rename":
            return isinstance(expr, Rename) and self.accepts(
                expr.child, production.child_symbols[0]
            )
        if operator == "groupby":
            return isinstance(expr, GroupBy) and self.accepts(
                expr.child, production.child_symbols[0]
            )
        if operator == "bag":
            return isinstance(expr, BagLiteral)
        return False

    def _predicate_vocabulary_ok(self, predicate) -> bool:
        """A pushed predicate may use ``in`` only when the grammar declares it."""
        from repro.algebra.expressions import InList, walk_expr

        if self.supports("in"):
            return True
        return not any(isinstance(node, InList) for node in walk_expr(predicate))

    def supported_operators(self) -> set[str]:
        """Operator names appearing in any production (the flat view)."""
        return set(self._operators)

    def supports(self, operator: str) -> bool:
        """Return True when some production mentions ``operator``."""
        return operator in self._operators

    def render(self) -> str:
        """Render every production, one per line, in the paper's notation."""
        return "\n".join(production.render() for production in self.productions)


def grammar_for(operators: Iterable[str], compose: bool = True) -> CapabilityGrammar:
    """Build the grammar for a set of supported operators.

    With ``compose=True`` the child symbol of every operator is the
    nonterminal ``s`` which can expand to any supported operator or SOURCE
    (the paper's composing grammar); with ``compose=False`` the child symbol
    is SOURCE itself (operators apply only directly to sources).
    """
    operators = set(operators)
    if "get" not in operators:
        # Every wrapper can at least retrieve a collection; the paper's
        # minimal example is {get}.
        operators.add("get")
    child = "s" if compose else "SOURCE"
    productions: list[Production] = []
    nonterminals: list[str] = []

    def add(head: str, operator: str, children: tuple[str, ...]) -> None:
        productions.append(Production(head=head, operator=operator, child_symbols=children))
        nonterminals.append(head)

    if "get" in operators:
        add("b", "get", ("SOURCE",))
    if "project" in operators:
        add("c", "project", (child,))
    if "select" in operators:
        add("d", "select", (child,))
    if "join" in operators:
        add("e", "join", (child, child))
    if "union" in operators:
        add("f", "union", (child,))
    if "flatten" in operators:
        add("g", "flatten", (child,))
    if "limit" in operators:
        add("h", "limit", (child,))
    if "rename" in operators:
        add("i", "rename", (child,))
    if "groupby" in operators:
        add("k", "groupby", (child,))

    in_productions: list[Production] = []
    if "in" in operators:
        # ``in`` is predicate vocabulary, not a tree shape: the production
        # exists so ``supports("in")`` and the rendered grammar advertise it,
        # but its head is deliberately left out of the alias/composition
        # nonterminals -- ``accepts`` never derives a tree from it.
        in_productions.append(Production(head="j", operator="in", child_symbols=()))

    alias_productions = [
        Production(head="a", operator=None, child_symbols=(head,)) for head in nonterminals
    ]
    composition_productions: list[Production] = []
    if compose:
        for head in nonterminals:
            composition_productions.append(
                Production(head="s", operator=None, child_symbols=(head,))
            )
        composition_productions.append(
            Production(head="s", operator=None, child_symbols=("SOURCE",))
        )
    return CapabilityGrammar(
        start="a",
        productions=tuple(
            alias_productions + productions + in_productions + composition_productions
        ),
    )
