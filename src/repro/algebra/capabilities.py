"""Wrapper capability descriptions (paper Section 3.2).

A wrapper tells the mediator which logical operators it supports through the
``submit-functionality`` call.  The paper gives two representations: a flat
set such as ``{get, project, compose}``, and a grammar whose terminals are the
operators, which can also express whether operators *compose*.  Every grammar
such a set describes is one :class:`CapabilitySet` (``grammar_for`` builds
it): :meth:`CapabilitySet.accepts` decides what the grammar derives, and
:meth:`CapabilitySet.render` writes its productions in the paper's notation.

Transformation rules consult these before pushing an operation into a
``submit``; the run-time system re-checks before calling a wrapper so an
illegal plan fails loudly rather than silently changing query semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.algebra.expressions import Expr, InList, walk_expr
from repro.algebra.logical import Get, LogicalOp, Select

#: operator names a wrapper may support, each with the arguments of its
#: production in the paper's grammar notation (``{0}``: the operand symbol);
#: its place here is its nonterminal, ``b`` onwards.  ``apply`` is always
#: mediator-side.
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
PUSHABLE_OPERATORS: dict[str, str] = {
    "get": "SOURCE",
    "project": "ATTRIBUTE COMMA {0}",
    "select": "PREDICATE COMMA {0}",
    "join": "{0} COMMA {0} COMMA ATTRIBUTE",
    "union": "{0}",
    "flatten": "{0}",
    "limit": "COUNT COMMA {0}",
    "rename": "ALIASES COMMA {0}",
    "in": "PATH COMMA VALUES",
    "groupby": "KEYS COMMA AGGREGATES COMMA {0}",
}


@dataclass(frozen=True)
class CapabilitySet:
    """Which operators are supported, and whether they compose.

    ``get`` is always supported: every wrapper can at least retrieve a
    collection (the paper's minimal example is ``{get}``).  ``compose=False``
    reproduces the paper's restricted wrapper that "understands get and
    project of sources, but not the composition of these operations": each
    supported operator may only be applied directly to a source, never to the
    result of another operator.
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
        """Return True when ``operator`` is supported."""
        return operator == "get" or operator in self.operators

    def supported_operators(self) -> set[str]:
        """The supported operator names (the flat view)."""
        return {"get", *self.operators}

    def accepts(self, expr: LogicalOp) -> bool:
        """Return True when the wrapper can evaluate ``expr``.

        A ``get`` always; any other node when its operator is supported, its
        predicate (a select's) uses only declared vocabulary, and each operand
        is accepted in turn -- or, without composition, is a bare ``get``.
        """
        if isinstance(expr, Get):
            return True
        if expr.op_name not in self.operators:
            return False
        if isinstance(expr, Select) and not self._vocabulary_ok(expr.predicate):
            return False
        if self.compose:
            # The operands by this rule, not an override's: a subclass that
            # checks a whole tree (``SqlCapabilitySet``) checks it once, at the root.
            return all(CapabilitySet.accepts(self, child) for child in expr.children())
        return all(isinstance(child, Get) for child in expr.children())

    def admits(self, expr: LogicalOp) -> bool:
        """:meth:`accepts`, walked once per tree.

        The capability sets that accepted a tree are remembered *on the
        tree*, by identity, and nowhere else: an expression this very object
        has not accepted before is walked in full, and the memory lives and
        dies with the expression.  (Sets, plural: a wrapper delegating to an
        inner wrapper checks the same tree against both.)  Refusals are not
        remembered.
        """
        admitted_by = expr._admitted_by
        for capabilities in admitted_by:
            if capabilities is self:
                return True
        accepted = self.accepts(expr)
        if accepted:
            # Unlocked: a racing thread's entry may be lost, and is walked
            # for again.
            object.__setattr__(expr, "_admitted_by", admitted_by + (self,))
        return accepted

    def _vocabulary_ok(self, predicate: Expr) -> bool:
        """A pushed predicate may use ``in`` only when the set declares it."""
        return "in" in self.operators or not any(
            isinstance(node, InList) for node in walk_expr(predicate)
        )

    def render(self) -> str:
        """The equivalent grammar, one production per line, in the paper's notation.

        ``a`` derives each supported tree operator and, with composition, so
        does every operand symbol ``s`` (as does SOURCE, a bare ``get``);
        without it the operand symbol is SOURCE itself.  ``in`` is predicate
        vocabulary, not a tree shape: its production is listed last and
        neither ``a`` nor ``s`` derives it.
        """
        operand = "s" if self.compose else "SOURCE"
        heads = {name: chr(ord("b") + index) for index, name in enumerate(PUSHABLE_OPERATORS)}
        declared = [name for name in PUSHABLE_OPERATORS if self.supports(name)]
        trees = [heads[name] for name in declared if name != "in"]
        lines = [f"a :- {head}" for head in trees]
        lines += [
            f"{heads[name]} :- {name} OPEN {PUSHABLE_OPERATORS[name].format(operand)} CLOSE"
            for name in sorted(declared, key=lambda name: name == "in")
        ]
        if self.compose:
            lines += [f"s :- {head}" for head in trees] + ["s :- SOURCE"]
        return "\n".join(lines)


def grammar_for(operators: Iterable[str], compose: bool = True) -> CapabilitySet:
    """The capabilities a grammar over ``operators`` describes.

    With ``compose=True`` the operand of every operator is the nonterminal
    ``s``, which expands to any supported operator or SOURCE (the paper's
    composing grammar); with ``compose=False`` it is SOURCE itself
    (operators apply only directly to sources).
    """
    return CapabilitySet.of(*operators, compose=compose)
