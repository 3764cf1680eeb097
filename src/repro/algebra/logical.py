"""Logical operators of the mediator's algebraic machine (paper Sections 3.1-3.2).

The operator set is the one the paper names -- ``get``, ``project``,
``select`` (filter), ``union``, ``flatten`` and a join, here the mediator-side
:class:`BindJoin` over variable bindings -- plus two DISCO-specific nodes:

* :class:`Submit` -- ``submit(source, expression)``: "the meaning of
  expression is located at source".  Its argument lives in the *mediator's*
  name space; the exec physical algorithm translates it into the source's
  name space using the extent's local transformation map.
* :class:`BagLiteral` -- data embedded inside a plan, which is how partial
  answers carry the rows already obtained from the available sources.

``Apply`` is the general per-element computation operator (struct
construction, arithmetic, aggregates over nested subqueries); it is never
pushed to a wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.algebra.expressions import Expr
from repro.algebra.nodes import Node, walk


class TextCachedNode:
    """``to_text()`` rendered once per node -- while the text is short.

    Operator nodes are immutable (every operator class is a frozen
    dataclass; ``python -m repro.analysis`` refuses one that is not), so a
    subtree's text never changes and can be kept on the node after its first
    rendering.  The optimizer compares, hashes and dedupes plans by text, and
    its alternatives share every node off the one path that was rewritten --
    typically the pushed ``submit`` branches of a union, a hundred characters
    each -- so each alternative pays for its own path only.

    Long text is rebuilt on every call, as it always was.  What is long is
    either the spine above the shared branches, which every alternative
    builds anew anyway, or a subtree holding literal rows
    (:class:`BagLiteral`, ``MkBag``): that text is the ``repr`` of every row,
    and keeping it at the literal *and at each ancestor* would hold several
    copies of a partial answer's data for as long as the plan is cached.
    """

    #: longest text a node keeps; the benchmark's pushed branches are 90-130
    KEPT_TEXT_LIMIT = 256

    #: the rendered text once kept; set on the instance, never on the class
    _text: str | None = None

    def to_text(self, placeholders: bool = False) -> str:
        """Compact textual form, e.g. ``project(name, submit(r0, get(person0)))``.

        With ``placeholders`` (logical nodes only) every constant of a select
        predicate or an apply expression is written as a placeholder
        (``Expr.to_oql``): the history's close signature, rendered in one
        pass and never kept.
        """
        if placeholders:
            return self._render(True)
        text = self._text
        if text is None:
            text = self._render()
            if len(text) <= self.KEPT_TEXT_LIMIT:
                # Not ``self.__dict__[...]``: touching ``__dict__`` makes CPython
                # build a dict for the instance, ~100 bytes on every cached node.
                object.__setattr__(self, "_text", text)
        return text

    def _render(self) -> str:
        """Build the text (subclasses; reach sub-plans through ``to_text()``,
        and a logical node passes its ``placeholders`` flag on)."""
        raise NotImplementedError


class LogicalOp(TextCachedNode, Node):
    """Base class for logical operator nodes (children: the fields typed ``LogicalOp``)."""

    #: operator name used by capability sets and transformation rules
    op_name: str = "logical"

    #: the capability sets that accepted this whole tree, by identity
    #: (``CapabilitySet.admits``); set on the instance, never the class
    _admitted_by: tuple[Any, ...] = ()

    def __repr__(self) -> str:
        return self.to_text()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LogicalOp) and self.to_text() == other.to_text()

    def __hash__(self) -> int:
        return hash(self.to_text())


@dataclass(frozen=True, eq=False)
class Get(LogicalOp):
    """``get(collection)``: retrieve every object of a named collection."""

    collection: str
    op_name = "get"

    def _render(self, placeholders: bool = False) -> str:
        return f"get({self.collection})"


@dataclass(frozen=True, eq=False)
class Submit(LogicalOp):
    """``submit(source, expression)``: evaluate ``expression`` at ``source``.

    ``extent_name`` identifies the MetaExtent whose wrapper/repository/map the
    exec algorithm will use; ``source`` keeps the repository name so the plan
    prints exactly like the paper's examples.
    """

    source: str
    expression: LogicalOp
    extent_name: str | None = None
    op_name = "submit"


    def _render(self, placeholders: bool = False) -> str:
        return f"submit({self.source}, {self.expression.to_text(placeholders)})"


@dataclass(frozen=True, eq=False)
class Project(LogicalOp):
    """``project(attributes, child)``: keep only the named attributes."""

    attributes: tuple[str, ...]
    child: LogicalOp
    op_name = "project"


    def _render(self, placeholders: bool = False) -> str:
        attrs = ",".join(self.attributes)
        return f"project({attrs}, {self.child.to_text(placeholders)})"


@dataclass(frozen=True, eq=False)
class Select(LogicalOp):
    """``select(predicate, child)``: keep elements satisfying the predicate.

    ``variable`` names the element inside ``predicate`` (the paper's queries
    always range a variable over a collection).
    """

    variable: str
    predicate: Expr
    child: LogicalOp
    op_name = "select"


    def _render(self, placeholders: bool = False) -> str:
        predicate = self.predicate.to_oql(placeholders)
        return f"select({self.variable}: {predicate}, {self.child.to_text(placeholders)})"


@dataclass(frozen=True, eq=False)
class Apply(LogicalOp):
    """``apply(expr, child)``: compute ``expr`` for each element (mediator only)."""

    variable: str
    expression: Expr
    child: LogicalOp
    op_name = "apply"


    def _render(self, placeholders: bool = False) -> str:
        expression = self.expression.to_oql(placeholders)
        return f"apply({self.variable}: {expression}, {self.child.to_text(placeholders)})"


@dataclass(frozen=True, eq=False)
class BindJoin(LogicalOp):
    """Mediator-side join over *variable bindings* (multi-variable ``from`` clauses).

    ``from x in person0 and y in person1`` binds two variables; the element
    produced by this operator is an environment mapping each variable name to
    its row, so that select items such as ``x.salary + y.salary`` (the paper's
    ``double`` reconciliation view) remain unambiguous.  ``condition`` is an
    optional predicate over both variables; the run-time system turns an
    equi-join conjunct into a hash join and falls back to nested loops.

    BindJoin never crosses the wrapper boundary -- it is not part of the
    pushable operator vocabulary.
    """

    left: LogicalOp
    right: LogicalOp
    left_variable: str
    right_variable: str
    condition: Expr | None = None
    op_name = "bindjoin"


    def _render(self, placeholders: bool = False) -> str:
        condition = self.condition.to_oql() if self.condition is not None else "true"
        return (
            f"bindjoin({self.left_variable}: {self.left.to_text(placeholders)}, "
            f"{self.right_variable}: {self.right.to_text(placeholders)}, {condition})"
        )


@dataclass(frozen=True, eq=False)
class Union(LogicalOp):
    """``union(e1, ..., en)``: n-ary additive bag union."""

    inputs: tuple[LogicalOp, ...]
    op_name = "union"


    def _render(self, placeholders: bool = False) -> str:
        return "union(" + ", ".join(child.to_text(placeholders) for child in self.inputs) + ")"


@dataclass(frozen=True, eq=False)
class Flatten(LogicalOp):
    """``flatten(child)``: flatten a bag of bags one level."""

    child: LogicalOp
    op_name = "flatten"


    def _render(self, placeholders: bool = False) -> str:
        return f"flatten({self.child.to_text(placeholders)})"


@dataclass(frozen=True, eq=False)
class Distinct(LogicalOp):
    """``distinct(child)``: drop duplicate elements (the OQL ``select distinct``)."""

    child: LogicalOp
    op_name = "distinct"


    def _render(self, placeholders: bool = False) -> str:
        return f"distinct({self.child.to_text(placeholders)})"


@dataclass(frozen=True, eq=False)
class Limit(LogicalOp):
    """``limit(n, child)``: keep at most the first ``n`` elements.

    Bags are unordered, so "first" means "first produced by the child" --
    any ``n`` elements are a correct answer.  The rewrite rules push it
    through projections and unions, and into a submit whose wrapper declares
    the ``limit`` terminal, so that early termination cancels upstream work.
    """

    count: int
    child: LogicalOp
    op_name = "limit"


    def _render(self, placeholders: bool = False) -> str:
        return f"limit({self.count}, {self.child.to_text(placeholders)})"


@dataclass(frozen=True, eq=False)
class GroupBy(LogicalOp):
    """``groupby(keys; aggregates, child)``: grouped aggregation.

    ``variable`` names the input element inside the key and aggregate
    expressions.  ``keys`` is a tuple of ``(name, expression)`` pairs -- the
    grouping attributes of the output rows; ``aggregates`` is a tuple of
    ``(name, function, argument)`` triples with ``function`` one of
    ``count``/``sum``/``min``/``max``/``avg``.  Each output row is a struct
    carrying exactly the key names plus the aggregate names, one row per
    distinct key combination (in first-seen order).  With *no* keys the
    operator always emits exactly one row, even over an empty input
    (``count`` 0, the other aggregates ``nil``) -- the scalar-aggregate
    convention SQL shares.

    Aggregate NULL semantics (one grouping kernel at the mediator and at every
    source, a SQL ``GROUP BY`` included, so pushed and compensated plans
    agree): ``count`` counts rows whose argument is not
    ``nil`` (a bare variable argument counts every row -- ``COUNT(*)``);
    ``sum``/``min``/``max``/``avg`` skip ``nil`` values and yield ``nil``
    when no value survives.
    """

    variable: str
    keys: tuple[tuple[str, Expr], ...]
    aggregates: tuple[tuple[str, str, Expr], ...]
    child: LogicalOp
    op_name = "groupby"


    def output_attributes(self) -> tuple[str, ...]:
        """The attribute names this operator emits (keys first)."""
        return tuple(name for name, _ in self.keys) + tuple(
            name for name, _func, _arg in self.aggregates
        )

    def _render(self, placeholders: bool = False) -> str:
        keys = ",".join(f"{name}: {expr.to_oql()}" for name, expr in self.keys)
        aggs = ",".join(
            f"{name}: {func}({arg.to_oql()})" for name, func, arg in self.aggregates
        )
        return f"groupby({self.variable}: [{keys}] [{aggs}], {self.child.to_text(placeholders)})"


@dataclass(frozen=True, eq=False)
class BagLiteral(LogicalOp):
    """Literal data inside a plan (the second argument of a partial answer)."""

    values: tuple[Any, ...] = ()
    op_name = "bag"

    def _render(self, placeholders: bool = False) -> str:
        return "Bag(" + ", ".join(repr(value) for value in self.values) + ")"


# -- tree utilities ------------------------------------------------------------------
def transform_bottom_up(node: LogicalOp, visit) -> LogicalOp:
    """Rebuild the tree bottom-up, replacing each node with ``visit(node)``."""
    children = node.children()
    if children:
        node = node.with_children([transform_bottom_up(child, visit) for child in children])
    return visit(node)


def submits_in(node: LogicalOp) -> list[Submit]:
    """Return every ``submit`` node in the tree, in pre-order."""
    return [candidate for candidate in walk(node) if isinstance(candidate, Submit)]

