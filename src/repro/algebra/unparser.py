"""Turning logical expressions back into OQL text.

Partial evaluation (paper Section 4) requires that "the physical expression is
transformed back into a high level query", which is possible "because each
physical operation has a corresponding logical operation, and each logical
operation has a corresponding OQL expression".  This module implements the
logical -> OQL half of that round trip; the physical -> logical half lives in
:mod:`repro.runtime.partial_eval`.
"""

from __future__ import annotations

import itertools
import os

from repro.algebra.expressions import Expr, Var, literal_to_oql
from repro.algebra.logical import (
    Apply,
    BagLiteral,
    BindJoin,
    Distinct,
    Flatten,
    Get,
    GroupBy,
    Join,
    Limit,
    LogicalOp,
    Project,
    Rename,
    Select,
    Submit,
    Union,
    join_on,
    walk,
)
from repro.errors import QueryExecutionError


#: brackets the number of a ``Bag(...)`` whose values are not written yet;
#: drawn per process, so no name or constant in a plan spells it
_HOLE = f"\x00{os.urandom(8).hex()}\x00"


class _Unparser:
    """Stateful helper allocating fresh variable names while unparsing.

    Given a ``bags`` list, a ``Bag(...)`` is appended to it and written as
    its number there, between two holes, instead of its values."""

    def __init__(self, bags: list[BagLiteral] | None = None) -> None:
        self._counter = itertools.count()
        self._bags = bags

    def fresh_variable(self, preferred: str | None = None) -> str:
        """Return ``preferred`` or a fresh ``xN`` variable name."""
        if preferred:
            return preferred
        return f"x{next(self._counter)}"

    # -- collection-level rendering -----------------------------------------------------
    def unparse(self, node: LogicalOp) -> str:
        """Render ``node`` as an OQL expression producing a collection."""
        if isinstance(node, BagLiteral):
            if self._bags is not None:
                self._bags.append(node)
                return f"Bag({_HOLE}{len(self._bags) - 1}{_HOLE})"
            return "Bag(" + ", ".join(map(literal_to_oql, node.values)) + ")"
        if isinstance(node, Union):
            return "union(" + ", ".join(self.unparse(child) for child in node.inputs) + ")"
        if isinstance(node, Flatten):
            return f"flatten({self.unparse(node.child)})"
        if isinstance(node, Limit):
            if isinstance(
                node.child,
                (Get, Submit, Project, Rename, Select, Apply, Join, Distinct, GroupBy),
            ):
                # OQL's limit clause applies last, after grouping, so a limit
                # over a groupby attaches to the grouped block directly.
                return self.unparse(node.child) + f" limit {node.count}"
            # A limited union/flatten/literal becomes a select block so the
            # "limit" clause has a select to attach to.
            variable = self.fresh_variable()
            return (
                f"select {variable} from {variable} in "
                f"({self.unparse(node.child)}) limit {node.count}"
            )
        if isinstance(node, Distinct):
            child = node.child
            while isinstance(child, Distinct):  # distinct is idempotent
                child = child.child
            inner = self.unparse(child)
            if inner.startswith("select distinct "):
                return inner
            if inner.startswith("select "):
                return "select distinct " + inner[len("select "):]
            # distinct over a union/flatten/literal becomes its own block.
            variable = self.fresh_variable()
            return f"select distinct {variable} from {variable} in ({inner})"
        if isinstance(node, GroupBy):
            # A grouped block of its own: the select item is the output
            # struct (keys plus aggregate calls), and the grouping keys
            # repeat in the ``group by`` clause.  A keyless groupby -- a
            # scalar aggregate -- omits the clause: the aggregate calls in
            # the item are what makes the re-parsed query aggregate.
            variable = node.variable
            fields = [f"{name}: {expr.to_oql()}" for name, expr in node.keys]
            fields.extend(
                f"{name}: {func}({arg.to_oql()})"
                for name, func, arg in node.aggregates
            )
            text = (
                f"select struct({', '.join(fields)}) "
                f"from {variable} in {self._inline_source(node.child)}"
            )
            if node.keys:
                text += " group by " + ", ".join(
                    f"{name}: {expr.to_oql()}" for name, expr in node.keys
                )
            return text
        if isinstance(node, (Get, Submit, Project, Rename, Select, Apply, Join, BindJoin)):
            return self._render_select(node)
        raise QueryExecutionError(f"cannot render {node.to_text()} as OQL")

    # -- select-from-where rendering -------------------------------------------------------
    def _render_select(self, node: LogicalOp) -> str:
        select_item, sources, predicates, limit = self._decompose(node)
        if not sources:
            raise QueryExecutionError(f"no collection under {node.to_text()}")
        from_parts = ", ".join(f"{var} in {collection}" for var, collection in sources)
        text = f"select {select_item} from {from_parts}"
        if predicates:
            text += " where " + " and ".join(predicates)
        if limit is not None:
            text += f" limit {limit}"
        return text

    def _decompose(
        self, node: LogicalOp
    ) -> tuple[str, list[tuple[str, str]], list[str], int | None]:
        """Break a single-block plan into (item, from sources, predicates, limit).

        The limit is carried separately so that a ``limit`` in the middle of
        a project/apply spine (the shape the fetch-size pushdown produces)
        renders as the block's ``limit`` clause instead of forcing a nested
        block -- nesting would re-apply single-attribute projections to the
        already-projected values.  Project/apply are one-to-one, so a limit
        below them equals the block-level limit OQL applies last; a select
        above a limit changes the semantics and nests instead.
        """
        if isinstance(node, Submit):
            # submit is transparent in OQL: its argument already names the
            # extent in the mediator name space.
            return self._decompose(node.expression)
        if isinstance(node, Get):
            variable = self.fresh_variable()
            return variable, [(variable, node.collection)], [], None
        if isinstance(node, Limit):
            item, sources, predicates, limit = self._decompose(node.child)
            limit = node.count if limit is None else min(limit, node.count)
            return item, sources, predicates, limit
        if isinstance(node, Project):
            item, sources, predicates, limit = self._decompose(node.child)
            variable = sources[0][0] if sources else item
            if len(node.attributes) == 1:
                item = f"{variable}.{node.attributes[0]}"
            else:
                fields = ", ".join(f"{attr}: {variable}.{attr}" for attr in node.attributes)
                item = f"struct({fields})"
            return item, sources, predicates, limit
        if isinstance(node, Rename):
            # A project-with-aliases: a struct item that reads the old names
            # and writes the new ones.  Rename is one-to-one per element, so
            # a limit below it commutes exactly like it does for project.
            _item, sources, predicates, limit = self._decompose(node.child)
            if len(sources) != 1:
                # A rename above a join/bindjoin reads attributes off the
                # *merged* element; without schema knowledge the attributes
                # cannot be attributed to one block variable, so there is no
                # faithful OQL rendering -- fail loudly rather than emit a
                # query that reads every attribute off the first variable.
                raise QueryExecutionError(
                    f"cannot render {node.to_text()} as OQL: rename over a "
                    "multi-source block has no faithful select-from rendering"
                )
            variable = sources[0][0]
            fields = ", ".join(f"{new}: {variable}.{old}" for old, new in node.pairs)
            return f"struct({fields})", sources, predicates, limit
        if isinstance(node, Select):
            child_item, sources, predicates, limit = self._decompose(node.child)
            if limit is not None:
                # The limit truncates *before* this predicate filters; OQL's
                # limit clause applies last, so the limited child must become
                # its own block.
                variable = self.fresh_variable()
                predicate_text = self._rebind_expression(
                    node.predicate, node.variable, variable
                )
                return (
                    variable,
                    [(variable, self._inline_source(node.child))],
                    [predicate_text],
                    None,
                )
            variable = sources[0][0] if sources else node.variable
            predicate_text = self._rebind_expression(node.predicate, node.variable, variable)
            return child_item, sources, predicates + [predicate_text], limit
        if isinstance(node, Apply):
            item, sources, predicates, limit = self._decompose(node.child)
            variable = sources[0][0] if sources else node.variable
            item = self._rebind_expression(node.expression, node.variable, variable)
            return item, sources, predicates, limit
        if isinstance(node, Join):
            left_sources, left_predicates = self._join_operand(node.left)
            right_sources, right_predicates = self._join_operand(node.right)
            left_attr, right_attr, _ = join_on(node.on)
            left_var = left_sources[0][0]
            right_var = right_sources[0][0]
            item = f"struct(left: {left_var}, right: {right_var})"
            predicates = left_predicates + right_predicates + [
                f"{left_var}.{left_attr} = {right_var}.{right_attr}"
            ]
            return item, left_sources + right_sources, predicates, None
        if isinstance(node, BindJoin):
            # A multi-variable from clause: each side becomes an inline
            # collection ranged over by the bindjoin's own variable, so the
            # condition (and any enclosing apply item) keeps its references.
            sources = [
                (node.left_variable, self._inline_source(node.left)),
                (node.right_variable, self._inline_source(node.right)),
            ]
            predicates = [] if node.condition is None else [node.condition.to_oql()]
            item = (
                f"struct({node.left_variable}: {node.left_variable}, "
                f"{node.right_variable}: {node.right_variable})"
            )
            return item, sources, predicates, None
        if isinstance(node, (Union, Flatten, BagLiteral, Distinct, GroupBy)):
            # A nested collection expression becomes an inline from-source.
            variable = self.fresh_variable()
            return variable, [(variable, self._inline_source(node))], [], None
        raise QueryExecutionError(f"cannot decompose {node.to_text()}")

    def _join_operand(self, side: LogicalOp) -> tuple[list[tuple[str, str]], list[str]]:
        """One join operand's sources and predicates; a limited side becomes
        its own block (the limit truncates before joining, so it cannot merge
        into the join's block).  A side containing a rename also becomes its
        own block: the aliases change the element's attribute names before the
        join sees them, which a merged select-from-where cannot express."""
        _item, sources, predicates, limit = self._decompose(side)
        if limit is None and not any(isinstance(node, Rename) for node in walk(side)):
            return sources, predicates
        variable = self.fresh_variable()
        return [(variable, self._inline_source(side))], []

    def _inline_source(self, node: LogicalOp) -> str:
        """Render ``node`` as a parenthesized inline from-clause collection."""
        if isinstance(node, Get):
            return node.collection
        return f"({self.unparse(node)})"

    def _rebind_expression(self, expression: Expr, old: str, new: str) -> str:
        """Render ``expression`` with variable ``old`` renamed to ``new``."""
        if old == new:
            return expression.to_oql()
        return _substitute_variable(expression, old, new).to_oql()


def _substitute_variable(expression: Expr, old: str, new: str) -> Expr:
    """Return ``expression`` with every reference to ``old`` replaced by ``new``."""
    if isinstance(expression, Var):
        return Var(new) if expression.name == old else expression
    return expression.map_operands(lambda operand: _substitute_variable(operand, old, new))


def logical_to_oql(node: LogicalOp) -> str:
    """Render a logical plan as OQL text (entry point used for partial answers)."""
    return _Unparser().unparse(node)


class OQLText:
    """A logical plan's OQL text, its literal data written when first read.

    The plan's shape is written at once, so a plan with no faithful
    rendering fails where it was built; each ``Bag(...)``'s values -- a
    partial answer's rows -- are written by the first ``str()``, and kept.
    The text is :func:`logical_to_oql`'s, byte for byte.
    """

    __slots__ = ("_pieces", "_bags", "_text")

    def __init__(self, node: LogicalOp) -> None:
        self._bags: list[BagLiteral] = []
        #: every other piece is the number of a bag in ``_bags``
        self._pieces = _Unparser(self._bags).unparse(node).split(_HOLE)
        self._text: str | None = None

    def __str__(self) -> str:
        if self._text is None:
            self._text = "".join(
                ", ".join(map(literal_to_oql, self._bags[int(piece)].values)) if at % 2 else piece
                for at, piece in enumerate(self._pieces)
            )
        return self._text


def _written(value: str | OQLText | None) -> str | None:
    return str(value) if isinstance(value, OQLText) else value


def written_when_read(*names: str):
    """Class decorator: each dataclass field in ``names`` may be given an
    :class:`OQLText` and reads back as its text, written on that read (once
    for every holder of the same :class:`OQLText`).  ``_<name>`` keeps the
    value as given: what one holder hands on to the next."""

    def install(cls: type) -> type:
        for name in names:
            slot = "_" + name
            read = lambda holder, slot=slot: _written(getattr(holder, slot))  # noqa: E731
            store = lambda holder, value, slot=slot: setattr(holder, slot, value)  # noqa: E731
            setattr(cls, name, property(read, store))
        return cls

    return install
