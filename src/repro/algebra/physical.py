"""Physical algorithms of the run-time system (paper Sections 3.1 and 3.3).

Each logical operator has at least one physical algorithm implementing it;
which implements which is stated once, in :data:`IMPLEMENTS` below (``join``
and ``bindjoin`` have two each; ``get`` on a single object, a repository, is
:class:`Field`).

``Exec`` keeps its argument as a *logical* expression because "the wrapper
interface accepts a logical expression"; the run-time system applies the
extent's local transformation map before calling the wrapper and applies the
inverse map to the rows that come back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.algebra import logical as log
from repro.algebra.expressions import Expr
from repro.algebra.logical import LogicalOp, TextCachedNode
from repro.algebra.nodes import Node, builder, walk


class PhysicalOp(TextCachedNode, Node):
    """Base class for physical operator nodes (children: the fields typed ``PhysicalOp``)."""

    algo_name: str = "physical"

    def __repr__(self) -> str:
        return self.to_text()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PhysicalOp) and self.to_text() == other.to_text()

    def __hash__(self) -> int:
        return hash(self.to_text())


@dataclass(frozen=True, eq=False)
class Field(PhysicalOp):
    """``field(r)``: the physical form of ``get`` on a single object (a repository)."""

    name: str
    algo_name = "field"

    def _render(self) -> str:
        return f"field({self.name})"


@dataclass(frozen=True, eq=False)
class Exec(PhysicalOp):
    """``exec(field(source), logical_expression)``: one call to a wrapper.

    ``extent_name`` identifies which MetaExtent (and therefore which wrapper,
    repository and map) the run-time system uses for the call.
    """

    source: Field
    expression: LogicalOp
    extent_name: str
    algo_name = "exec"

    def _render(self) -> str:
        return f"exec({self.source.to_text()}, {self.expression.to_text()})"


@dataclass(frozen=True, eq=False)
class MkProj(PhysicalOp):
    """``mkproj(attributes, child)``: mediator-side projection."""

    attributes: tuple[str, ...]
    child: PhysicalOp
    algo_name = "mkproj"


    def _render(self) -> str:
        return f"mkproj({','.join(self.attributes)}, {self.child.to_text()})"


@dataclass(frozen=True, eq=False)
class MkRename(PhysicalOp):
    """``mkrename(old as new, ..., child)``: mediator-side project-with-aliases."""

    pairs: tuple[tuple[str, str], ...]
    child: PhysicalOp
    algo_name = "mkrename"


    def _render(self) -> str:
        aliased = ",".join(
            old if old == new else f"{old} as {new}" for old, new in self.pairs
        )
        return f"mkrename({aliased}, {self.child.to_text()})"


@dataclass(frozen=True, eq=False)
class Filter(PhysicalOp):
    """``filter(predicate, child)``: mediator-side selection."""

    variable: str
    predicate: Expr
    child: PhysicalOp
    algo_name = "filter"


    def _render(self) -> str:
        return f"filter({self.variable}: {self.predicate.to_oql()}, {self.child.to_text()})"


@dataclass(frozen=True, eq=False)
class MkApply(PhysicalOp):
    """``mkapply(expr, child)``: mediator-side per-element computation."""

    variable: str
    expression: Expr
    child: PhysicalOp
    algo_name = "mkapply"


    def _render(self) -> str:
        return f"mkapply({self.variable}: {self.expression.to_oql()}, {self.child.to_text()})"


@dataclass(frozen=True, eq=False)
class HashJoin(PhysicalOp):
    """Hash equi-join, the default join algorithm."""

    left: PhysicalOp
    right: PhysicalOp
    on: str | tuple[str, str]
    algo_name = "hashjoin"


    def _render(self) -> str:
        return f"hashjoin({self.left.to_text()}, {self.right.to_text()}, {log.join_on(self.on)[2]})"


@dataclass(frozen=True, eq=False)
class NestedLoopJoin(PhysicalOp):
    """Nested-loop equi-join: cheaper to set up, quadratic to run."""

    left: PhysicalOp
    right: PhysicalOp
    on: str | tuple[str, str]
    algo_name = "nljoin"


    def _render(self) -> str:
        return f"nljoin({self.left.to_text()}, {self.right.to_text()}, {log.join_on(self.on)[2]})"


@dataclass(frozen=True, eq=False)
class MkBindJoin(PhysicalOp):
    """Mediator-side join over variable bindings (implements logical ``bindjoin``)."""

    left: PhysicalOp
    right: PhysicalOp
    left_variable: str
    right_variable: str
    condition: Expr | None = None
    algo_name = "mkbindjoin"


    def _render(self) -> str:
        condition = self.condition.to_oql() if self.condition is not None else "true"
        return (
            f"mkbindjoin({self.left_variable}: {self.left.to_text()}, "
            f"{self.right_variable}: {self.right.to_text()}, {condition})"
        )


@dataclass(frozen=True, eq=False)
class ProbeJoin(PhysicalOp):
    """Batched bind join: probe the right source with ``IN``-lists of left keys.

    Implements logical ``bindjoin`` when the right side is a single ``submit``
    and the condition carries an equi-join conjunct.  Instead of shipping the
    whole right extent (``MkBindJoin``) or probing one binding per call
    (``evaluate_subquery``), the run-time system collects up to
    ``ExecutorConfig.bind_batch_size`` distinct left-side keys and issues one
    set-valued submit per batch: ``select(v: key in (k1, ..., kn), expr)``.

    ``probe`` is deliberately *not* a child: ``execs_in`` must not see it, or
    both engines would dispatch the full right-side exec eagerly before a
    single probe key exists.
    """

    left: PhysicalOp
    probe: Exec
    left_variable: str
    right_variable: str
    condition: Expr
    algo_name = "probejoin"


    def _render(self) -> str:
        return (
            f"probejoin({self.left_variable}: {self.left.to_text()}, "
            f"{self.right_variable}: {self.probe.to_text()}, {self.condition.to_oql()})"
        )


@dataclass(frozen=True, eq=False)
class MkUnion(PhysicalOp):
    """``mkunion(children...)``: mediator-side bag union."""

    inputs: tuple[PhysicalOp, ...]
    algo_name = "mkunion"


    def _render(self) -> str:
        return "mkunion(" + ", ".join(child.to_text() for child in self.inputs) + ")"


@dataclass(frozen=True, eq=False)
class MkFlatten(PhysicalOp):
    """``mkflatten(child)``: mediator-side flatten."""

    child: PhysicalOp
    algo_name = "mkflatten"


    def _render(self) -> str:
        return f"mkflatten({self.child.to_text()})"


@dataclass(frozen=True, eq=False)
class MkDistinct(PhysicalOp):
    """``mkdistinct(child)``: mediator-side duplicate elimination."""

    child: PhysicalOp
    algo_name = "mkdistinct"


    def _render(self) -> str:
        return f"mkdistinct({self.child.to_text()})"


@dataclass(frozen=True, eq=False)
class MkGroupBy(PhysicalOp):
    """``mkgroupby(keys; aggregates, child)``: mediator-side grouped aggregation.

    Implements logical ``groupby`` when it stays at the mediator -- the
    compensation side of the summarization pushdown (and the combine phase of
    two-phase aggregation over a union).  A pipeline barrier: groups are
    emitted only after the child is exhausted.
    """

    variable: str
    keys: tuple[tuple[str, Expr], ...]
    aggregates: tuple[tuple[str, str, Expr], ...]
    child: PhysicalOp
    algo_name = "mkgroupby"


    def _render(self) -> str:
        keys = ",".join(f"{name}: {expr.to_oql()}" for name, expr in self.keys)
        aggs = ",".join(
            f"{name}: {func}({arg.to_oql()})" for name, func, arg in self.aggregates
        )
        return f"mkgroupby({self.variable}: [{keys}] [{aggs}], {self.child.to_text()})"


@dataclass(frozen=True, eq=False)
class MkLimit(PhysicalOp):
    """``mklimit(n, child)``: stop after ``n`` elements (implements ``limit``).

    Under the streaming engine this is an early-termination point: once the
    count is reached the child pipeline is closed and in-flight exec calls
    are cancelled.
    """

    count: int
    child: PhysicalOp
    algo_name = "mklimit"


    def _render(self) -> str:
        return f"mklimit({self.count}, {self.child.to_text()})"


@dataclass(frozen=True, eq=False)
class MkBag(PhysicalOp):
    """``mkbag(values)``: literal data in a physical plan."""

    values: tuple[Any, ...] = ()
    algo_name = "mkbag"

    def _render(self) -> str:
        return "mkbag(" + ", ".join(repr(value) for value in self.values) + ")"


#: Paper Section 4: "each physical operation has a corresponding logical
#: operation" -- the one statement of which.  The first algorithm listed for
#: a logical operator is its default implementation.  ``Field`` (the source
#: placeholder inside ``Exec``) and ``Get`` (only ever evaluated inside a
#: submit, at the source) have no counterpart.
IMPLEMENTS: dict[type[PhysicalOp], type[LogicalOp]] = {
    Exec: log.Submit,
    MkBag: log.BagLiteral,
    MkProj: log.Project,
    MkRename: log.Rename,
    Filter: log.Select,
    MkApply: log.Apply,
    HashJoin: log.Join,
    NestedLoopJoin: log.Join,
    MkBindJoin: log.BindJoin,
    ProbeJoin: log.BindJoin,
    MkUnion: log.Union,
    MkFlatten: log.Flatten,
    MkDistinct: log.Distinct,
    MkLimit: log.Limit,
    MkGroupBy: log.GroupBy,
}

#: (class to build, class to build it from) -> builder, both ways round for
#: every pair in the table; resolved here, once, not per node built
_BUILDERS = {
    pair: builder(*pair)
    for physical, logical in IMPLEMENTS.items()
    for pair in ((physical, logical), (logical, physical))
}


def counterpart(target: type, node: Any, children: Sequence[Any]) -> Any:
    """Build ``target`` -- ``node``'s class on the other side of :data:`IMPLEMENTS`.

    Everything but the operands carries the same field name on both sides,
    so the new node takes those fields from ``node`` and its operands from
    ``children`` (already on ``target``'s side).  ``Exec``/``Submit`` differ
    in shape and are built by their callers.
    """
    return _BUILDERS[target, type(node)](node, children)


def execs_in(node: PhysicalOp) -> list[Exec]:
    """Return every :class:`Exec` node in the tree, in pre-order."""
    return [candidate for candidate in walk(node) if isinstance(candidate, Exec)]
