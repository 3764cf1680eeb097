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

from dataclasses import dataclass, fields
from typing import Any, Callable, Sequence

from repro.algebra import logical as log
from repro.algebra.expressions import Expr
from repro.algebra.logical import LogicalOp, TextCachedNode


class PhysicalOp(TextCachedNode):
    """Base class for physical operator nodes."""

    algo_name: str = "physical"

    def children(self) -> tuple["PhysicalOp", ...]:
        """Child operators, left to right."""
        return ()

    def with_children(self, children: Sequence["PhysicalOp"]) -> "PhysicalOp":
        """Return a copy with ``children`` substituted."""
        if children:
            raise ValueError(f"{self.algo_name} takes no children")
        return self

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

    def children(self) -> tuple[PhysicalOp, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[PhysicalOp]) -> "MkProj":
        (child,) = children
        return MkProj(self.attributes, child)

    def _render(self) -> str:
        return f"mkproj({','.join(self.attributes)}, {self.child.to_text()})"


@dataclass(frozen=True, eq=False)
class MkRename(PhysicalOp):
    """``mkrename(old as new, ..., child)``: mediator-side project-with-aliases."""

    pairs: tuple[tuple[str, str], ...]
    child: PhysicalOp
    algo_name = "mkrename"

    def children(self) -> tuple[PhysicalOp, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[PhysicalOp]) -> "MkRename":
        (child,) = children
        return MkRename(self.pairs, child)

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

    def children(self) -> tuple[PhysicalOp, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[PhysicalOp]) -> "Filter":
        (child,) = children
        return Filter(self.variable, self.predicate, child)

    def _render(self) -> str:
        return f"filter({self.variable}: {self.predicate.to_oql()}, {self.child.to_text()})"


@dataclass(frozen=True, eq=False)
class MkApply(PhysicalOp):
    """``mkapply(expr, child)``: mediator-side per-element computation."""

    variable: str
    expression: Expr
    child: PhysicalOp
    algo_name = "mkapply"

    def children(self) -> tuple[PhysicalOp, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[PhysicalOp]) -> "MkApply":
        (child,) = children
        return MkApply(self.variable, self.expression, child)

    def _render(self) -> str:
        return f"mkapply({self.variable}: {self.expression.to_oql()}, {self.child.to_text()})"


@dataclass(frozen=True, eq=False)
class HashJoin(PhysicalOp):
    """Hash equi-join, the default join algorithm."""

    left: PhysicalOp
    right: PhysicalOp
    on: str | tuple[str, str]
    algo_name = "hashjoin"

    def children(self) -> tuple[PhysicalOp, ...]:
        return (self.left, self.right)

    def with_children(self, children: Sequence[PhysicalOp]) -> "HashJoin":
        left, right = children
        return HashJoin(left, right, self.on)

    def join_attributes(self) -> tuple[str, str]:
        """Return the ``(left_attribute, right_attribute)`` pair."""
        return self.on if isinstance(self.on, tuple) else (self.on, self.on)

    def _render(self) -> str:
        on = self.on if isinstance(self.on, str) else f"{self.on[0]}={self.on[1]}"
        return f"hashjoin({self.left.to_text()}, {self.right.to_text()}, {on})"


@dataclass(frozen=True, eq=False)
class NestedLoopJoin(PhysicalOp):
    """Nested-loop equi-join: cheaper to set up, quadratic to run."""

    left: PhysicalOp
    right: PhysicalOp
    on: str | tuple[str, str]
    algo_name = "nljoin"

    def children(self) -> tuple[PhysicalOp, ...]:
        return (self.left, self.right)

    def with_children(self, children: Sequence[PhysicalOp]) -> "NestedLoopJoin":
        left, right = children
        return NestedLoopJoin(left, right, self.on)

    def join_attributes(self) -> tuple[str, str]:
        """Return the ``(left_attribute, right_attribute)`` pair."""
        return self.on if isinstance(self.on, tuple) else (self.on, self.on)

    def _render(self) -> str:
        on = self.on if isinstance(self.on, str) else f"{self.on[0]}={self.on[1]}"
        return f"nljoin({self.left.to_text()}, {self.right.to_text()}, {on})"


@dataclass(frozen=True, eq=False)
class MkBindJoin(PhysicalOp):
    """Mediator-side join over variable bindings (implements logical ``bindjoin``)."""

    left: PhysicalOp
    right: PhysicalOp
    left_variable: str
    right_variable: str
    condition: Expr | None = None
    algo_name = "mkbindjoin"

    def children(self) -> tuple[PhysicalOp, ...]:
        return (self.left, self.right)

    def with_children(self, children: Sequence[PhysicalOp]) -> "MkBindJoin":
        left, right = children
        return MkBindJoin(
            left, right, self.left_variable, self.right_variable, condition=self.condition
        )

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

    def children(self) -> tuple[PhysicalOp, ...]:
        return (self.left,)

    def with_children(self, children: Sequence[PhysicalOp]) -> "ProbeJoin":
        (left,) = children
        return ProbeJoin(
            left,
            self.probe,
            self.left_variable,
            self.right_variable,
            self.condition,
        )

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

    def children(self) -> tuple[PhysicalOp, ...]:
        return self.inputs

    def with_children(self, children: Sequence[PhysicalOp]) -> "MkUnion":
        return MkUnion(tuple(children))

    def _render(self) -> str:
        return "mkunion(" + ", ".join(child.to_text() for child in self.inputs) + ")"


@dataclass(frozen=True, eq=False)
class MkFlatten(PhysicalOp):
    """``mkflatten(child)``: mediator-side flatten."""

    child: PhysicalOp
    algo_name = "mkflatten"

    def children(self) -> tuple[PhysicalOp, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[PhysicalOp]) -> "MkFlatten":
        (child,) = children
        return MkFlatten(child)

    def _render(self) -> str:
        return f"mkflatten({self.child.to_text()})"


@dataclass(frozen=True, eq=False)
class MkDistinct(PhysicalOp):
    """``mkdistinct(child)``: mediator-side duplicate elimination."""

    child: PhysicalOp
    algo_name = "mkdistinct"

    def children(self) -> tuple[PhysicalOp, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[PhysicalOp]) -> "MkDistinct":
        (child,) = children
        return MkDistinct(child)

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

    def children(self) -> tuple[PhysicalOp, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[PhysicalOp]) -> "MkGroupBy":
        (child,) = children
        return MkGroupBy(self.variable, self.keys, self.aggregates, child)

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

    def children(self) -> tuple[PhysicalOp, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[PhysicalOp]) -> "MkLimit":
        (child,) = children
        return MkLimit(self.count, child)

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

#: the fields that hold operands; both hierarchies name them alike
_OPERANDS = ("child", "left", "right", "inputs")


def _builder(target: type, source: type) -> Callable[[Any, Sequence[Any]], Any]:
    """Compile ``(node, children) -> target(...)`` for one pair of the table.

    Each of ``target``'s fields is an operand, taken from ``children`` in
    order (``inputs`` takes them all), or a field ``source`` carries under
    the same name, taken from ``node``.  The first field ``source`` lacks
    ends the list: ``Join``'s variable names, which no join algorithm keeps,
    have defaults.  Compiled, like a dataclass ``__init__``: the optimizer
    builds hundreds of nodes per plan search, and walking the field names
    per call measured +50% on its own time (and -5% queries/s) on never-seen
    query texts.
    """
    theirs = {f.name for f in fields(source)}
    arguments: list[str] = []
    operands = 0
    for name in (f.name for f in fields(target)):
        if name == "inputs":
            arguments.append("tuple(children)")
        elif name in _OPERANDS:
            arguments.append(f"children[{operands}]")
            operands += 1
        elif name in theirs:
            arguments.append(f"node.{name}")
        else:
            break
    return eval(f"lambda node, children: target({', '.join(arguments)})", {"target": target})


#: (class to build, class to build it from) -> builder, both ways round for
#: every pair in the table; resolved here, once, not per node built
_BUILDERS = {
    pair: _builder(*pair)
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


def walk(node: PhysicalOp):
    """Yield every node of the physical tree, parents before children."""
    yield node
    for child in node.children():
        yield from walk(child)


def execs_in(node: PhysicalOp) -> list[Exec]:
    """Return every :class:`Exec` node in the tree, in pre-order."""
    return [candidate for candidate in walk(node) if isinstance(candidate, Exec)]
