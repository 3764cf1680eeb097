"""Physical algorithms of the run-time system (paper Sections 3.1 and 3.3).

Each physical algorithm is one class, and the class states the two facts the
paper gives every algorithm: the logical operator it implements (Section 4:
"each physical operation has a corresponding logical operation"; the
``implements`` attribute) and its cost function (Section 3.3; the ``cost``
method, over its operands' costs).  A class that omits either is refused
when it is defined.  :data:`IMPLEMENTS` is read off the classes
(``bindjoin`` has two algorithms; ``get`` on a single object, a repository,
is :class:`Field`).

``Exec`` keeps its argument as a *logical* expression because "the wrapper
interface accepts a logical expression"; the run-time system applies the
extent's local transformation map before calling the wrapper and applies the
inverse map to the rows that come back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Sequence

from repro.algebra import logical as log
from repro.algebra.expressions import Expr, find_equi_conjunct
from repro.algebra.logical import LogicalOp, TextCachedNode
from repro.algebra.nodes import Node, builder, walk


@dataclass(frozen=True)
class Cost:
    """Estimated execution time (seconds) and output cardinality (rows)."""

    time: float
    rows: float

    def __add__(self, other: "Cost") -> "Cost":
        return Cost(self.time + other.time, self.rows + other.rows)

    def total(self) -> float:
        """The scalar the optimizer minimises."""
        return self.time


#: time charged per row processed by a mediator-side operator
MEDIATOR_ROW_COST = 1e-6
#: time charged once per mediator-side operator
MEDIATOR_OPERATOR_OVERHEAD = 1e-5
#: share of its input a mediator-side filter is assumed to keep
DEFAULT_SELECTIVITY = 0.33
#: assumed ratio of distinct group rows to input rows for ``groupby``
#: estimation.  This is what makes the summarization pushdown pay off in
#: the cost model: a grouped exec ships an estimated 5% of the extent's
#: rows (a keyless -- scalar -- aggregate ships exactly one).
GROUPBY_OUTPUT_RATIO = 0.05


def grouped_rows(input_rows: float, has_keys: bool) -> float:
    """Estimated group count for ``input_rows`` input rows."""
    if not has_keys:
        return 1.0  # a scalar aggregate always yields exactly one row
    if input_rows <= 0.0:
        return 0.0
    return max(1.0, input_rows * GROUPBY_OUTPUT_RATIO)


def _mediator_pass(child: Cost, rows: float, evaluations: int = 1) -> Cost:
    """One mediator-side pass over ``child``'s rows, ``evaluations``
    expression evaluations per row, giving ``rows`` rows."""
    return Cost(
        child.time + MEDIATOR_OPERATOR_OVERHEAD + child.rows * evaluations * MEDIATOR_ROW_COST,
        rows,
    )


class PhysicalOp(TextCachedNode, Node):
    """Base class for physical operator nodes (children: the fields typed ``PhysicalOp``).

    Every algorithm states ``implements``, its logical counterpart, and
    ``cost(*operand_costs) -> Cost``, its cost function, nondecreasing in
    each operand's time and rows (the plan search's Pareto pruning relies on
    it).  ``None`` says "none of its own": ``Field`` has neither, and
    ``Exec`` and ``ProbeJoin`` are costed from the call history by
    :class:`~repro.optimizer.cost.CostModel`.
    """

    algo_name: str = "physical"
    implements: ClassVar[type[LogicalOp] | None]

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        missing = [name for name in ("implements", "cost") if not hasattr(cls, name)]
        if missing:
            raise TypeError(
                f"physical algorithm {cls.__name__} does not state "
                + " or ".join(f"`{name}`" for name in missing)
                + " (None when it has none of its own)"
            )

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
    #: the source placeholder inside an ``Exec``, never a plan node of its own
    implements = None
    cost = None

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
    implements = log.Submit
    #: read from the call history (``CostModel``)
    cost = None

    def _render(self) -> str:
        return f"exec({self.source.to_text()}, {self.expression.to_text()})"


@dataclass(frozen=True, eq=False)
class MkProj(PhysicalOp):
    """``mkproj(attributes, child)``: mediator-side projection."""

    attributes: tuple[str, ...]
    child: PhysicalOp
    algo_name = "mkproj"
    implements = log.Project

    def cost(self, child: Cost) -> Cost:
        return _mediator_pass(child, child.rows)

    def _render(self) -> str:
        return f"mkproj({','.join(self.attributes)}, {self.child.to_text()})"


@dataclass(frozen=True, eq=False)
class Filter(PhysicalOp):
    """``filter(predicate, child)``: mediator-side selection."""

    variable: str
    predicate: Expr
    child: PhysicalOp
    algo_name = "filter"
    implements = log.Select

    def cost(self, child: Cost) -> Cost:
        return _mediator_pass(child, child.rows * DEFAULT_SELECTIVITY)

    def _render(self) -> str:
        return f"filter({self.variable}: {self.predicate.to_oql()}, {self.child.to_text()})"


@dataclass(frozen=True, eq=False)
class MkApply(PhysicalOp):
    """``mkapply(expr, child)``: mediator-side per-element computation."""

    variable: str
    expression: Expr
    child: PhysicalOp
    algo_name = "mkapply"
    implements = log.Apply

    def cost(self, child: Cost) -> Cost:
        return _mediator_pass(child, child.rows, evaluations=2)

    def _render(self) -> str:
        return f"mkapply({self.variable}: {self.expression.to_oql()}, {self.child.to_text()})"


@dataclass(frozen=True, eq=False)
class MkBindJoin(PhysicalOp):
    """Mediator-side join over variable bindings (implements logical ``bindjoin``)."""

    left: PhysicalOp
    right: PhysicalOp
    left_variable: str
    right_variable: str
    condition: Expr | None = None
    algo_name = "mkbindjoin"
    implements = log.BindJoin

    def cost(self, left: Cost, right: Cost) -> Cost:
        # The run-time system reads both sides once and hash-joins when the
        # condition allows it: charge the hash-join cost plus a small setup
        # factor.
        time = left.time + right.time + (left.rows + right.rows) * 2 * MEDIATOR_ROW_COST
        if find_equi_conjunct(self.condition, self.left_variable, self.right_variable):
            return Cost(time, max(left.rows, right.rows))
        # Without an equi conjunct ``bind_join_rows`` then pairs every left
        # row with every right row (a condition keeps a filter's share),
        # charged on top of the reads so that it never undercuts the hash
        # join over the same sides, as it would at no-history 1 x 1 rows.
        pairs = left.rows * right.rows
        rows = pairs if self.condition is None else pairs * DEFAULT_SELECTIVITY
        return Cost(time + pairs * MEDIATOR_ROW_COST, rows)

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
    implements = log.BindJoin
    #: its probe is read from the call history (``CostModel``)
    cost = None

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
    implements = log.Union

    def cost(self, *inputs: Cost) -> Cost:
        return Cost(sum(each.time for each in inputs), sum(each.rows for each in inputs))

    def _render(self) -> str:
        return "mkunion(" + ", ".join(child.to_text() for child in self.inputs) + ")"


@dataclass(frozen=True, eq=False)
class MkFlatten(PhysicalOp):
    """``mkflatten(child)``: mediator-side flatten."""

    child: PhysicalOp
    algo_name = "mkflatten"
    implements = log.Flatten

    def cost(self, child: Cost) -> Cost:
        return _mediator_pass(child, child.rows)

    def _render(self) -> str:
        return f"mkflatten({self.child.to_text()})"


@dataclass(frozen=True, eq=False)
class MkDistinct(PhysicalOp):
    """``mkdistinct(child)``: mediator-side duplicate elimination."""

    child: PhysicalOp
    algo_name = "mkdistinct"
    implements = log.Distinct

    def cost(self, child: Cost) -> Cost:
        return _mediator_pass(child, child.rows)

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
    implements = log.GroupBy

    def cost(self, child: Cost) -> Cost:
        # Two expression evaluations per input row (keys and aggregates),
        # like MkApply; the output is the (much smaller) group list.
        return _mediator_pass(child, grouped_rows(child.rows, bool(self.keys)), evaluations=2)

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
    implements = log.Limit

    def cost(self, child: Cost) -> Cost:
        rows = min(child.rows, float(self.count))
        # The cap on output rows is what makes pushed-down limits pay off:
        # every operator above a limit is costed on at most `count` rows.
        return Cost(child.time + MEDIATOR_OPERATOR_OVERHEAD + rows * MEDIATOR_ROW_COST, rows)

    def _render(self) -> str:
        return f"mklimit({self.count}, {self.child.to_text()})"


@dataclass(frozen=True, eq=False)
class MkBag(PhysicalOp):
    """``mkbag(values)``: literal data in a physical plan."""

    values: tuple[Any, ...] = ()
    algo_name = "mkbag"
    implements = log.BagLiteral

    def cost(self) -> Cost:
        return Cost(time=0.0, rows=float(len(self.values)))

    def _render(self) -> str:
        return "mkbag(" + ", ".join(repr(value) for value in self.values) + ")"


#: physical algorithm -> the logical operator it implements, read off the
#: classes above.  The first algorithm defined for a logical operator is its
#: default implementation.  ``Field`` (the source placeholder inside
#: ``Exec``) and ``Get`` (only ever evaluated inside a submit, at the source)
#: have no counterpart.
IMPLEMENTS: dict[type[PhysicalOp], type[LogicalOp]] = {
    cls: cls.implements for cls in PhysicalOp.__subclasses__() if cls.implements is not None
}

#: class to build -> its builder, for both sides of every pair in the table;
#: resolved here, once, not per node built
_BUILDERS = {cls: builder(cls) for pair in IMPLEMENTS.items() for cls in pair}


def counterpart(target: type, node: Any, children: Sequence[Any]) -> Any:
    """Build ``target`` -- ``node``'s class on the other side of :data:`IMPLEMENTS`.

    Everything but the operands carries the same field name on both sides,
    so the new node takes those fields from ``node`` and its operands from
    ``children`` (already on ``target``'s side).  ``Exec``/``Submit`` differ
    in shape and are built by their callers.
    """
    return _BUILDERS[target](node, children)


def execs_in(node: PhysicalOp) -> list[Exec]:
    """Return every :class:`Exec` node in the tree, in pre-order."""
    return [candidate for candidate in walk(node) if isinstance(candidate, Exec)]
