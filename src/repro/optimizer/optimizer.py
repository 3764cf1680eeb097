"""The plan search: equivalence groups of logical trees, costed bottom-up.

"The optimizer searches the space of logical and physical trees for the
physical tree with the lowest cost.  The run-time system executes the physical
expression with the lowest cost."
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from itertools import product
from operator import is_, itemgetter
from typing import Any, NamedTuple

from repro.algebra.logical import BindJoin, LogicalOp, Submit, Union
from repro.algebra.physical import PhysicalOp, ProbeJoin
from repro.algebra.rewriter import Memo, Rewriter
from repro.errors import OptimizationError
from repro.optimizer.cost import Cost, CostMemo, CostModel
from repro.optimizer.implementation import _alternatives_of, _probe_join_for


@dataclass(frozen=True)
class OptimizedPlan:
    """The optimizer's output: the chosen trees and the estimated cost.

    ``logical_alternatives`` counts the group members the search explored,
    ``physical_alternatives`` the implementations it costed.
    """

    logical: LogicalOp
    physical: PhysicalOp
    cost: Cost
    logical_alternatives: int
    physical_alternatives: int
    #: the run-time system's slot: what it compiled for each ``exec`` node of
    #: ``physical`` (``Executor.compile_call``) on the first run of the plan
    #: as a *cached* plan.
    #: Owned by the plan, so whatever drops the plan -- a plan-cache
    #: eviction, a schema change, the mediator going away -- drops it too.
    exec_calls: dict[Any, Any] = field(default_factory=dict, compare=False, repr=False)


class _Point(NamedTuple):
    """A costed implementation of a group member (a union's partial sum: no plan)."""

    time: float
    rows: float
    plan: PhysicalOp | None
    node: LogicalOp
    #: the points of the member's operands, in order (a probe join's probe:
    #: its submit at no cost, the join's own cost counts the probes)
    inputs: tuple[_Point, ...]


def _pareto(points: list[_Point]) -> list[_Point]:
    """The points no other beats on both time and rows, fastest first; of two
    equal ones the smaller plan text stays (a partial sum: its inputs' texts)."""
    points.sort(key=itemgetter(0, 1))
    kept: list[_Point] = []
    for point in points:
        if not kept or point.rows < kept[-1].rows:
            kept.append(point)
        elif point.rows == kept[-1].rows and point.time == kept[-1].time and _texts(point) < _texts(kept[-1]):
            kept[-1] = point
    return kept


def _texts(point: _Point) -> list[str]:
    return [p.plan.to_text() for p in point.inputs] if point.plan is None else [point.plan.to_text()]


def _logical(point: _Point) -> LogicalOp:
    operands = [_logical(operand) for operand in point.inputs]
    same = all(map(is_, operands, point.node.children()))
    return point.node if same else point.node.with_children(operands)


def _owned(plan: PhysicalOp, seen: set[int]) -> PhysicalOp:
    """``plan`` with nodes of its own at every position: equal subtrees are one
    group's point, and the engines key exec calls by node identity."""
    children = plan.children()
    owned = [_owned(child, seen) for child in children]
    if id(plan) in seen or not all(map(is_, owned, children)):
        plan = plan.with_children(owned) if children else dataclasses.replace(plan)
    if isinstance(plan, ProbeJoin):
        if id(plan.probe) in seen:
            plan = dataclasses.replace(plan, probe=dataclasses.replace(plan.probe))
        seen.add(id(plan.probe))
    seen.add(id(plan))
    return plan


class _Search:
    """Costs one memo's groups bottom-up; a local of one ``optimize`` call."""

    def __init__(self, memo: Memo, cost_model: CostModel):
        self.memo, self.cost_model = memo, cost_model
        self.estimates = CostMemo()
        self.costed = 0
        self.points_of: dict[int, list[_Point]] = {}

    def point(self, plan: PhysicalOp, node: LogicalOp, inputs: tuple[_Point, ...]) -> _Point:
        self.costed += 1
        cost = self.cost_model.estimate(plan, self.estimates)
        return _Point(cost.time, cost.rows, plan, node, inputs)

    def points(self, group: int) -> list[_Point]:
        """The group's Pareto set over (time, rows), fastest first.

        Sound because every cost function is nondecreasing in each operand's
        time and rows; keeping only the fastest would not be (a select left
        at the mediator can be faster and still ship more rows to a parent
        that charges per row).  A member reaching back into a group still
        being costed is left out.
        """
        group = self.memo.find(group)
        if group in self.points_of:
            return self.points_of[group]
        self.points_of[group] = []
        found: list[_Point] = []
        for node, operands in self.memo.members(group):
            inputs = [self.points(operand) for operand in operands]
            if isinstance(node, Union):
                # A union costs the sum of its inputs: a partial sum beaten on
                # both counts stays beaten whatever follows, so the inputs are
                # added one at a time and only the surviving sums are built.
                sums = [_Point(0.0, 0.0, None, node, ())]
                for operand in inputs:
                    sums = _pareto(
                        [_Point(s.time + p.time, s.rows + p.rows, None, node, s.inputs + (p,)) for s in sums for p in operand]
                    )
                combinations: Any = [total.inputs for total in sums]
            else:
                combinations = product(*inputs)
            for combination in combinations:
                for plan in _alternatives_of(node, [[p.plan] for p in combination]):
                    found.append(self.point(plan, node, combination))
            if isinstance(node, BindJoin):
                # A probe join costs its probe from the history, not from the
                # exec's point: every submit of the right group may be probed,
                # whether or not its exec is among the group's points.
                for right, _ in self.memo.members(operands[1]):
                    if isinstance(right, Submit):
                        probing = node.with_children((node.left, right))
                        for left in inputs[0]:
                            plan = _probe_join_for(probing, left.plan)
                            if plan is not None:
                                probe = _Point(0.0, 0.0, plan.probe, right, ())
                                found.append(self.point(plan, probing, (left, probe)))
        self.points_of[group] = _pareto(found)
        return self.points_of[group]


class Optimizer:
    """Cost-based search over rewritten logical trees and their implementations."""

    def __init__(self, rewriter: Rewriter, cost_model: CostModel):
        self.rewriter = rewriter
        self.cost_model = cost_model

    def optimize(self, logical: LogicalOp) -> OptimizedPlan:
        """Return the cheapest physical plan for ``logical``.

        Each group of the rewriter's memo is implemented over its operands'
        points and costed once; the root's fastest point wins, ties going to
        fewer rows, then to the smaller plan text.  Memo, points and history
        readings are locals of this call: a history observation, a schema
        change or a swapped rule set is seen by the next one.
        """
        memo = self.rewriter.alternatives(logical)
        search = _Search(memo, self.cost_model)
        points = search.points(memo.root)
        if not points:
            raise OptimizationError("the optimizer produced no physical plan")
        return OptimizedPlan(
            logical=_logical(points[0]),
            physical=_owned(points[0].plan, set()),
            cost=Cost(points[0].time, points[0].rows),
            logical_alternatives=memo.size,
            physical_alternatives=search.costed,
        )
