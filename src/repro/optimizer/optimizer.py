"""The plan search: logical alternatives x physical alternatives, lowest cost wins.

"The optimizer searches the space of logical and physical trees for the
physical tree with the lowest cost.  The run-time system executes the physical
expression with the lowest cost."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.algebra.logical import LogicalOp, transform_bottom_up, walk
from repro.algebra.physical import PhysicalOp
from repro.algebra.rewriter import Rewriter
from repro.errors import OptimizationError
from repro.optimizer.cost import Cost, CostMemo, CostModel
from repro.optimizer.implementation import ImplementationMemo, implementation_alternatives


@dataclass(frozen=True)
class OptimizedPlan:
    """The optimizer's output: the chosen trees and the estimated cost."""

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


class Optimizer:
    """Cost-based search over rewriter alternatives and implementation choices."""

    def __init__(
        self,
        rewriter: Rewriter,
        cost_model: CostModel,
        max_physical_alternatives: int = 256,
    ):
        self.rewriter = rewriter
        self.cost_model = cost_model
        self.max_physical_alternatives = max_physical_alternatives

    def optimize(self, logical: LogicalOp) -> OptimizedPlan:
        """Return the cheapest physical plan for ``logical``.

        The alternatives differ from one another along one path each and
        share the rest of their nodes, so the search implements and costs
        every distinct subtree once: two memos, locals of this call, carry
        that across the alternatives.  Nothing survives the call -- a history
        observation, a schema change or a swapped rule set is seen by the
        next one exactly as if each alternative were walked in full.
        """
        nodes = list(walk(logical))
        if len({id(node) for node in nodes}) < len(nodes):
            # A hand-built plan using one node object in two places would come
            # out of the shared memos with one Exec object in two places, and
            # the engines key exec calls by node identity: rebuild it so that
            # every position has its own nodes.
            logical = transform_bottom_up(logical, lambda node: node)
        logical_alternatives = self.rewriter.alternatives(logical)
        # Always consider the maximal push-down plan, even when the bounded
        # closure above stopped before reaching it on a wide query.
        greedy = self.rewriter.rewrite_greedy(logical)
        if greedy not in logical_alternatives:
            logical_alternatives.append(greedy)
        implemented: ImplementationMemo = {}
        costed = CostMemo()
        best: tuple[Cost, LogicalOp, PhysicalOp] | None = None
        physical_count = 0
        for candidate in logical_alternatives:
            for physical in implementation_alternatives(candidate, implemented):
                physical_count += 1
                if physical_count > self.max_physical_alternatives:
                    break
                cost = self.cost_model.estimate(physical, costed)
                if best is None or cost.total() < best[0].total():
                    best = (cost, candidate, physical)
            if physical_count > self.max_physical_alternatives:
                break
        if best is None:
            raise OptimizationError("the optimizer produced no physical plan")
        cost, chosen_logical, chosen_physical = best
        return OptimizedPlan(
            logical=chosen_logical,
            physical=chosen_physical,
            cost=cost,
            logical_alternatives=len(logical_alternatives),
            physical_alternatives=physical_count,
        )
