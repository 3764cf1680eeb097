"""Cost functions for physical plans (paper Section 3.3).

Every physical algorithm has a cost function estimating its run time and
output cardinality.  Calls to data sources (``exec``) are estimated from the
:class:`~repro.optimizer.history.ExecCallHistory`; with no history, the
paper's default (time 0, data 1) applies, which biases the optimizer towards
plans that push the maximum amount of computation to the sources and then
minimise mediator-side work -- exactly the behaviour Section 3.3 derives.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra import logical as log
from repro.algebra import physical as phys
from repro.errors import OptimizationError
from repro.optimizer.history import CostEstimate, ExecCallHistory, exact_signature


def pushed_limit(expression: log.LogicalOp) -> int | None:
    """The row cap in force at the top of a pushed expression, if any.

    Looks through the one-to-one operators a limit commutes with
    (project/apply), matching the shapes the rewrite rules produce; a limit
    buried under a select or inside one join operand does not bound the
    expression's output and is ignored.
    """
    node = expression
    while isinstance(node, (log.Project, log.Apply, log.Rename)):
        node = node.child
    if isinstance(node, log.Limit):
        return node.count
    return None


def pushed_groupby(expression: log.LogicalOp) -> "log.GroupBy | None":
    """The grouping in force at the top of a pushed expression, if any.

    Like :func:`pushed_limit`, looks through the one-to-one operators (and a
    limit -- a capped group list is still grouped) to find a ``groupby`` that
    bounds what the source ships: group rows, not extent rows.
    """
    node = expression
    while isinstance(node, (log.Project, log.Apply, log.Rename, log.Limit)):
        node = node.child
    if isinstance(node, log.GroupBy):
        return node
    return None


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


class CostMemo:
    """What one plan search has costed so far; a local of that search.

    The physical plans of one ``Optimizer.optimize`` call share their
    subtrees (each group's points are built once, see ``optimizer._Search``),
    so a subtree's cost is kept by node identity, and an exec call's history
    reading by its exact signature -- two rewrite orders can reach the same
    pushed expression through different node objects.  Nothing here outlives
    the search: an observation recorded after it is seen by the next one.
    """

    __slots__ = ("plans", "readings")

    def __init__(self) -> None:
        #: id(node) -> (node, cost); the node rides along so its id stays taken
        self.plans: dict[int, tuple[phys.PhysicalOp, Cost]] = {}
        #: exact signature -> what the history said
        self.readings: dict[str, CostEstimate] = {}


@dataclass
class CostModel:
    """Cost estimation over physical plans.

    ``mediator_row_cost`` is the time charged per row processed by a
    mediator-side operator; ``transfer_row_cost`` the time charged per row
    shipped from a source (on top of whatever the history says);
    ``default_selectivity`` is used for filters when nothing better is known.
    """

    history: ExecCallHistory
    mediator_row_cost: float = 1e-6
    transfer_row_cost: float = 5e-6
    exec_call_overhead: float = 1e-4
    mediator_operator_overhead: float = 1e-5
    default_selectivity: float = 0.33
    #: how hard a flaky source is penalized: the exec time estimate is
    #: multiplied by ``1 + penalty * (1 - availability)``, so a source whose
    #: availability EWMA has dropped to 0.5 looks ~2x as expensive (with the
    #: default 2.0) and the optimizer prefers plans that avoid it.
    unavailability_penalty: float = 2.0
    #: assumed probe-key batch size for :class:`~repro.algebra.physical.ProbeJoin`
    #: costing.  Mirrors ``ExecutorConfig.bind_batch_size``; the run-time value
    #: may differ, which only shifts the estimated number of probe calls.
    probe_batch_size: float = 256.0
    #: assumed ratio of distinct group rows to input rows for ``groupby``
    #: estimation.  This is what makes the summarization pushdown pay off in
    #: the cost model: a grouped exec ships an estimated 5% of the extent's
    #: rows (a keyless -- scalar -- aggregate ships exactly one).
    groupby_output_ratio: float = 0.05

    def estimate(self, plan: phys.PhysicalOp, memo: CostMemo | None = None) -> Cost:
        """Estimate the cost of executing ``plan``.

        A plan search passes the same ``memo`` for every alternative it costs
        and drops it when it has chosen; without one the call stands alone.
        """
        return self._cost(plan, CostMemo() if memo is None else memo)

    def _cost(self, plan: phys.PhysicalOp, memo: CostMemo) -> Cost:
        known = memo.plans.get(id(plan))
        if known is not None:
            return known[1]
        cost = self._cost_of(plan, memo)
        memo.plans[id(plan)] = (plan, cost)
        return cost

    def _cost_of(self, plan: phys.PhysicalOp, memo: CostMemo) -> Cost:
        """The cost function of each physical algorithm (children through ``_cost``)."""
        if isinstance(plan, phys.Exec):
            return self._estimate_exec(plan, memo)
        if isinstance(plan, phys.MkBag):
            return Cost(time=0.0, rows=float(len(plan.values)))
        if isinstance(plan, (phys.MkProj, phys.MkRename)):
            child = self._cost(plan.child, memo)
            time = child.time + self.mediator_operator_overhead + child.rows * self.mediator_row_cost
            return Cost(time, child.rows)
        if isinstance(plan, phys.MkApply):
            child = self._cost(plan.child, memo)
            time = child.time + self.mediator_operator_overhead + child.rows * 2 * self.mediator_row_cost
            return Cost(time, child.rows)
        if isinstance(plan, phys.Filter):
            child = self._cost(plan.child, memo)
            rows = child.rows * self.default_selectivity
            time = child.time + self.mediator_operator_overhead + child.rows * self.mediator_row_cost
            return Cost(time, rows)
        if isinstance(plan, phys.MkDistinct):
            child = self._cost(plan.child, memo)
            time = child.time + self.mediator_operator_overhead + child.rows * self.mediator_row_cost
            return Cost(time, child.rows)
        if isinstance(plan, phys.MkLimit):
            child = self._cost(plan.child, memo)
            rows = min(child.rows, float(plan.count))
            # The cap on output rows is what makes pushed-down limits pay off:
            # every operator above a limit is costed on at most `count` rows.
            time = child.time + self.mediator_operator_overhead + rows * self.mediator_row_cost
            return Cost(time, rows)
        if isinstance(plan, phys.MkGroupBy):
            child = self._cost(plan.child, memo)
            rows = self._grouped_rows(child.rows, bool(plan.keys))
            # Two expression evaluations per input row (keys and aggregates),
            # like MkApply; the output is the (much smaller) group list.
            time = child.time + self.mediator_operator_overhead + child.rows * 2 * self.mediator_row_cost
            return Cost(time, rows)
        if isinstance(plan, phys.MkFlatten):
            child = self._cost(plan.child, memo)
            time = child.time + self.mediator_operator_overhead + child.rows * self.mediator_row_cost
            return Cost(time, child.rows)
        if isinstance(plan, phys.MkUnion):
            children = [self._cost(child, memo) for child in plan.inputs]
            time = sum(child.time for child in children)
            rows = sum(child.rows for child in children)
            return Cost(time, rows)
        if isinstance(plan, phys.HashJoin):
            left = self._cost(plan.left, memo)
            right = self._cost(plan.right, memo)
            time = (
                left.time
                + right.time
                + self.mediator_operator_overhead
                + (left.rows + right.rows) * self.mediator_row_cost
            )
            rows = max(left.rows, right.rows)
            return Cost(time, rows)
        if isinstance(plan, phys.NestedLoopJoin):
            left = self._cost(plan.left, memo)
            right = self._cost(plan.right, memo)
            # Quadratic: the right side is materialized once and re-scanned
            # per left row (see ``nested_loop_join_rows``, which shares that
            # one materialization however many times the plan is iterated).
            # This is also the cost floor for the *equi-join fallback* inside
            # ``bind_join_rows``: a bindjoin whose condition carries no
            # extractable equi conjunct degenerates to exactly this
            # left x right pairing, which is why the condition-sinking rule
            # (and the probe join it enables) matter.
            time = (
                left.time
                + right.time
                + self.mediator_operator_overhead
                + left.rows * right.rows * self.mediator_row_cost
            )
            rows = max(left.rows, right.rows)
            return Cost(time, rows)
        if isinstance(plan, phys.MkBindJoin):
            left = self._cost(plan.left, memo)
            right = self._cost(plan.right, memo)
            # The run-time system hash-joins when the condition allows it;
            # charge the hash-join cost plus a small setup factor.
            time = left.time + right.time + (left.rows + right.rows) * 2 * self.mediator_row_cost
            rows = max(left.rows, right.rows)
            return Cost(time, rows)
        if isinstance(plan, phys.ProbeJoin):
            left = self._cost(plan.left, memo)
            probe = self._reading(plan.probe, memo)
            right_rows = max(probe.rows, 0.0)
            # One set-valued submit per batch of distinct left keys; only the
            # matching right rows cross the wire (bounded by the smaller of
            # the two sides -- the per-query probe cache deduplicates keys).
            batches = max(1.0, -(-left.rows // self.probe_batch_size))
            shipped = min(right_rows, max(left.rows, 1.0))
            time = (
                left.time
                + batches * (self.exec_call_overhead + probe.time)
                + shipped * self.transfer_row_cost
                + (left.rows + shipped) * self.mediator_row_cost
            )
            if probe.availability < 1.0:
                time *= 1.0 + self.unavailability_penalty * (1.0 - probe.availability)
            rows = max(left.rows, shipped)
            return Cost(time, rows)
        raise OptimizationError(f"no cost function for physical operator {plan.to_text()}")

    def _reading(self, plan: phys.Exec, memo: CostMemo) -> CostEstimate:
        """What the history says about ``plan``'s call, asked once per search."""
        signature = exact_signature(plan.extent_name, plan.expression)
        reading = memo.readings.get(signature)
        if reading is None:
            reading = self.history.estimate(plan.extent_name, plan.expression)
            memo.readings[signature] = reading
        return reading

    def _estimate_exec(self, plan: phys.Exec, memo: CostMemo) -> Cost:
        """Estimate one exec call from its recorded history.

        Mid-stream deaths feed this estimate from both sides: a recovered
        call records the death as a failure observation (lowering the
        extent's availability EWMA, which inflates ``time`` below) *and* a
        token-resumed reopen charges only the remaining rows at the simulated
        server, so the learned latency of a flaky-but-resumable source stays
        close to what one clean transfer of the extent costs -- rather than
        the cost of shipping it twice, which is what reopen-and-skip replays
        (and what keeps token capability worth declaring).
        """
        estimate = self._reading(plan, memo)
        rows = max(estimate.rows, 0.0)
        grouped = pushed_groupby(plan.expression)
        if grouped is not None:
            # A groupby pushed across the wrapper boundary means only group
            # rows cross the wire, however many rows the source scans --
            # the rows-transferred accounting that makes the optimizer prefer
            # server-side grouping.
            rows = self._grouped_rows(rows, bool(grouped.keys))
        cap = pushed_limit(plan.expression)
        if cap is not None:
            # A limit pushed across the wrapper boundary bounds what the
            # source *ships*, whatever its history says it used to return:
            # charge transferred rows, not scanned rows.
            rows = min(rows, float(cap))
        time = self.exec_call_overhead + estimate.time + rows * self.transfer_row_cost
        if estimate.availability < 1.0:
            # Expected retries/timeouts on a flaky source make its calls more
            # expensive than the happy-path history alone suggests.
            time *= 1.0 + self.unavailability_penalty * (1.0 - estimate.availability)
        return Cost(time=time, rows=rows)

    def _grouped_rows(self, input_rows: float, has_keys: bool) -> float:
        """Estimated group count for ``input_rows`` input rows."""
        if not has_keys:
            return 1.0  # a scalar aggregate always yields exactly one row
        if input_rows <= 0.0:
            return 0.0
        return max(1.0, input_rows * self.groupby_output_ratio)
