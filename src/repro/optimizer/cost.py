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
from repro.algebra.physical import Cost, grouped_rows
from repro.optimizer.history import CostEstimate, ExecCallHistory, exact_signature


def pushed_limit(expression: log.LogicalOp) -> int | None:
    """The row cap in force at the top of a pushed expression, if any.

    Looks through the one-to-one operators a limit commutes with
    (project/apply), matching the shapes the rewrite rules produce; a limit
    buried under a select or inside one join operand does not bound the
    expression's output and is ignored.
    """
    node = expression
    while isinstance(node, (log.Project, log.Apply)):
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
    while isinstance(node, (log.Project, log.Apply, log.Limit)):
        node = node.child
    if isinstance(node, log.GroupBy):
        return node
    return None


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


#: time charged per row shipped from a source, on top of what the history says
TRANSFER_ROW_COST = 5e-6
#: time charged per wrapper call
EXEC_CALL_OVERHEAD = 1e-4
#: how hard a flaky source is penalized: the exec time estimate is
#: multiplied by ``1 + penalty * (1 - availability)``, so a source whose
#: availability EWMA has dropped to 0.5 looks ~2x as expensive and the
#: optimizer prefers plans that avoid it.
UNAVAILABILITY_PENALTY = 2.0
#: probe keys per batched bind-join submit: ``ExecutorConfig.bind_batch_size``'s
#: default, and what :class:`~repro.algebra.physical.ProbeJoin` costing
#: assumes (a run with another size only shifts the estimated probe calls).
BIND_BATCH_SIZE = 256


@dataclass
class CostModel:
    """Cost estimation over physical plans.

    Each algorithm's own formula is its ``cost`` method
    (:mod:`repro.algebra.physical`); what is left here reads the history:
    an ``exec`` call and a probe join's probes, once per search.
    """

    history: ExecCallHistory

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
        if isinstance(plan, phys.Exec):
            cost = self._estimate_exec(plan, memo)
        elif isinstance(plan, phys.ProbeJoin):
            cost = self._estimate_probe_join(plan, memo)
        else:
            cost = plan.cost(*[self._cost(child, memo) for child in plan.children()])
        memo.plans[id(plan)] = (plan, cost)
        return cost

    def _estimate_probe_join(self, plan: phys.ProbeJoin, memo: CostMemo) -> Cost:
        left = self._cost(plan.left, memo)
        probe = self._reading(plan.probe, memo)
        right_rows = max(probe.rows, 0.0)
        # One set-valued submit per batch of distinct left keys; only the
        # matching right rows cross the wire (bounded by the smaller of
        # the two sides -- the per-query probe cache deduplicates keys).
        batches = max(1.0, -(-left.rows // BIND_BATCH_SIZE))
        shipped = min(right_rows, max(left.rows, 1.0))
        time = (
            left.time
            + batches * (EXEC_CALL_OVERHEAD + probe.time)
            + shipped * TRANSFER_ROW_COST
            + (left.rows + shipped) * phys.MEDIATOR_ROW_COST
        )
        if probe.availability < 1.0:
            time *= 1.0 + UNAVAILABILITY_PENALTY * (1.0 - probe.availability)
        return Cost(time, max(left.rows, shipped))

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
            rows = grouped_rows(rows, bool(grouped.keys))
        cap = pushed_limit(plan.expression)
        if cap is not None:
            # A limit pushed across the wrapper boundary bounds what the
            # source *ships*, whatever its history says it used to return:
            # charge transferred rows, not scanned rows.
            rows = min(rows, float(cap))
        time = EXEC_CALL_OVERHEAD + estimate.time + rows * TRANSFER_ROW_COST
        if estimate.availability < 1.0:
            # Expected retries/timeouts on a flaky source make its calls more
            # expensive than the happy-path history alone suggests.
            time *= 1.0 + UNAVAILABILITY_PENALTY * (1.0 - estimate.availability)
        return Cost(time=time, rows=rows)
