"""Partial evaluation: turning a partly executed plan back into a query.

Paper Section 4: "the physical expression is transformed back into a high
level query.  This transformation is possible because each physical operation
has a corresponding logical operation, and each logical operation has a
corresponding OQL expression."

Concretely:

* every ``exec`` call that *succeeded* becomes a :class:`BagLiteral` holding
  the rows it returned;
* every ``exec`` call that was *unavailable* becomes the ``submit`` logical
  operator it implements (i.e. stays a query);
* every other physical operator becomes its logical counterpart;
* finally, any subtree that contains no ``submit`` is fully evaluable at the
  mediator and is collapsed into data, so the answer has the paper's two-part
  shape: a query over the unavailable sources unioned with the data already
  obtained.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.algebra import logical as log
from repro.algebra import physical as phys
from repro.algebra.unparser import logical_to_oql
from repro.datamodel.values import Struct
from repro.errors import QueryExecutionError
from repro.optimizer.implementation import implement
from repro.runtime import operators as ops

ExecOutcome = dict[int, Any]  # id(Exec node) -> list of rows, or an Unavailable marker


class Unavailable:
    """Marker stored in the outcome map for an exec that produced no rows.

    Carries the failure reason (timeout text, wrapper exception, ...) so the
    partial answer can say *why* a source branch stayed a query, not just that
    it did.
    """

    __slots__ = ("error",)

    def __init__(self, error: str | None = None):
        self.error = error

    def __repr__(self) -> str:
        return f"Unavailable({self.error!r})" if self.error else "UNAVAILABLE"


#: the anonymous marker (no recorded reason); kept for tests and callers that
#: build outcome maps by hand.
UNAVAILABLE = Unavailable()


def _refuse_submit(node: phys.Exec) -> Any:
    raise QueryExecutionError(
        "cannot evaluate a submit at the mediator; partial evaluation should "
        "have kept it as a query"
    )


class PartialAnswerBuilder:
    """Builds the partial-answer logical plan and its OQL text."""

    def __init__(self, subquery_evaluator: ops.SubqueryEvaluator | None = None):
        self._subquery_evaluator = subquery_evaluator

    # -- physical -> logical -------------------------------------------------------------
    def to_logical(self, plan: phys.PhysicalOp, outcomes: ExecOutcome) -> log.LogicalOp:
        """Convert a partially executed physical plan back to a logical plan."""
        if isinstance(plan, phys.Exec):
            outcome = outcomes.get(id(plan), UNAVAILABLE)
            if isinstance(outcome, Unavailable):
                return log.Submit(
                    plan.source.name, plan.expression, extent_name=plan.extent_name
                )
            return log.BagLiteral(tuple(outcome))
        logical = phys.IMPLEMENTS.get(type(plan))
        if logical is None:
            raise QueryExecutionError(f"cannot convert {plan.to_text()} back to logical form")
        children = [self.to_logical(child, outcomes) for child in plan.children()]
        if isinstance(plan, phys.ProbeJoin):
            # The probe exec is not a child (execs_in must not dispatch it
            # eagerly) but it is still an exec: batched rows recorded under it
            # collapse to data, an unprobed/unavailable right side stays the
            # submit it implements -- the ordinary bindjoin partial answer.
            children.append(self.to_logical(plan.probe, outcomes))
        return phys.counterpart(logical, plan, children)

    # -- collapsing available subtrees ---------------------------------------------------
    def simplify(self, plan: log.LogicalOp, base_env: Mapping[str, Any] | None = None) -> log.LogicalOp:
        """Evaluate every submit-free subtree and replace it with its data."""
        plan = self._distribute_over_union(plan)
        if isinstance(plan, log.Submit):
            # The whole submit stays a query: its argument belongs to the
            # unavailable source and cannot be evaluated at the mediator.
            return plan
        if not plan.contains_submit():
            values = self.evaluate_logical(plan, base_env=base_env)
            return log.BagLiteral(tuple(values))
        children = plan.children()
        if not children:
            return plan
        simplified = [self.simplify(child, base_env=base_env) for child in children]
        return plan.with_children(simplified)

    def _distribute_over_union(self, plan: log.LogicalOp) -> log.LogicalOp:
        """Distribute per-element operators over ``union``.

        ``apply(f, union(q, data))`` becomes ``union(apply(f, q), apply(f,
        data))`` so that the data branch collapses to plain values and the
        answer keeps the paper's ``union(<query>, Bag(<data>))`` shape.
        Cascades such as ``apply(project(union(...)))`` distribute fully.

        Only *per-element* operators distribute.  ``distinct`` does not:
        ``distinct(union(a, b))`` must deduplicate across branches, so
        per-branch distincts would let a row present in both the data and the
        recovered source survive resubmission twice.  It stays above the
        union (its submit-free branches still collapse during
        :meth:`simplify`).  ``limit`` likewise stays put, and so does
        ``groupby``: a group must aggregate rows from *every* branch, so
        per-branch grouping would double-count rows once the unavailable
        branch is recovered (the two-phase split that *is* sound lives in
        the optimizer's push-groupby-through-union rewrite, which emits
        combinable partials -- not here).
        """
        if isinstance(plan, (log.Apply, log.Project, log.Rename, log.Select, log.Flatten)):
            child = self._distribute_over_union(plan.child)
            if isinstance(child, log.Union):
                distributed = tuple(
                    self._distribute_over_union(plan.with_children([part]))
                    for part in child.inputs
                )
                return log.Union(distributed)
            return plan.with_children([child])
        return plan

    # -- logical evaluation over data (no submits) ------------------------------------------
    def evaluate_logical(
        self, plan: log.LogicalOp, base_env: Mapping[str, Any] | None = None
    ) -> list[Any]:
        """Evaluate a submit-free logical plan at the mediator.

        The row operators are lazy generators; this entry point materializes
        them (partial answers embed finite data), which also keeps errors --
        like a stray ``submit`` -- eager.
        """
        return list(
            ops.compose_rows(
                implement(plan), _refuse_submit, base_env, subquery=self._subquery_evaluator
            )
        )

    # -- the public assembly step --------------------------------------------------------
    def build(
        self,
        plan: phys.PhysicalOp,
        outcomes: ExecOutcome,
        base_env: Mapping[str, Any] | None = None,
    ) -> log.LogicalOp:
        """Physical plan + exec outcomes -> simplified partial-answer logical plan."""
        logical = self.to_logical(plan, outcomes)
        return self.simplify(logical, base_env=base_env)

    def to_oql(self, partial_plan: log.LogicalOp) -> str:
        """Render the partial answer as OQL text (the answer *is* a query)."""
        return logical_to_oql(partial_plan)
