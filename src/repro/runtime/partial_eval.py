"""Partial evaluation: turning a partly executed plan back into a query.

Paper Section 4: "the physical expression is transformed back into a high
level query.  This transformation is possible because each physical operation
has a corresponding logical operation, and each logical operation has a
corresponding OQL expression."

One pass over the physical plan and the settled calls does it: per-element
operators distribute over ``mkunion``; every subtree that reads no
*unavailable* ``exec`` becomes one :class:`BagLiteral`, its rows composed by
:func:`~repro.runtime.operators.compose_rows` straight over the calls' row
lists; each unavailable ``exec`` stays the ``submit`` it implements, and the
operators between become their logical counterparts.  So the answer has the
paper's two-part shape: a query over the unavailable sources unioned with
the data already obtained.  Its text (``OQLText``) is written when read.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.algebra import logical as log
from repro.algebra import physical as phys
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

#: the per-element operators, which distribute over ``mkunion``
_PER_ELEMENT = (phys.MkApply, phys.MkProj, phys.MkRename, phys.Filter, phys.MkFlatten)


def _distributed(node: phys.PhysicalOp) -> phys.PhysicalOp:
    """Distribute per-element operators over ``mkunion``, cascades fully.

    ``mkapply(f, mkunion(q, data))`` becomes ``mkunion(mkapply(f, q),
    mkapply(f, data))``, so the data branch collapses to plain values.  Only
    per-element operators distribute: ``distinct`` must deduplicate across
    branches (a row in both the data and the recovered source would survive
    resubmission twice), ``groupby`` must aggregate every branch (per-branch
    groups double-count once the branch recovers; the sound two-phase split
    is the optimizer's rewrite), and ``limit`` stays put too.
    """
    if not isinstance(node, _PER_ELEMENT):
        return node
    child = _distributed(node.child)
    if isinstance(child, phys.MkUnion):
        return phys.MkUnion(
            tuple(_distributed(node.with_children([part])) for part in child.inputs)
        )
    return node if child is node.child else node.with_children([child])


class PartialAnswerBuilder:
    """Builds the partial-answer logical plan from a run's settled calls."""

    def __init__(self, subquery_evaluator: ops.SubqueryEvaluator | None = None):
        self._subquery_evaluator = subquery_evaluator

    def build(
        self,
        plan: phys.PhysicalOp,
        outcomes: ExecOutcome,
        base_env: Mapping[str, Any] | None = None,
    ) -> log.LogicalOp:
        """Physical plan + exec outcomes -> the partial answer's logical plan.

        An exec missing from ``outcomes`` is unavailable (a probe join's,
        never settled up front, keeps its join a ``bindjoin``)."""

        def rows(node: phys.Exec) -> Any:
            return map(ops.as_struct, outcomes[id(node)])

        def probed(join: phys.ProbeJoin, left: Any) -> Any:
            return ops.bind_join_rows(
                left,
                rows(join.probe),
                join.left_variable,
                join.right_variable,
                join.condition,
                base_env=base_env,
                subquery_evaluator=self._subquery_evaluator,
            )

        def collapse(node: phys.PhysicalOp) -> log.BagLiteral:
            subquery = self._subquery_evaluator
            return log.BagLiteral(
                tuple(ops.compose_rows(node, rows, base_env, probe=probed, subquery=subquery))
            )

        partial = _skeleton(plan, outcomes, collapse)
        return collapse(plan) if partial is None else partial


def _skeleton(
    node: phys.PhysicalOp, outcomes: ExecOutcome, collapse: Callable[[phys.PhysicalOp], log.BagLiteral]
) -> log.LogicalOp | None:
    """The logical form of a subtree that reads an unavailable call; None for
    one that does not, which its parent collapses whole.

    A module function, not a closure in ``build``: a closure that calls
    itself is a reference cycle, and would keep the run it was built from
    alive until the cycle collector found it."""
    if isinstance(node, phys.Exec):
        if not isinstance(outcomes.get(id(node), UNAVAILABLE), Unavailable):
            return None
        return log.Submit(node.source.name, node.expression, extent_name=node.extent_name)
    node = _distributed(node)
    operands = node.children()
    if isinstance(node, phys.ProbeJoin):
        # The probe exec is not a child (execs_in must not dispatch it
        # eagerly) but it is the join's right operand here.
        operands += (node.probe,)
    converted = [_skeleton(operand, outcomes, collapse) for operand in operands]
    if all(part is None for part in converted):
        return None
    children = [
        collapse(operand) if part is None else part for operand, part in zip(operands, converted)
    ]
    return phys.counterpart(node.implements, node, children)
