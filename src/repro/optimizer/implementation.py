"""Implementation rules: logical operators -> physical algorithms.

"Logical operations are transformed into physical expressions using
implementation rules. DISCO has the usual transformation rules that implement
join with merge-join."  Here ``join`` can be implemented by a hash join or a
nested-loop join, and ``bindjoin`` by a batched probe join where eligible
(alternatives the optimizer costs); every other logical operator has exactly
one physical algorithm.  Which algorithm implements which operator is
:data:`repro.algebra.physical.IMPLEMENTS`.
"""

from __future__ import annotations

from itertools import product
from typing import Sequence

from repro.algebra import logical as log
from repro.algebra import physical as phys
from repro.algebra.expressions import find_equi_conjunct
from repro.errors import OptimizationError


#: each logical operator's default algorithm: the first the table lists for it
_DEFAULT_ALGORITHM: dict[type[log.LogicalOp], type[phys.PhysicalOp]] = {}
for _physical, _logical in phys.IMPLEMENTS.items():
    _DEFAULT_ALGORITHM.setdefault(_logical, _physical)


def _exec_for(submit: log.Submit) -> phys.Exec:
    """``submit`` as the physical leaf that calls the wrapper.

    The exec keeps the submit's argument as a *logical* expression (the
    wrapper interface accepts logical expressions); it is not implemented.
    """
    return phys.Exec(
        source=phys.Field(submit.source),
        expression=submit.expression,
        extent_name=submit.extent_name or submit.source,
    )


def _probe_join_for(
    node: log.BindJoin, left: phys.PhysicalOp
) -> phys.ProbeJoin | None:
    """Build a batched-probe join for ``node`` when it is eligible.

    Eligibility: the right side is a single ``submit`` (one probeable source)
    and the condition carries an equi-join conjunct to extract probe keys
    from.  Wrapper ``in`` support is *not* checked here -- a wrapper without
    the terminal degrades to per-binding probes at run time, which still
    beats shipping the extent when the key set is small.
    """
    if node.condition is None or not isinstance(node.right, log.Submit):
        return None
    if find_equi_conjunct(node.condition, node.left_variable, node.right_variable) is None:
        return None
    return phys.ProbeJoin(
        left,
        _exec_for(node.right),
        node.left_variable,
        node.right_variable,
        node.condition,
    )


def implement(node: log.LogicalOp) -> phys.PhysicalOp:
    """Return the default physical plan for ``node`` (hash joins everywhere)."""
    if isinstance(node, log.Submit):
        return _exec_for(node)
    return _rebuild(node, [implement(child) for child in node.children()])


def _rebuild(node: log.LogicalOp, children: Sequence[phys.PhysicalOp]) -> phys.PhysicalOp:
    """The default algorithm for ``node`` over already-implemented children."""
    algorithm = _DEFAULT_ALGORITHM.get(type(node))
    if algorithm is None:
        if isinstance(node, log.Get):
            raise OptimizationError(
                f"get({node.collection}) reached physical planning outside a submit; "
                "extents must be accessed through submit/exec"
            )
        raise OptimizationError(f"no implementation rule for {node.to_text()}")
    return phys.counterpart(algorithm, node, children)


def implementation_alternatives(node: log.LogicalOp) -> list[phys.PhysicalOp]:
    """Return every physical plan for ``node`` (join algorithm choices multiply)."""
    operands = () if isinstance(node, log.Submit) else node.children()
    per_child = [implementation_alternatives(child) for child in operands]
    plans = _alternatives_of(node, per_child)
    if isinstance(node, log.BindJoin):
        for left in per_child[0]:
            probe_join = _probe_join_for(node, left)
            if probe_join is not None:
                plans.append(probe_join)
    return plans


def _alternatives_of(
    node: log.LogicalOp, per_child: Sequence[Sequence[phys.PhysicalOp]]
) -> list[phys.PhysicalOp]:
    """Every physical plan for ``node`` over the given candidates per operand
    (a submit has none: it is one exec of its own expression).  A probe join
    is not among them: its probe is no child (see :func:`_probe_join_for`)."""
    if isinstance(node, log.Submit):
        return [_exec_for(node)]
    if isinstance(node, log.Join):
        return [
            algorithm(left, right, node.on)
            for left, right in product(*per_child)
            for algorithm in (phys.HashJoin, phys.NestedLoopJoin)
        ]
    return [_rebuild(node, combination) for combination in product(*per_child)]
