"""Implementation rules: logical operators -> physical algorithms.

"Logical operations are transformed into physical expressions using
implementation rules. DISCO has the usual transformation rules that implement
join with merge-join."  Here ``join`` can be implemented by a hash join or a
nested-loop join (two alternatives the optimizer costs); every other logical
operator has exactly one physical algorithm.
"""

from __future__ import annotations

from itertools import product

from repro.algebra import logical as log
from repro.algebra import physical as phys
from repro.algebra.expressions import find_equi_conjunct
from repro.errors import OptimizationError


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
    submit = node.right
    probe = phys.Exec(
        source=phys.Field(submit.source),
        expression=submit.expression,
        extent_name=submit.extent_name or submit.source,
    )
    return phys.ProbeJoin(
        left,
        probe,
        node.left_variable,
        node.right_variable,
        node.condition,
    )


def implement(node: log.LogicalOp) -> phys.PhysicalOp:
    """Return the default physical plan for ``node`` (hash joins everywhere)."""
    if isinstance(node, log.Submit):
        return phys.Exec(
            source=phys.Field(node.source),
            expression=node.expression,
            extent_name=node.extent_name or node.source,
        )
    if isinstance(node, log.BagLiteral):
        return phys.MkBag(node.values)
    if isinstance(node, log.Project):
        return phys.MkProj(node.attributes, implement(node.child))
    if isinstance(node, log.Select):
        return phys.Filter(node.variable, node.predicate, implement(node.child))
    if isinstance(node, log.Rename):
        return phys.MkRename(node.pairs, implement(node.child))
    if isinstance(node, log.Apply):
        return phys.MkApply(node.variable, node.expression, implement(node.child))
    if isinstance(node, log.Join):
        return phys.HashJoin(implement(node.left), implement(node.right), node.on)
    if isinstance(node, log.BindJoin):
        return phys.MkBindJoin(
            implement(node.left),
            implement(node.right),
            node.left_variable,
            node.right_variable,
            condition=node.condition,
        )
    if isinstance(node, log.Union):
        return phys.MkUnion(tuple(implement(child) for child in node.inputs))
    if isinstance(node, log.Flatten):
        return phys.MkFlatten(implement(node.child))
    if isinstance(node, log.Distinct):
        return phys.MkDistinct(implement(node.child))
    if isinstance(node, log.Limit):
        return phys.MkLimit(node.count, implement(node.child))
    if isinstance(node, log.GroupBy):
        return phys.MkGroupBy(
            node.variable, node.keys, node.aggregates, implement(node.child)
        )
    if isinstance(node, log.Get):
        raise OptimizationError(
            f"get({node.collection}) reached physical planning outside a submit; "
            "extents must be accessed through submit/exec"
        )
    raise OptimizationError(f"no implementation rule for {node.to_text()}")


ImplementationMemo = dict[int, tuple[log.LogicalOp, list[phys.PhysicalOp]]]


def implementation_alternatives(
    node: log.LogicalOp, memo: ImplementationMemo | None = None
) -> list[phys.PhysicalOp]:
    """Return every physical plan for ``node`` (join algorithm choices multiply).

    ``memo`` lets one plan search implement each logical subtree once: the
    rewriter's alternatives share all but one path of their nodes, so passing
    the same dict for every alternative makes their physical plans share the
    physical subtrees too (and :meth:`CostModel.estimate` cost those once).
    Keyed by node identity -- never by text, which a data-bearing subtree
    would have to rebuild -- and meant to be dropped with the search.
    Without a memo nothing is shared: every call builds its own nodes.
    """
    if memo is None:
        return _alternatives_of(node, None)
    known = memo.get(id(node))
    if known is not None:
        return known[1]
    plans = _alternatives_of(node, memo)
    # The node rides along so its id cannot be reused while the entry exists.
    memo[id(node)] = (node, plans)
    return plans


def _alternatives_of(
    node: log.LogicalOp, memo: ImplementationMemo | None
) -> list[phys.PhysicalOp]:
    if isinstance(node, (log.Submit, log.BagLiteral)):
        # Submit keeps its argument as a logical expression (the wrapper
        # interface accepts logical expressions), so it is a physical leaf.
        return [implement(node)]
    if isinstance(node, log.Join):
        lefts = implementation_alternatives(node.left, memo)
        rights = implementation_alternatives(node.right, memo)
        plans: list[phys.PhysicalOp] = []
        for left, right in product(lefts, rights):
            plans.append(phys.HashJoin(left, right, node.on))
            plans.append(phys.NestedLoopJoin(left, right, node.on))
        return plans
    if isinstance(node, log.BindJoin):
        lefts = implementation_alternatives(node.left, memo)
        rights = implementation_alternatives(node.right, memo)
        plans = []
        for left, right in product(lefts, rights):
            plans.append(
                phys.MkBindJoin(
                    left,
                    right,
                    node.left_variable,
                    node.right_variable,
                    condition=node.condition,
                )
            )
        for left in lefts:
            probe_join = _probe_join_for(node, left)
            if probe_join is not None:
                plans.append(probe_join)
        return plans
    children = node.children()
    if not children:
        return [implement(node)]
    children_alternatives = [implementation_alternatives(child, memo) for child in children]
    plans = []
    for combination in product(*children_alternatives):
        plans.append(_rebuild(node, list(combination)))
    return plans


def _rebuild(node: log.LogicalOp, children: list[phys.PhysicalOp]) -> phys.PhysicalOp:
    """Build the physical node for ``node`` given already-implemented children."""
    if isinstance(node, log.Project):
        return phys.MkProj(node.attributes, children[0])
    if isinstance(node, log.Select):
        return phys.Filter(node.variable, node.predicate, children[0])
    if isinstance(node, log.Rename):
        return phys.MkRename(node.pairs, children[0])
    if isinstance(node, log.Apply):
        return phys.MkApply(node.variable, node.expression, children[0])
    if isinstance(node, log.BindJoin):
        return phys.MkBindJoin(
            children[0],
            children[1],
            node.left_variable,
            node.right_variable,
            condition=node.condition,
        )
    if isinstance(node, log.Union):
        return phys.MkUnion(tuple(children))
    if isinstance(node, log.Flatten):
        return phys.MkFlatten(children[0])
    if isinstance(node, log.Distinct):
        return phys.MkDistinct(children[0])
    if isinstance(node, log.Limit):
        return phys.MkLimit(node.count, children[0])
    if isinstance(node, log.GroupBy):
        return phys.MkGroupBy(node.variable, node.keys, node.aggregates, children[0])
    if isinstance(node, log.Submit):
        # A submit has a logical child but the physical Exec keeps it as a
        # logical argument (the wrapper interface accepts logical expressions).
        return implement(node)
    raise OptimizationError(f"no implementation rule for {node.to_text()}")
