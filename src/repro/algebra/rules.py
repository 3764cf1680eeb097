"""Transformation rules over logical expressions (paper Section 3.2).

Each rule rewrites a logical expression into an equivalent one, and states
one shape for every operator it applies to.  The rule that moves work across
the ``submit`` boundary must first consult the wrapper's capabilities
(obtained through the ``submit-functionality`` interface); it silently
declines to fire when the wrapper would not understand the resulting
expression, which is how "transformation rules insure that wrapper
functionality is not violated".

The capability resolver passed to every rule maps a :class:`Submit` node to
the capabilities of the wrapper serving that extent.
"""

from __future__ import annotations

from typing import Callable, Protocol

from repro.algebra.capabilities import CapabilitySet
from repro.algebra.expressions import (
    Expr,
    FunctionCall,
    Path,
    StructExpr,
    Subquery,
    Var,
    conjunction,
    contains_subquery,
    split_conjuncts,
    walk_expr,
)
from repro.algebra.logical import (
    Apply,
    BindJoin,
    GroupBy,
    Limit,
    LogicalOp,
    Project,
    Select,
    Submit,
    Union,
)

CapabilityResolver = Callable[[Submit], CapabilitySet]

#: the operators that compute one output element per input element
_ONE_TO_ONE = (Project, Apply)


class TransformationRule(Protocol):
    """A rule proposes zero or more equivalent rewrites of one node."""

    name: str

    def apply(self, node: LogicalOp, capabilities: CapabilityResolver) -> list[LogicalOp]:
        """Return alternative forms of ``node`` (not including ``node`` itself)."""
        ...


def _self_contained(node: LogicalOp) -> bool:
    """Can the expressions ``node`` evaluates per element cross the wrapper interface?

    The paper forbids passing mediator object references, path expressions
    into mediator data and mediator-defined functions through the wrapper
    interface; concretely a select's predicate, an apply's expression and a
    groupby's keys and aggregate arguments may only mention the node's own
    variable and constants, and may not contain nested subqueries.  A node
    that evaluates no expression is self-contained.
    """
    if isinstance(node, GroupBy):
        expressions = [expr for _, expr in node.keys] + [arg for _, _, arg in node.aggregates]
    elif isinstance(node, Select):
        expressions = [node.predicate]
    elif isinstance(node, Apply):
        expressions = [node.expression]
    else:
        return True
    return all(
        expression.free_variables() <= {node.variable} and not contains_subquery(expression)
        for expression in expressions
    )


class PushIntoSubmit:
    """``op(submit(r, e))`` -> ``submit(r, op(e))``.

    For a project, select, limit or groupby over a submit: one submit ranges
    over one extent, so nothing with two operands crosses (the ``submit``
    operator has RPC semantics and cannot ship data between sources -- the
    paper's semijoin restriction).  The operator crosses the boundary only
    when its expressions are self-contained and the wrapper accepts the
    pushed expression -- the ``limit`` terminal is the fetch-size pushdown
    (the source stops after ``n`` rows), ``groupby`` the summarization one
    (one row per group crosses the wire) -- and a limit only when none as
    tight is in force there.
    """

    name = "push-into-submit"

    def apply(self, node: LogicalOp, capabilities: CapabilityResolver) -> list[LogicalOp]:
        if not isinstance(node, (Project, Select, Limit, GroupBy)):
            return []
        submit = node.child
        if not isinstance(submit, Submit) or not _self_contained(node):
            return []
        if isinstance(node, Limit) and _effectively_limited(submit.expression, node.count):
            return []
        pushed = node.with_children([submit.expression])
        if not capabilities(submit).accepts(pushed):
            return []
        return [Submit(submit.source, pushed, extent_name=submit.extent_name)]


class DistributeOverUnion:
    """``op(union(e1, ..., en))`` -> ``union(op(e1), ..., op(en))`` for a select or project."""

    name = "distribute-over-union"

    def apply(self, node: LogicalOp, capabilities: CapabilityResolver) -> list[LogicalOp]:
        if not isinstance(node, (Select, Project)) or not isinstance(node.child, Union):
            return []
        return [Union(tuple(node.with_children([child]) for child in node.child.inputs))]


def _bindjoin_bound_variables(join: BindJoin) -> set[str]:
    """Every variable an element produced by ``join`` binds.

    Left-deep chains use the placeholder variable ``_env`` for an environment
    left side; the real bindings come from the nested bindjoin.
    """
    variables = {join.right_variable}
    if isinstance(join.left, BindJoin):
        variables |= _bindjoin_bound_variables(join.left)
    else:
        variables.add(join.left_variable)
    return variables


class PushConditionIntoBindJoin:
    """``select(p, bindjoin(l, r))`` -> ``bindjoin(l, r, p')`` for join conjuncts.

    The translator leaves the whole ``where`` clause in a select *above* the
    bindjoin, which forces a cross product followed by a filter.  Sinking the
    conjuncts that mention the join's right variable into the bindjoin's
    condition activates the run-time's equi-hash path -- and gives the
    batched-probe join (``ProbeJoin``) the key expression it probes with.
    Conjuncts referencing outer variables or nested subqueries stay in a
    residual select.
    """

    name = "push-condition-into-bindjoin"

    def apply(self, node: LogicalOp, capabilities: CapabilityResolver) -> list[LogicalOp]:
        if not isinstance(node, Select) or not isinstance(node.child, BindJoin):
            return []
        join = node.child
        bound = _bindjoin_bound_variables(join)
        sinkable, residual = [], []
        for conjunct in split_conjuncts(node.predicate):
            free = conjunct.free_variables()
            if (
                free
                and free <= bound
                and join.right_variable in free
                and not contains_subquery(conjunct)
            ):
                sinkable.append(conjunct)
            else:
                residual.append(conjunct)
        if not sinkable:
            return []
        condition = conjunction([join.condition] + sinkable)
        rewritten = BindJoin(
            join.left,
            join.right,
            join.left_variable,
            join.right_variable,
            condition=condition,
        )
        residual_predicate = conjunction(residual)
        if residual_predicate is not None:
            return [Select(node.variable, residual_predicate, rewritten)]
        return [rewritten]


def _reads_only(predicate: Expr, variable: str, attributes: tuple[str, ...]) -> bool:
    """True when every occurrence of ``variable`` in ``predicate`` is the base
    of a path to one of ``attributes`` -- never the element read whole, never
    a nested subquery's (which may read it either way)."""
    occurrences = kept = 0
    for node in walk_expr(predicate):
        if isinstance(node, Var) and node.name == variable:
            occurrences += 1
        elif isinstance(node, Path) and isinstance(node.base, Var) and node.base.name == variable:
            kept += node.attribute in attributes
        elif isinstance(node, Subquery) and variable in node.free_variables():
            return False
    return occurrences == kept


class CommuteSelectProject:
    """``select(p, project(attrs, e))`` -> ``project(attrs, select(p, e))``.

    Legal only when the predicate reads the element through attributes that
    survive the projection: below it, ``y`` is the unprojected element, so a
    predicate comparing ``y`` whole (or reading an attribute the projection
    drops) would see another value there.
    """

    name = "commute-select-project"

    def apply(self, node: LogicalOp, capabilities: CapabilityResolver) -> list[LogicalOp]:
        if not isinstance(node, Select) or not isinstance(node.child, Project):
            return []
        project = node.child
        if not _reads_only(node.predicate, node.variable, project.attributes):
            return []
        return [Project(project.attributes, Select(node.variable, node.predicate, project.child))]


class PushLimitThroughOneToOne:
    """``limit(n, op(e))`` -> ``op(limit(n, e))`` for a project or apply.

    Both compute one output element per input element, so truncating before
    or after them yields the same bag; truncating first saves per-element
    work and lets the streaming engine stop the child pipeline (and cancel
    exec calls) earlier.  (Select and distinct change cardinality, so limit
    never crosses those.)
    """

    name = "push-limit-through-one-to-one"

    def apply(self, node: LogicalOp, capabilities: CapabilityResolver) -> list[LogicalOp]:
        if not isinstance(node, Limit) or not isinstance(node.child, _ONE_TO_ONE):
            return []
        inner = node.child
        return [inner.with_children([node.with_children([inner.child])])]


def _effectively_limited(node: LogicalOp, count: int) -> bool:
    """True when ``node`` already produces at most ``count`` elements.

    Looks through the one-to-one operators (project/apply) that
    PushLimitThroughOneToOne pushes a limit below, so a branch rewritten to
    ``project(a, limit(n, e))`` is recognized as limited and not re-wrapped
    -- otherwise PushLimitThroughUnion and PushLimitThroughOneToOne would feed
    each other nested limits forever.  A ``submit`` whose pushed expression is
    limited counts too (PushIntoSubmit moved the cap across the wrapper
    boundary), for the same termination reason.
    """
    while isinstance(node, _ONE_TO_ONE):
        node = node.child
    if isinstance(node, Submit):
        return _effectively_limited(node.expression, count)
    return isinstance(node, Limit) and node.count <= count


class PushLimitThroughUnion:
    """``limit(n, union(e1, ..., ek))`` -> ``limit(n, union(limit(n, e1), ...))``.

    No single union branch needs to produce more than ``n`` elements; the
    outer limit is kept because the branches together may still exceed it.
    Branches already (effectively) limited to ``n`` or less are left alone,
    and the rule declines entirely when every branch is -- that is what makes
    the rewrite fixpoint terminate.
    """

    name = "push-limit-through-union"

    def apply(self, node: LogicalOp, capabilities: CapabilityResolver) -> list[LogicalOp]:
        if not isinstance(node, Limit) or not isinstance(node.child, Union):
            return []
        union = node.child
        if all(_effectively_limited(child, node.count) for child in union.inputs):
            return []
        limited = tuple(
            child
            if _effectively_limited(child, node.count)
            else Limit(node.count, child)
            for child in union.inputs
        )
        return [Limit(node.count, Union(limited))]


def _already_grouped(node: LogicalOp) -> bool:
    """True when ``node`` is a grouping branch (possibly pushed into a submit).

    The look-through mirrors ``_effectively_limited``: once
    PushGroupByThroughUnion has decomposed an aggregation into per-branch
    partials, later passes must recognize a partial that PushIntoSubmit
    subsequently moved across the wrapper boundary --
    otherwise the combine-over-union-of-submits shape would be decomposed
    again, forever.
    """
    if isinstance(node, GroupBy):
        return True
    if isinstance(node, Submit):
        return _already_grouped(node.expression)
    return False


class PushGroupByThroughUnion:
    """Two-phase aggregation: per-branch partials plus a mediator combine.

    ``groupby(k; a, union(e1, ..., en))`` becomes a *combine* groupby over
    the union of per-branch *partial* groupbys.  Each branch aggregates its
    own rows (and may then push its partial into its submit); the combine
    merges partials per key: partial counts and sums are summed, mins and
    maxes re-minimized/re-maximized, and ``avg`` is decomposed into
    ``name__sum``/``name__count`` partial columns recombined with the
    nil-safe ``ratio`` builtin in an ``apply`` above -- every node plain
    algebra, so a partial answer containing the combine still unparses to
    OQL and resubmits.
    """

    name = "push-groupby-through-union"

    def apply(self, node: LogicalOp, capabilities: CapabilityResolver) -> list[LogicalOp]:
        if not isinstance(node, GroupBy) or not isinstance(node.child, Union):
            return []
        if any(_already_grouped(child) for child in node.child.inputs):
            return []
        variable = node.variable
        element = Var(variable)

        partial_aggregates: list[tuple[str, str, Expr]] = []
        combine_aggregates: list[tuple[str, str, Expr]] = []
        has_avg = False
        for name, func, arg in node.aggregates:
            if func == "avg":
                has_avg = True
                partial_aggregates.append((f"{name}__sum", "sum", arg))
                partial_aggregates.append((f"{name}__count", "count", arg))
                combine_aggregates.append(
                    (f"{name}__sum", "sum", Path(element, f"{name}__sum"))
                )
                combine_aggregates.append(
                    (f"{name}__count", "sum", Path(element, f"{name}__count"))
                )
            elif func in ("count", "sum"):
                partial_aggregates.append((name, func, arg))
                combine_aggregates.append((name, "sum", Path(element, name)))
            elif func in ("min", "max"):
                partial_aggregates.append((name, func, arg))
                combine_aggregates.append((name, func, Path(element, name)))
            else:
                return []

        branches = tuple(
            GroupBy(variable, node.keys, tuple(partial_aggregates), child)
            for child in node.child.inputs
        )
        combine_keys = tuple(
            (name, Path(element, name)) for name, _ in node.keys
        )
        combined: LogicalOp = GroupBy(
            variable, combine_keys, tuple(combine_aggregates), Union(branches)
        )
        if has_avg:
            fields: list[tuple[str, Expr]] = [
                (name, Path(element, name)) for name, _ in node.keys
            ]
            for name, func, _arg in node.aggregates:
                if func == "avg":
                    fields.append(
                        (
                            name,
                            FunctionCall(
                                "ratio",
                                (
                                    Path(element, f"{name}__sum"),
                                    Path(element, f"{name}__count"),
                                ),
                            ),
                        )
                    )
                else:
                    fields.append((name, Path(element, name)))
            combined = Apply(variable, StructExpr(tuple(fields)), combined)
        return [combined]


class CollapseNestedLimits:
    """``limit(a, limit(b, e))`` -> ``limit(min(a, b), e)``."""

    name = "collapse-nested-limits"

    def apply(self, node: LogicalOp, capabilities: CapabilityResolver) -> list[LogicalOp]:
        if not isinstance(node, Limit) or not isinstance(node.child, Limit):
            return []
        inner = node.child
        return [Limit(min(node.count, inner.count), inner.child)]


DEFAULT_RULES: tuple[TransformationRule, ...] = (
    PushConditionIntoBindJoin(),
    DistributeOverUnion(),
    PushIntoSubmit(),
    CommuteSelectProject(),
    CollapseNestedLimits(),
    PushLimitThroughOneToOne(),
    PushLimitThroughUnion(),
    PushGroupByThroughUnion(),
)
