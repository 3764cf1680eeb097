"""Transformation rules over logical expressions (paper Section 3.2).

Each rule rewrites a logical expression into an equivalent one.  The rules
that move work across the ``submit`` boundary must first consult the wrapper's
capability grammar (obtained through the ``submit-functionality`` interface);
a rule silently declines to fire when the wrapper would not understand the
resulting expression, which is how "transformation rules insure that wrapper
functionality is not violated".

The capability resolver passed to every rule maps a :class:`Submit` node to
the grammar of the wrapper serving that extent.
"""

from __future__ import annotations

from typing import Callable, Protocol

from repro.algebra.capabilities import CapabilityGrammar
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
    Join,
    Limit,
    LogicalOp,
    Project,
    Select,
    Submit,
    Union,
)

CapabilityResolver = Callable[[Submit], CapabilityGrammar]


class TransformationRule(Protocol):
    """A rule proposes zero or more equivalent rewrites of one node."""

    name: str

    def apply(self, node: LogicalOp, capabilities: CapabilityResolver) -> list[LogicalOp]:
        """Return alternative forms of ``node`` (not including ``node`` itself)."""
        ...


def _predicate_is_pushable(select: Select) -> bool:
    """A predicate can cross the wrapper boundary only if it is self-contained.

    The paper forbids passing mediator object references, path expressions
    into mediator data and mediator-defined functions through the wrapper
    interface; concretely the predicate may only mention the select's own
    variable and constants, and may not contain nested subqueries.
    """
    predicate = select.predicate
    if predicate.free_variables() - {select.variable}:
        return False
    for node in walk_expr(predicate):
        if isinstance(node, Subquery):
            return False
    return True


class PushProjectIntoSubmit:
    """``project(attrs, submit(r, e))`` -> ``submit(r, project(attrs, e))``."""

    name = "push-project-into-submit"

    def apply(self, node: LogicalOp, capabilities: CapabilityResolver) -> list[LogicalOp]:
        if not isinstance(node, Project) or not isinstance(node.child, Submit):
            return []
        submit = node.child
        pushed = Project(node.attributes, submit.expression)
        if not capabilities(submit).accepts(pushed):
            return []
        return [Submit(submit.source, pushed, extent_name=submit.extent_name)]


class PushSelectIntoSubmit:
    """``select(p, submit(r, e))`` -> ``submit(r, select(p, e))``."""

    name = "push-select-into-submit"

    def apply(self, node: LogicalOp, capabilities: CapabilityResolver) -> list[LogicalOp]:
        if not isinstance(node, Select) or not isinstance(node.child, Submit):
            return []
        if not _predicate_is_pushable(node):
            return []
        submit = node.child
        pushed = Select(node.variable, node.predicate, submit.expression)
        if not capabilities(submit).accepts(pushed):
            return []
        return [Submit(submit.source, pushed, extent_name=submit.extent_name)]


class PushJoinIntoSubmit:
    """``join(submit(r, e1), submit(r, e2), a)`` -> ``submit(r, join(e1, e2, a))``.

    Only fires when both operands live at the *same* source: the ``submit``
    operator has RPC semantics and cannot ship data between sources (the
    paper's semijoin restriction).
    """

    name = "push-join-into-submit"

    def apply(self, node: LogicalOp, capabilities: CapabilityResolver) -> list[LogicalOp]:
        if not isinstance(node, Join):
            return []
        left, right = node.left, node.right
        if not (isinstance(left, Submit) and isinstance(right, Submit)):
            return []
        if left.source != right.source:
            return []
        pushed = Join(
            left.expression,
            right.expression,
            node.on,
            left_variable=node.left_variable,
            right_variable=node.right_variable,
        )
        if not capabilities(left).accepts(pushed):
            return []
        return [Submit(left.source, pushed, extent_name=left.extent_name)]


class PushProjectThroughUnion:
    """``project(attrs, union(e1, ..., en))`` -> ``union(project(attrs, e1), ...)``."""

    name = "push-project-through-union"

    def apply(self, node: LogicalOp, capabilities: CapabilityResolver) -> list[LogicalOp]:
        if not isinstance(node, Project) or not isinstance(node.child, Union):
            return []
        rewritten = Union(
            tuple(Project(node.attributes, child) for child in node.child.inputs)
        )
        return [rewritten]


class PushSelectThroughUnion:
    """``select(p, union(e1, ..., en))`` -> ``union(select(p, e1), ...)``."""

    name = "push-select-through-union"

    def apply(self, node: LogicalOp, capabilities: CapabilityResolver) -> list[LogicalOp]:
        if not isinstance(node, Select) or not isinstance(node.child, Union):
            return []
        rewritten = Union(
            tuple(
                Select(node.variable, node.predicate, child) for child in node.child.inputs
            )
        )
        return [rewritten]


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


class CommuteSelectProject:
    """``select(p, project(attrs, e))`` -> ``project(attrs, select(p, e))``.

    Legal only when the predicate references attributes that survive the
    projection (it always does in plans built by the translator, but the guard
    keeps the rule sound on hand-built plans).
    """

    name = "commute-select-project"

    def apply(self, node: LogicalOp, capabilities: CapabilityResolver) -> list[LogicalOp]:
        if not isinstance(node, Select) or not isinstance(node.child, Project):
            return []
        project = node.child
        used = {attr for _, attr in node.predicate.attribute_paths()}
        if not used <= set(project.attributes):
            return []
        return [Project(project.attributes, Select(node.variable, node.predicate, project.child))]


class PushLimitThroughProject:
    """``limit(n, project(attrs, e))`` -> ``project(attrs, limit(n, e))``.

    A projection is one-to-one per element, so truncating before or after it
    yields the same bag; truncating first lets the streaming engine stop the
    child pipeline (and cancel exec calls) earlier.
    """

    name = "push-limit-through-project"

    def apply(self, node: LogicalOp, capabilities: CapabilityResolver) -> list[LogicalOp]:
        if not isinstance(node, Limit) or not isinstance(node.child, Project):
            return []
        project = node.child
        return [Project(project.attributes, Limit(node.count, project.child))]


class PushLimitThroughApply:
    """``limit(n, apply(v: e, child))`` -> ``apply(v: e, limit(n, child))``.

    Apply computes one output element per input element, so the truncation
    commutes; pushing it below saves per-element computation and, under the
    streaming engine, stops the child pipeline earlier.  (Select and
    distinct change cardinality, so limit never crosses those.)
    """

    name = "push-limit-through-apply"

    def apply(self, node: LogicalOp, capabilities: CapabilityResolver) -> list[LogicalOp]:
        if not isinstance(node, Limit) or not isinstance(node.child, Apply):
            return []
        inner = node.child
        return [Apply(inner.variable, inner.expression, Limit(node.count, inner.child))]


def _effectively_limited(node: LogicalOp, count: int) -> bool:
    """True when ``node`` already produces at most ``count`` elements.

    Looks through the one-to-one operators (project/apply) that the other
    limit rules push a limit below, so a branch rewritten to
    ``project(a, limit(n, e))`` is recognized as limited and not re-wrapped
    -- otherwise PushLimitThroughUnion and PushLimitThroughProject would feed
    each other nested limits forever.  A ``submit`` whose pushed expression is
    limited counts too (PushLimitIntoSubmit moved the cap across the wrapper
    boundary), for the same termination reason.
    """
    while isinstance(node, (Project, Apply)):
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


class PushLimitIntoSubmit:
    """``limit(n, submit(r, e))`` -> ``submit(r, limit(n, e))``.

    The fetch-size pushdown: the limit crosses the wrapper boundary only when
    the wrapper's grammar accepts the limited expression (the ``limit``
    capability terminal), in which case the source stops producing after
    ``n`` rows instead of shipping its full extent.
    """

    name = "push-limit-into-submit"

    def apply(self, node: LogicalOp, capabilities: CapabilityResolver) -> list[LogicalOp]:
        if not isinstance(node, Limit) or not isinstance(node.child, Submit):
            return []
        submit = node.child
        if _effectively_limited(submit.expression, node.count):
            return []
        pushed = Limit(node.count, submit.expression)
        if not capabilities(submit).accepts(pushed):
            return []
        return [Submit(submit.source, pushed, extent_name=submit.extent_name)]


def _groupby_expressions_pushable(node: GroupBy) -> bool:
    """Key and aggregate expressions may only mention the group variable.

    Same restriction as pushed predicates: no outer variables, no nested
    subqueries -- those cannot cross the wrapper interface.
    """
    expressions: list[Expr] = [expr for _, expr in node.keys]
    expressions += [arg for _, _, arg in node.aggregates]
    for expression in expressions:
        if expression.free_variables() - {node.variable}:
            return False
        if contains_subquery(expression):
            return False
    return True


class PushGroupByIntoSubmit:
    """``groupby(k; a, submit(r, e))`` -> ``submit(r, groupby(k; a, e))``.

    The summarization pushdown: grouping crosses the wrapper boundary only
    when the wrapper's grammar accepts the grouped expression (the
    ``groupby`` capability terminal), in which case one row per group crosses
    the wire instead of the whole extent.
    """

    name = "push-groupby-into-submit"

    def apply(self, node: LogicalOp, capabilities: CapabilityResolver) -> list[LogicalOp]:
        if not isinstance(node, GroupBy) or not isinstance(node.child, Submit):
            return []
        if not _groupby_expressions_pushable(node):
            return []
        submit = node.child
        pushed = GroupBy(node.variable, node.keys, node.aggregates, submit.expression)
        if not capabilities(submit).accepts(pushed):
            return []
        return [Submit(submit.source, pushed, extent_name=submit.extent_name)]


def _already_grouped(node: LogicalOp) -> bool:
    """True when ``node`` is a grouping branch (possibly pushed into a submit).

    The look-through mirrors ``_effectively_limited``: once
    PushGroupByThroughUnion has decomposed an aggregation into per-branch
    partials, later passes must recognize a partial that
    PushGroupByIntoSubmit subsequently moved across the wrapper boundary --
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
    PushSelectThroughUnion(),
    PushProjectThroughUnion(),
    PushSelectIntoSubmit(),
    PushProjectIntoSubmit(),
    PushJoinIntoSubmit(),
    CommuteSelectProject(),
    CollapseNestedLimits(),
    PushLimitIntoSubmit(),
    PushLimitThroughProject(),
    PushLimitThroughApply(),
    PushLimitThroughUnion(),
    PushGroupByThroughUnion(),
    PushGroupByIntoSubmit(),
)
