"""Row-level operator implementations shared across the run-time system.

Elements flowing through a plan are either data values (usually
:class:`~repro.datamodel.values.Struct` rows) or :class:`Env` objects --
variable environments produced by ``bindjoin`` for multi-variable queries.
Predicates and select items are evaluated with an environment that merges the
query's outer environment (for correlated subqueries), the element's own
bindings (when it is an :class:`Env`) and the operator's bound variable.

A chain of the per-element operators (``filter``, ``mkapply``, ``mkproj``)
runs as one generated loop, its kernel (:mod:`~repro.runtime.kernels`), held
by a cached plan; so does a grouping, at the mediator and at a source alike
(:func:`group_rows`).  The joins bind their key functions
(:func:`~repro.runtime.kernels.key_function`: a plain row's key is read in
place, with no environment dict built for it) and compile their condition
*once per invocation*, before the row loop; an environment is built only for
a left element that has matches, and the condition is re-checked per pair.

Every operator is a *lazy generator* (Volcano-style): it consumes its input
iterator one element at a time and yields output elements as they are ready.
Nothing is materialized except the unavoidable state an operator needs --
a hash join builds only its build (right) side, ``distinct`` keeps the set of
elements already emitted, everything else runs in O(1) memory.  This is what
lets ``limit`` terminate a pipeline early and keeps peak memory bounded by
the largest *build side*, not the largest intermediate result.

Callers that need a list simply wrap a pipeline in ``list(...)``.
"""

from __future__ import annotations

from collections.abc import Mapping, MutableMapping
from itertools import chain
from typing import Any, Callable, Iterable, Iterator

from repro.algebra import physical as phys
from repro.algebra.expressions import Expr, find_equi_conjunct
from repro.datamodel.values import Bag, Struct
from repro.errors import QueryExecutionError
from repro.runtime.kernels import CHAIN, ENV_VARIABLE, Env, Kernel, chain_kernel, env_bindings, group_kernel, key_function

SubqueryEvaluator = Callable[[Any, Mapping[str, Any]], Any]


def environment_builder(
    variable: str, base_env: Mapping[str, Any] | None
) -> Callable[[Any], dict[str, Any]]:
    """One operator's ``element -> evaluation environment``.

    Without an outer environment, and away from the reserved variable whose
    mappings splat, that is one fresh single-entry dict per element.  The
    kernels and key functions read an element as if from this environment.
    """
    if base_env or variable == ENV_VARIABLE:
        outer = dict(base_env or {})
        return lambda element: {**outer, **env_bindings(element, variable)}
    return lambda element: dict(element) if isinstance(element, Env) else {variable: element}


def as_struct(row: Any) -> Any:
    """One raw row as a mediator row: the run-time system's one row normaliser.

    A :class:`Struct` is immutable, so it *is* the row: a row an in-memory
    store holds (stored as a ``Struct`` at insert) passes straight through,
    uncopied.  Any other mapping is copied into a ``Struct`` -- once, as the
    wrapper may keep and change its own.  Environment elements
    (:class:`Env`) pass through too: they are variable bindings, not data
    rows -- struct-ifying them would strand the bound variables when a
    resubmitted partial answer re-joins its embedded half-evaluated
    environments.  Anything else (a projected single column's scalars,
    nested bags) passes unchanged.
    """
    if type(row) is Struct:
        return row
    if type(row) is dict:
        return Struct(row)
    if isinstance(row, (Struct, Env)) or not isinstance(row, Mapping):
        return row
    return Struct(row)


def bind_join_rows(
    left: Iterable[Any],
    right: Iterable[Any],
    left_variable: str,
    right_variable: str,
    condition: Expr | None,
    base_env: Mapping[str, Any] | None = None,
    subquery_evaluator: SubqueryEvaluator | None = None,
) -> Iterator[Env]:
    """Join producing variable environments (multi-variable ``from`` clauses).

    When the condition contains an equi-join conjunct between the two sides a
    hash join is used; otherwise every pair is enumerated.  Either way only
    the right side is materialized (as the build table / inner loop); the
    left side streams.
    """
    equi = find_equi_conjunct(condition, left_variable, right_variable) if condition else None
    pairs = _pairing(left_variable, right_variable, condition, base_env, subquery_evaluator)

    if equi is not None:
        left_key = key_function(left_variable, equi[0], base_env, subquery_evaluator)
        right_key = key_function(right_variable, equi[1], base_env, subquery_evaluator)
        buckets: dict[Any, list[Any]] = {}
        for element in right:
            buckets.setdefault(right_key(element), []).append(element)
        for left_element in left:
            matches = buckets.get(left_key(left_element))
            if matches:
                yield from pairs(left_element, matches)
        return

    # Re-scanned per left element; a list in hand (a settled call's) is not copied.
    right_elements = right if isinstance(right, (list, tuple)) else list(right)
    for left_element in left:
        yield from pairs(left_element, right_elements)


def probe_join_rows(
    left: Iterable[Any],
    left_variable: str,
    right_variable: str,
    condition: Expr,
    prober: Callable[[list[Any]], Mapping[Any, list[Any]]],
    batch_size: int,
    base_env: Mapping[str, Any] | None = None,
    subquery_evaluator: SubqueryEvaluator | None = None,
) -> Iterator[Env]:
    """Batched bind join: probe the right source with batches of left keys.

    Collects up to ``batch_size`` left elements, extracts each element's join
    key with the equi conjunct of ``condition``, deduplicates the keys, and
    asks ``prober`` -- an engine-supplied closure that issues one set-valued
    (``in``-list) submit per batch, or its degraded equivalents -- for the
    matching right rows bucketed by key.  Matches fan back out to ``Env``
    bindings and the *full* condition is re-checked per pair, so conjuncts
    beyond the equi key still filter.

    ``None`` keys are never probed: ``=`` is None-rejecting, so they cannot
    match.  Keys repeated *within* a batch are probed once here; keys
    repeated *across* batches are the prober's per-query cache's job.
    """
    equi = find_equi_conjunct(condition, left_variable, right_variable)
    if equi is None:
        raise ValueError("probe join requires an equi-join conjunct")
    batch_size = max(1, batch_size)
    left_key = key_function(left_variable, equi[0], base_env, subquery_evaluator)
    pairs = _pairing(left_variable, right_variable, condition, base_env, subquery_evaluator)

    batch: list[tuple[Any, Any]] = []  # (left element, its join key)

    def flush() -> Iterator[Env]:
        keys = dict.fromkeys([key for _, key in batch])  # first-seen order
        keys.pop(None, None)
        buckets = prober(list(keys)) if keys else {}
        for element, key in batch:
            matches = buckets.get(key)  # a nil key was never probed
            if matches:
                yield from pairs(element, matches)
        batch.clear()

    for element in left:
        batch.append((element, left_key(element)))
        if len(batch) >= batch_size:
            yield from flush()
    if batch:
        yield from flush()


def _pairing(
    left_variable: str,
    right_variable: str,
    condition: Expr | None,
    base_env: Mapping[str, Any] | None,
    subquery_evaluator: SubqueryEvaluator | None,
) -> Callable[[Any, Iterable[Any]], Iterator[Env]]:
    """One join's ``pairs(left_element, right_elements)``; the condition compiles once."""
    outer = dict(base_env or {})
    holds = condition.compile(subquery_evaluator) if condition is not None else None

    def pairs(left_element: Any, right_elements: Iterable[Any]) -> Iterator[Env]:
        bindings = env_bindings(left_element, left_variable)
        for right_element in right_elements:
            env = Env(bindings)
            env[right_variable] = right_element
            if holds is None or holds({**outer, **env} if outer else env):
                yield env

    return pairs


def flatten_rows(elements: Iterable[Any]) -> Iterator[Any]:
    """Flatten one level of nested collections."""
    for element in elements:
        if isinstance(element, (Bag, list, tuple, set, frozenset)):
            yield from element
        else:
            yield element


def distinct_rows(elements: Iterable[Any]) -> Iterator[Any]:
    """Remove duplicates, keeping (and immediately yielding) the first occurrence.

    Hashable elements are tracked in a set; unhashable ones (environments,
    rows containing lists) fall back to a linear scan over the unhashable
    elements already emitted.  Only those fallback elements are kept in the
    list -- hashable rows live once, in the set, so a streaming ``distinct``
    over a large extent does not hold every emitted row live twice.
    """
    seen_hashable: set[Any] = set()
    emitted_unhashable: list[Any] = []
    for element in elements:
        try:
            if element in seen_hashable:
                continue
            seen_hashable.add(element)
        except TypeError:
            if element in emitted_unhashable:
                continue
            emitted_unhashable.append(element)
        yield element


def group_rows(
    elements: Iterable[Any],
    variable: str,
    keys: tuple[tuple[str, Expr], ...],
    aggregates: tuple[tuple[str, str, Expr], ...],
    base_env: Mapping[str, Any] | None = None,
    subquery_evaluator: SubqueryEvaluator | None = None,
) -> Iterator[Struct]:
    """Grouped aggregation: one output struct per distinct key combination.

    Groups are emitted in first-seen order once the input is exhausted (a
    pipeline barrier -- the last group may be completed by the last input
    row).  With no keys the operator is a scalar aggregate and always emits
    exactly one row, even over an empty input (``count`` 0, the rest None).
    A source's pushed ``groupby`` (a SQL source's ``GROUP BY`` too) runs the
    same kernel, so pushed and mediator-compensated aggregation agree:
    ``count`` counts rows whose argument is not None (a bare variable
    argument counts every row, like ``COUNT(*)``); the other aggregates skip
    None values and yield None when no value survives; an unknown aggregate
    name keeps the largest value.
    The loop is the grouping's kernel, bound here for this call alone.
    """
    return group_kernel(variable, keys, aggregates)(elements, base_env, subquery_evaluator)


def limit_rows(elements: Iterable[Any], count: int) -> Iterator[Any]:
    """Yield at most ``count`` elements, then close the upstream pipeline.

    Closing the input generator is what propagates early termination down a
    streaming plan (and, at the leaves, cancels in-flight exec calls).
    """
    if count <= 0:
        close = getattr(elements, "close", None)
        if close is not None:
            close()
        return
    produced = 0
    iterator = iter(elements)
    try:
        for element in iterator:
            yield element
            produced += 1
            if produced >= count:
                return
    finally:
        close = getattr(iterator, "close", None)
        if close is not None:
            close()


def compose_rows(
    plan: phys.PhysicalOp,
    leaf: Callable[[phys.Exec], Iterable[Any]],
    base_env: Mapping[str, Any] | None = None,
    union: Callable[[tuple[phys.PhysicalOp, ...]], Iterable[Any]] | None = None,
    probe: Callable[[phys.ProbeJoin, Iterator[Any]], Iterable[Any]] | None = None,
    group: Callable[[phys.MkGroupBy, Iterator[Any]], Iterable[Any]] | None = None,
    subquery: SubqueryEvaluator | None = None,
    kernels: MutableMapping[phys.PhysicalOp, Any] | None = None,
) -> Iterator[Any]:
    """Compose the lazy operator pipeline for ``plan``.

    The one way the mediator turns an operator tree plus rows in hand into
    rows.  A partial answer's data subtrees are composed as they stand, over
    the settled calls' lists; a logical plan is evaluated as
    ``compose_rows(implement(plan), leaf, ...)`` -- a degraded call's
    stripped operators and a cached superset's deltas go this way.

    Each operator takes its rows one at a time and nothing is materialized
    except join build sides and the distinct set.  ``leaf`` supplies the row
    iterator of each ``exec`` node -- a settled call's list under
    ``execute``, a live stream's chunks flattened in C under
    ``execute_stream``, the rows in hand for a placeholder submit.  ``union``
    optionally overrides how ``mkunion`` children are sequenced (a stream
    interleaves them in exec-completion order).  ``probe`` supplies the
    run's probe-join leaf -- the batching layer issuing set-valued submits
    over the left rows; ``group`` optionally
    wraps mediator-side grouping's output (a stream suppresses grouped
    output computed over a known-incomplete input); ``subquery`` evaluates
    nested subqueries (a run passes its own evaluator, so they share its
    slot and deadline).  ``kernels`` is where the chains' and groupings'
    kernels are kept, under the identity of each chain's top node and each
    ``mkgroupby`` (a run passes its plan's compiled-call slot); without it
    each is bound for this pipeline alone.

    The pipeline structure (and every ``leaf`` iterator) is built eagerly,
    so structural errors surface immediately; only *row* flow is lazy.
    """
    recurse = lambda child: compose_rows(  # noqa: E731
        child, leaf, base_env, union, probe, group, subquery, kernels
    )
    if isinstance(plan, phys.Exec):
        return iter(leaf(plan))
    if isinstance(plan, phys.MkBag):
        return map(as_struct, plan.values)
    if isinstance(plan, (phys.Filter, phys.MkApply, phys.MkProj)):
        below = plan.child  # the chain's input: the first operator below not in it
        while isinstance(below, CHAIN):
            below = below.child
        rows = recurse(below)
        return _kept(kernels, plan, lambda: chain_kernel(plan))(rows, base_env, subquery)
    if isinstance(plan, phys.ProbeJoin):
        if probe is None:
            raise QueryExecutionError(
                "probe join reached an engine without a probe runner"
            )
        return iter(probe(plan, recurse(plan.left)))
    if isinstance(plan, phys.MkBindJoin):
        return bind_join_rows(
            recurse(plan.left),
            recurse(plan.right),
            plan.left_variable,
            plan.right_variable,
            plan.condition,
            base_env=base_env,
            subquery_evaluator=subquery,
        )
    if isinstance(plan, phys.MkUnion):
        if union is not None:
            return iter(union(plan.inputs))
        return chain.from_iterable([recurse(child) for child in plan.inputs])  # each part in turn, in C
    if isinstance(plan, phys.MkFlatten):
        return flatten_rows(recurse(plan.child))
    if isinstance(plan, phys.MkDistinct):
        return distinct_rows(recurse(plan.child))
    if isinstance(plan, phys.MkLimit):
        return limit_rows(recurse(plan.child), plan.count)
    if isinstance(plan, phys.MkGroupBy):
        rows = recurse(plan.child)
        kernel = _kept(kernels, plan, lambda: group_kernel(plan.variable, plan.keys, plan.aggregates))
        grouped = kernel(rows, base_env, subquery)
        return grouped if group is None else iter(group(plan, grouped))
    raise QueryExecutionError(f"cannot evaluate physical operator {plan.to_text()}")


def _kept(kernels: MutableMapping[Any, Any] | None, node: phys.PhysicalOp, bind: Callable[[], Kernel]) -> Kernel:
    """``node``'s kernel out of ``kernels``, bound and kept there on first use.

    Keyed by the node's identity: its hash is its text, which is rebuilt on
    every call once it is long (a subtree holding a resubmitted partial
    answer's rows), and a slot only ever serves the nodes of the one plan
    that owns it, which live as long as it does.
    """
    kernel: Kernel | None = None if kernels is None else kernels.get(id(node))
    if kernel is None:
        kernel = bind()
        if kernels is not None:
            kernels[id(node)] = kernel
    return kernel
