"""Degrading pushdown retries: the capability-failure recovery ladder.

A wrapper call fails for two very different reasons.  A *transient* fault
(network hiccup, crash, overload) may well succeed if the same expression is
simply re-submitted -- the classic retry-with-backoff path.  A *capability or
translation* failure is deterministic: the wrapper (or its translator)
rejected the pushed expression, so re-submitting it verbatim can only fail
the same way.  This happens when a wrapper's declared grammar is wider than
what its translator actually handles -- the SQL wrapper accepts ``select``
but not every predicate, a source upgrades or downgrades behind a stale
capability declaration, a hand-built plan overreaches.

The adaptive policy implemented here reacts by *degrading the pushdown*
instead of repeating it: each retry strips the outermost
mediator-compensable operator from the pushed expression (``limit``,
``project``, ``select``, ``groupby`` -- whichever is on top) until,
ultimately, a bare ``get`` is submitted.  Every rung is strictly
smaller than the one before, so the ladder always terminates.  The stripped
operators are re-applied at the mediator over the rows that come back
(:func:`compensate_rows`), so the answer's semantics never change -- only
where the work happens does.  Every pushable operator has one operand (a
submit ranges over one extent), so every pushdown degrades to its ``get``.

The exec engine uses this module from the one failure step of its attempt
loop (``StreamingExecution._failed``, called by ``_open_exec`` in
:mod:`repro.runtime.streaming`), so ``query()`` and ``query_stream()``
degrade and compensate identically.

Interplay with mid-stream resume (a stream's recovery of calls that die
*after* delivering rows): compensation changes the relationship
between source cursor positions and delivered rows -- a stripped ``select``
filters, a stripped ``groupby`` aggregates -- so a degraded call can never be
resumed from a source-side token.  A degraded resubmission after partial
delivery therefore always takes the *replay* path: the reopened stream is
re-compensated from scratch with the same stripped operators (every rung of
the ladder computes the same overall expression, so a deterministic source
reproduces the identical output prefix whatever rung the reopen lands on)
and the mediator skips the rows it already delivered.  A reopen starts at
the rung the call stood on when it died; when the reopen itself hits a
capability failure and degrades mid-recovery, the engine abandons the token
it was about to use and falls back to replay-and-skip for the same reason.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from repro.algebra import logical as log
from repro.algebra.capabilities import PUSHABLE_OPERATORS
from repro.algebra.nodes import ONE, operand_kinds
from repro.errors import CapabilityError, WrapperError
from repro.optimizer.implementation import implement
from repro.runtime.operators import as_struct, compose_rows

#: exception types that indicate the *expression* was the problem, not the
#: source's health: degrading the pushdown may succeed where repeating fails.
DEGRADABLE_ERRORS = (CapabilityError, WrapperError, NotImplementedError)

#: unary operators the ladder strips: every unary logical operator in the
#: pushable vocabulary (``distinct`` never crosses the wrapper boundary).  The
#: mediator replays what was stripped (:func:`compensate_rows`): a
#: re-aggregation of the shipped raw rows for ``groupby``.
_STRIPPABLE = tuple(
    cls for cls in log.LogicalOp.__subclasses__()
    if cls.op_name in PUSHABLE_OPERATORS and list(operand_kinds(cls).values()) == [ONE]
)

#: leaf name standing for "the rows the degraded call returned" during
#: compensation; never reaches a wrapper.
_DEGRADED_LEAF = "__degraded_rows__"


def is_capability_failure(exc: BaseException) -> bool:
    """True when ``exc`` looks like a capability/translation problem."""
    return isinstance(exc, DEGRADABLE_ERRORS)


def degrade_pushdown(
    expression: log.LogicalOp,
) -> tuple[log.LogicalOp, log.LogicalOp] | None:
    """One rung down the ladder: strip the outermost compensable operator.

    Returns ``(smaller_expression, stripped_operator)``, or ``None`` when the
    expression is already minimal (a bare ``get``, a literal) or not
    pushable at all (a hand-built plan's).
    """
    if isinstance(expression, _STRIPPABLE):
        return expression.children()[0], expression
    return None


def degradation_ladder(expression: log.LogicalOp) -> list[log.LogicalOp]:
    """Every successively smaller pushdown, outermost-stripped first.

    ``degradation_ladder(limit(5, select(p, get(c))))`` is
    ``[select(p, get(c)), get(c)]``.  Used by documentation and tests; the
    executors walk the ladder one rung per retry via :func:`degrade_pushdown`.
    """
    ladder: list[log.LogicalOp] = []
    step = degrade_pushdown(expression)
    while step is not None:
        expression, _ = step
        ladder.append(expression)
        step = degrade_pushdown(expression)
    return ladder


def compensate_rows(
    stripped: Iterable[log.LogicalOp], rows: Iterable[Any]
) -> Iterator[Any]:
    """Replay the stripped operators at the mediator, lazily.

    ``stripped`` is the list of operators removed from the pushdown,
    outermost first (the order :func:`degrade_pushdown` produced them);
    ``rows`` are the degraded call's rows *already in mediator vocabulary*
    (renamed through the extent's local transformation map).  Pushable
    predicates are self-contained by construction -- they mention only the
    select's own variable and constants -- so replaying them over the rows
    reproduces exactly what the source would have computed.

    The answer cache replays a query's delta operators over a cached
    superset's rows the same way; any unary mediator-side operator works.
    One pipeline, pulled by the consumer: a ``limit`` stops reading ``rows``
    (and closes them) as soon as it is satisfied.
    """
    stripped = list(stripped)
    if not stripped:
        yield from rows
        return
    plan: log.LogicalOp = log.Submit(_DEGRADED_LEAF, log.Get(_DEGRADED_LEAF))
    for operator in reversed(stripped):
        plan = operator.with_children([plan])
    yield from map(as_struct, compose_rows(implement(plan), lambda _exec: rows))
