"""The abstract wrapper interface and a shared algebra evaluator.

The paper: "DISCO interfaces to wrappers at the level of an abstract algebraic
machine of logical operators.  When the DBI implements a new wrapper, she
chooses a (sub) set of logical operators to support.  The DBI implements the
logical operators, and also implements a call in the wrapper interface which
returns the set of supported logical operators."
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterable, Iterator

from repro.algebra.capabilities import CapabilitySet
from repro.algebra.logical import BagLiteral, Get, GroupBy, Limit, LogicalOp, Project, Select
from repro.errors import CapabilityError, WrapperError

Row = dict[str, Any]
#: a scan may return a list (relational engines) or yield lazily (cursors)
ScanFunction = Callable[[str], Iterable[Row]]

#: resume support levels a wrapper may declare (:attr:`Wrapper.resume_support`).
#: ``RESUME_TOKEN``: stream opens return a :class:`ResumableStream` whose
#: token can be passed back via ``submit_stream(expr, resume_from=token)``;
#: the *source* then skips the already-delivered rows, so only the remaining
#: rows cross the wire.  Token support implies the source can reposition a
#: cursor deterministically.
RESUME_TOKEN = "token"
#: ``RESUME_REPLAY``: the wrapper has no cursor tokens but re-evaluating the
#: same expression deterministically reproduces the same row sequence, so the
#: *mediator* may reopen the stream and skip the rows it already delivered
#: (reopen-and-skip; the skipped rows are re-shipped).  Declare it only for
#: sources with a stable scan order.
RESUME_REPLAY = "replay"


class ResumableStream:
    """A row iterator that carries a source-side resume token.

    After each yielded row, :attr:`token` identifies the position *after*
    that row; handing it back through ``submit_stream(expression,
    resume_from=token)`` continues the stream without re-delivering rows.
    The mediator treats the token as opaque -- here it is the ordinal cursor
    position, but a wrapper over a real source could subclass and carry
    server-issued cursor handles instead.
    """

    def __init__(self, rows: Iterable[Row], position: Any = 0):
        self._iterator = iter(rows)
        #: opaque resume token for the current position (updated per row).
        self.token = position
        #: row count when the underlying answer is a sized sequence (an
        #: RPC-style materialized reply), else None for true lazy cursors.
        #: Lets the mediator keep its sized-sequence bookkeeping (history
        #: recorded at open) even though the rows arrive wrapped.
        self.sized = len(rows) if isinstance(rows, (list, tuple)) else None

    def __iter__(self) -> "ResumableStream":
        return self

    def __next__(self) -> Row:
        row = next(self._iterator)
        self.token = self._advance(self.token)
        return row

    def _advance(self, token: Any) -> Any:
        """Token after one more row; the default token is the row ordinal."""
        return token + 1

    def close(self) -> None:
        close = getattr(self._iterator, "close", None)
        if close is not None:
            close()


class Wrapper:
    """Base class for every wrapper.

    Subclasses implement :meth:`_execute` (how a legal expression is actually
    evaluated at the source) and pass their capability set to ``__init__``.
    """

    #: mid-stream resume support: :data:`RESUME_TOKEN`, :data:`RESUME_REPLAY`
    #: or ``None`` (the default -- a call that dies after delivering rows is
    #: written off by the streaming engine rather than recovered).
    resume_support: str | None = None

    def __init__(self, name: str, capabilities: CapabilitySet):
        self.name = name
        self.capabilities = capabilities

    # -- the two calls of the wrapper interface ------------------------------------------
    def submit_functionality(self) -> CapabilitySet:
        """Return the capabilities: the supported logical operators."""
        return self.capabilities

    def submit(self, expression: LogicalOp) -> list[Row]:
        """Evaluate ``expression`` (in the source's name space) and return rows.

        The expression is re-checked against the capabilities: an illegal
        expression indicates an optimizer bug or a hand-built plan, so it
        fails loudly instead of silently changing query semantics.  A tree
        not accepted before is walked in full
        (:meth:`~repro.algebra.capabilities.CapabilitySet.admits`).
        """
        self._check_capability(expression)
        return self._execute(expression)

    def submit_stream(
        self, expression: LogicalOp, resume_from: Any = None
    ) -> Iterable[Row]:
        """Rows for ``expression``, possibly produced lazily.

        The streaming engine calls this instead of :meth:`submit`.  The base
        implementation delegates to :meth:`_execute` (one materialized round
        trip -- correct for RPC-style sources whose latency is per call);
        wrappers over cursor-style sources override :meth:`_execute_stream`
        to yield rows as the consumer pulls them, so a satisfied ``limit``
        stops the scan instead of draining it.

        ``resume_from`` is a token previously obtained from a
        :class:`ResumableStream` this wrapper returned for the *same*
        expression: the source skips the rows delivered before the token and
        ships only the remainder.  Only legal on wrappers declaring
        :data:`RESUME_TOKEN`; others raise :class:`CapabilityError` so the
        mediator can fall back (reopen-and-skip, or write-off).
        """
        self._check_capability(expression)
        if resume_from is None:
            return self._execute_stream(expression)
        if self.resume_support != RESUME_TOKEN:
            raise CapabilityError(
                f"wrapper {self.name!r} cannot resume a stream from a token"
            )
        return self._resume_stream(expression, resume_from)

    def _check_capability(self, expression: LogicalOp) -> None:
        """Fail loudly when ``expression`` is outside the wrapper's capabilities."""
        if not self.capabilities.admits(expression):
            raise CapabilityError(
                f"wrapper {self.name!r} does not accept expression {expression.to_text()}"
            )

    # -- hooks for subclasses ------------------------------------------------------------
    def _execute(self, expression: LogicalOp) -> list[Row]:
        raise NotImplementedError

    def _execute_stream(self, expression: LogicalOp) -> Iterable[Row]:
        """Lazy variant of :meth:`_execute`; defaults to the materialized call."""
        return self._execute(expression)

    def _resume_stream(self, expression: LogicalOp, token: Any) -> Iterable[Row]:
        """Continue a stream past ``token`` (wrappers declaring RESUME_TOKEN).

        The default treats the token as a row ordinal and seeks the source
        cursor past it without shipping the skipped rows.
        """
        rows = itertools.islice(self._execute_stream(expression), int(token), None)
        return ResumableStream(rows, position=token)

    def source_collections(self) -> list[str]:
        """Names of the collections the underlying source exposes."""
        return []

    def source_attributes(self, collection: str) -> list[str]:
        """Attribute names of ``collection`` as seen by the data source.

        Used for the run-time type check of Section 2.1: the mediator compares
        these names with the mediator type (after applying the local
        transformation map) and raises a type conflict on mismatch.
        """
        return []

    def cardinality(self, collection: str) -> int | None:
        """Row count of ``collection`` when the source exports it, else None."""
        return None

    def describe(self) -> dict[str, Any]:
        """Catalog-friendly description of the wrapper."""
        return {
            "name": self.name,
            "operators": sorted(self.capabilities.operators),
            "compose": self.capabilities.compose,
            "resume": self.resume_support,
        }


class AlgebraEvaluator:
    """Evaluates pushable logical expressions given a ``scan`` function.

    Wrappers whose sources expose row-level operations (relational engine,
    key-value store, CSV files) use this evaluator to run the pushed
    expression "at the source"; the only thing each wrapper provides is how a
    named collection is scanned.
    """

    def __init__(self, scan: ScanFunction):
        self.scan = scan

    def evaluate(self, expression: LogicalOp) -> list[Row]:
        """Evaluate ``expression`` and return rows (materialized).

        The semantics live in :meth:`evaluate_stream`; this simply drains it,
        so the barrier and streaming wrapper paths cannot diverge.
        """
        return list(self.evaluate_stream(expression))

    def evaluate_stream(self, expression: LogicalOp) -> Iterator[Row]:
        """Lazy variant of :meth:`evaluate`: generators end to end.

        Used by wrappers over cursor-style sources whose ``scan`` yields rows
        incrementally: pushed-down select/project are applied per row as the
        consumer pulls, so nothing is materialized at the source boundary and
        an early-terminating consumer (``limit``) stops the scan.  A pushed
        expression ranges over one collection: there is no join, union or
        flatten to evaluate here.
        """
        if isinstance(expression, Get):
            return iter(self.scan(expression.collection))
        if isinstance(expression, BagLiteral):
            return (dict(value) for value in expression.values)
        if isinstance(expression, Project):
            attributes = expression.attributes
            return (
                {attr: row.get(attr) for attr in attributes}
                for row in self.evaluate_stream(expression.child)
            )
        if isinstance(expression, Select):
            variable = expression.variable
            holds = expression.predicate.compile()
            return (row for row in self.evaluate_stream(expression.child) if holds({variable: row}))
        if isinstance(expression, Limit):
            return self._limit_stream(expression)
        if isinstance(expression, GroupBy):
            return self._groupby_stream(expression)
        raise WrapperError(f"cannot evaluate {expression.to_text()} at a data source")

    def _groupby_stream(self, expression: GroupBy) -> Iterator[Row]:
        """Grouped aggregation at the source (the ``groupby`` terminal).

        Runs the grouping's generated kernel through
        :func:`~repro.runtime.operators.group_rows`, bound per call (one
        shape walk; the loop itself is compiled once per shape per process).
        The mediator's compensation path runs the same kernel, so a pushed
        and a mediator-side aggregation can never disagree on NULL or
        empty-group semantics.
        """
        from repro.runtime.operators import group_rows  # local: avoid cycle

        rows = self.evaluate_stream(expression.child)
        for row in group_rows(
            rows, expression.variable, expression.keys, expression.aggregates
        ):
            yield dict(row)

    def _limit_stream(self, expression: Limit) -> Iterator[Row]:
        """The pushed-down fetch size: stop the scan after ``count`` rows."""
        child = self.evaluate_stream(expression.child)
        if expression.count <= 0:
            close = getattr(child, "close", None)
            if close is not None:
                close()
            return
        try:
            produced = 0
            for row in child:
                yield row
                produced += 1
                if produced >= expression.count:
                    return
        finally:
            close = getattr(child, "close", None)
            if close is not None:
                close()
