"""The abstract wrapper interface and a shared algebra evaluator.

The paper: "DISCO interfaces to wrappers at the level of an abstract algebraic
machine of logical operators.  When the DBI implements a new wrapper, she
chooses a (sub) set of logical operators to support.  The DBI implements the
logical operators, and also implements a call in the wrapper interface which
returns the set of supported logical operators."
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator

from repro.algebra.capabilities import CapabilitySet
from repro.algebra.logical import BagLiteral, Get, GroupBy, Limit, LogicalOp, Project, Select
from repro.errors import CapabilityError, WrapperError

Row = dict[str, Any]
#: a scan may return a list (relational engines) or yield lazily (cursors)
ScanFunction = Callable[[str], Iterable[Row]]

#: the resume support a wrapper may declare (:attr:`Wrapper.resume_support`):
#: re-evaluating the same expression deterministically reproduces the same
#: row sequence, so after a mid-stream death the *mediator* may reopen the
#: stream and skip the rows it already delivered (the skipped rows are
#: re-shipped).  Declare it only for sources with a stable scan order.
RESUME_REPLAY = "replay"


class Wrapper:
    """Base class for every wrapper.

    Subclasses implement :meth:`_execute` (how a legal expression is actually
    evaluated at the source) and pass their capability set to ``__init__``.
    ``_execute`` may return a list, or a lazy iterable for a cursor-style
    source; :meth:`submit` lists a lazy one, :meth:`submit_stream` does not.
    """

    #: mid-stream resume support: :data:`RESUME_REPLAY` or ``None`` (the
    #: default -- a call that dies after delivering rows is written off by
    #: the streaming engine rather than recovered).
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
        rows = self._execute(expression)
        return rows if isinstance(rows, list) else list(rows)

    def submit_stream(self, expression: LogicalOp) -> Iterable[Row]:
        """Rows for ``expression``, possibly produced lazily.

        The streaming engine calls this instead of :meth:`submit`, and gets
        what :meth:`_execute` returned: a list from an RPC-style source (one
        materialized round trip, its latency per call), or the lazy rows of a
        cursor-style source, pulled as the consumer needs them, so a
        satisfied ``limit`` stops the scan instead of draining it.
        """
        self._check_capability(expression)
        return self._execute(expression)

    def _check_capability(self, expression: LogicalOp) -> None:
        """Fail loudly when ``expression`` is outside the wrapper's capabilities."""
        if not self.capabilities.admits(expression):
            raise CapabilityError(
                f"wrapper {self.name!r} does not accept expression {expression.to_text()}"
            )

    # -- hooks for subclasses ------------------------------------------------------------
    def _execute(self, expression: LogicalOp) -> Iterable[Row]:
        raise NotImplementedError

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


class StoreWrapper(Wrapper):
    """A wrapper over a collection store hosted by a simulated server.

    Every store wrapper evaluates a pushed expression one way: one server
    call, one round trip however much was pushed, that runs
    :class:`AlgebraEvaluator` over the store's ``scan``.  Which trees reach
    it is the capability set's answer alone, checked at submit.  The
    key-value, text and CSV stores also share one catalog surface
    (``collection_names``, ``scan``, ``cardinality``), read here; the
    relational wrappers read their engine's catalog instead.
    """

    def __init__(self, name: str, server: Any, capabilities: CapabilitySet):
        super().__init__(name, capabilities)
        self.server = server

    def _execute(self, expression: LogicalOp) -> list[Row]:
        return self.server.call(lambda store: AlgebraEvaluator(scan=store.scan).evaluate(expression))

    def source_collections(self) -> list[str]:
        return self.server.store.collection_names()

    def source_attributes(self, collection: str) -> list[str]:
        store = self.server.store
        if collection not in store.collection_names():
            return []
        rows = store.scan(collection)
        return list(rows[0]) if rows else []

    def cardinality(self, collection: str) -> int | None:
        store = self.server.store
        if collection not in store.collection_names():
            return None
        return store.cardinality(collection)


class AlgebraEvaluator:
    """Evaluates pushable logical expressions given a ``scan`` function.

    Wrappers whose sources expose row-level operations (every store wrapper,
    through :meth:`StoreWrapper._execute`, and the cursor-style
    :class:`~repro.wrappers.generator.GeneratorWrapper`) use this evaluator
    to run the pushed expression "at the source"; the only thing each
    provides is how a named collection is scanned.
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
            return iter(expression.values)  # literal rows are immutable Structs: handed out as they are
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
            from repro.runtime.operators import limit_rows  # local: avoid cycle

            return limit_rows(self.evaluate_stream(expression.child), expression.count)
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
        empty-group semantics.  The kernel builds each group's row as a fresh
        :class:`~repro.datamodel.values.Struct`, yielded as it is.
        """
        from repro.runtime.operators import group_rows  # local: avoid cycle

        rows = self.evaluate_stream(expression.child)
        yield from group_rows(rows, expression.variable, expression.keys, expression.aggregates)

