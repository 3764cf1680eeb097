"""Query results, including partial answers and incremental (streaming) results.

"The answer to a query may be another query" (Section 1.3).  A
:class:`QueryResult` therefore carries either data (a bag, or a scalar for
aggregate queries) or a partial answer: the OQL text and the logical plan of
the query that remains to be evaluated, with the data already obtained
embedded in it.

Both entry points hand a result the run, a
:class:`~repro.runtime.streaming.StreamingExecution`, read once finished
(``QueryResult._read``).  A ``Mediator.query_stream`` run is live: until it
ends ``iter_rows()`` yields rows *incrementally*, as sources answer, while
the materialized surface (``rows()``, ``answer()``, ``data``) keeps its
contract by draining the stream on first use.  Iteration is replayable --
the stream buffers what it has yielded -- so calling ``iter_rows()`` and
later ``rows()`` never consumes a pipeline generator twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.algebra.logical import LogicalOp
from repro.algebra.physical import PhysicalOp
from repro.algebra.unparser import OQLText, written_when_read
from repro.datamodel.values import Bag
from repro.runtime.executor import ExecReport, collect_errors


@written_when_read("query_text", "partial_query")
@dataclass
class QueryResult:
    """The answer returned by :meth:`Mediator.query` / :meth:`Mediator.query_stream`.

    ``partial_query`` (and a resubmitted answer's ``query_text``, the partial
    answer it resubmitted) embeds every row obtained; those rows are written
    on its first read (:class:`~repro.algebra.unparser.OQLText`).
    """

    query_text: str | OQLText
    data: Any = field(default_factory=Bag)
    is_partial: bool = False
    partial_query: str | OQLText | None = None
    partial_plan: LogicalOp | None = None
    unavailable_sources: tuple[str, ...] = ()
    reports: tuple[ExecReport, ...] = ()
    estimated_cost: float | None = None
    #: the plans that ran (None when a cache answered without one); their
    #: texts are the ``logical_plan`` / ``physical_plan`` views below.
    logical: LogicalOp | None = field(default=None, repr=False)
    physical: PhysicalOp | None = field(default=None, repr=False)
    from_plan_cache: bool = False
    #: True when the rows were served by the mediator's answer cache (an
    #: exact hit, a subsumption replay, or a patched partial answer) rather
    #: than by a fresh execution.
    from_answer_cache: bool = False
    #: the run, until :meth:`_read` takes its outcome; excluded from
    #: equality -- two results are the same answer regardless of how the
    #: rows were delivered.
    stream: Any | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._read()

    def _read(self) -> None:
        """Take a finished run's outcome (a partial answer's text unwritten)
        and detach the run: the one read, for both entry points.

        A barrier run is finished when the result is built, so the result
        never holds it.  A live stream stays attached, and so does an
        *aborted* one (mediator-side error), so re-consumption re-raises
        instead of presenting the delivered prefix as a complete answer.
        """
        run = self.stream
        if run is None or not run.finished or run.failure is not None:
            return
        self.data = run.data
        self.is_partial = run.is_partial
        self.partial_query = run.partial_query
        self.partial_plan = run.partial_plan
        self.unavailable_sources = run.unavailable_sources
        self.reports = run.reports
        self.stream = None

    # -- plan text, rendered when read -----------------------------------------------------
    @property
    def logical_plan(self) -> str | None:
        """Text of the logical plan that ran.

        Rendered on each read, not when the result is built: the plans of a
        resubmitted partial answer embed every row already obtained, and most
        callers never look.  The result holds the plan objects themselves, so
        the text is of the plan that ran whatever the DBA changed since.
        """
        return None if self.logical is None else self.logical.to_text()

    @property
    def physical_plan(self) -> str | None:
        """Text of the physical plan that ran (see :attr:`logical_plan`)."""
        return None if self.physical is None else self.physical.to_text()

    # -- the incremental surface ---------------------------------------------------------
    def iter_rows(self) -> Iterator[Any]:
        """Yield the answer's rows one at a time.

        For a streaming result the rows appear as sources answer -- the
        first row of a fast source arrives while slow sources are still in
        flight.  Pausing the iteration leaves the stream open and resumable
        (``rows()`` later still sees everything); a satisfied ``limit`` or an
        explicit :meth:`close` cancels the remaining work.  For a
        materialized result this simply iterates the data.  Repeatable: a
        second call replays the same rows.
        """
        if self.stream is not None:
            yield from self.stream
            self._read()
            return
        yield from self.rows()

    # -- the materialized surface --------------------------------------------------------
    def answer(self) -> Any:
        """The user-facing answer: data when complete, the partial query otherwise.

        A streaming result is drained first; its answer is always the data
        (rows already delivered cannot be folded back into a partial query).
        """
        if self.stream is not None:
            self.rows()
            return self.data
        return self.partial_query if self.is_partial else self.data

    def complete(self) -> bool:
        """True when every referenced data source answered (drains a stream)."""
        if self.stream is not None:
            self.rows()
        return not self.is_partial

    def errors(self) -> dict[str, str]:
        """Why each unavailable source failed, keyed by extent name.

        Timeouts read "timed out after ...s"; wrapper crashes carry the
        exception type and message.  Empty for complete answers.  On a
        streaming result this reflects the failures observed *so far*; after
        the stream ends it is final -- a source that died mid-stream is
        reported here even though earlier rows were delivered.
        """
        if self.stream is not None:
            return self.stream.errors()
        return collect_errors(self.reports)

    def rows(self) -> list[Any]:
        """The data as a list (empty for partial answers; drains a stream)."""
        if self.stream is not None:
            rows = self.stream.to_list()
            self._read()
            return rows
        if isinstance(self.data, Bag):
            return self.data.to_list()
        return [self.data]

    def sources_contacted(self) -> int:
        """Number of exec calls issued for this query."""
        if self.stream is not None:
            return self.stream.calls_issued
        return len(self.reports)

    def close(self) -> None:
        """Stop a streaming result early, cancelling in-flight source calls.

        No-op for materialized results and finished streams.
        """
        if self.stream is not None:
            self.stream.close()
            self._read()

    def __repr__(self) -> str:
        if self.stream is not None and not self.stream.finished:
            return f"QueryResult(streaming, {self.query_text!r})"
        if self.is_partial:
            return f"QueryResult(partial, unavailable={list(self.unavailable_sources)})"
        return f"QueryResult(data={self.data!r})"
