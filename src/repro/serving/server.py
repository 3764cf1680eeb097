"""The concurrent serving layer: one mediator, many clients.

The paper's access-server architecture (Section 5) puts a long-lived
mediator process behind many concurrent applications.  Everything below the
mediator facade is now safe under concurrent mutation (see the lock
discipline map in docs/ARCHITECTURE.md); this module adds the *policy* a
shared mediator needs on top of that safety:

* **admission** -- a submission is queued, executed, or refused with an
  explicit verdict ("admitted" / "rejected" / "queue timeout" / "closed"),
  never silently dropped and never an unbounded pile-up;
* **fairness** -- queued submissions are scheduled weighted-fair by priority
  class (stride scheduling, :class:`~repro.runtime.admission.FairQueue`), so
  a flood of cheap queries cannot starve an important one;
* **deadline propagation** -- a submission's timeout covers its whole life:
  time spent waiting in the admission queue is deducted from the execution
  budget, and a submission whose deadline expires while queued is failed
  with the "queue timeout" verdict without ever touching a source;
* **backpressure** -- streamed submissions hand rows to the client through a
  :class:`~repro.runtime.backpressure.BoundedRowQueue`, so a slow reader
  stalls the serving worker (and, transitively, the source cursors) instead
  of buffering an unbounded answer;
* **observability** -- every submission carries a :class:`ServerReport`
  (verdict, queue wait, execution time, rows, backpressure stalls), and
  :meth:`MediatorServer.stats` aggregates the server-wide counters.

The in-flight budget *is* the worker pool: ``ServerConfig.workers`` threads
pop the fair queue, so at most that many queries execute concurrently and
the executor underneath is never oversubscribed by the serving layer.

Lock discipline: the server's own state (closed flag, in-flight count,
counters) is guarded by one condition; the fair queue and each submission's
future have their own locks.  No server lock is held while running a query
or while blocking on a client (the backpressure queue has its own).
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass
from typing import Any, Iterator

from repro.errors import AdmissionError
from repro.runtime.admission import (
    ADMITTED,
    QUEUE_TIMEOUT,
    REJECTED,
    FairQueue,
    QueueClosed,
)
from repro.runtime.backpressure import BoundedRowQueue, StreamClosed

#: the one place a query is turned away logs here (no handler or level is
#: configured by the library).
logger = logging.getLogger("repro.serving")

#: capacity of the per-submission row queue of a streamed submission: how
#: many rows a serving worker may run ahead of a slow client before it
#: stalls (backpressure).
STREAM_BUFFER_ROWS = 256


@dataclass
class ServerConfig:
    """Knobs of one :class:`MediatorServer`.

    ``workers``
        Serving threads -- and therefore the bounded in-flight query budget:
        at most this many submissions execute concurrently.
    ``max_queue_depth``
        Bound on the admission queue.  A submission arriving with this many
        already waiting is refused immediately with verdict ``"rejected"``
        (load shedding); ``None`` queues without bound.
    """

    workers: int = 4
    max_queue_depth: int | None = 64


@dataclass
class ServerReport:
    """What happened to one submission, end to end."""

    query: str
    verdict: str
    priority: float
    #: seconds spent queued before a worker picked the submission up.
    queue_wait: float = 0.0
    #: seconds spent executing (0 for submissions that never ran).
    execution_time: float = 0.0
    rows: int = 0
    is_partial: bool = False
    #: True when the submission ran on the streaming engine.
    streamed: bool = False
    #: times the serving worker stalled on the client's row queue
    #: (backpressure; streamed submissions only).
    stalls: int = 0
    error: str | None = None


@dataclass
class _Submission:
    """One queued query plus the future its client is holding."""

    text: str
    priority: float
    timeout: float | None
    #: monotonic end-to-end deadline (None = no deadline).
    deadline: float | None
    submitted_at: float
    stream: bool
    future: "ServerFuture"


class ServerFuture:
    """Client-side handle for one submission.

    ``result()`` blocks until the submission settles and returns the
    :class:`~repro.core.result.QueryResult` (raising
    :class:`~repro.errors.AdmissionError` when the verdict was not
    ``"admitted"``).  Streamed submissions are consumed through
    :meth:`rows` instead -- iterate it to receive rows with backpressure;
    ``result()`` then returns only after the stream is fully drained or
    closed, so don't call it first.  :attr:`report` is available as soon as
    the submission settles.
    """

    def __init__(self, submission_text: str):
        self._text = submission_text
        self._done = threading.Event()
        #: set once the worker has *started* a streamed submission (the row
        #: queue exists) or the submission failed before starting.
        self._started = threading.Event()
        self._result: Any = None
        self._error: BaseException | None = None
        self.report: ServerReport | None = None
        #: backpressure queue of a streamed submission (None otherwise).
        self._rows: BoundedRowQueue | None = None

    # -- settling (worker side) ----------------------------------------------------------
    def _start_stream(self, rows: BoundedRowQueue) -> None:
        self._rows = rows
        self._started.set()

    def _settle(self, result: Any, error: BaseException | None, report: ServerReport) -> None:
        self._result = result
        self._error = error
        self.report = report
        self._started.set()
        self._done.set()

    # -- client side ---------------------------------------------------------------------
    def done(self) -> bool:
        """True once the submission has settled (report available)."""
        return self._done.is_set()

    def result(self, timeout: float | None = None) -> Any:
        """Block until settled; return the QueryResult or raise the failure."""
        if not self._done.wait(timeout):
            raise TimeoutError(f"submission {self._text!r} still pending")
        if self._error is not None:
            raise self._error
        return self._result

    def rows(self) -> Iterator[Any]:
        """Stream the rows of a streamed submission (backpressure-bounded).

        Blocks until the worker opens the stream; raises the admission
        failure if the submission never started, and the execution failure
        (if any) at the end of the rows.  For non-streamed submissions,
        drains ``result()`` instead.
        """
        self._started.wait()
        if self._rows is None:
            result = self.result()
            yield from result.rows()
            return
        yield from self._rows

    def close(self) -> None:
        """Give up on the rows: wakes and cancels a stalled serving worker."""
        if self._rows is not None:
            self._rows.close()

    @property
    def stream_depth(self) -> int:
        """Rows currently buffered for this client (streamed submissions)."""
        return 0 if self._rows is None else len(self._rows)


class MediatorServer:
    """Serve one mediator to many concurrent clients.

    Create via :meth:`repro.core.mediator.Mediator.serve` or directly::

        server = MediatorServer(mediator, config=ServerConfig(workers=8))
        future = server.submit("select x.name from x in person")
        result = future.result()          # QueryResult
        print(future.report.queue_wait)

    ``submit`` never blocks on execution -- it queues (or refuses) and
    returns a :class:`ServerFuture`.  ``close()`` drains gracefully by
    default: new submissions are refused, queued and running ones complete,
    workers are joined.  ``close(drain=False)`` refuses the queue instead
    (verdict ``"closed"``) and only waits for the running queries.
    """

    def __init__(self, mediator, config: ServerConfig | None = None):
        self.mediator = mediator
        self.config = config or ServerConfig()
        if self.config.workers <= 0:
            raise ValueError("workers must be positive")
        self._queue: FairQueue = FairQueue(capacity=self.config.max_queue_depth)
        self._state = threading.Condition()
        self._closed = False
        self._inflight = 0
        # server-wide counters (guarded by _state)
        self._submitted = 0
        self._rejected = 0
        self._timed_out = 0
        self._completed = 0
        self._queue_wait_total = 0.0
        self._workers = [
            threading.Thread(
                target=self._work, name=f"disco-serve-{i}", daemon=True
            )
            for i in range(self.config.workers)
        ]
        for worker in self._workers:
            worker.start()

    # -- client surface -----------------------------------------------------------------
    def submit(
        self,
        text: str,
        timeout: float | None = None,
        priority: float = 1.0,
        stream: bool = False,
    ) -> ServerFuture:
        """Queue one query; returns immediately with its future.

        ``timeout`` is the end-to-end deadline in seconds, queue wait plus
        execution; ``None`` defers to the mediator's configured timeout
        (queue wait then unbounded).  Under contention a class of
        ``priority`` 3 is scheduled three times as often as a class of
        priority 1 (stride scheduling); within a class, submissions run
        FIFO.

        Raises :class:`~repro.errors.AdmissionError` with verdict
        ``"rejected"`` when the admission queue is full and ``"closed"``
        after :meth:`close` -- refusals are synchronous, so a caller that
        got a future knows the query is queued.
        """
        now = time.monotonic()
        submission = _Submission(
            text=text,
            priority=priority,
            timeout=timeout,
            deadline=None if timeout is None else now + timeout,
            submitted_at=now,
            stream=stream,
            future=ServerFuture(text),
        )
        try:
            with self._state:
                if self._closed:
                    raise QueueClosed("server closed")
                self._submitted += 1
            self._queue.push(submission, priority)
        except AdmissionError as exc:
            if exc.verdict == REJECTED:
                with self._state:
                    self._rejected += 1
            self._refuse(submission, exc)
            raise
        return submission.future

    def stats(self) -> dict[str, Any]:
        """Server-wide counters, one consistent snapshot.

        When the mediator carries an answer cache, its counters are included
        under ``answer_cache`` -- the cache is shared by every worker, so
        concurrent clients' repeated queries hit one another's entries.
        """
        with self._state:
            snapshot = {
                "submitted": self._submitted,
                "rejected": self._rejected,
                "timed_out": self._timed_out,
                "completed": self._completed,
                "inflight": self._inflight,
                "queued": len(self._queue),
                "max_queue_depth": self._queue.max_depth,
                "queue_wait_total": self._queue_wait_total,
                "workers": len(self._workers),
            }
        cache = self.mediator.answer_cache
        if cache is not None:
            snapshot["answer_cache"] = cache.stats()
        return snapshot

    def close(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop serving.  New submissions are refused from this point on.

        ``drain=True`` (the default) lets queued and in-flight submissions
        complete (bounded by ``timeout`` seconds overall, ``None`` =
        forever) before shutting the workers down.  ``drain=False`` fails
        everything still queued with verdict ``"closed"`` and waits only for
        the in-flight queries.  Either way every worker thread is joined --
        a closed server leaks nothing.  The mediator itself stays open (and
        usable directly); closing it is the owner's call.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._state:
            if self._closed:
                drain = False  # a second close never waits for new work
            self._closed = True
            if drain:
                self._state.wait_for(
                    lambda: len(self._queue) == 0 and self._inflight == 0,
                    timeout=timeout,
                )
        # Refuse whatever is still queued (nothing, after a complete drain).
        for submission in self._queue.close():
            self._refuse(submission, QueueClosed("server closed"))
        for worker in self._workers:
            remaining = None if deadline is None else max(deadline - time.monotonic(), 0.0)
            worker.join(remaining)

    def __enter__(self) -> "MediatorServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- worker side --------------------------------------------------------------------
    def _work(self) -> None:
        while True:
            try:
                submission = self._queue.pop()
            except QueueClosed:
                return
            with self._state:
                self._inflight += 1
            try:
                self._serve(submission)
            finally:
                with self._state:
                    self._inflight -= 1
                    self._state.notify_all()

    def _refuse(self, submission: _Submission, error: AdmissionError) -> None:
        report = ServerReport(
            query=submission.text,
            verdict=error.verdict,
            priority=submission.priority,
            queue_wait=time.monotonic() - submission.submitted_at,
            error=str(error),
        )
        logger.warning(
            "refused (%s): priority %g, %.4gs queued: %s",
            report.verdict,
            report.priority,
            report.queue_wait,
            report.query,
        )
        submission.future._settle(None, error, report)

    def _serve(self, submission: _Submission) -> None:
        """Run one admitted submission on this worker thread."""
        picked_up = time.monotonic()
        queue_wait = picked_up - submission.submitted_at
        with self._state:
            self._queue_wait_total += queue_wait
        if submission.deadline is not None and picked_up >= submission.deadline:
            with self._state:
                self._timed_out += 1
            self._refuse(
                submission,
                AdmissionError(
                    f"deadline expired after {queue_wait:.4g}s in the serving queue",
                    verdict=QUEUE_TIMEOUT,
                ),
            )
            return
        # Deadline propagation: what is left after the queue wait is the
        # execution budget.
        remaining = (
            None
            if submission.deadline is None
            else max(submission.deadline - picked_up, 0.0)
        )
        report = ServerReport(
            query=submission.text,
            verdict=ADMITTED,
            priority=submission.priority,
            queue_wait=queue_wait,
            streamed=submission.stream,
        )
        try:
            if submission.stream:
                self._serve_stream(submission, remaining, report)
            else:
                result = self.mediator.query(submission.text, timeout=remaining)
                report.execution_time = time.monotonic() - picked_up
                report.rows = len(result.rows()) if not result.is_partial else 0
                report.is_partial = result.is_partial
                with self._state:
                    self._completed += 1
                submission.future._settle(result, None, report)
        except Exception as exc:
            # A mediator-side error (parse error, planner bug) belongs to
            # this submission's client, never to the worker: settle the
            # future with it.
            report.execution_time = time.monotonic() - picked_up
            report.error = f"{type(exc).__name__}: {exc}"
            submission.future._settle(None, exc, report)

    def _serve_stream(
        self, submission: _Submission, remaining: float | None, report: ServerReport
    ) -> None:
        """Drain a streaming query into the client's bounded row queue."""
        started = time.monotonic()
        rows = BoundedRowQueue(capacity=STREAM_BUFFER_ROWS)
        result = self.mediator.query_stream(submission.text, timeout=remaining)
        submission.future._start_stream(rows)
        delivered = 0
        error: BaseException | None = None
        try:
            for row in result.iter_rows():
                rows.put(row)  # blocks on a slow client: backpressure
                delivered += 1
        except StreamClosed:
            # The client gave up: cancel the in-flight source calls instead
            # of computing rows nobody will read.
            result.close()
        except Exception as exc:
            error = exc
        finally:
            rows.finish(error)
        report.execution_time = time.monotonic() - started
        report.rows = delivered
        report.stalls = rows.stalls
        report.is_partial = bool(result.unavailable_sources)
        if error is not None:
            report.error = f"{type(error).__name__}: {error}"
        with self._state:
            self._completed += 1
        submission.future._settle(result, error, report)
