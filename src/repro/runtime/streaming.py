"""The exec engine: one per-call state machine behind two entry points.

Paper Section 4 has one exec semantics -- calls proceed in parallel, after
the designated time period evaluation stops, and the partially evaluated
plan with the obtained data embedded is the answer -- and this module
implements it once.  A :class:`StreamingExecution` is one *run* of one
physical plan: every exec call is one :class:`_ExecState` (its attempts, its
rung on the degrade ladder, where a reopen restarts), driven by the one
attempt loop (``_open_exec``) and its one failure step (``_failed``: retry
with backoff and write-off under the one ``max_retries`` budget, and the
degrading-pushdown ladder of :mod:`repro.runtime.degrade`, whose rungs spend
none of it), and written to the
history once, by ``_ExecState.observe``.  The pool opens every dispatched
call; ``_settle`` waits for it under the query deadline and writes it off
when the deadline, or ``Executor.close()``, gets there first.  Every other
wrapper round trip is the same loop called on the consumer thread, bounded
by the query deadline: a mid-stream reopen, and each round trip of a probe
join (its shapes, key cache and re-plan flip are :mod:`repro.runtime.probe`).
The two public entry points both return the run, and differ in one internal
argument, ``materialise``, which fixes two things:

* **where rows are handed off.**  ``Executor.execute`` (``query()``)
  materialises: each worker drains its call into a private list *inside*
  the attempt, so transfers overlap and a death before hand-off is an
  ordinary failed attempt.  Once every call has settled the run composes
  the pipeline over the lists, unless a call is unavailable already (no
  probe is sent for a query that is already partial).  Whenever the run is
  partial after that -- a call or a probe side failed -- it hands
  ``{exec -> rows | Unavailable}`` to the
  :class:`~repro.runtime.partial_eval.PartialAnswerBuilder`, which
  composes only what reads no unavailable call, in one pass over the lists.
  The run is returned finished, its outcome on it.
  ``Executor.execute_stream`` (``query_stream()``) hands rows to
  the caller *while* sources are still answering: a ``mkunion`` interleaves
  its children in exec-completion order (and a call that starts once
  another has answered lets the consumer take that answer first:
  ``_open_behind_consumer``), a satisfied ``mklimit`` or :meth:`close`
  cancels the in-flight calls cooperatively, and no resubmittable partial
  *query* is built, since rows already delivered cannot be embedded back
  into one.
* **grouped output over incomplete input.**  A partial answer *embeds* the
  grouping as a query over the obtained data; a stream *suppresses* it (an
  aggregate over one union branch is a wrong number, not a sub-answer).

A streamed call that dies *mid-stream* (after delivering rows) is recovered
with **exactly-once row delivery** when budget remains: the death is one more
failure of the call -- observed, charged to ``max_retries``, backed off --
and the call is reopened at the rung it stood on, as a retry.  Only a
wrapper declaring deterministic ``replay`` is reopened: the rung is
submitted again from scratch and the mediator skips the rows it already
delivered -- dedup by delivered-row count, counted as
``ExecReport.replayed_rows``.  Any other wrapper is written off.  A
materialising run has delivered nothing before its answer is whole, so it
retries whole calls and never reopens.

A stream's exec leaf (``_stream_state``) works a *chunk* of rows at a time:
one deadline check, two clock reads (the chunk's source time, charged to the
history) and one hand-off per chunk.  It hands the chunk on whole, and a
union hands on whole branches; a C-level ``chain`` (:class:`_Rows`) flattens
them, so no Python frame resumes per row before the first operator.  A chunk
starts at one row, so the first row is not held back, and doubles up to
:data:`CHUNK_ROWS` while its pulls stay under :data:`CHUNK_SECONDS`; one slow
pull drops it back to one row, so a dripping cursor is still cut off at the
deadline.  A chunk's rows count as delivered when it is handed on, and a
close with it partly taken counts its untaken rest back off, so the count
(where a reopen resumes) is of rows delivered; a reopen's re-shipped rows are
dropped off the front of its chunks, and a source dying mid-chunk has the
rows it shipped delivered first.  A chain passes no ``close()`` on, so
:meth:`close` (or the end of the stream) closes every live leaf directly.

Stream iteration is replayable: the execution buffers what it has yielded,
so a second ``iter()`` replays the prefix and continues the live tail.
"""

from __future__ import annotations

import threading
import time
import weakref
from concurrent.futures import FIRST_COMPLETED, CancelledError, Future, wait
from concurrent.futures import TimeoutError as _FuturesTimeoutError
from contextlib import suppress
from dataclasses import dataclass
from itertools import chain, islice
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.algebra import logical as log
from repro.algebra import physical as phys
from repro.algebra.unparser import OQLText
from repro.runtime import cancellation, namespace
from repro.runtime import operators as ops
from repro.runtime.backpressure import StreamClosed
from repro.runtime.degrade import compensate_rows, degrade_pushdown, is_capability_failure
from repro.datamodel.values import Bag
from repro.runtime.executor import (
    CompiledCall,
    CompiledCalls,
    ExecReport,
    collect_errors,
)
from repro.runtime.partial_eval import PartialAnswerBuilder, Unavailable
from repro.runtime.probe import _ProbeRunner
from repro.wrappers.base import RESUME_REPLAY


#: the row function for rows that carry the mediator's attribute names
_MEDIATOR_ROW = namespace.row_normaliser({})
#: the largest chunk a stream's drain pulls between two deadline checks
CHUNK_ROWS = 256
#: a chunk that pulls in this long or longer drops the next one back to one row
CHUNK_SECONDS = 0.001


class _Rows(chain):
    """The rows of iterators handed over whole, flattened in C; ``close``
    closes the generator that hands them over (a plain chain has none)."""

    __slots__ = ("close",)


def _rows(parts: Iterator[Iterator[Any]]) -> _Rows:
    rows = _Rows.from_iterable(parts)
    rows.close = parts.close
    return rows


def _close(rows: Any) -> None:
    close = getattr(rows, "close", None)
    if close is not None:
        close()


def _close_unread(future: Future) -> None:
    """A written-off stream call's done-callback: close the rows it opened."""
    if not future.cancelled() and future.exception() is None:
        with suppress(ValueError):  # "generator already executing": its leaf is pulling them
            _close(future.result().rows)


@dataclass
class _Opened:
    """What one open of an exec call returned.

    A listed open's ``rows`` (a materialising run's, a probe round trip's) is
    the whole answer as a list in mediator vocabulary (``sized`` its length);
    a stream's is the open wrapper iterable, taken to mediator vocabulary by
    ``normalise`` as it is pulled.  Where the call stands is on its
    :class:`_ExecState`.
    """

    rows: Iterable[Any] | None = None
    #: the row function of the call's name-space plan, unless the rows are
    #: in mediator vocabulary already.
    normalise: Callable[[Any], Any] = _MEDIATOR_ROW
    #: row count when the answer is a sized sequence (history is recorded at
    #: open then); None for lazy cursors (recorded at drain).
    sized: int | None = None
    #: wall clock of this open, its retries and backoff included.
    elapsed: float = 0.0
    error: str | None = None


class _ExecState:
    """One exec call of one run: its book-keeping and where it stands.

    The attempt loop (:meth:`StreamingExecution._open_exec`) and its failure
    step move the call down the degrade ladder in place, so a reopen after a
    mid-stream death continues at the rung the call stood on.
    """

    __slots__ = (
        "node", "future", "event", "report", "consumed", "started", "lock", "recorded", "attempts",
        "resumed", "replayed", "subject", "signatures", "pushdown", "stripped", "plan", "listed",
    )

    def __init__(
        self, node: phys.Exec, event: threading.Event | None = None,
        subject: log.LogicalOp | None = None, listed: bool = False,
    ):
        self.node = node
        self.future: Future | None = None
        #: a probe round trip shares its probe join's event
        self.event = threading.Event() if event is None else event
        self.report: ExecReport | None = None
        #: rows delivered to the consumer so far: a reopen skips as many
        self.consumed = 0
        self.started: float | None = None
        # Serializes history recording between the worker and the consumer
        # (:meth:`observe`).
        self.lock = threading.Lock()
        self.recorded = False
        # Wrapper attempts completed so far, kept current by the worker so a
        # write-off report states the true count instead of defaulting to 1.
        # Those that were not refused rungs (``stripped``), mid-stream
        # reopens included, spend the ``max_retries`` budget.
        self.attempts = 0
        #: successful mid-stream recoveries (ExecReport.resumed_calls).
        self.resumed = 0
        #: already-delivered rows re-shipped and skipped at the mediator
        #: during reopens (ExecReport.replayed_rows).
        self.replayed = 0
        #: what the call answers and its history key: the node's expression,
        #: or a probe round trip's probe expression.
        self.subject = node.expression if subject is None else subject
        #: the subject's history signatures when it is the node's own (read
        #: off the compiled call at the first open).
        self.signatures: tuple[str, str] | None = None
        #: the rung: the (mediator-namespace) pushdown, the operators stripped
        #: off it (outermost first) and its name-space plan (None until the
        #: first open).
        self.pushdown = self.subject
        self.stripped: tuple = ()
        self.plan: namespace.NamespacePlan | None = None
        #: list the rows inside the attempt (a probe round trip), not stream them
        self.listed = listed

    @property
    def degraded_to(self) -> str | None:
        """The submitted (source-namespace) expression once the ladder stripped any."""
        return self.plan.expression.to_text() if self.stripped else None

    def observe(self, history, elapsed: float, rows: int | None = None, terminal: bool = True) -> bool:
        """Write one history observation of this call (a failure when ``rows``
        is None); the only writer of the exec history.

        Once the call's terminal observation is written, or the call has been
        woken (written off, cancelled, the mediator closing), nothing more is
        written: a woken worker does not record, so a write-off observes the
        call itself and only then wakes it.  Returns whether it wrote.
        """
        with self.lock:
            if self.recorded or self.event.is_set():
                return False
            extent = self.node.extent_name
            if rows is None:
                history.record_failure(extent, self.subject, elapsed, self.signatures)
            else:
                history.record(extent, self.subject, elapsed, rows, self.signatures)
            self.recorded = terminal
            return True


class StreamingExecution:
    """One run of one physical plan (see the module docstring).

    :meth:`Executor.execute_stream` returns it live: iterate it to receive
    rows (``QueryResult.iter_rows()``).  :meth:`Executor.execute` returns it
    finished by :meth:`materialised`, its whole life.  A finished run holds
    its outcome: ``data``, ``is_partial``, ``partial_plan``,
    ``partial_query``, ``unavailable_sources``, ``reports``, ``errors()``.
    """

    def __init__(
        self, executor, plan: phys.PhysicalOp, base_env=None, timeout=None, on_finish=None,
        materialise: bool = False, calls: CompiledCalls | None = None,
    ):
        self._executor = executor
        self._plan = plan
        #: the plan owner's compiled-call slot, or this run's own.
        self._calls: CompiledCalls = {} if calls is None else calls
        #: the schema the run started under: a call compiled under another
        #: is compiled again (read once per run, not once per call).
        self._schema_version = executor.registry.schema_version
        self._base_env = base_env
        self._timeout = timeout
        #: the one internal switch, fixed by the entry point that built this
        #: run: hand-off and grouped output (module docstring).
        self._materialise = materialise
        self._deadline = None if timeout is None else time.monotonic() + timeout
        #: executor callback run exactly once when the stream ends (wakes a
        #: draining close).
        self._on_finish = on_finish
        nodes = list(phys.walk(plan))
        #: per-call state in plan order: the dispatched execs, then the probes.
        self._states: dict[int, _ExecState] = {
            id(node): _ExecState(node) for node in nodes if isinstance(node, phys.Exec)
        }
        self._buffer: list[Any] = []
        self._finished = False
        #: a mediator-side error that aborted the pipeline; re-raised on any
        #: later consumption so an aborted stream never looks complete.
        self._failure: BaseException | None = None
        self._pipeline: Iterator[Any] | None = None
        #: the live exec leaves, closed directly when the run finishes
        self._leaves: weakref.WeakSet = weakref.WeakSet()
        #: a materialising run's partial answer, and its text (rows unwritten)
        self.partial_plan: log.LogicalOp | None = None
        self.partial_query: OQLText | None = None
        #: a stream's call has answered: the calls that start after it give
        #: the consumer a turn first (:meth:`_open_behind_consumer`).
        self._answered = False
        pool = executor._ensure_pool()
        opener = self._open_exec if materialise else self._open_behind_consumer
        for state in self._states.values():
            try:
                state.future = pool.submit(opener, state)
            except RuntimeError:
                # The pool shut down between _ensure_pool and this submit
                # (mediator closing): the call degrades into an unavailable
                # source instead of raising into the query.
                future: Future = Future()
                future.set_result(_Opened(error="mediator closed"))
                state.future = future
        # Probe joins hide their exec from the walk -- it must NOT be opened
        # up front like the calls above (no probe key exists yet).  Each one
        # still gets a state, so its aggregated report and cancellation event
        # live with the rest; its ``future`` stays None.
        for node in nodes:
            if isinstance(node, phys.ProbeJoin):
                self._states[id(node.probe)] = _ExecState(node.probe)
        if materialise:
            # Composed by materialised(), over the settled calls' lists.
            return
        try:
            self._pipeline = self._compose(plan)
        except BaseException:
            # Pipeline construction failed after the calls were dispatched:
            # write them off so no worker serves out a latency for a stream
            # that will never exist.
            self._finish()
            raise

    # -- public surface ---------------------------------------------------------------------
    def __iter__(self) -> Iterator[Any]:
        """Yield every row; replayable (buffered prefix + live tail).

        Pausing or abandoning an iteration leaves the stream *open*: a later
        iteration resumes where the live tail stopped (that is what makes
        ``rows()`` after a partial ``iter_rows()`` see everything).  Call
        :meth:`close` to cancel the remaining work instead.
        """
        index = 0
        while True:
            if index < len(self._buffer):
                yield self._buffer[index]
                index += 1
                continue
            if self._failure is not None:
                raise self._failure
            if self._finished:
                return
            try:
                row = next(self._pipeline)
            except StopIteration:
                self._finish()
                return
            except BaseException as exc:
                # A mediator-side error (failed type check, planner bug)
                # aborts the query; write off the surviving calls so their
                # workers stop promptly, and remember the failure so a later
                # rows()/iter_rows() re-raises instead of presenting the
                # buffered prefix as a complete answer.
                self._failure = exc
                self._finish()
                raise
            self._buffer.append(row)
            index += 1
            yield row

    def to_list(self) -> list[Any]:
        """Drain the stream and return every row."""
        if self._finished and self._failure is None:
            return list(self._buffer)  # nothing to drain: no replay row by row
        return list(self)

    def close(self) -> None:
        """Stop the stream: close the pipeline, cancel in-flight exec calls."""
        self._finish()

    def __del__(self):
        # A stream dropped without being drained or closed must not leave
        # its workers serving out simulated latencies.
        try:
            self._finish()
        except Exception:
            pass

    @property
    def data(self) -> Bag:
        """Every row of the answer, drained first (a partial answer's are in its text)."""
        return Bag(self._buffer if self._finished and self._failure is None else self.to_list())

    @property
    def finished(self) -> bool:
        """True once the stream has ended (drained, failed out, or closed)."""
        return self._finished

    @property
    def failure(self) -> BaseException | None:
        """The mediator-side error that aborted the stream, if any."""
        return self._failure

    @property
    def calls_issued(self) -> int:
        """Exec calls this run issued: every dispatched one (all of them, up
        front), and each probe join once it has reported."""
        return sum(
            1
            for state in self._states.values()
            if state.future is not None or state.report is not None
        )

    @property
    def reports(self) -> tuple[ExecReport, ...]:
        """Per-call reports, in plan order; grows as calls settle."""
        return tuple(
            state.report for state in self._states.values() if state.report is not None
        )

    @property
    def unavailable_sources(self) -> tuple[str, ...]:
        """Extents that failed or timed out (cancelled calls excluded)."""
        return tuple(report.extent_name for report in self.reports if not report.available and not report.cancelled)

    @property
    def is_partial(self) -> bool:
        """True when some source contributed no (or truncated) rows due to failure."""
        return bool(self.unavailable_sources)

    def errors(self) -> dict[str, str]:
        """Failure reasons keyed by extent name (empty while all is well)."""
        return collect_errors(self.reports)

    # -- worker side ------------------------------------------------------------------------
    def _compiled(self, node: phys.Exec) -> CompiledCall:
        """The node's compiled call: the slot's, or compiled now and stored.

        The slot is written without a lock: two runs racing a cached plan's first
        execution compile the same value from the same node and schema, and
        whichever store lands last changes nothing.
        """
        call = self._calls.get(node)
        if call is None or call.schema_version != self._schema_version:
            call = self._calls[node] = self._executor.compile_call(node)
        return call

    def _open_behind_consumer(self, state: _ExecState) -> _Opened:
        """A stream's pool-side open: :meth:`_open_exec`, after the consumer's turn.

        The workers of one run and its consumer share one interpreter lock,
        handed over in arrival order.  The workers have been in line since
        the calls were dispatched; the consumer joins the line when the first
        answer wakes it -- behind every worker that has not run yet.  With
        sources that answer from memory (nothing in the call blocks) it would
        see the fastest source's rows only once *every* call had finished, or
        after a whole switch interval (5 ms), whichever came first: the first
        row tracked the sum of the calls, not the fastest of them, and sat on
        either side of the interval from one run to the next.  So a call that
        starts once another has answered steps out of the line once; when
        every queued worker has done so the consumer is at its head.  A
        materialising run delivers nothing before its last answer and is
        dispatched to :meth:`_open_exec` directly.
        """
        if self._answered:
            time.sleep(0)  # releases the interpreter lock, waits for nothing
        try:
            return self._open_exec(state)
        finally:
            self._answered = True

    def _open_exec(self, state: _ExecState, consumer: bool = False) -> _Opened:
        """One open of an exec call, with retries: the engine's one attempt loop.

        Runs in the pool for the initial open; a reopen after a mid-stream
        death and each probe round trip call it synchronously on the consumer
        thread (``consumer``), where the query deadline bounds its retries.

        What the call needs that only depends on its node -- extent, wrapper,
        type check, the name-space plan of the node's own expression, history
        signatures -- is read from its compiled call (:meth:`_compiled`);
        only a pushdown other than the node's own (a probe shape, a degraded
        rung) is planned at call time.  Each attempt submits the rung the
        call stands on (:class:`_ExecState`); a failure goes to the one
        failure step, :meth:`_failed`, which observes it and moves the call
        on: the same rung again after backoff, or one rung down the ladder.
        Mediator-side failures (unknown extent, type-check conflict) raise --
        they abort the query.  *Any* exception escaping the wrapper becomes
        an error outcome instead (this is the engine's fault-isolation
        boundary).

        A listed open (a materialising run, a probe round trip) drains the
        answer into a list inside the attempt, so a lazy result that raises
        mid-iteration, or a malformed row, is a failed attempt like any
        other, and the transfer overlaps the other calls' transfers.  A
        stream only opens here.  When the row count is known (a list, or a
        first open answered with a sized sequence) the call's history is
        observed here; lazy cursors, a stream's degraded calls (whose
        compensation wraps the iterable) and reopened segments (whose
        delivered prefix is skipped) are observed by the consumer at drain time.
        """
        executor = self._executor
        node = state.node
        call = self._compiled(node)
        wrapper = call.wrapper
        if state.plan is None:
            state.signatures = call.signatures if state.subject is node.expression else None
            if state.pushdown is node.expression:
                state.plan = call.plan
            else:  # a probe shape
                state.plan = namespace.namespace_plan(executor.registry, state.pushdown, call.meta)
        listed = self._materialise or state.listed
        open_started = time.monotonic()
        if state.started is None:
            state.started = open_started
        while True:
            plan = state.plan
            attempt_started = time.monotonic()
            try:
                with cancellation.activate(state.event):
                    if listed:
                        rows = wrapper.submit(plan.expression)
                        # One bulk pass inside the attempt: nothing is handed
                        # over before the answer is whole, so there is no
                        # deadline to check or pull time to charge per chunk.
                        rows = map(plan.normalise, rows)
                        if state.stripped:
                            rows = compensate_rows(state.stripped, rows)
                        rows = list(rows)
                    else:
                        rows = wrapper.submit_stream(plan.expression)
            except StreamClosed:
                # The consumer is gone, not the source: nothing to retry,
                # degrade, or record as a failure.
                raise
            except Exception as exc:
                state.attempts += 1
                if self._failed(state, exc, time.monotonic() - attempt_started, consumer):
                    continue
                return _Opened(
                    error=f"{type(exc).__name__}: {exc}",
                    elapsed=time.monotonic() - open_started,
                )
            break
        state.attempts += 1
        now = time.monotonic()
        # A listed answer was renamed and compensated inside the attempt.
        normalise = _MEDIATOR_ROW if listed else plan.normalise
        if state.stripped and not listed:
            # Rename here (once), then replay the stripped operators lazily;
            # the consumer sees mediator-vocabulary rows.
            rows = compensate_rows(state.stripped, map(normalise, rows))
            normalise = _MEDIATOR_ROW
        sized = None
        if listed or (
            not consumer and not state.stripped and isinstance(rows, (list, tuple))
        ):
            sized = len(rows)
        if sized is not None:
            # Per-attempt latency for the cost model (the failed attempts
            # recorded theirs); the report carries the user-facing total
            # including retries and backoff.
            state.observe(executor.history, now - attempt_started, sized)
        return _Opened(rows=rows, normalise=normalise, sized=sized, elapsed=now - open_started)

    def _failed(
        self, state: _ExecState, exc: BaseException, elapsed: float, consumer: bool, dying: bool = False
    ) -> bool:
        """The one failure step of an exec call: whether to try it again.

        ``exc`` ended an attempt of :meth:`_open_exec`, or killed a stream
        segment mid-drain (``dying``).  The failure is observed, charged with
        its own ``elapsed``; the call is given up when it was woken or, on
        the consumer thread, the query deadline has passed.  A
        capability/translation failure goes one rung down the ladder
        (ultimately to a bare ``get``) without backoff, charging nothing to
        ``max_retries`` (it was deterministic, not load, and the ladder's
        length bounds it), and is terminal once the ladder is exhausted.
        Any other failure, and a death, spends the budget, which counts the
        attempts that were not refused rungs; it backs off (``retry_backoff``,
        doubled per such attempt; woken by a write-off, capped by the
        deadline on the consumer thread) and goes again at the same rung.

        A death is no extra attempt and is not degraded.  Only a ``replay``
        wrapper is reopened (without a determinism guarantee a half-consumed
        cursor could duplicate or drop rows); the reopened stream skips the
        rows already delivered (``_ExecState.consumed``).
        """
        executor = self._executor
        config = executor.config
        call = self._compiled(state.node)
        step = None
        spent = state.attempts - len(state.stripped)
        exhausted = spent >= max(1, config.max_retries + 1)
        if dying:
            resume = getattr(call.wrapper, "resume_support", None)
            exhausted = exhausted or resume != RESUME_REPLAY
        elif is_capability_failure(exc):
            step = degrade_pushdown(state.pushdown)
            exhausted = step is None
        remaining = self._remaining() if consumer else None
        terminal = exhausted or state.event.is_set() or remaining == 0.0
        # A call that may record no more (woken, or its one observation
        # made) is not tried again either.
        if not state.observe(executor.history, elapsed, terminal=terminal) or terminal:
            return False
        if step is not None:
            state.pushdown, removed = step
            state.stripped += (removed,)
            state.plan = namespace.namespace_plan(executor.registry, state.pushdown, call.meta)
            return True
        backoff = config.retry_backoff * 2 ** (spent - 1)
        if remaining is not None:
            backoff = min(backoff, remaining)
        return not (state.event.wait(backoff) or (consumer and self._remaining() == 0.0))

    # -- consumer side ------------------------------------------------------------------------
    def _remaining(self) -> float | None:
        """Seconds left to the query deadline (0.0 once past); None without one."""
        if self._deadline is None:
            return None
        return max(self._deadline - time.monotonic(), 0.0)

    def _report(self, state: _ExecState, **overrides) -> ExecReport:
        """The one place an exec call's :class:`ExecReport` is built, from its state."""
        node = state.node
        report = ExecReport(
            extent_name=node.extent_name,
            source=node.source.name,
            expression=node.expression.to_text(),
            elapsed=0.0 if state.started is None else time.monotonic() - state.started,
            rows=state.consumed,
            available=True,
            attempts=max(1, state.attempts),
            degraded_to=state.degraded_to,
            resumed_calls=state.resumed,
            replayed_rows=state.replayed,
        )
        for name, value in overrides.items():
            setattr(report, name, value)
        return report

    def _exec_rows(self, node: phys.Exec) -> Iterable[Any]:
        """The exec leaf: the settled call's list, or its live chunks, flattened."""
        state = self._states[id(node)]
        if self._materialise:
            return state.future.result().rows  # settled before anything composes
        leaf = self._stream_state(state)
        self._leaves.add(leaf)
        return _rows(leaf)

    def evaluate_subquery(self, query: Any, env: Mapping[str, Any]) -> Any:
        """A nested subquery is part of this query: it runs on what is left
        of this run's deadline."""
        return self._executor.evaluate_subquery(query, env, enclosing=self)

    def _compose(self, plan: phys.PhysicalOp) -> Iterator[Any]:
        """The operator pipeline over this run's exec leaves.

        A stream overlaps: unions follow exec-completion order, and grouped
        output is suppressed over an incomplete input.  A materialising run has every list in hand before
        it composes, so there is nothing to overlap and no incomplete input.
        """
        stream = not self._materialise
        return ops.compose_rows(
            plan,
            leaf=self._exec_rows,
            base_env=self._base_env,
            union=(lambda inputs: _rows(self._union_in_completion_order(inputs))) if stream else None,
            probe=self._probe_rows,
            group=self._grouped_rows if stream else None,
            subquery=self.evaluate_subquery,
            kernels=self._calls,
        )

    def materialised(self) -> "StreamingExecution":
        """Settle every call, then compose the answer or embed what arrived.

        The whole life of a materialising run (``Executor.execute``); the
        outcome stays on the run: complete data, or -- when any call is
        unavailable, or a probe join's source failed while the pipeline ran
        -- the partial answer: the plan with the obtained rows embedded, as
        a query.  Its shape is written as OQL here; its rows are not
        (``OQLText``).
        """
        try:
            # Settled one by one, in plan order: a concurrent.futures.wait()
            # over all of them holds every future's lock while it installs
            # its waiter, which the finishing workers then queue behind
            # (measured: 10x the involuntary context switches, +3% CPU per
            # query on fed8).  They all run under the one deadline anyway.
            outcomes: dict[int, Any] = {}
            for state in self._states.values():
                if state.future is None:
                    continue  # a probe join's exec: issued while composing
                opened = self._settle(state)
                if opened is None:
                    outcomes[id(state.node)] = Unavailable(state.report.error)
                else:
                    state.consumed = opened.sized
                    state.report = self._report(state, elapsed=opened.elapsed)
                    outcomes[id(state.node)] = opened.rows
            if not self.is_partial:
                values = list(self._compose(self._plan))
                if not self.is_partial:  # no probe side failed either
                    self._buffer = values
                    return self
            # A probe join's exec has no outcome: it stays the submit it implements.
            builder = PartialAnswerBuilder(subquery_evaluator=self.evaluate_subquery)
            self.partial_plan = builder.build(self._plan, outcomes, base_env=self._base_env)
            self.partial_query = OQLText(self.partial_plan)  # fails here if it cannot render
            return self
        finally:
            # On the way out of an abort this writes the surviving calls off,
            # so their workers stop retrying and free the shared pool.
            self._finish()

    def _timeout_text(self) -> str:
        return "timed out after " + (
            "infs" if self._timeout is None else f"{self._timeout:.4g}s"
        )

    def _settle(self, state: _ExecState) -> _Opened | None:
        """Wait for the call's worker under the query deadline.

        Returns the opened call, or ``None`` once its failure is on
        ``state.report``: the worker ran out of attempts, the designated
        time period expired first (the call is written off: its worker is
        woken, stops retrying and adds no further history), or the mediator
        closed under it.  A mediator-side error raised by the worker
        re-raises here and aborts the query.
        """
        try:
            opened = state.future.result(timeout=self._remaining())
        except CancelledError:
            # Still queued when the pool shut down: unavailable, not a crash.
            opened = _Opened(error="mediator closed")
        except (_FuturesTimeoutError, TimeoutError):
            if state.started is not None:
                # The call really ran for this long before the deadline cut
                # it off; let the cost model see it.  This write-off is its
                # terminal observation: woken next, the zombie worker
                # neither keeps retrying nor records.
                state.observe(self._executor.history, time.monotonic() - state.started)
            state.event.set()
            state.future.cancel()
            state.report = self._report(state, rows=0, available=False, error=self._timeout_text())
            return None
        if opened.error is None:
            return opened
        error = opened.error
        if self._materialise and state.event.is_set():
            # Only Executor.close() writes off a call that _settle has not
            # timed out: say so, not how the woken worker happened to fail.
            error = "mediator closed"
        state.report = self._report(state, rows=0, available=False, error=error, elapsed=opened.elapsed)
        return None

    def _stream_state(self, state: _ExecState) -> Iterator[Iterator[Any]]:
        """A stream's exec leaf: settle the call, then hand its rows over a
        chunk at a time, each (re)opened segment pulled in chunks (see the
        module docstring)."""
        history = self._executor.history
        opened = self._settle(state)
        if opened is None:
            return
        # Time attributed to the *source*: the open round trips plus the time
        # spent inside its cursor pulls -- not the consumer wall clock, which
        # includes time this generator sat suspended behind other branches.
        # ``source_time`` spans the whole call (the success observation and
        # the user-facing elapsed); ``segment_time`` restarts per (re)opened
        # segment, so each failure observation charges only the time *its*
        # segment wasted, matching the attempt loop's per-attempt recording.
        source_time = opened.elapsed
        while True:  # one iteration per (re)opened stream segment
            segment_time = opened.elapsed
            normalise = opened.normalise
            iterator = iter(opened.rows)
            #: rows of this segment that were already delivered before a
            #: reopen; dropped silently (dedup by delivered-row count).
            to_skip = state.consumed
            died: BaseException | None = None
            size = 1
            try:
                while True:
                    pulled = time.monotonic()
                    if self._deadline is not None and pulled > self._deadline:
                        # The designated time period expired mid-drain: the
                        # rows already delivered stand, the rest of this
                        # source is a timeout (observed, then written off).
                        state.observe(history, segment_time)
                        state.event.set()
                        state.report = self._report(state, available=False, error=self._timeout_text())
                        return
                    chunk: list[Any] = []
                    try:
                        # extend keeps what it appended before a raise: the
                        # rows a dying source shipped are delivered first.
                        chunk.extend(map(normalise, islice(iterator, size)))
                    except StreamClosed:
                        # Consumer-side close crossing a mediator-recombined
                        # iterator: cancellation, not a source death -- do
                        # not spend resume budget reopening for nobody.
                        raise
                    except Exception as exc:  # the source died mid-stream
                        died = exc
                    pull_time = time.monotonic() - pulled
                    source_time += pull_time
                    segment_time += pull_time
                    last = died is not None or len(chunk) < size
                    if to_skip > 0:
                        skipped = min(to_skip, len(chunk))
                        to_skip -= skipped
                        state.replayed += skipped
                        del chunk[:skipped]
                    state.consumed += len(chunk)
                    rows = iter(chunk)
                    yield rows
                    if last:
                        break
                    size = 1 if pull_time >= CHUNK_SECONDS else min(2 * size, CHUNK_ROWS)
            except GeneratorExit:
                # Closed with the chunk partly taken: the rest was never delivered.
                state.consumed -= rows.__length_hint__()
                raise
            finally:
                _close(iterator)
            if died is None:
                break  # fully drained
            # The death is one more failure of the call: the failure step
            # observes and budgets it, and the attempt loop reopens the call
            # where the consumer needs its next row.
            reopened = None
            if self._failed(state, died, segment_time, consumer=True, dying=True):
                reopened = self._open_exec(state, consumer=True)
            if reopened is None or reopened.error is not None:
                state.report = self._report(
                    state, available=False, error=f"{type(died).__name__}: {died}"
                )
                return
            state.resumed += 1
            source_time += reopened.elapsed
            opened = reopened
        # Lazy cursor fully drained: one success observation with the
        # source's own time (sized answers were observed at open).
        state.observe(history, source_time, state.consumed)
        state.report = self._report(state)

    def _union_in_completion_order(self, inputs: tuple[phys.PhysicalOp, ...]) -> Iterator[Iterator[Any]]:
        """Hand union branches over as their exec calls complete.

        A branch is ready when every exec call under it has settled; ready
        branches stream immediately while the others are still in flight.
        When the deadline expires with branches still pending they are
        drained anyway -- their leaf generators observe the expired deadline
        and record the timeout instead of producing rows.
        """
        pending: list[tuple[phys.PhysicalOp, list[Future]]] = [
            (child, [self._states[id(node)].future for node in phys.execs_in(child)])
            for child in inputs
        ]
        branch = None
        try:
            while pending:
                ready = [entry for entry in pending if all(f.done() for f in entry[1])]
                if not ready:
                    outstanding = {f for _, futures in pending for f in futures if not f.done()}
                    if wait(outstanding, timeout=self._remaining(), return_when=FIRST_COMPLETED)[0]:
                        continue
                    # Deadline expired: drain the stragglers; each exec leaf
                    # will time out individually and report it.
                    ready = list(pending)
                for entry in ready:
                    pending.remove(entry)
                    branch = self._compose(entry[0])
                    yield branch
        finally:  # closed early: so is the branch being read
            _close(branch)

    def _grouped_rows(self, plan: phys.MkGroupBy, grouped_rows: Iterator[Any]) -> Iterator[Any]:
        """Mediator-side grouping's output, with incomplete-input suppression.

        Grouping is blocking: nothing is emitted until the whole input has
        been drained, and by then every source feeding it has settled.  A
        plain row from an available source is a correct row of the full
        answer even when a sibling source failed -- but an aggregate computed
        over a partial input is *not* a sub-answer of the true result (an
        ``avg`` over one union branch is simply a wrong number).  So when any
        exec under the grouping failed or timed out, the grouped output is
        suppressed entirely: the failure is still reported, and ``query()``'s
        resubmittable partial answer (which embeds the grouping as a query
        over the obtained rows) is the recovery route.
        """
        grouped = list(grouped_rows)
        keys = [id(node) for node in phys.execs_in(plan)]
        keys.extend(
            id(node.probe)
            for node in phys.walk(plan)
            if isinstance(node, phys.ProbeJoin)
        )
        for key in keys:
            state = self._states.get(key)
            report = state.report if state is not None else None
            if report is not None and not report.available and not report.cancelled:
                return
        yield from grouped

    # -- probe joins ---------------------------------------------------------------------------
    def _probe_rows(self, plan: phys.ProbeJoin, left_rows: Iterator[Any]) -> Iterator[Any]:
        """The probe-join leaf: batched set-valued submits over the left rows.

        The probe's wrapper round trips run lazily on the consumer thread,
        each one a synchronous call of :meth:`_open_exec` bounded by the
        query deadline (a round trip is only issued while budget remains, so
        a timed-out query ends at most one wrapper round trip past the
        deadline) and woken by the state's cancellation event on close.  A
        terminal source failure is swallowed under either entry point -- the
        source simply contributes no further rows, like any other leaf, and
        the join drains its left input without another round trip -- and
        surfaces on the probe's aggregated :class:`ExecReport`, which makes a
        materialising run partial; an early close (a satisfied limit) marks
        the report cancelled instead.
        """
        executor = self._executor
        state = self._states[id(plan.probe)]

        def attempt_loop(expression):
            # One probe round trip is one call: its own attempts, rung and
            # once-only history observation, under the run's cancellation.
            trip = _ExecState(plan.probe, state.event, subject=expression, listed=True)
            return trip, self._open_exec(trip, consumer=True)

        runner = _ProbeRunner(
            executor,
            plan,
            compiled=self._compiled,
            attempt_loop=attempt_loop,
            event=state.event,
            remaining=self._remaining,
        )
        completed = False
        try:
            yield from ops.probe_join_rows(
                left_rows,
                plan.left_variable,
                plan.right_variable,
                plan.condition,
                prober=runner.probe,
                batch_size=executor.config.bind_batch_size,
                base_env=self._base_env,
                subquery_evaluator=self.evaluate_subquery,
            )
            completed = True
        finally:
            runner.finish()
            if self._materialise and runner.cancelled:
                # Only Executor.close() wakes a materialising run (as in
                # _settle): its probe side is unavailable, not cancelled.
                runner.cancelled, runner.error = False, "mediator closed"
            # An idle runner (no call, no error, no cancel -- e.g. an
            # empty left side) reports nothing: a materialising run
            # skips probing entirely when an unrelated source failure
            # makes the query partial, so an idle probe stays invisible
            # for the two entry points to stay report-shape comparable.
            if runner.calls or runner.cancelled or runner.error is not None:
                state.report = runner.report(cancelled=not completed and runner.error is None)

    # -- shutdown ------------------------------------------------------------------------------
    def _cancel(self) -> None:
        """``Executor.close()``: end this run from the closing thread."""
        if not self._materialise:
            self._finish()
            return
        # A materialising run's own thread is blocked on these calls and
        # reports them itself ("mediator closed", with the attempts each
        # worker got to): wake it, and leave the reports to it.
        for state in self._states.values():
            state.event.set()
            if state.future is not None:
                state.future.cancel()

    def _finish(self) -> None:
        if self._finished:
            return
        self._finished = True
        try:
            # Closing the pipeline propagates GeneratorExit down the operators;
            # each exec leaf, which closes its source iterator, is closed
            # directly as well: the chunk hand-off passes no close() on.
            for rows in (self._pipeline, *self._leaves):
                _close(rows)
        except ValueError:
            # close() raced an active iteration ("generator already
            # executing", e.g. a watchdog thread closing while the consumer
            # is blocked inside the pipeline).  The cancellation below still
            # wakes the blocked call, and the consumer winds down on its own.
            pass
        finally:
            for state in self._states.values():
                if state.report is None:
                    # Never (or only partly) consumed: written off, not failed.
                    state.event.set()
                    # A probe join reports through its runner, and not at
                    # all when it sent nothing.
                    if state.future is not None:
                        state.future.cancel()
                        state.future.add_done_callback(_close_unread)
                        state.report = self._report(state, cancelled=True)
            if self._on_finish is not None:
                self._on_finish()
