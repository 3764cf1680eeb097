"""Execution of physical plans: parallel exec dispatch, maps, partial answers.

Paper Section 4: "The physical expression contains calls to the exec operator.
These calls proceed in parallel.  Calls to available data sources succeed.
Calls to unavailable data sources block.  After a designated time period,
query evaluation stops" -- and the partially evaluated plan becomes the
answer.

The executor also implements the ``exec`` bookkeeping of Section 3.3: the
arguments, elapsed time and amount of data of every call are recorded in the
:class:`~repro.optimizer.history.ExecCallHistory` used by the cost model.
Failed and timed-out calls are recorded too, with their true elapsed time, so
the cost model learns from failures instead of seeing them as free.

Exec semantics (the fault-isolating exec engine: the per-call state machine
of :mod:`repro.runtime.streaming`, entered through :meth:`Executor.execute`
-- every call materialised, then a complete answer or a resubmittable
partial one -- or :meth:`Executor.execute_stream` -- rows while sources are
still answering):

* every exec call of a plan is submitted to one long-lived thread pool shared
  by all queries of this executor (sized by
  :attr:`ExecutorConfig.max_parallel_calls`, released by :meth:`Executor.close`);
* the calls run under a single global deadline
  (:attr:`ExecutorConfig.timeout` is a budget for the whole batch, not per
  call), and one slow source never serializes the transfers of the others;
* *any* exception escaping a wrapper -- a clean
  :class:`~repro.errors.UnavailableSourceError`, a network hiccup, a crash on
  a bad row -- is treated as source unavailability: the query degrades into a
  partial answer instead of failing, and the error text is carried on the
  :class:`ExecReport` (mediator-side planning errors such as a failed type
  check still raise, as before);
* each call may be retried with exponential backoff
  (:attr:`ExecutorConfig.max_retries`, off by default;
  :attr:`ExecutorConfig.retry_backoff` is the first sleep, doubled per
  attempt);
* retry is *adaptive*: a failure that looks like a capability/translation
  problem (see :mod:`repro.runtime.degrade`) is deterministic, so instead of
  re-submitting the same expression the retry degrades the pushdown one rung
  -- ultimately down to a bare ``get``, or, for a pushed ``join`` or
  ``union``, to per-leaf calls -- and the stripped operators are replayed at
  the mediator over the rows that come back.

Compiled calls (:class:`CompiledCall`): what an exec call needs that depends
only on its plan node and the schema version -- the resolved extent and
wrapper, the run-time type check, the name-space plan of
:mod:`repro.runtime.namespace`, the history signatures -- is derived once per
node by :meth:`Executor.compile_call` and kept *with the plan*: the mediator
hands ``OptimizedPlan.exec_calls`` in with a plan served from the plan cache,
so a plan-cache eviction, a schema change or dropping the mediator drops the
compiled calls with it, and nothing else ever holds one.  A run given no slot
(a plan just made, a hand-built plan, a resubmitted partial answer, a nested
subquery) compiles into a dict of its own that dies with the run; expressions that did not exist when the plan
was compiled (a rung of the degrade ladder, a per-batch probe) are planned at
call time and kept by nothing.
"""

from __future__ import annotations

import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from collections.abc import Mapping
from typing import Any, Callable, Iterator, MutableMapping

from repro.algebra import logical as log
from repro.algebra import physical as phys
from repro.algebra.expressions import Comparison, Const, Expr, InList, find_equi_conjunct
from repro.algebra.unparser import OQLText, written_when_read
from repro.datamodel.extent import MetaExtent
from repro.datamodel.values import Bag
from repro.errors import QueryExecutionError, TypeConflictError, UnavailableSourceError
from repro.optimizer.history import ExecCallHistory, signature_pair
from repro.optimizer.implementation import implement
from repro.runtime import cancellation, namespace
from repro.runtime import operators as ops
from repro.runtime.namespace import NamespacePlan, RuntimeRegistry, _wrapper_accepts


@dataclass(frozen=True, slots=True, weakref_slot=True)
class CompiledCall:
    """What one ``exec`` node's calls share, derived once (module docstring).

    Every field is a function of the node and of the schema as it stood at
    ``schema_version``; a run that finds the registry at another version --
    or the type check switched on since -- compiles the node again.  The
    wrapper's ``submit`` is *not* here: it is looked up on the wrapper at
    call time, so an instance attribute shadowing it (a tracer's shim, a
    test's stub) is the one called.
    """

    schema_version: int
    meta: MetaExtent
    wrapper: Any
    #: whether the run-time type check was performed (``config.type_check``)
    type_checked: bool
    #: how the node's own expression crosses the submit boundary
    plan: NamespacePlan
    #: the ``(exact, close)`` history signatures of the node's expression
    signatures: tuple[str, str]


#: a plan's compiled-call slot: exec node -> its compiled call, and the
#: ``id`` of the top node of each per-element chain and of each ``mkgroupby``
#: -> its bound kernel (``runtime.kernels``)
CompiledCalls = MutableMapping[phys.PhysicalOp, Any]


def collect_errors(reports) -> dict[str, str]:
    """Failure reasons keyed by extent name, aggregated over ``reports``.

    An extent can be the target of several exec calls in one plan; distinct
    failure reasons are joined with "; " rather than silently dropped.
    """
    reasons_by_extent: dict[str, list[str]] = {}
    for report in reports:
        if report.error is None:
            continue
        reasons = reasons_by_extent.setdefault(report.extent_name, [])
        if report.error not in reasons:
            reasons.append(report.error)
    return {extent: "; ".join(reasons) for extent, reasons in reasons_by_extent.items()}


@dataclass
class ExecReport:
    """Outcome of one exec call (one wrapper round trip, retries included)."""

    extent_name: str
    source: str
    expression: str
    #: user-facing wall clock of the whole call, retries and backoff sleeps
    #: included (the cost-model history records per-attempt latencies).
    elapsed: float
    rows: int
    available: bool
    #: ``None`` on success; otherwise why the call failed ("timed out after
    #: 0.1s", "RuntimeError: connection reset", ...).
    error: str | None = None
    #: how many times the wrapper was actually called (> 1 under retry).
    attempts: int = 1
    #: True when a stream cancelled the call because its rows were no longer
    #: needed (a satisfied ``limit``, a client ``close()``).  Cancelled calls
    #: are not failures: they do not make the answer partial.
    cancelled: bool = False
    #: text of the (source-namespace) expression the final attempt actually
    #: submitted, when the retry policy degraded the pushdown; ``None`` when
    #: the original expression was used throughout.
    degraded_to: str | None = None
    #: number of per-leaf wrapper calls when the pushdown was split at the
    #: mediator (the refuse-to-push fallback for wrappers that cannot express
    #: the aliases a colliding multi-extent expression needs); 0 when the
    #: expression was pushed whole.
    split_calls: int = 0
    #: number of successful mid-stream recoveries: the call died after
    #: delivering rows and was reopened (source-side resume token, or
    #: deterministic replay) without duplicating or dropping a row.  Always 0
    #: under ``query()``, which materializes whole calls on their workers --
    #: a call that dies mid-transfer there is retried from scratch, nothing
    #: having been delivered.
    resumed_calls: int = 0
    #: rows that were re-shipped by a replay reopen and silently dropped at
    #: the mediator because they had already been delivered (dedup by
    #: delivered-row count).  0 for token resumes: the source itself skipped
    #: them and shipped only the remainder.
    replayed_rows: int = 0
    #: True when a probe join was re-planned mid-query: the observed probe
    #: cardinality blew past the cost model's estimate by more than
    #: :data:`REPLAN_BLOWUP_FACTOR`, so the runner flipped from batched
    #: probing to one full ship of the right side hash-joined at the
    #: mediator.  Always False for ordinary exec calls.
    replanned: bool = False


@written_when_read("partial_query")
@dataclass
class ExecutionResult:
    """The answer to one query execution (``partial_query``: see ``QueryResult``)."""

    data: Bag
    is_partial: bool = False
    partial_plan: log.LogicalOp | None = None
    partial_query: str | OQLText | None = None
    unavailable_sources: tuple[str, ...] = ()
    reports: tuple[ExecReport, ...] = ()

    def answer(self) -> Any:
        """The user-facing answer: data when complete, OQL text when partial."""
        return self.partial_query if self.is_partial else self.data

    def errors(self) -> dict[str, str]:
        """Why each unavailable source failed, keyed by extent name."""
        return collect_errors(self.reports)


@dataclass
class ExecutorConfig:
    """Execution knobs (``Mediator(**config)`` builds one from its keywords).

    There is no concurrency budget here: a bounded number of in-flight
    queries, load shedding and fair scheduling are the serving layer's
    (``Mediator.serve(workers=..., max_queue_depth=...)``).

    ``timeout``
        The paper's "designated time period": one *global* deadline, in
        seconds, for the whole batch of exec calls a query issues.  Sources
        that have not answered when it expires are declared unavailable and
        the query degrades into a partial answer.  ``None`` waits
        indefinitely.  Per-query override: ``mediator.query(text,
        timeout=...)``.  Under ``query_stream()`` the same deadline also
        bounds lazy cursor drains, not just call opens.
    ``max_parallel_calls``
        Size of the long-lived thread pool shared by every query this
        executor runs; also the maximum number of wrapper round trips in
        flight at once.  The pool is created lazily on the first query and
        released by ``Executor.close()``.
    ``max_retries``
        Extra wrapper calls attempted after a failure before the source is
        declared unavailable.  ``0`` (the default) fails fast.  This is the
        *one* per-call budget: transient re-submissions, the rungs of the
        degrading-pushdown ladder (:mod:`repro.runtime.degrade`; the split
        into per-leaf calls is its last rung) and ``query_stream()``'s
        mid-stream reopens all draw from it, so give flaky, mis-declared or
        mid-stream-dying sources a budget at least as deep as the recovery
        they need.  A degrading retry skips the backoff sleep (the failure
        was deterministic, not a load problem); a mid-stream reopen is
        exactly-once when the wrapper declares ``token`` or ``replay``
        resume support and is written off otherwise.
    ``retry_backoff``
        Sleep before the first retry, in seconds; doubled for each further
        attempt.  The sleep is cancellation-aware: a written-off call wakes
        immediately instead of serving it out.  Also applied before a
        mid-stream reopen (the death was transient, not deterministic).
    ``type_check``
        Whether the mediator checks source attribute names against the
        mediator interface (the run-time type check of Section 2.1).
    ``bind_batch_size``
        Probe-key batch size for batched bind joins (``probejoin`` plans).
        Up to this many distinct left-side join keys are collected and sent
        to the right-hand source as *one* set-valued submit --
        ``select(v: key in (k1, ..., kn), expr)`` -- instead of one call per
        binding.  ``1`` degenerates to per-binding probing (the pre-batching
        behaviour, which ``tests/test_bind_batching.py`` counts calls against).
    """

    timeout: float | None = 5.0
    max_parallel_calls: int = 16
    max_retries: int = 0
    retry_backoff: float = 0.05
    type_check: bool = True
    bind_batch_size: int = 256


class _ProbeUnavailable(Exception):
    """A probe join's right-hand source failed terminally.

    Under ``query()`` this aborts evaluation into a partial answer (the
    probe side stays the ``submit`` it implements); a stream swallows it --
    the source simply contributes no further rows and the failure surfaces
    on the probe's aggregated :class:`ExecReport`.
    """

    def __init__(self, node: phys.Exec, error: str):
        super().__init__(error)
        self.node = node
        self.error = error


#: Mid-query re-planning trigger for probe joins.  The optimizer picked the
#: probe join because the cost model estimated the probed expression small;
#: when the rows actually fetched by probing exceed this factor times that
#: estimate, the estimate was wrong and batched probing is fetching the
#: extent the hard way, so the runner flips to one full ship of the right
#: side joined against a mediator-side hash table
#: (:attr:`ExecReport.replanned`).  The paper's no-history default estimate
#: is 1 row, so an uninformed mediator flips as soon as a probe join has
#: fetched more than 8 rows -- by design: with no evidence that probing
#: pays, one cheap ship is the safer plan, and the history the probes just
#: recorded informs the next query.
REPLAN_BLOWUP_FACTOR = 8.0


class _ProbeRunner:
    """Shapes, caches and buckets one probe join's wrapper calls.

    One runner serves one :class:`~repro.algebra.physical.ProbeJoin` of one
    query, from whichever entry point composed it.  Every wrapper round trip
    is one synchronous call of the run's attempt loop (``attempt_loop``:
    ``StreamingExecution._open_exec`` on the consumer thread), so retry,
    backoff, the query deadline, the degrading ladder, write-off and history
    recording (once per round trip, under the probe expression: the
    ``in``-list close signature collapses all batch sizes onto one history
    entry) are the exec calls' own.  The runner owns what is specific to
    probing:

    * the **probe shape**, chosen by the wrapper's grammar: batches of
      distinct keys are submitted as one set-valued
      ``select(v: key in (...), expr)`` when the grammar has the ``in``
      terminal; otherwise one ``=`` probe per key, and a wrapper that cannot
      even evaluate a selection gets one full ship of ``expr``.  A shape the
      wrapper refuses at call time goes down the ordinary ladder: its
      ``select`` is stripped and replayed at the mediator.
    * the **per-query probe cache**: a key probed once is never sent to the
      source again, whatever batch it reappears in; hit/miss counts aggregate
      onto the executor for ``Mediator.statistics()``.
    * **bucketing** the fetched rows by join key.
    * **adaptive re-planning**: past :data:`REPLAN_BLOWUP_FACTOR` times the
      cost model's estimate of the probed expression, the runner flips to
      the full-ship shape mid-query (:attr:`ExecReport.replanned`).

    It aggregates everything into one :class:`ExecReport` -- ``attempts`` is
    the total number of wrapper calls issued -- so the two entry points stay
    report-shape comparable.
    """

    def __init__(
        self,
        executor: "Executor",
        plan: phys.ProbeJoin,
        compiled: Callable[[phys.Exec], CompiledCall],
        attempt_loop: Callable[[log.LogicalOp], Any],
        event: threading.Event,
        remaining: Callable[[], float | None],
        raise_unavailable: bool,
    ):
        self._executor = executor
        self._plan = plan
        #: the run's compiled-call lookup, consulted at the first fetch
        self._compiled = compiled
        #: the run's attempt loop for one expression, returning its outcome
        self._attempt_loop = attempt_loop
        self._event = event
        self._remaining = remaining
        self._raise_unavailable = raise_unavailable
        equi = find_equi_conjunct(plan.condition, plan.left_variable, plan.right_variable)
        if equi is None:  # the planner only builds ProbeJoin with one
            raise QueryExecutionError("probe join requires an equi-join conjunct")
        self._right_expr: Expr = equi[1]
        self._probe_call: CompiledCall | None = None
        self._estimate_rows = 1.0
        #: None until the first fetch; then "in" | "per-key" | "ship".
        self._mode: str | None = None
        self._cache: dict[Any, list[Any]] = {}
        self._ship_buckets: dict[Any, list[Any]] | None = None
        self._degraded_to: str | None = None
        self._error: str | None = None
        self.cancelled = False
        self.replanned = False
        self.calls = 0
        self.rows_fetched = 0
        self.elapsed = 0.0
        self.cache_hits = 0
        self.cache_misses = 0

    # -- the prober closure handed to ops.probe_join_rows ---------------------------------
    def probe(self, keys: list[Any]) -> dict[Any, list[Any]]:
        """Rows for each requested (distinct) key, from the cache or the source."""
        if self._error is not None or self.cancelled:
            return {}  # dead or written off: contributes no further rows
        if self._ship_buckets is None:
            missing = [key for key in keys if key not in self._cache]
            self.cache_hits += len(keys) - len(missing)
            self.cache_misses += len(missing)
            self._fetch(missing)
        found = self._cache if self._ship_buckets is None else self._ship_buckets
        return {key: found.get(key, []) for key in keys}

    # -- fetching -------------------------------------------------------------------------
    def _fetch(self, keys: list[Any]) -> None:
        if not keys:
            # An empty batch (every key None, or deduplicated to nothing)
            # must never become a wrapper call: ``select(v: k in ())`` is
            # unsatisfiable and renders as invalid SQL (``IN ()``) at SQL
            # wrappers.  ``probe`` only calls with missing keys, but the
            # guard keeps hand-driven runners safe too.
            return
        self._resolve()
        if self._mode is None:
            self._select_mode(keys)
        if self._mode == "ship":
            self._ship(replanned=False)
            return
        # One round trip for the whole batch, or one per key.
        batches = [keys] if self._mode == "in" else [[key] for key in keys]
        for batch in batches:
            rows = self._round_trip(self._probe_expression(batch))
            if rows is None:
                return
            bucketed = self._bucket(rows)
            for key in batch:
                self._cache[key] = bucketed.get(key, [])
            if self._blown():
                self._ship(replanned=True)
                return

    def _resolve(self) -> None:
        if self._probe_call is not None:
            return
        node = self._plan.probe
        # Mediator-side planning errors (type conflicts) raise, as for any
        # exec; they are not source unavailability.
        self._probe_call = self._compiled(node)
        estimate = self._executor.history.estimate(node.extent_name, node.expression)
        self._estimate_rows = max(estimate.rows, 1.0)

    def _select_mode(self, keys: list[Any]) -> None:
        """Pick the largest probe shape the wrapper's grammar accepts."""
        for mode in ("in", "per-key"):
            self._mode = mode
            if self._accepts(self._probe_expression(keys[:1])):
                return
        self._mode = "ship"

    def _accepts(self, expression: log.LogicalOp) -> bool:
        # Probe expressions carry the batch's keys: new objects by nature,
        # planned at call time and kept by nothing.
        call = self._probe_call
        plan = namespace.namespace_plan(
            self._executor.registry, expression, call.meta, call.wrapper
        )
        return plan.split is None and _wrapper_accepts(call.wrapper, plan.expression)

    def _probe_expression(self, keys: list[Any]) -> log.LogicalOp:
        """``select(v: key in (...), e)``, or ``select(v: key = k, e)`` per key."""
        if self._mode == "in":
            predicate = InList(self._right_expr, tuple(Const(key) for key in keys))
        else:
            predicate = Comparison("=", self._right_expr, Const(keys[0]))
        return log.Select(
            self._plan.right_variable, predicate, self._plan.probe.expression
        )

    def _bucket(self, rows: list[Any]) -> dict[Any, list[Any]]:
        variable = self._plan.right_variable
        right_key = self._right_expr.compile()
        buckets: dict[Any, list[Any]] = {}
        for row in rows:
            buckets.setdefault(right_key({variable: row}), []).append(row)
        return buckets

    def _blown(self) -> bool:
        return (
            self._ship_buckets is None
            and self.rows_fetched > REPLAN_BLOWUP_FACTOR * self._estimate_rows
        )

    def _ship(self, replanned: bool) -> None:
        """Fetch the whole right side once; later batches join locally."""
        rows = self._round_trip(self._plan.probe.expression)
        if rows is not None:
            self._ship_buckets = self._bucket(rows)
            self.replanned = self.replanned or replanned

    def _round_trip(self, expression: log.LogicalOp) -> list[Any] | None:
        """One wrapper round trip through the run's attempt loop.

        Returns the rows, or ``None`` once the source contributes no further
        rows: it failed, or the call was written off (a closed stream, a
        satisfied limit: cancelled, not failed).  A materialising run has
        handed nothing over, so a failure there -- or the mediator closing,
        the only write-off it knows -- raises :class:`_ProbeUnavailable`.
        """
        remaining = self._remaining()
        if remaining is not None and remaining <= 0:
            return self._fail("timed out during probe")
        opened = self._attempt_loop(expression)
        self.calls += opened.attempts
        self.elapsed += opened.elapsed
        if opened.error is None:
            self.rows_fetched += len(opened.rows)
            if opened.degraded_to is not None or self._mode != "in":
                self._degraded_to = opened.degraded_to or expression.to_text()
            return opened.rows
        if not self._event.is_set():
            return self._fail(opened.error)
        if self._raise_unavailable:
            return self._fail("mediator closed")
        self.cancelled = True
        return None

    def _fail(self, error: str) -> None:
        self._error = error
        if self._raise_unavailable:
            raise _ProbeUnavailable(self._plan.probe, error)

    # -- wrap-up --------------------------------------------------------------------------
    def finish(self) -> None:
        """Fold this run's cache counters into the executor-wide statistics."""
        with self._executor._probe_lock:
            self._executor.probe_cache_hits += self.cache_hits
            self._executor.probe_cache_misses += self.cache_misses

    def report(self, cancelled: bool = False) -> ExecReport:
        """The probe side's one aggregated report (attempts = wrapper calls)."""
        node = self._plan.probe
        return ExecReport(
            extent_name=node.extent_name,
            source=node.source.name,
            expression=node.expression.to_text(),
            elapsed=self.elapsed,
            rows=self.rows_fetched,
            available=self._error is None,
            error=self._error,
            attempts=max(1, self.calls),
            cancelled=cancelled or self.cancelled,
            degraded_to=self._degraded_to,
            replanned=self.replanned,
        )


class Executor:
    """Runs physical plans against wrappers registered in a mediator registry."""

    def __init__(
        self,
        registry: RuntimeRegistry,
        history: ExecCallHistory | None = None,
        config: ExecutorConfig | None = None,
        subquery_planner=None,
    ):
        self.registry = registry
        self.history = history or ExecCallHistory()
        self.config = config or ExecutorConfig()
        self._subquery_planner = subquery_planner
        self._type_checked_extents: set[str] = set()
        #: registry schema version the cached type-check verdicts belong to;
        #: any schema change (e.g. re-registering an extent with a different
        #: map) invalidates them.
        self._type_checked_version: Any = None
        # Guards the verdict cache: concurrent queries share it, and a set
        # being mutated under an iterating reader is undefined.  The type
        # check itself (a wrapper call) runs outside the lock.
        self._types_lock = threading.Lock()
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        # Active-work tracking for close(): the live runs, streams and
        # materialising ``execute()`` calls alike.  The condition is notified
        # whenever a run finishes, so a draining close can wait.
        self._active = threading.Condition()
        self._active_streams: "weakref.WeakSet[Any]" = weakref.WeakSet()
        # Probe-cache effectiveness counters, aggregated over every probe
        # join this executor has run (surfaced via Mediator.statistics()).
        self._probe_lock = threading.Lock()
        self.probe_cache_hits = 0
        self.probe_cache_misses = 0

    # -- pool lifecycle ----------------------------------------------------------------------
    def _ensure_pool(self) -> ThreadPoolExecutor:
        """Return the shared pool, creating it on first use (and after close)."""
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=max(1, self.config.max_parallel_calls),
                    thread_name_prefix="disco-exec",
                )
            return self._pool

    def _live_streams(self) -> list[Any]:
        with self._active:
            streams = list(self._active_streams)
        return [s for s in streams if not s.finished]

    def close(self, drain: bool = False, timeout: float | None = None) -> None:
        """Shut the shared pool down; a later query transparently recreates it.

        ``drain=False`` (the default) *cancels*: every in-flight
        ``execute()`` is written off (its calls report "mediator closed" and
        the queries degrade into partial answers), every live stream is
        finished, and the pool is shut down waiting for its workers -- no
        leaked threads, and no exception is ever raised into an unrelated
        query's worker.

        ``drain=True`` waits (up to ``timeout`` seconds, ``None`` = forever)
        for in-flight queries and streams to finish before taking the pool
        down; work still active after the timeout is cancelled as above.
        """
        if drain:
            with self._active:
                self._active.wait_for(lambda: not self._live_streams(), timeout=timeout)
        # Cancel whatever is (still) active: the runs' workers wake from
        # their sleeps and return write-off outcomes.
        for stream in self._live_streams():
            stream._cancel()
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            # wait=True: every worker has returned when close() returns, so
            # the pool's threads are truly released, not leaked.
            pool.shutdown(wait=True, cancel_futures=True)

    # -- the two public entry points -----------------------------------------------------------
    def execute(
        self,
        plan: phys.PhysicalOp,
        base_env: Mapping[str, Any] | None = None,
        timeout: float | None = None,
        calls: CompiledCalls | None = None,
    ) -> ExecutionResult:
        """Execute ``plan``; unavailable or failing sources yield a partial answer.

        A materialising run of the engine: every exec call is fetched whole,
        in parallel, under one *global* deadline that covers the calls and
        the evaluation alike (probe-join wrapper calls issued during
        evaluation draw on whatever budget the calls left over).

        ``calls`` is the compiled-call slot of whoever owns ``plan``
        (``OptimizedPlan.exec_calls``): read, and filled by the first run
        given it.  Without one the run compiles for itself alone.
        """
        return self._open(plan, base_env, timeout, materialise=True, calls=calls).materialised()

    def execute_stream(
        self,
        plan: phys.PhysicalOp,
        base_env: Mapping[str, Any] | None = None,
        timeout: float | None = None,
        calls: CompiledCalls | None = None,
    ):
        """Execute ``plan`` as a stream.

        Returns a :class:`~repro.runtime.streaming.StreamingExecution`: an
        iterable whose rows become available as sources answer (exec results
        feed the pipeline in completion order, not after a global barrier).
        Early termination -- a satisfied ``limit``, or ``close()`` -- cancels
        the in-flight exec calls cooperatively.  Sources that fail or time
        out contribute no rows; the failures are reported on the execution
        object once the stream ends (no resubmittable partial query is built,
        since delivered rows cannot be embedded back into one).  ``calls``
        as for :meth:`execute`.
        """
        return self._open(plan, base_env, timeout, materialise=False, calls=calls)

    def _open(
        self,
        plan: phys.PhysicalOp,
        base_env: Mapping[str, Any] | None,
        timeout: float | None,
        materialise: bool,
        enclosing: Any = None,
        calls: CompiledCalls | None = None,
    ):
        """Start one query's run (both entry points).

        ``enclosing`` is the run a nested subquery is evaluated for: the
        subquery is part of that query, so it runs on what is left of the
        enclosing deadline instead of a fresh ``config.timeout``.
        """
        from repro.runtime.streaming import StreamingExecution  # local: avoid cycle

        if enclosing is not None:
            timeout = enclosing._remaining()
        elif timeout is None:
            timeout = self.config.timeout
        run = StreamingExecution(
            self,
            plan,
            base_env=base_env,
            timeout=timeout,
            on_finish=self._run_finished,
            materialise=materialise,
            calls=calls,
        )
        with self._active:
            self._active_streams.add(run)
        return run

    def _run_finished(self) -> None:
        """A run ended: wake a draining :meth:`close`."""
        with self._active:
            self._active.notify_all()

    # -- compiled calls ------------------------------------------------------------------------
    def compile_call(self, node: phys.Exec) -> CompiledCall:
        """Derive what every call of ``node`` shares (see :class:`CompiledCall`).

        Mediator-side errors -- an unknown extent, a type conflict -- raise,
        and nothing is compiled.  The schema version is read *before* the
        registry is consulted, so a DBA racing this can only make the result
        look older than it is (and be compiled again), never newer.
        """
        registry = self.registry
        version = registry.schema_version
        meta = registry.extent(node.extent_name)
        wrapper = registry.wrapper_object(meta.wrapper)
        self._check_types(meta, wrapper)
        return CompiledCall(
            schema_version=version,
            meta=meta,
            wrapper=wrapper,
            type_checked=self.config.type_check,
            plan=namespace.namespace_plan(registry, node.expression, meta, wrapper),
            signatures=signature_pair(node.extent_name, node.expression),
        )

    def _split_pushdown(self, plan: NamespacePlan, wrapper: Any) -> Iterator[Any]:
        """Refuse-to-push fallback: per-leaf ``get`` calls, recombined at the mediator.

        The wrapper cannot express the aliases a colliding multi-extent
        pushdown needs (submitting the expression whole would return
        mis-renamed rows), or it refused a multi-leaf pushdown at call time
        (the degrade ladder's last rung).  Instead every referenced extent
        is fetched with a bare ``get`` (always within capability), each
        leaf's rows are renamed into mediator vocabulary with its *own* map,
        and the full pushdown is replayed at the mediator over the fetched
        rows.  Returns a lazy iterator of mediator-vocabulary rows.
        """
        fetched: dict[str, list[Any]] = {}
        for name, node_meta in plan.split or ():
            leaf = namespace.namespace_plan(self.registry, log.Get(name), node_meta)
            fetched[name] = list(map(leaf.normalise, wrapper.submit(leaf.expression)))

        def as_fetched(node: log.LogicalOp) -> log.LogicalOp:
            return log.Submit(node.collection, node) if isinstance(node, log.Get) else node

        def rows_of(node: phys.Exec) -> list[Any]:
            if node.extent_name not in fetched:
                raise QueryExecutionError(
                    f"split pushdown references unknown collection {node.extent_name!r}"
                )
            return fetched[node.extent_name]

        return ops.compose_rows(
            implement(log.transform_bottom_up(plan.expression, as_fetched)), rows_of
        )

    def _check_types(self, meta: MetaExtent, wrapper: Any) -> None:
        """Run-time type check: source attributes must cover the mediator type.

        Verdicts are cached per extent but keyed to the registry's schema
        version: re-registering an extent (possibly with a different local
        transformation map) bumps the version and drops the stale verdicts,
        whichever path performed the registration.
        """
        if not self.config.type_check:
            return
        version = getattr(self.registry, "schema_version", None)
        with self._types_lock:
            if version != self._type_checked_version:
                self._type_checked_extents.clear()
                self._type_checked_version = version
            if meta.name in self._type_checked_extents:
                return
        # The check itself (a wrapper call) runs outside the lock; two
        # threads racing the same extent both check, both reach the same
        # verdict, and the cache insert below is idempotent.
        interface_attributes = self.registry.interface_attributes(meta.interface)
        source_attributes = wrapper.source_attributes(meta.e.source_name())
        if source_attributes:
            expected = {meta.map.attribute_to_source(attr) for attr in interface_attributes}
            missing = expected - set(source_attributes)
            if missing:
                raise TypeConflictError(
                    f"extent {meta.name!r}: data source collection "
                    f"{meta.e.source_name()!r} lacks attribute(s) {sorted(missing)!r} "
                    f"required by interface {meta.interface!r}; declare a map to resolve "
                    "the conflict"
                )
        with self._types_lock:
            if version == self._type_checked_version:
                self._type_checked_extents.add(meta.name)

    def invalidate_type_checks(self) -> None:
        """Forget cached type checks (after schema changes)."""
        with self._types_lock:
            self._type_checked_extents.clear()

    # -- nested subqueries -------------------------------------------------------------------------
    def evaluate_subquery(
        self, query: Any, env: Mapping[str, Any], enclosing: Any = None
    ) -> Any:
        """Evaluate a nested (bound) subquery with the enclosing environment.

        ``enclosing`` is the run evaluating the outer query (``None`` for a
        top-level scalar query); see :meth:`_open` for what the subquery
        inherits from it.
        """
        from repro.oql.ast import ExprQuery  # local import to avoid a cycle

        if isinstance(query, ExprQuery):
            nested = self.evaluate_subquery if enclosing is None else enclosing.evaluate_subquery
            return query.expression.evaluate(dict(env), nested)
        if self._subquery_planner is None:
            raise QueryExecutionError("no subquery planner configured")
        logical = self._subquery_planner(query)
        physical = implement(logical)
        run = self._open(physical, env, None, materialise=True, enclosing=enclosing)
        result = run.materialised()
        if result.is_partial:
            raise UnavailableSourceError(
                ",".join(result.unavailable_sources),
                "a nested subquery touched an unavailable data source",
            )
        return result.data
