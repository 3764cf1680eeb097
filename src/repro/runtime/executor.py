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
  -- ultimately down to a bare ``get`` -- and the stripped operators are
  replayed at the mediator over the rows that come back.

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
from typing import Any, MutableMapping

from repro.algebra import logical as log
from repro.algebra import physical as phys
from repro.algebra.unparser import OQLText, written_when_read
from repro.datamodel.extent import MetaExtent
from repro.datamodel.values import Bag
from repro.errors import QueryExecutionError, TypeConflictError, UnavailableSourceError
from repro.optimizer.cost import BIND_BATCH_SIZE
from repro.optimizer.history import ExecCallHistory, signature_pair
from repro.optimizer.implementation import implement
from repro.runtime import cancellation, namespace
from repro.runtime.namespace import NamespacePlan, RuntimeRegistry


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
    #: True when a probe join was re-planned mid-query: the keys it had sent
    #: plus the rows it had fetched reached the history's estimate of one
    #: full ship of the right side, so the runner flipped from batched
    #: probing to that ship, hash-joined at the mediator.  Always False for
    #: ordinary exec calls.
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
        degrading-pushdown ladder (:mod:`repro.runtime.degrade`) and
        ``query_stream()``'s mid-stream reopens all draw from it, so give flaky, mis-declared or
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
    bind_batch_size: int = BIND_BATCH_SIZE


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
            plan=namespace.namespace_plan(registry, node.expression, meta),
            signatures=signature_pair(node.extent_name, node.expression),
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
