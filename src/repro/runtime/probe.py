"""Batched bind-join probing: one probe join's wrapper calls at run time.

A :class:`~repro.algebra.physical.ProbeJoin` is composed by
``operators.probe_join_rows``, which collects batches of distinct left-side
join keys and asks a :class:`_ProbeRunner` for the matching right rows.  The
runner shapes each batch into a submit the wrapper's grammar accepts, keeps
one bucket map of the probed keys (the per-query probe cache) and, once
probing has cost as much as one full ship of the right side would, re-plans
into that ship, which becomes the map the join hash-joins the rest against.
Every round trip is an exec call of its own (an ``_ExecState`` whose subject
is the probe expression) driven by the run's one attempt loop
(``StreamingExecution._open_exec`` and its failure step), so retry,
degrade, deadline and history recording are the exec calls' own.  A
probe side that fails is recorded on its aggregated report and never raised,
under either entry point: the join sends nothing more and drains its left
input, and a materialising run that ends partial builds its partial answer
at its one site, the probe side staying the ``submit`` it implements.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from repro.algebra import logical as log
from repro.algebra import physical as phys
from repro.algebra.expressions import Comparison, Const, Expr, InList, find_equi_conjunct
from repro.errors import QueryExecutionError
from repro.runtime import namespace
from repro.runtime.executor import CompiledCall, ExecReport, Executor
from repro.runtime.kernels import key_function
from repro.runtime.namespace import _wrapper_accepts


class _ProbeRunner:
    """Shapes, caches and buckets one probe join's wrapper calls.

    One runner serves one :class:`~repro.algebra.physical.ProbeJoin` of one
    query, from whichever entry point composed it.  Every wrapper round trip
    is one exec call, its state's subject the probe expression, opened by a
    synchronous call of the run's attempt loop (``attempt_loop``:
    ``StreamingExecution._open_exec`` on the consumer thread), so retry,
    backoff, the query deadline, the degrading ladder, write-off and history
    recording (``_ExecState.observe``, once per round trip, under the probe
    expression: the ``in``-list close signature collapses all batch sizes
    onto one history entry) are the exec calls' own.  The runner owns what
    is specific to probing:

    * the **probe shape**, chosen by the wrapper's grammar: batches of
      distinct keys are submitted as one set-valued
      ``select(v: key in (...), expr)`` when the grammar has the ``in``
      terminal; otherwise one ``=`` probe per key, and a wrapper that cannot
      even evaluate a selection gets one full ship of ``expr``.  A shape the
      wrapper refuses at call time goes down the ordinary ladder: its
      ``select`` is stripped and replayed at the mediator.
    * the **bucket map** the join reads directly, which is the per-query
      probe cache: a key probed once is never sent to the source again,
      whatever batch it reappears in; hit/miss counts aggregate onto the
      executor for ``Mediator.statistics()``.
    * **adaptive re-planning**, the ski-rental rule: one full ship of the
      probed expression returns R rows, the call history's estimate (1 with
      no history).  Before each round trip the runner adds the keys it has
      sent to the rows it has fetched; once that sum reaches R, probing has
      cost as much as the ship, so it ships instead (mid-query,
      :attr:`ExecReport.replanned`); the ship's rows become the bucket map,
      whole, and the join hash-joins the rest of its left side against it.
      The rule counts, never times, so a run's wrapper calls are
      deterministic; the wire carries at most about 2R plus one batch, and
      no ship follows the last batch.

    It aggregates everything into one :class:`ExecReport` -- ``attempts`` is
    the total number of wrapper calls issued -- so the two entry points stay
    report-shape comparable.
    """

    def __init__(
        self,
        executor: "Executor",
        plan: phys.ProbeJoin,
        compiled: Callable[[phys.Exec], CompiledCall],
        attempt_loop: Callable[[log.LogicalOp], tuple[Any, Any]],
        event: threading.Event,
        remaining: Callable[[], float | None],
    ):
        self._executor = executor
        self._plan = plan
        #: the run's compiled-call lookup, consulted at the first fetch
        self._compiled = compiled
        #: the run's attempt loop for one expression, returning the round
        #: trip's call state and its outcome
        self._attempt_loop = attempt_loop
        self._event = event
        self._remaining = remaining
        equi = find_equi_conjunct(plan.condition, plan.left_variable, plan.right_variable)
        if equi is None:  # the planner only builds ProbeJoin with one
            raise QueryExecutionError("probe join requires an equi-join conjunct")
        self._right_expr: Expr = equi[1]
        #: a fetched row's join key (a source row is a plain row: read in place)
        self._right_key = key_function(plan.right_variable, equi[1])
        self._probe_call: CompiledCall | None = None
        self._estimate_rows = 1.0
        #: None until the first fetch; then "in" | "per-key" | "ship" (the map is whole).
        self._mode: str | None = None
        #: each key sent so far and its rows, until a ship: the whole right side
        self._buckets: dict[Any, list[Any]] = {}
        self._degraded_to: str | None = None
        #: why the source contributes no further rows, once it failed
        self.error: str | None = None
        self.cancelled = False
        self.replanned = False
        self.calls = 0
        self.rows_fetched = 0
        self.elapsed = 0.0
        self.cache_hits = 0
        self.cache_misses = 0

    # -- the prober closure handed to ops.probe_join_rows ---------------------------------
    def probe(self, keys: list[Any]) -> tuple[dict[Any, list[Any]], bool]:
        """The bucket map, holding each requested (distinct) key, and whether
        it is the whole right side: if so, the join calls no more."""
        if self.error is not None or self.cancelled:
            return {}, True  # dead or written off: contributes no further rows
        missing = [key for key in keys if key not in self._buckets]
        self.cache_hits += len(keys) - len(missing)
        self.cache_misses += len(missing)
        self._fetch(missing)
        return self._buckets, self._mode == "ship"

    # -- fetching -------------------------------------------------------------------------
    def _fetch(self, keys: list[Any]) -> None:
        if not keys:
            # Every key cached: an empty batch must never become a wrapper
            # call, as ``select(v: k in ())`` is unsatisfiable and renders
            # as invalid SQL (``IN ()``) at SQL wrappers.
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
            # The buckets hold exactly the keys sent so far.
            if len(self._buckets) + self.rows_fetched >= self._estimate_rows:
                self._ship(replanned=True)
                return
            rows = self._round_trip(self._probe_expression(batch))
            if rows is None:
                return
            bucketed = self._bucket(rows)
            for key in batch:
                self._buckets[key] = bucketed.get(key, [])

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
        plan = namespace.namespace_plan(self._executor.registry, expression, call.meta)
        return _wrapper_accepts(call.wrapper, plan.expression)

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
        right_key = self._right_key
        buckets: dict[Any, list[Any]] = {}
        for row in rows:
            buckets.setdefault(right_key(row), []).append(row)
        return buckets

    def _ship(self, replanned: bool) -> None:
        """Fetch the whole right side once; the join then hash-joins the rest."""
        rows = self._round_trip(self._plan.probe.expression)
        if rows is not None:
            self._buckets, self._mode = self._bucket(rows), "ship"
            self.replanned = self.replanned or replanned

    def _round_trip(self, expression: log.LogicalOp) -> list[Any] | None:
        """One wrapper round trip through the run's attempt loop.

        Returns the rows, or ``None`` once the source contributes no further
        rows: it failed (:attr:`error`), or the call was written off
        (:attr:`cancelled`: a closed stream, a satisfied limit, the mediator
        closing).  Either way later batches send nothing.
        """
        remaining = self._remaining()
        if remaining is not None and remaining <= 0:
            self.error = "timed out during probe"
            return None
        trip, opened = self._attempt_loop(expression)
        self.calls += trip.attempts
        self.elapsed += opened.elapsed
        if opened.error is None:
            self.rows_fetched += len(opened.rows)
            degraded_to = trip.degraded_to
            if degraded_to is not None or self._mode != "in":
                self._degraded_to = degraded_to or expression.to_text()
            return opened.rows
        if self._event.is_set():
            self.cancelled = True
        else:
            self.error = opened.error
        return None

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
            available=self.error is None,
            error=self.error,
            attempts=max(1, self.calls),
            cancelled=cancelled or self.cancelled,
            degraded_to=self._degraded_to,
            replanned=self.replanned,
        )
