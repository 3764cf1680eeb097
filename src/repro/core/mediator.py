"""The DISCO mediator façade.

One :class:`Mediator` bundles the components of Prototype 0 (Figure 2): the
ODL and OQL parsers, the internal database (registry), the query optimizer and
the run-time system that calls wrappers.  Applications and other mediators
only ever talk to this class.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.algebra.logical import LogicalOp
from repro.algebra.physical import PhysicalOp
from repro.algebra.unparser import OQLText
from repro.core.planner import PlannedQuery, QueryPlanner
from repro.core.registry import Registry
from repro.core.result import QueryResult
from repro.datamodel.mapping import LocalTransformationMap
from repro.datamodel.repository import Repository
from repro.datamodel.types import AttributeSpec, InterfaceType, PrimitiveType
from repro.datamodel.values import Bag
from repro.errors import QueryExecutionError
from repro.odl.loader import OdlLoader
from repro.oql.ast import DefineStatement, ExprQuery
from repro.oql.parser import parse_statement
from repro.optimizer.history import ExecCallHistory
from repro.optimizer.implementation import implement
from repro.runtime.answercache import AnswerCache
from repro.runtime.degrade import compensate_rows
from repro.runtime.executor import Executor, ExecutorConfig


class Mediator:
    """A DISCO mediator: uniform OQL access to heterogeneous data sources."""

    def __init__(
        self,
        name: str = "disco",
        answer_cache: "AnswerCache | bool | None" = None,
        **config: Any,
    ):
        """``config`` populates :class:`~repro.runtime.executor.ExecutorConfig`
        (``timeout``, ``max_retries``, ...: the README's knob table)."""
        self.name = name
        self.registry = Registry()
        # answer_cache=True builds one with defaults; an AnswerCache instance
        # is used as-is; None/False turns caching off.  A cache serves one
        # mediator: its entries carry this registry's schema versions.
        if answer_cache is True:
            answer_cache = AnswerCache()
        elif answer_cache is False:
            answer_cache = None
        if answer_cache is not None:
            answer_cache.hold(self.registry)
        self.answer_cache: AnswerCache | None = answer_cache
        self.history = ExecCallHistory()
        self.planner = QueryPlanner(self.registry, history=self.history)
        self.executor = Executor(
            self.registry,
            history=self.history,
            config=ExecutorConfig(**config),
            subquery_planner=self.planner.logical_for_bound,
        )
        self.odl_loader = OdlLoader(self.registry)

    # -- lifecycle ----------------------------------------------------------------------------
    def close(self, drain: bool = False, timeout: float | None = None) -> None:
        """Release the executor's shared thread pool.

        By default in-flight queries are *cancelled*: their source calls are
        written off cooperatively (each degrades into a partial answer or a
        finished stream -- no exception is raised into another thread's
        query) and the pool's workers are joined, so no threads leak.
        ``drain=True`` instead waits up to ``timeout`` seconds (``None`` =
        forever) for in-flight queries and streams to complete first.

        A mediator remains usable after ``close()`` -- the next query simply
        recreates the pool -- so this is safe to call from ``finally`` blocks
        and context-manager exits.
        """
        self.executor.close(drain=drain, timeout=timeout)

    def serve(self, **config: Any):
        """Start a :class:`~repro.serving.MediatorServer` over this mediator.

        Keyword arguments populate :class:`~repro.serving.ServerConfig`
        (worker count, queue depth).  The server is the one
        admission path -- bounded in-flight budget, load shedding, fair
        scheduling by priority, end-to-end deadlines -- for concurrent
        clients and for a direct caller who wants a budget alike; close it
        before (or instead of) closing the mediator.
        """
        from repro.serving import MediatorServer, ServerConfig  # local: avoid cycle

        return MediatorServer(self, config=ServerConfig(**config))

    def __enter__(self) -> "Mediator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- DBA interface: definitions -----------------------------------------------------------
    def load_odl(self, text: str) -> list[object]:
        """Load ODL declarations (interfaces, extents, views, repositories)."""
        return self.odl_loader.load(text)

    def define_interface(
        self,
        name: str,
        attributes: Iterable[tuple[str, str]] = (),
        supertype: str | None = None,
        extent_name: str | None = None,
    ) -> InterfaceType:
        """Programmatic equivalent of an ODL ``interface`` declaration."""
        specs = tuple(
            AttributeSpec(attr_name, PrimitiveType.from_name(attr_type))
            for attr_name, attr_type in attributes
        )
        return self.registry.define_interface(
            InterfaceType(
                name=name, attributes=specs, supertype=supertype, extent_name=extent_name
            )
        )

    def create_repository(self, name: str, host: str = "localhost", address: str = "", **properties) -> Repository:
        """Create and register a Repository object (``r0 := Repository(...)``)."""
        repository = Repository(
            name=name, host=host, address=address, properties=dict(properties)
        )
        return self.registry.add_repository(repository)

    def register_repository(self, repository: Repository) -> Repository:
        """Register an existing Repository object."""
        return self.registry.add_repository(repository)

    def register_wrapper(self, name: str, wrapper: Any) -> Any:
        """Register a wrapper object (``w0 := WrapperPostgres()``)."""
        return self.registry.add_wrapper(name, wrapper)

    def add_extent(
        self,
        name: str,
        interface: str,
        wrapper: str,
        repository: str,
        map: LocalTransformationMap | None = None,
        source_collection: str | None = None,
    ):
        """``extent <name> of <interface> wrapper <w> repository <r> [map ...];``"""
        return self.registry.add_extent(
            name,
            interface,
            wrapper,
            repository,
            map=map,
            source_collection=source_collection,
        )

    def drop_extent(self, name: str) -> None:
        """Remove an extent declaration."""
        self.registry.drop_extent(name)

    def define_view(self, name: str, query_text: str):
        """``define <name> as <query>;``"""
        return self.registry.define_view_text(name, query_text)

    def execute_statement(self, text: str) -> Any:
        """Execute one OQL statement: a ``define`` updates the schema, a query runs."""
        statement = parse_statement(text)
        if isinstance(statement, DefineStatement):
            return self.define_view(statement.name, statement.query.to_oql())
        return self.query(text)

    # -- application interface: queries ------------------------------------------------------------
    def query(self, text: str, timeout: float | None = None) -> QueryResult:
        """Evaluate an OQL query and return its (possibly partial) answer.

        Runs at once on the calling thread; to queue, shed or prioritise
        queries, submit them through :meth:`serve`.

        With an answer cache configured (``answer_cache=``), the query is
        first served from cached answers: an exact hit or a subsumption
        replay returns without any wrapper call, and a cached *partial*
        answer is patched by re-contacting only its missing extents (see
        :mod:`repro.runtime.answercache`).
        """
        cache = self.answer_cache
        if cache is None:
            return self._run(self.planner.plan(text), timeout=timeout)
        keyed = self.planner.key(text)
        key = keyed[0]
        # An answer is stored under the version read before its lookup; the
        # cache refuses it if a schema change came since.
        version = self.registry.schema_version
        entry = cache.get_exact(key, version)
        if entry is not None and entry.complete:
            return QueryResult(query_text=text, data=Bag(entry.rows), from_answer_cache=True)
        if entry is not None:
            # A partial entry: run its plan, which contacts only the missing
            # extents.  A patch that straddled a schema change is refused,
            # and the query runs in full.
            patched = self._execute(text, entry.partial_plan, timeout=timeout, from_answer_cache=True)
            if cache.store(key, None, version, patched):
                cache.note_patch()
                return patched
        planned = self.planner.plan(text, keyed=keyed)
        if planned.is_scalar or planned.logical is None:
            # Scalars have no row answer to cache; run them directly.
            return self._run(planned, timeout=timeout)
        subsumed = cache.find_subsumer(planned.logical, version)
        if subsumed is not None:
            superset, deltas = subsumed
            rows = list(compensate_rows(deltas, superset.rows or ()))
            # Promote the replayed answer to its own entry: the next
            # identical query is then an O(1) exact hit.
            cache.store_complete(key, planned.logical, version, rows)
            return QueryResult(
                query_text=text,
                data=Bag(rows),
                logical=planned.logical,
                from_answer_cache=True,
            )
        cache.note_miss()
        result = self._run(planned, timeout=timeout)
        cache.store(key, planned.logical, version, result)
        return result

    def query_stream(self, text: str, timeout: float | None = None) -> QueryResult:
        """Evaluate an OQL query with the streaming engine.

        Returns immediately; the result's :meth:`~QueryResult.iter_rows`
        yields rows incrementally as sources answer (union branches stream
        in completion order, so the first row tracks the fastest source).
        A satisfied ``limit`` -- or an explicit ``result.close()`` -- cancels
        the in-flight source calls cooperatively; merely pausing the
        iteration leaves the stream open and resumable.  The materialized
        surface (``rows()``, ``answer()``) still works: it drains the stream
        first.

        Failures degrade per source, as always: a source that times out or
        dies mid-stream contributes no further rows and is reported through
        ``errors()`` / ``unavailable_sources`` once the stream ends.  Unlike
        :meth:`query`, no resubmittable partial query is built -- rows
        already delivered cannot be embedded back into one.

        Scalar queries have no row pipeline and are returned materialized.

        An exact answer-cache hit is served materialized too (the rows are
        already local, there is nothing to stream); subsumption and partial
        patching are barrier-only, and streamed answers are never stored
        (rows already delivered cannot be re-materialized faithfully): a
        streamed execution counts as a miss.
        """
        cache = self.answer_cache
        keyed = None
        if cache is not None:
            keyed = self.planner.key(text)
            entry = cache.get_exact(keyed[0], self.registry.schema_version)
            if entry is not None and entry.complete:
                return QueryResult(
                    query_text=text, data=Bag(entry.rows), from_answer_cache=True
                )
        planned = self.planner.plan(text, keyed=keyed)
        if planned.is_scalar:
            return self._run_scalar(planned, timeout=timeout)
        if planned.optimized is None or planned.logical is None:
            raise QueryExecutionError(f"query {planned.text!r} produced no plan")
        if cache is not None:
            cache.note_miss()
        stream = self.executor.execute_stream(
            planned.optimized.physical, timeout=timeout, calls=self._compiled_calls(planned)
        )
        return QueryResult(
            query_text=planned.text,
            stream=stream,
            estimated_cost=planned.optimized.cost.total(),
            logical=planned.optimized.logical,
            physical=planned.optimized.physical,
            from_plan_cache=planned.from_cache,
        )

    def explain(self, text: str) -> PlannedQuery:
        """Return the planner's output without executing anything."""
        return self.planner.plan(text, use_cache=False)

    def resubmit(self, result: QueryResult, timeout: float | None = None) -> QueryResult:
        """Re-evaluate a partial answer (e.g. after sources came back up).

        The partial answer is itself a query, so this simply plans and runs
        its logical plan again; with every source available the original
        query's full answer comes back.
        """
        if not result.is_partial or result.partial_plan is None:
            return result
        # Its text is the partial answer's, passed on unwritten.
        text = result._partial_query or result._query_text
        return self._execute(text, result.partial_plan, timeout=timeout)

    # -- internals -----------------------------------------------------------------------------------
    @staticmethod
    def _compiled_calls(planned: PlannedQuery) -> dict | None:
        """The plan's compiled-call slot, once the text has come back.

        A plan served from the plan cache is one somebody asked for twice:
        its exec calls are compiled into the plan's own slot and every later
        run reads them.  The run that *made* the plan compiles for itself
        alone -- most never-seen texts never return, and up to a plan
        cache's worth of them would otherwise each hold compiled calls
        nobody reads again.
        """
        return planned.optimized.exec_calls if planned.from_cache else None

    def _run(self, planned: PlannedQuery, timeout: float | None = None) -> QueryResult:
        if planned.is_scalar:
            return self._run_scalar(planned, timeout=timeout)
        if planned.optimized is None or planned.logical is None:
            raise QueryExecutionError(f"query {planned.text!r} produced no plan")
        optimized = planned.optimized
        return self._execute(
            planned.text,
            optimized.logical,
            optimized.physical,
            timeout=timeout,
            calls=self._compiled_calls(planned),
            estimated_cost=optimized.cost.total(),
            from_plan_cache=planned.from_cache,
        )

    def _execute(
        self,
        text: str | OQLText,
        logical: LogicalOp,
        physical: PhysicalOp | None = None,
        timeout: float | None = None,
        calls: dict | None = None,
        **fields: Any,
    ) -> QueryResult:
        """Execute a plan (``logical`` implemented when no ``physical`` is
        given) and wrap its finished run: a fresh query, a resubmitted
        partial answer and a patched cached one all finish here."""
        if physical is None:
            physical = implement(logical)
        run = self.executor.execute(physical, timeout=timeout, calls=calls)
        return QueryResult(text, stream=run, logical=logical, physical=physical, **fields)

    def _run_scalar(self, planned: PlannedQuery, timeout: float | None = None) -> QueryResult:
        bound = planned.bound
        if not isinstance(bound, ExprQuery):
            raise QueryExecutionError(f"scalar query {planned.text!r} did not bind to an expression")
        value = bound.expression.evaluate({}, self.executor.evaluate_subquery)
        return QueryResult(query_text=planned.text, data=value)

    # -- catalog support --------------------------------------------------------------------------------
    def describe(self) -> dict[str, Any]:
        """Describe this mediator (used by catalogs)."""
        description = self.registry.describe()
        description["mediator"] = self.name
        return description

    def statistics(self) -> dict[str, Any]:
        """Operational statistics: recorded exec signatures, plan-cache state."""
        stats = {
            "exec_signatures": self.history.recorded_calls(),
            "schema_version": self.registry.schema_version,
            # Probe-join cache effectiveness (batched bind joins): a hit is a
            # join key served from the per-query cache without re-hitting the
            # source; a miss went into a batched (or degraded) probe call.
            "probe_cache_hits": self.executor.probe_cache_hits,
            "probe_cache_misses": self.executor.probe_cache_misses,
        }
        for key, value in self.planner.plan_cache.stats().items():
            stats[f"plan_cache_{key}"] = value
        if self.answer_cache is not None:
            for key, value in self.answer_cache.stats().items():
                stats[f"answer_cache_{key}"] = value
        return stats
