"""The parse / bind / translate / optimize pipeline of Prototype 0 (Figure 2)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.algebra.capabilities import CapabilitySet
from repro.algebra.logical import LogicalOp, Submit
from repro.algebra.rewriter import Rewriter
from repro.core.registry import Registry
from repro.errors import SchemaError
from repro.oql.ast import ExprQuery, QueryNode
from repro.oql.binder import Binder
from repro.oql.parser import parse_query
from repro.oql.translator import Translator
from repro.optimizer.cost import CostModel
from repro.optimizer.history import ExecCallHistory
from repro.optimizer.optimizer import OptimizedPlan, Optimizer
from repro.optimizer.plancache import PlanCache


def capabilities_for_submit(registry: Registry, submit: Submit) -> CapabilitySet:
    """The ``submit-functionality`` call: ask the extent's wrapper for its capabilities."""
    extent_name = submit.extent_name or submit.source
    try:
        meta = registry.extent(extent_name)
        wrapper = registry.wrapper_object(meta.wrapper)
    except SchemaError:
        # Unknown extent (hand-built plan): assume the minimal wrapper.
        return CapabilitySet.get_only()
    return wrapper.submit_functionality()


@dataclass
class PlannedQuery:
    """Everything the planner produced for one query."""

    text: str
    ast: QueryNode
    bound: QueryNode
    logical: LogicalOp | None
    optimized: OptimizedPlan | None
    is_scalar: bool
    from_cache: bool = False


class QueryPlanner:
    """Turns OQL text into an optimized physical plan against one registry.

    Thread-safety: the planner itself holds no per-query mutable state -- the
    binder, translator, rewriter and optimizer are configured once and then
    only read; shared mutable state lives in the registry, the plan cache and
    the exec-call history, each of which carries its own lock (see their
    module docstrings for the discipline).  Concurrent ``plan`` calls are
    therefore safe, including against a DBA thread mutating the schema:
    :meth:`plan` snapshots the schema version *once*, before its lookup, and
    stores the plan under it; the plan cache refuses the plan when the
    version moved mid-planning (it may have resolved names against a
    half-new schema).
    """

    def __init__(
        self,
        registry: Registry,
        history: ExecCallHistory | None = None,
    ):
        self.registry = registry
        self.history = history or ExecCallHistory()
        self.cost_model = CostModel(history=self.history)
        self.binder = Binder(registry)
        self.translator = Translator(metaextent_rows=registry.metaextent_rows)
        # The resolver holds the registry, not the planner: a bound method
        # here would close the cycle planner -> optimizer -> rewriter ->
        # planner, and a closed mediator would wait for a cyclic collection.
        self.rewriter = Rewriter(partial(capabilities_for_submit, registry))
        self.optimizer = Optimizer(self.rewriter, self.cost_model)
        self.plan_cache = PlanCache(lambda: registry.schema_version)

    # -- the pipeline -----------------------------------------------------------------------
    def key(self, text: str) -> tuple[str, QueryNode | None]:
        """The canonical cache key of ``text``, and its AST if finding it took a parse.

        The mediator's one key memo: the plan cache and the answer cache are
        both keyed by it.  On first sight of a text, the parse that
        canonicalises the key is the parse that plans the query on a miss.
        """
        key = self.plan_cache.known_key(text)
        if key is not None:
            return key, None
        ast = parse_query(text)
        return self.plan_cache.learn_key(text, ast.to_oql()), ast

    def plan(
        self,
        text: str,
        use_cache: bool = True,
        keyed: tuple[str, QueryNode | None] | None = None,
    ) -> PlannedQuery:
        """Parse, bind, translate and optimize ``text``.

        ``keyed`` is :meth:`key`'s answer for ``text`` when the caller has it.
        ``use_cache=False`` plans from scratch and leaves the plan cache
        untouched (``Mediator.explain``).
        """
        if not use_cache:
            return self.plan_ast(parse_query(text), text=text)
        version = self.registry.schema_version
        cache = self.plan_cache
        key, ast = keyed or self.key(text)
        cached = cache.get(key, version)
        if cached is not None:
            return PlannedQuery(
                text=text,
                ast=cached.ast,
                bound=cached.bound,
                logical=cached.logical,
                optimized=cached.optimized,
                is_scalar=cached.is_scalar,
                from_cache=True,
            )
        if ast is None:
            ast = parse_query(text)
        planned = self.plan_ast(ast, text=text)
        cache.put(key, version, planned)
        return planned

    def plan_ast(self, ast: QueryNode, text: str | None = None) -> PlannedQuery:
        """Bind, translate and optimize an already-parsed query."""
        bound = self.binder.bind(ast)
        if isinstance(bound, ExprQuery):
            return PlannedQuery(
                text=text or ast.to_oql(),
                ast=ast,
                bound=bound,
                logical=None,
                optimized=None,
                is_scalar=True,
            )
        logical = self.translator.translate(bound)
        optimized = self.optimizer.optimize(logical)
        return PlannedQuery(
            text=text or ast.to_oql(),
            ast=ast,
            bound=bound,
            logical=logical,
            optimized=optimized,
            is_scalar=False,
        )

    def logical_for_bound(self, bound: QueryNode) -> LogicalOp:
        """Translate a bound (sub)query without optimizing (used for subqueries)."""
        return self.translator.translate(bound)
