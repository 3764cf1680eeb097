"""The semantic answer cache: materialized answers, subsumption, partial repair.

DISCO's traffic is repetitive declarative queries over slow, intermittently
available sources, so the mediator caches *answers*, not just plans.  Three
ways a query is served without (fully) re-contacting sources:

* **exact hit** -- the query's canonical key (the planner's: parsed AST
  printed back) matches a complete cached answer built under the current
  ``schema_version``; the rows come back with zero wrapper calls.
* **subsumption hit** -- the query's *translated* logical plan differs from
  a cached complete answer's plan only by mediator-compensable delta
  operators on top (``limit``, ``distinct``, ``project``/``apply`` item
  computation, and ``select`` predicates -- including a conjunct appended to
  a cached selection).  The deltas are replayed mediator-side over the
  cached rows (:func:`repro.runtime.degrade.compensate_rows`, one lazy
  pipeline), so the narrower answer is computed without any source call.
* **partial patch** -- the DISCO twist.  A *partial* answer ("the answer is
  a query") is cached with its missing extents; an identical later query
  re-executes only the embedded partial plan, whose ``bag`` literals replay
  the rows already obtained and whose remaining ``submit`` nodes contact
  *only* the extents that were down -- source recovery becomes an
  incremental cache repair instead of a recomputation.  The patch is run
  the way ``Mediator.resubmit`` runs a partial answer, by the same helper.

Consistency: the cache is a :class:`~repro.optimizer.plancache.
VersionedCache`, so an entry is served only under the registry
``schema_version`` it was built under, the first lookup after a schema
change sweeps out every entry the version bump made stale, and a store is
refused unless the version it was built under still holds.
``Mediator.query`` stores an answer, fresh or patched, under the version it
read before the lookup.  A schema mutated between miss and patch swept the
entry, so the lookup finds none; one mutated while the patch ran gets the
patched rows refused, and the query runs in full -- rows of the old schema
are never welded onto answers of the new one.  The versions are one
registry's, read through :meth:`AnswerCache.hold`, so a cache serves one
mediator.

Subsumption refuses what it cannot replay faithfully: predicates with free
variables beyond the select's own, subquery predicates, environment-valued
(multi-binding) items, and anything aggregating (``groupby`` is never a
delta -- aggregate queries are served by exact hits only).

Lock discipline: the base class's one :class:`threading.RLock` (rank 43
here, see ``analysis/spec.py``) guards the entry map, the plan-text index,
the row budget and every counter.  The lock is never held while planning,
executing, replaying deltas or reading the registry -- lookups copy the
immutable row tuple out and leave.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.algebra import logical as log
from repro.algebra.expressions import (
    AGGREGATE_FUNCTIONS,
    FunctionCall,
    conjunction,
    split_conjuncts,
    walk_expr,
)
from repro.algebra.rules import _self_contained
from repro.optimizer.plancache import VersionedCache
from repro.runtime.operators import ENV_VARIABLE

#: deepest delta-operator stack the subsumption search will strip before
#: giving up; translated plans are shallow (limit/distinct/item/select/base),
#: so eight rungs covers every generated shape with slack for hand-built ones.
MAX_STRIP_DEPTH = 8

#: placeholder leaf standing for "the cached rows" inside a delta operator;
#: never executed -- replay rebuilds each delta over the rows directly.
_CACHED_LEAF = "__cached_rows__"


@dataclass
class CacheEntry:
    """One cached answer (complete rows, or a partial answer to repair)."""

    plan_text: str | None  #: translated-logical text, the subsumption key
    rows: tuple[Any, ...] | None = None  #: complete entries only
    partial_plan: log.LogicalOp | None = None  #: partial entries only

    @property
    def complete(self) -> bool:
        return self.rows is not None

    def row_count(self) -> int:
        return len(self.rows) if self.rows is not None else 0


def _has_aggregate(expr: Any) -> bool:
    for node in walk_expr(expr):
        if isinstance(node, FunctionCall) and node.name in AGGREGATE_FUNCTIONS:
            return True
    return False


def _strippable_delta(op: log.LogicalOp) -> bool:
    """Can ``op`` be replayed mediator-side over a cached superset's rows?

    The refusal cases are the ones that would change the answer: predicates
    or items that see more than the operator's own variable (multi-binding
    environments), subqueries (their evaluation needs the executor), and
    aggregates (``groupby`` is deliberately absent -- aggregate answers are
    only ever served exactly).
    """
    if isinstance(op, (log.Limit, log.Distinct, log.Project)):
        return True
    if isinstance(op, log.Select):
        return _self_contained(op)
    if isinstance(op, log.Apply):
        return (
            op.variable != ENV_VARIABLE
            and not _has_aggregate(op.expression)
            and _self_contained(op)
        )
    return False


#: the *total* number of rows an :class:`AnswerCache` holds across entries
#: (a single answer larger than this is never stored)
MAX_CACHED_ROWS = 100_000


def _unheld() -> int:
    raise ValueError("an AnswerCache stores nothing before a mediator holds it")


class AnswerCache(VersionedCache):
    """Thread-safe LRU cache of materialized (and partial) query answers.

    Keyed by the planner's canonical key of the query text.  ``max_entries``
    bounds the entry count and :data:`MAX_CACHED_ROWS` the total number of
    cached rows.  One cache serves one mediator.
    """

    def __init__(self, max_entries: int = 128):
        super().__init__(max_entries, _unheld)
        #: translated-plan text -> key of a *complete* entry.
        self._by_plan: dict[str, str] = {}
        self._total_rows = 0
        self.subsumption_hits = 0
        self.patches = 0
        self.stores = 0

    def hold(self, registry: Any) -> None:
        """Claim the cache for the mediator over ``registry``, whose
        ``schema_version`` its entries carry; a second claim is refused."""
        with self._lock:
            if self._version is not _unheld:
                raise ValueError("this AnswerCache already serves another mediator")
            self._version = lambda: registry.schema_version

    # -- lookups ---------------------------------------------------------------------
    def get_exact(self, key: str, schema_version: int) -> CacheEntry | None:
        """The entry for ``key`` built under ``schema_version``, or None.

        Returns complete *and* partial entries -- the caller decides whether
        a partial entry is patched.  A newer version sweeps the stale entries first.
        Counts a hit only for complete entries; partial entries count as a
        ``patch`` (or a miss) once the caller resolves them.
        """
        with self._lock:
            entry = self._fetch(key, schema_version)
            if entry is not None and entry.complete:
                self.hits += 1
            return entry

    def find_subsumer(
        self, plan: log.LogicalOp, schema_version: int
    ) -> tuple[CacheEntry, tuple[log.LogicalOp, ...]] | None:
        """A complete cached superset of ``plan``, plus the deltas to replay.

        Strips compensable operators off the top of the *translated* logical
        plan, outermost first, looking the remainder up among complete
        entries after every rung.  A ``select`` additionally tries conjunct
        prefixes, so ``where p and q`` is served from a cached ``where p``.
        Returns ``(entry, deltas)`` with ``deltas`` outermost-first, or None.
        """
        deltas: list[log.LogicalOp] = []
        current = plan
        for depth in range(MAX_STRIP_DEPTH):
            if depth > 0:  # depth 0 is the exact plan; the text path owns it
                entry = self._complete_entry_for_plan(
                    current.to_text(), schema_version
                )
                if entry is not None:
                    with self._lock:
                        self.subsumption_hits += 1
                    return entry, tuple(deltas)
            if isinstance(current, log.Select):
                found = self._split_select(current, deltas, schema_version)
                if found is not None:
                    return found
            if not _strippable_delta(current):
                return None
            deltas.append(current)
            (current,) = current.children()
        return None

    def _split_select(
        self,
        select: log.Select,
        deltas: list[log.LogicalOp],
        schema_version: int,
    ) -> tuple[CacheEntry, tuple[log.LogicalOp, ...]] | None:
        """Serve ``where c1 and ... and cn`` from a cached conjunct prefix."""
        conjuncts = split_conjuncts(select.predicate)
        if len(conjuncts) < 2:
            return None
        for keep in range(len(conjuncts) - 1, 0, -1):
            kept = conjunction(conjuncts[:keep])
            remainder = log.Select(select.variable, kept, select.child)
            entry = self._complete_entry_for_plan(
                remainder.to_text(), schema_version
            )
            if entry is None:
                continue
            stripped = conjunction(conjuncts[keep:])
            delta = log.Select(select.variable, stripped, log.Get(_CACHED_LEAF))
            if not _strippable_delta(delta):
                return None
            with self._lock:
                self.subsumption_hits += 1
            return entry, tuple([*deltas, delta])
        return None

    def _complete_entry_for_plan(self, plan_text: str, schema_version: int) -> CacheEntry | None:
        with self._lock:
            key = self._by_plan.get(plan_text)
            return None if key is None else self._fetch(key, schema_version)

    # -- stores ----------------------------------------------------------------------
    # Each returns False when ``schema_version`` no longer holds: the answer
    # may mix two schemas, so it is refused.
    def store(self, key: str, plan: log.LogicalOp | None, schema_version: int, answer: Any) -> bool:
        """Cache a finished answer built under ``schema_version``: its rows when
        complete, its resubmittable plan when partial."""
        if not answer.is_partial:
            return self.store_complete(key, plan, schema_version, answer.rows())
        if answer.partial_plan is not None:
            return self.store_partial(key, schema_version, answer.partial_plan)
        return self.put(key, schema_version, None)

    def store_complete(
        self, key: str, plan: log.LogicalOp | None, schema_version: int, rows: Iterable[Any]
    ) -> bool:
        """Cache a complete answer, indexed by ``plan`` for subsumption."""
        materialized = tuple(rows)
        entry = None
        if len(materialized) <= MAX_CACHED_ROWS:
            plan_text = plan.to_text() if plan is not None else None
            entry = CacheEntry(plan_text, rows=materialized)
        return self.put(key, schema_version, entry)

    def store_partial(self, key: str, schema_version: int, partial_plan: log.LogicalOp) -> bool:
        """Cache a partial answer: the plan that patches in its missing extents.
        It never serves subsumption (no plan text)."""
        return self.put(key, schema_version, CacheEntry(None, partial_plan=partial_plan))

    def _over_budget(self) -> bool:
        return super()._over_budget() or self._total_rows > MAX_CACHED_ROWS

    def _added(self, key: str, entry: CacheEntry) -> None:
        """Count the store, index ``entry`` and charge its rows.  The caller
        holds ``_lock``."""
        self.stores += 1
        self._total_rows += entry.row_count()
        if entry.plan_text is not None:
            self._by_plan[entry.plan_text] = key

    def _removed(self, key: str, entry: CacheEntry) -> None:
        """Unindex ``entry`` and refund its rows.  The caller holds ``_lock``."""
        self._total_rows -= entry.row_count()
        if entry.plan_text is not None and self._by_plan.get(entry.plan_text) == key:
            del self._by_plan[entry.plan_text]

    # -- accounting ------------------------------------------------------------------
    def note_miss(self) -> None:
        """Count a query served by execution rather than the cache."""
        with self._lock:
            self.misses += 1

    def note_patch(self) -> None:
        """Count a partial entry repaired by resubmitting its missing extents."""
        with self._lock:
            self.patches += 1

    def stats(self) -> dict[str, int]:
        """One consistent snapshot of the cache counters."""
        with self._lock:
            return {
                **super().stats(),
                "rows": self._total_rows,
                "subsumption_hits": self.subsumption_hits,
                "patches": self.patches,
                "stores": self.stores,
            }
