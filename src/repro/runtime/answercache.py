"""The semantic answer cache: materialized answers, subsumption, partial repair.

DISCO's traffic is repetitive declarative queries over slow, intermittently
available sources, so the mediator caches *answers*, not just plans.  Three
ways a query is served without (fully) re-contacting sources:

* **exact hit** -- the query's canonical text (the plan cache's
  normalization: parsed AST printed back) matches a complete cached answer
  built under the current ``schema_version``; the rows come back with zero
  wrapper calls.
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
  incremental cache repair instead of a recomputation.

Consistency: every entry remembers the registry ``schema_version`` it was
built under and is unreachable once the version moves (lazy invalidation,
the plan cache's discipline); DBA actions additionally evict eagerly by
extent name.  A partial entry is *pinned* to its version twice: before the
patch is submitted and again after it executed -- a schema mutated between
miss and patch would otherwise weld rows of the old schema onto answers of
the new one (the mutate-between-miss-and-patch race).

Subsumption refuses what it cannot replay faithfully: predicates with free
variables beyond the select's own, subquery predicates, environment-valued
(multi-binding) items, and anything aggregating (``groupby`` is never a
delta -- aggregate queries are served by exact hits only).

Lock discipline: one cache-wide :class:`threading.RLock` (rank 43, see
``analysis/spec.py``) guards the entry map, the plan-text index, the row
budget and every counter.  The lock is never held while planning, executing,
replaying deltas or reading the registry -- lookups copy the immutable row
tuple out and leave.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
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
from repro.optimizer.plancache import normalize_query_text
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

    query_text: str  #: canonical text key (the plan cache's normalization)
    plan_text: str | None  #: translated-logical text, the subsumption key
    schema_version: int  #: registry version the answer was built under
    extents: frozenset[str]  #: extent names referenced, for eager eviction
    rows: tuple[Any, ...] | None = None  #: complete entries only
    partial_plan: log.LogicalOp | None = None  #: partial entries only
    unavailable_sources: tuple[str, ...] = ()

    @property
    def complete(self) -> bool:
        return self.rows is not None

    def row_count(self) -> int:
        return len(self.rows) if self.rows is not None else 0


def _extents_of(plan: log.LogicalOp) -> frozenset[str]:
    """Every extent a plan's submits reference (source name as fallback)."""
    return frozenset(
        submit.extent_name or submit.source for submit in log.submits_in(plan)
    )


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


class AnswerCache:
    """Thread-safe LRU cache of materialized (and partial) query answers.

    ``max_entries`` bounds the entry count and :data:`MAX_CACHED_ROWS` the
    total number of cached rows.
    """

    def __init__(self, max_entries: int = 128):
        self.max_entries = max_entries
        #: canonical query text -> entry, in LRU order (front = coldest).
        self._entries: OrderedDict[str, CacheEntry] = OrderedDict()
        #: translated-plan text -> canonical text of a *complete* entry.
        self._by_plan: dict[str, str] = {}
        #: memo of raw text -> canonical key, so repeated queries skip the
        #: parse (the plan cache's discipline; bounded the same way).
        self._keys: dict[str, str] = {}
        self._total_rows = 0
        self.hits = 0
        self.subsumption_hits = 0
        self.misses = 0
        self.patches = 0
        self.stores = 0
        self.invalidations = 0
        self.evictions = 0
        # RLock, not Lock: serving threads share one cache per mediator.
        self._lock = threading.RLock()

    def _key_for(self, query_text: str) -> str:
        with self._lock:
            key = self._keys.get(query_text)
        if key is not None:
            return key
        # Parse outside the lock: normalization is the expensive part, and
        # two threads racing the same text derive the same key anyway.
        key = normalize_query_text(query_text)
        with self._lock:
            if len(self._keys) >= 4 * self.max_entries:
                self._keys.clear()
            self._keys[query_text] = key
        return key

    # -- lookups ---------------------------------------------------------------------
    def get_exact(self, query_text: str, schema_version: int) -> CacheEntry | None:
        """The entry for ``query_text`` built under ``schema_version``, or None.

        Returns complete *and* partial entries -- the caller decides whether
        a partial entry is patched.  A stale entry is dropped on sight.
        Counts a hit only for complete entries; partial entries count as a
        ``patch`` (or a miss) once the caller resolves them.
        """
        key = self._key_for(query_text)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            if entry.schema_version != schema_version:
                self._remove_entry(key)
                self.invalidations += 1
                return None
            self._entries.move_to_end(key)
            if entry.complete:
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

    def _complete_entry_for_plan(
        self, plan_text: str, schema_version: int
    ) -> CacheEntry | None:
        with self._lock:
            key = self._by_plan.get(plan_text)
            if key is None:
                return None
            entry = self._entries.get(key)
            if entry is None or not entry.complete:
                return None
            if entry.schema_version != schema_version:
                self._remove_entry(key)
                self.invalidations += 1
                return None
            self._entries.move_to_end(key)
            return entry

    # -- stores ----------------------------------------------------------------------
    def store_complete(
        self,
        query_text: str,
        plan: log.LogicalOp | None,
        schema_version: int,
        rows: Iterable[Any],
        extents: frozenset[str] | None = None,
    ) -> None:
        """Cache a complete answer built under ``schema_version``.

        ``extents`` overrides the extent tagging when ``plan`` is not
        available (a patched partial answer keeps its original tags).
        """
        materialized = tuple(rows)
        if len(materialized) > MAX_CACHED_ROWS:
            return
        if extents is None:
            extents = _extents_of(plan) if plan is not None else frozenset()
        entry = CacheEntry(
            query_text=self._key_for(query_text),
            plan_text=plan.to_text() if plan is not None else None,
            schema_version=schema_version,
            extents=extents,
            rows=materialized,
        )
        self._insert(entry)

    def store_partial(
        self,
        query_text: str,
        plan: log.LogicalOp | None,
        schema_version: int,
        partial_plan: log.LogicalOp,
        unavailable_sources: tuple[str, ...],
        extents: frozenset[str] | None = None,
    ) -> None:
        """Cache a partial answer tagged with its missing extents."""
        if extents is None:
            extents = _extents_of(plan) if plan is not None else frozenset()
        entry = CacheEntry(
            query_text=self._key_for(query_text),
            plan_text=None,  # partial entries never serve subsumption
            schema_version=schema_version,
            extents=extents | _extents_of(partial_plan),
            partial_plan=partial_plan,
            unavailable_sources=tuple(unavailable_sources),
        )
        self._insert(entry)

    def _insert(self, entry: CacheEntry) -> None:
        with self._lock:
            key = entry.query_text
            if key in self._entries:
                self._remove_entry(key)
            self._entries[key] = entry
            if entry.plan_text is not None:
                self._by_plan[entry.plan_text] = key
            self._total_rows += entry.row_count()
            self.stores += 1
            while self._entries and (
                len(self._entries) > self.max_entries
                or self._total_rows > MAX_CACHED_ROWS
            ):
                coldest, _ = next(iter(self._entries.items()))
                self._remove_entry(coldest)
                self.evictions += 1

    # -- invalidation ----------------------------------------------------------------
    def drop(self, query_text: str) -> None:
        """Drop the entry for ``query_text`` (counts as an invalidation)."""
        key = self._key_for(query_text)
        with self._lock:
            if key in self._entries:
                self._remove_entry(key)
                self.invalidations += 1

    def invalidate_extent(self, extent_name: str) -> None:
        """Eagerly drop every entry whose answer involved ``extent_name``.

        Lazy ``schema_version`` checks already make these entries
        unreachable; eager eviction returns their row budget immediately
        when a DBA re-registers a source.
        """
        with self._lock:
            stale = [
                key
                for key, entry in self._entries.items()
                if extent_name in entry.extents
            ]
            for key in stale:
                self._remove_entry(key)
                self.invalidations += 1

    def clear(self) -> None:
        """Drop every cached answer."""
        with self._lock:
            self._entries.clear()
            self._by_plan.clear()
            self._keys.clear()
            self._total_rows = 0

    def _remove_entry(self, key: str) -> None:
        """Unlink one entry from both indices; the caller holds ``_lock``."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return
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
                "entries": len(self._entries),
                "rows": self._total_rows,
                "hits": self.hits,
                "subsumption_hits": self.subsumption_hits,
                "misses": self.misses,
                "patches": self.patches,
                "stores": self.stores,
                "invalidations": self.invalidations,
                "evictions": self.evictions,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
