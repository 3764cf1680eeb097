"""The versioned LRU under both query caches, and the plan cache on top of it.

The paper: "if query optimization plans are cached, the mediator must monitor
updates to extents, and modify or recompute plans that are affected by updates
to the extents understood by the mediator."  The registry bumps a schema
version every time an extent is added or dropped.  :class:`VersionedCache`
holds that rule once, for the plan cache here and the answer cache
(:mod:`repro.runtime.answercache`): every entry remembers the version it was
built under and is served only under that version -- a lookup under another
version drops it and counts an invalidation, and :meth:`~VersionedCache.
evict_stale` sweeps every such entry at once.

Eviction is least-recently-*used*: a lookup refreshes an entry's recency, so
a hot query is never pushed out by a stream of one-off queries.  Keys are the
query's *parsed* canonical form (``parse_query(text).to_oql()``), so comment,
case-of-keyword and formatting variants all hit the same entry.  The plan
cache keeps the mediator's one memo of text -> key: the planner parses a
never-seen text once, and that parse both canonicalises the key
(``known_key``/``learn_key``) and plans the query; the answer cache takes the
key the planner found and parses nothing.  A cache hit costs one dict lookup.
``get``/``put`` take that key (``QueryPlanner.key``); the cache derives none
itself, so an unparseable text has no key and no entry.

Lock discipline: one cache-wide :class:`threading.RLock` guards the entry
map, the key memo and every counter -- a cache is shared by all the
concurrent queries of one mediator (see :mod:`repro.serving`), and an
``OrderedDict`` being reordered by ``move_to_end`` while another thread
iterates or resizes it corrupts the recency list.  The lock is never held
while parsing, so a cache hit under contention costs one short critical
section.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any



class VersionedCache:
    """A thread-safe LRU map whose entries are served under one schema version.

    Subclasses add their lookups and stores on top of :meth:`_fetch` and
    :meth:`_insert`, and may extend :meth:`_over_budget`, :meth:`_added` and
    :meth:`_removed` to keep a budget or an index beside the map.
    """

    def __init__(self, max_entries: int):
        self.max_entries = max_entries
        #: key -> (schema version, value), in LRU order (front = coldest)
        self._entries: OrderedDict[str, tuple[int, Any]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        #: entries pushed out by the LRU policy (capacity pressure, not staleness).
        self.evictions = 0
        # RLock, not Lock: every serving thread of the mediator shares the cache.
        self._lock = threading.RLock()

    def _fetch(self, key: str, schema_version: int) -> Any | None:
        """The value under ``key`` if built under ``schema_version``, or None.

        A stale entry is dropped and counted as an invalidation; a served one
        becomes the most recent.  The caller holds ``_lock``.
        """
        item = self._entries.get(key)
        if item is None:
            return None
        if item[0] != schema_version:
            self._remove(key)
            self.invalidations += 1
            return None
        self._entries.move_to_end(key)
        return item[1]

    def _insert(self, key: str, schema_version: int, value: Any) -> None:
        """Store ``value`` as the most recent entry, then evict the coldest
        until the cache is within budget.  The caller holds ``_lock``."""
        self._remove(key)
        self._entries[key] = (schema_version, value)
        self._added(key, value)
        while self._entries and self._over_budget():
            self._remove(next(iter(self._entries)))
            self.evictions += 1

    def _remove(self, key: str) -> None:
        """Unlink the entry under ``key``, if any.  The caller holds ``_lock``."""
        item = self._entries.pop(key, None)
        if item is not None:
            self._removed(key, item[1])

    def _over_budget(self) -> bool:
        return len(self._entries) > self.max_entries

    def _added(self, key: str, value: Any) -> None:
        """Hook: ``value`` was stored under ``key``.  The caller holds ``_lock``."""

    def _removed(self, key: str, value: Any) -> None:
        """Hook: ``value`` left the cache.  The caller holds ``_lock``."""

    def evict_stale(self, schema_version: int) -> None:
        """Drop every entry not built under ``schema_version`` (counted as
        invalidations): what a DBA change made unreachable leaves at once."""
        with self._lock:
            stale = [key for key, (built, _) in self._entries.items() if built != schema_version]
            for key in stale:
                self._remove(key)
            self.invalidations += len(stale)

    def clear(self) -> None:
        """Drop every entry."""
        with self._lock:
            for key in list(self._entries):
                self._remove(key)

    def stats(self) -> dict[str, int]:
        """One consistent snapshot of the cache counters."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "evictions": self.evictions,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: plans a :class:`PlanCache` keeps before evicting the least recently used
PLAN_CACHE_CAPACITY = 128


class PlanCache(VersionedCache):
    """A small query-text -> optimized-plan LRU cache (thread-safe)."""

    def __init__(self) -> None:
        super().__init__(PLAN_CACHE_CAPACITY)
        #: memo of text -> canonical key, so repeated queries skip the parse
        self._keys: dict[str, str] = {}

    def known_key(self, query_text: str) -> str | None:
        """The canonical key memoized for ``query_text``, or None on first sight."""
        with self._lock:
            return self._keys.get(query_text)

    def learn_key(self, query_text: str, key: str) -> str:
        """Memoize ``key`` -- ``parse_query(query_text).to_oql()`` -- for ``query_text``.

        For the caller that has parsed the text already.  Returns ``key``.
        """
        with self._lock:
            if len(self._keys) >= 4 * self.max_entries:
                self._keys.clear()
            self._keys[query_text] = key
        return key

    def get(self, key: str, schema_version: int) -> Any | None:
        """Return the plan cached under ``key`` (a text's canonical key), or
        None when absent or stale."""
        with self._lock:
            plan = self._fetch(key, schema_version)
            if plan is None:
                self.misses += 1
            else:
                self.hits += 1
            return plan

    def put(self, key: str, schema_version: int, plan: Any) -> None:
        """Store a plan built under ``schema_version`` (``key`` as in :meth:`get`)."""
        with self._lock:
            self._insert(key, schema_version, plan)
