"""The versioned LRU under every schema-keyed cache, and the plan cache on top of it.

The paper: "if query optimization plans are cached, the mediator must monitor
updates to extents, and modify or recompute plans that are affected by updates
to the extents understood by the mediator."  The registry bumps a schema
version every time an extent is added or dropped.  :class:`VersionedCache`
holds that rule once, for the plan cache here, the answer cache
(:mod:`repro.runtime.answercache`) and the executor's type-check verdicts.
It reads the registry's version through the reader it was given, and every
entry it holds was built under the newest version it has seen:

* the first lookup or store under a newer version sweeps every older entry
  out, counted as invalidations -- whichever path made the schema change,
  the mediator's DBA methods or the registry itself;
* a lookup under an older version (a caller that read the version before a
  concurrent DBA change) misses and keeps the newer entries;
* a store whose value was built under a version that no longer holds is
  refused: the value may mix old and new resolutions, and stored under
  either version it could serve a stale answer.

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
while parsing or reading the registry: a store reads the version *before*
taking it, since the registry's lock ranks below every cache's.  A cache hit
under contention costs one short critical section.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable



class VersionedCache:
    """A thread-safe LRU map whose entries are served under one schema version.

    ``version`` reads the registry's current schema version.  Subclasses add
    their lookups and stores on top of :meth:`_fetch` and :meth:`put`,
    and may extend :meth:`_over_budget`, :meth:`_added` and :meth:`_removed`
    to keep a budget or an index beside the map.
    """

    def __init__(self, max_entries: int, version: Callable[[], int]):
        self.max_entries = max_entries
        self._version = version
        #: key -> value, in LRU order (front = coldest); every value was
        #: built under ``_newest``
        self._entries: OrderedDict[str, Any] = OrderedDict()
        #: the newest schema version a lookup or store has seen
        self._newest = 0
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        #: entries pushed out by the LRU policy (capacity pressure, not staleness).
        self.evictions = 0
        # RLock, not Lock: every serving thread of the mediator shares the cache.
        self._lock = threading.RLock()

    def get(self, key: str, schema_version: int) -> Any | None:
        """The value cached under ``key`` for ``schema_version``, or None
        when absent or stale; counts a hit or a miss."""
        with self._lock:
            value = self._fetch(key, schema_version)
            if value is None:
                self.misses += 1
            else:
                self.hits += 1
            return value

    def _fetch(self, key: str, schema_version: int) -> Any | None:
        """The value under ``key`` if built under ``schema_version``, or None.

        A newer version sweeps the older entries first; under an older one
        nothing is served and nothing dropped.  A served entry becomes the
        most recent.  The caller holds ``_lock``.
        """
        self._sweep(schema_version)
        value = self._entries.get(key) if schema_version == self._newest else None
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def put(self, key: str, schema_version: int, value: Any | None) -> bool:
        """Store ``value``, built under ``schema_version``, as the most recent
        entry, then evict the coldest until the cache is within budget.

        Refused, returning False, when ``schema_version`` no longer holds.
        ``None`` stores nothing and only asks.  Called without ``_lock``
        held: the registry's version is read before it is taken.
        """
        current = self._version()
        with self._lock:
            self._sweep(current)
            if schema_version != self._newest:
                return False
            if value is not None:
                self._remove(key)
                self._entries[key] = value
                self._added(key, value)
                while self._entries and self._over_budget():
                    self._remove(next(iter(self._entries)))
                    self.evictions += 1
            return True

    def _sweep(self, schema_version: int) -> None:
        """Under a version newer than any seen, drop every entry (all were
        built under an older one), counted as invalidations.  The caller
        holds ``_lock``."""
        if schema_version > self._newest:
            self._newest = schema_version
            self.invalidations += len(self._entries)
            self.clear()

    def _remove(self, key: str) -> None:
        """Unlink the entry under ``key``, if any.  The caller holds ``_lock``."""
        if key in self._entries:
            self._removed(key, self._entries.pop(key))

    def _over_budget(self) -> bool:
        return len(self._entries) > self.max_entries

    def _added(self, key: str, value: Any) -> None:
        """Hook: ``value`` was stored under ``key``.  The caller holds ``_lock``."""

    def _removed(self, key: str, value: Any) -> None:
        """Hook: ``value`` left the cache.  The caller holds ``_lock``."""

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

    def __init__(self, version: Callable[[], int]) -> None:
        super().__init__(PLAN_CACHE_CAPACITY, version)
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
