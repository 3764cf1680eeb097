"""Caching of optimized plans, invalidated by schema changes.

The paper: "if query optimization plans are cached, the mediator must monitor
updates to extents, and modify or recompute plans that are affected by updates
to the extents understood by the mediator."  The registry bumps a schema
version every time an extent is added or dropped; cached plans remember the
version they were built under and are discarded when it moves.

Eviction is least-recently-*used*: ``get`` refreshes an entry's recency, so a
hot query is never pushed out by a stream of one-off queries.  Keys are the
query's *parsed* canonical form (``parse_query(text).to_oql()``), so comment,
case-of-keyword and formatting variants all hit the same entry; text that
does not parse falls back to its token spans joined by single spaces, so a
malformed query still produces a stable key (and its ParseError is raised by
the planner, not here).  Normalization results are memoized per text, so a
cache hit costs one dict lookup, not a parse -- and on a miss the planner,
which has to parse the text anyway, hands the canonical key in (``known_key``
/ ``learn_key``, then ``key=`` on ``get``/``put``) instead of having the
cache parse it a second time.

Lock discipline: one cache-wide :class:`threading.RLock` guards the entry
map, the key memo and every counter -- the cache is shared by all the
concurrent queries of one mediator (see :mod:`repro.serving`), and an
``OrderedDict`` being reordered by ``move_to_end`` while another thread
iterates or resizes it corrupts the recency list.  The lock is never held
while parsing: key normalization happens outside it, so a cache hit under
contention costs one short critical section.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ParseError
from repro.lexing import OQL, tokenize


@dataclass
class _CachedPlan:
    plan: Any
    schema_version: int


def normalize_query_text(query_text: str) -> str:
    """Canonical cache key for ``query_text``: the parsed AST printed back.

    Parsing strips comments, collapses formatting and lowercases keywords
    while preserving the semantics (string literals, identifier case), so
    ``SELECT x FROM x IN person // hot path`` and ``select x from x in
    person`` key the same slot.  Unparseable text falls back to its tokens'
    source spans joined by one space (whitespace inside a string literal
    stays significant), and to the raw text if it does not even tokenize.
    Shared by the plan cache and the answer cache
    (:mod:`repro.runtime.answercache`), so both key the same canonical form
    and their hit/miss counters are directly comparable.
    """
    from repro.oql.parser import parse_query  # local: oql must not depend on optimizer

    try:
        return parse_query(query_text).to_oql()
    except ParseError:
        pass
    try:
        tokens = tokenize(OQL, query_text)
    except ParseError:
        return query_text
    return " ".join(query_text[token.offset : token.end] for token in tokens[:-1])


#: plans a :class:`PlanCache` keeps before evicting the least recently used
PLAN_CACHE_CAPACITY = 128


@dataclass
class PlanCache:
    """A small query-text -> optimized-plan LRU cache (thread-safe)."""

    _entries: OrderedDict[str, _CachedPlan] = field(default_factory=OrderedDict)
    #: memo of text -> canonical key, so repeated queries skip the parse
    _keys: dict[str, str] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    #: entries pushed out by the LRU policy (capacity pressure, not staleness).
    evictions: int = 0

    def __post_init__(self) -> None:
        # RLock, not Lock: get()/put() are called from every serving thread.
        self._lock = threading.RLock()

    def known_key(self, query_text: str) -> str | None:
        """The canonical key memoized for ``query_text``, or None on first sight."""
        with self._lock:
            return self._keys.get(query_text)

    def learn_key(self, query_text: str, key: str) -> str:
        """Memoize ``key`` -- ``parse_query(query_text).to_oql()`` -- for ``query_text``.

        For the caller that has parsed the text already.  Returns ``key``.
        """
        with self._lock:
            if len(self._keys) >= 4 * PLAN_CACHE_CAPACITY:
                self._keys.clear()
            self._keys[query_text] = key
        return key

    def _key_for(self, query_text: str) -> str:
        key = self.known_key(query_text)
        if key is not None:
            return key
        # Parse outside the lock: normalization is the expensive part, and
        # two threads racing the same text derive the same key anyway.
        return self.learn_key(query_text, normalize_query_text(query_text))

    def get(self, query_text: str, schema_version: int, key: str | None = None) -> Any | None:
        """Return the cached plan, or None when absent or stale.

        ``key`` is the text's canonical key when the caller already holds it.
        """
        if key is None:
            key = self._key_for(query_text)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            if entry.schema_version != schema_version:
                del self._entries[key]
                self.invalidations += 1
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry.plan

    def put(
        self, query_text: str, schema_version: int, plan: Any, key: str | None = None
    ) -> None:
        """Store a plan built under ``schema_version`` (``key`` as in :meth:`get`)."""
        if key is None:
            key = self._key_for(query_text)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            elif len(self._entries) >= PLAN_CACHE_CAPACITY:
                # Evict the least recently used entry to stay within capacity.
                self._entries.popitem(last=False)
                self.evictions += 1
            self._entries[key] = _CachedPlan(plan=plan, schema_version=schema_version)

    def clear(self) -> None:
        """Drop every cached plan."""
        with self._lock:
            self._entries.clear()
            self._keys.clear()

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
