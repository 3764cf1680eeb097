"""Spans recorded from outside the program, around calls into each layer.

The tracer replaces bound methods on *live instances* (and one module-level
name) with timing shims, keeps the spans in memory and hands them back when
the run ends; nothing under ``src/`` knows it exists.  In-program stage
timers are a later issue.

A span is ``(name, start, end, parent, query)``.  Same-thread calls get their
caller's span as parent; a span opened on a pool thread has none until
:func:`attach_orphans` gives it the innermost client-thread span that contains
it in time (sound only while one client runs at a time).  A re-entrant call
(``CostModel.estimate`` recurses) opens one span and bumps its ``calls``.
Self time is duration minus the *union* of the child intervals: wrapper calls
overlap on pool threads, and summing them would subtract the same instant
twice.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_right
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator

Interval = tuple[float, float]


class Span:
    __slots__ = ("name", "start", "end", "parent", "query", "thread", "calls", "tag", "rows", "error")

    def __init__(self, name: str, parent: "Span | None", query: int | None, thread: int):
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.parent = parent
        self.query = query
        self.thread = thread
        #: entries into the wrapped callable while this span was open (>1 = re-entrant)
        self.calls = 1
        self.tag: str | None = None
        self.rows: int | None = None
        #: type name of the exception the call raised, if it did
        self.error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs timing shims and collects the spans they record."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: wrap points that no longer exist (reported, never a crash)
        self.absent: list[str] = []
        self._local = threading.local()
        self._patched: list[tuple[Any, str, bool, Any]] = []
        self._queries = 0
        self._lock = threading.Lock()

    # -- installing -----------------------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attribute: str,
        name: str,
        tag: Callable[..., str | None] | None = None,
        root: bool = False,
    ) -> bool:
        """Shim ``owner.attribute`` so that each call records a span ``name``.

        ``owner`` is an instance (the bound method is shadowed by an instance
        attribute) or a module.  ``root`` marks the calls that start a query:
        they draw a fresh query id, inherited by every span beneath them.
        Returns False -- and notes the name in :attr:`absent` -- when the
        attribute does not exist.
        """
        original = getattr(owner, attribute, None) if owner is not None else None
        if original is None or not callable(original):
            self.absent.append(name)
            return False
        had_own = attribute in getattr(owner, "__dict__", {})
        self._patched.append((owner, attribute, had_own, original))
        setattr(owner, attribute, self._shim(original, name, tag, root))
        return True

    def restore(self) -> None:
        """Remove every shim, newest first."""
        while self._patched:
            owner, attribute, had_own, original = self._patched.pop()
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    def _state(self) -> "_ThreadState":
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            return state

    def _next_query(self) -> int:
        with self._lock:
            self._queries += 1
            return self._queries

    def _shim(self, original: Callable, name: str, tag, root: bool) -> Callable:
        clock = time.perf_counter
        spans = self.spans
        state_of = self._state

        def shim(*args, **kwargs):
            state = state_of()
            running = state.open
            span = running.get(name)
            if span is not None:
                span.calls += 1
                return original(*args, **kwargs)
            stack = state.stack
            parent = stack[-1] if stack else None
            query = parent.query if parent is not None else self._next_query() if root else None
            span = running[name] = Span(name, parent, query, state.ident)
            if tag is not None:
                span.tag = tag(*args, **kwargs)
            stack.append(span)
            span.start = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
                del running[name]
                spans.append(span)  # list.append is atomic under the GIL
            span.rows = _sized(result)
            return result

        return shim

    @contextmanager
    def span(self, name: str, root: bool = False) -> Iterator[Span]:
        """A span the benchmark opens itself, around one client operation."""
        state = self._state()
        parent = state.stack[-1] if state.stack else None
        query = parent.query if parent is not None else self._next_query() if root else None
        span = Span(name, parent, query, state.ident)
        state.stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            state.stack.pop()
            self.spans.append(span)


class _ThreadState:
    """One thread's open spans: the call stack and, by name, the re-entrancy guard."""

    __slots__ = ("stack", "open", "ident")

    def __init__(self) -> None:
        self.stack: list[Span] = []
        self.open: dict[str, Span] = {}
        self.ident = threading.get_ident()


def _sized(result: Any) -> int | None:
    """Row count of a wrapper/server reply when it is known without draining."""
    if isinstance(result, (list, tuple)):
        return len(result)
    return getattr(result, "sized", None)


# -- interval arithmetic ------------------------------------------------------------------


def merge(intervals: Iterable[Interval]) -> list[Interval]:
    """The union of ``intervals`` as sorted, disjoint intervals."""
    merged: list[Interval] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        elif end > start:
            merged.append((start, end))
    return merged


def union_length(intervals: Iterable[Interval]) -> float:
    return sum(end - start for start, end in merge(intervals))


def clipped(intervals: Iterable[Interval], window: Interval) -> list[Interval]:
    low, high = window
    return [(max(s, low), min(e, high)) for s, e in intervals if e > low and s < high]


def self_time(span: Span, children: Iterable[Span], busy: list[Interval] = ()) -> float:
    """``span``'s duration minus the part its children cover (as a union).

    ``busy`` are further intervals to leave out, already merged and sorted:
    the time pool threads spent in calls this span was waiting for.
    """
    window = (span.start, span.end)
    covering = [(c.start, c.end) for c in children]
    if busy:
        first = bisect_right(busy, (span.start,)) - 1
        for index in range(max(first, 0), len(busy)):
            if busy[index][0] >= span.end:
                break
            covering.append(busy[index])
    return span.duration - union_length(clipped(covering, window))


def children_of(spans: Iterable[Span]) -> dict[int, list[Span]]:
    """Child spans by ``id(parent)``."""
    index: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            index.setdefault(id(span.parent), []).append(span)
    return index


def attach_orphans(spans: list[Span], client_threads: set[int]) -> int:
    """Parent each pool-thread root span by time containment.

    The parent is the innermost client-thread span whose interval contains
    the orphan's; the orphan (and its subtree) inherits that span's query id.
    Only sound while a single client runs.  Returns how many were attached.
    """
    client = sorted((s for s in spans if s.thread in client_threads), key=lambda s: s.start)
    starts = [s.start for s in client]
    subtree = children_of(spans)
    attached = 0
    for orphan in spans:
        if orphan.parent is not None or orphan.thread in client_threads:
            continue
        # Client spans nest, so walking back from the last one that started
        # before the orphan meets the innermost container first.
        index = bisect_right(starts, orphan.start) - 1
        while index >= 0:
            candidate = client[index]
            if candidate.end >= orphan.end:
                orphan.parent = candidate
                _inherit_query(orphan, candidate.query, subtree)
                attached += 1
                break
            index -= 1
    return attached


def _inherit_query(span: Span, query: int | None, subtree: dict[int, list[Span]]) -> None:
    span.query = query
    for child in subtree.get(id(span), ()):
        _inherit_query(child, query, subtree)


def to_json(spans: list[Span]) -> list[list[Any]]:
    """Spans as rows ``[id, name, start, end, parent id, query, calls, tag, rows, error]``."""
    ids = {id(span): index for index, span in enumerate(spans)}
    return [
        [
            index,
            span.name,
            span.start,
            span.end,
            ids.get(id(span.parent)) if span.parent is not None else None,
            span.query,
            span.calls,
            span.tag,
            span.rows,
            span.error,
        ]
        for index, span in enumerate(spans)
    ]
