"""The weighted-fair queue the serving layer schedules with, and its verdicts.

One long-lived mediator serving many concurrent clients needs a **bounded
wait queue** -- beyond a depth limit new work is *rejected* immediately (the
caller gets a verdict, not a hang), so memory stays bounded under overload --
and **weighted-fair scheduling** -- the next query is chosen by stride
scheduling over priority classes, so a flood of low-priority queries cannot
starve a high-priority one.  :class:`FairQueue` is both; the in-flight budget
(the worker count), the deadline accounting and the counters live with its
one user, :class:`repro.serving.MediatorServer`.

Lock discipline: the queue owns one :class:`threading.Condition` guarding
all of its mutable state; no call path holds it while blocking on anything
except the condition itself, and it never calls out to user code under the
lock.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque

from repro.errors import AdmissionError

#: Admission verdicts, as carried by :class:`AdmissionError` and the serving
#: layer's per-query reports.
ADMITTED = "admitted"
REJECTED = "rejected"
QUEUE_TIMEOUT = "queue timeout"
CLOSED = "closed"


class QueueClosed(AdmissionError):
    """The queue was closed while the caller was waiting on it."""

    def __init__(self, message: str = "admission queue closed"):
        super().__init__(message, verdict=CLOSED)


@dataclass
class _PriorityClass:
    """Book-keeping for one priority weight inside a :class:`FairQueue`."""

    weight: float
    entries: Deque[Any] = field(default_factory=deque)
    #: stride-scheduling pass value: advanced by ``1 / weight`` per pop, so
    #: a class of weight 3 is chosen three times as often as a class of
    #: weight 1 when both have work queued.
    pass_value: float = 0.0


class FairQueue:
    """A bounded, thread-safe queue with weighted-fair ordering.

    ``push(item, priority)`` enqueues FIFO *within* its priority class and
    raises :class:`AdmissionError` (verdict ``"rejected"``) when the queue
    is at capacity.  ``pop`` returns the next item by stride scheduling
    across the non-empty classes: each pop advances the chosen class's pass
    value by ``1 / priority``, and the non-empty class with the smallest
    pass value wins.  A class that was idle re-enters at the current virtual
    time (the minimum active pass), so sleeping does not bank credit.
    """

    def __init__(self, capacity: int | None = None):
        if capacity is not None and capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self._condition = threading.Condition()
        self._classes: dict[float, _PriorityClass] = {}
        self._size = 0
        self._closed = False
        #: high-water mark of the queue depth (serving-layer statistics).
        self.max_depth = 0

    def __len__(self) -> int:
        with self._condition:
            return self._size

    def push(self, item: Any, priority: float = 1.0) -> None:
        """Enqueue ``item``; raise (verdict ``rejected``) when full or closed."""
        if priority <= 0:
            raise ValueError("priority must be positive")
        with self._condition:
            if self._closed:
                raise QueueClosed()
            if self.capacity is not None and self._size >= self.capacity:
                raise AdmissionError(
                    f"admission queue full ({self._size} waiting)", verdict=REJECTED
                )
            entry_class = self._classes.get(priority)
            if entry_class is None:
                entry_class = self._classes[priority] = _PriorityClass(weight=priority)
            if not entry_class.entries:
                # Re-entering after idling: no banked credit -- start at the
                # current virtual time so fairness is measured while active.
                active = [
                    c.pass_value for c in self._classes.values() if c.entries
                ]
                if active:
                    entry_class.pass_value = max(entry_class.pass_value, min(active))
            entry_class.entries.append(item)
            self._size += 1
            self.max_depth = max(self.max_depth, self._size)
            self._condition.notify()

    def pop(self, timeout: float | None = None) -> Any:
        """Dequeue the next item by weighted-fair order.

        Blocks up to ``timeout`` seconds; raises :class:`QueueClosed` once
        the queue is closed *and* drained, and ``TimeoutError`` when the
        wait expires with nothing available.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._condition:
            while self._size == 0:
                if self._closed:
                    raise QueueClosed()
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise TimeoutError("fair queue pop timed out")
                self._condition.wait(remaining)
            chosen = min(
                (c for c in self._classes.values() if c.entries),
                key=lambda c: c.pass_value,
            )
            chosen.pass_value += 1.0 / chosen.weight
            self._size -= 1
            return chosen.entries.popleft()

    def close(self) -> list[Any]:
        """Close the queue; return (and drop) everything still queued."""
        with self._condition:
            self._closed = True
            drained: list[Any] = []
            for entry_class in self._classes.values():
                drained.extend(entry_class.entries)
                entry_class.entries.clear()
            self._size = 0
            self._condition.notify_all()
            return drained
