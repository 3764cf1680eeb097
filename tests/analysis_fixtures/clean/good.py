"""Correct counterparts of every seeded fixture violation: zero findings."""

import threading
from dataclasses import dataclass

from repro.runtime import cancellation
from repro.runtime.backpressure import StreamClosed


class Node:
    pass


class Add(Node):
    pass


class Sub(Node):
    pass


class Leaf:
    pass


@dataclass(frozen=True, eq=False)
class Pinned(Leaf):
    value: int


def render(node):
    if isinstance(node, Add):
        return "+"
    if isinstance(node, Sub):
        return "-"
    raise ValueError(f"unrenderable node {node!r}")


class Stats:
    def __init__(self):
        self._lock = threading.Lock()
        self._aux = threading.Lock()
        self.count = 0
        self.rows = []

    def increment(self):
        with self._lock:
            self.count += 1
            self.rows.append(self.count)

    def ordered(self):
        with self._lock:
            with self._aux:
                self.count += 1

    def snapshot(self):
        with self._lock:
            rows = list(self.rows)
        yield from rows

    def backoff(self):
        cancellation.sleep(0.01)
        with self._lock:
            self.count += 1


def drain(queue):
    try:
        return queue.get()
    except StreamClosed:
        raise
    except Exception:
        return None
