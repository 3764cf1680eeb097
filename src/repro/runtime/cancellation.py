"""Cooperative cancellation of in-flight exec calls.

A timed-out or no-longer-needed exec call cannot be killed from outside --
its worker thread may be sleeping inside a simulated server's latency model
or waiting on a real socket.  Instead the dispatcher *signals* cancellation
through a :class:`threading.Event`, and the blocking primitives on the call
path check it cooperatively:

* the exec engine creates one event per exec call and sets it when the call
  is written off (deadline expiry, query abort, ``close()``, or a satisfied
  ``limit``);
* the worker thread installs its event in a thread-local slot around the
  wrapper round trip (:func:`activate`) -- including mid-stream *reopens*,
  which run on the consumer thread but must still wake when the call is
  written off;
* anything downstream that would block -- the simulated server's latency
  sleep, a retry backoff, the pre-reopen backoff of a mid-stream resume --
  calls :func:`sleep` / :func:`cancelled` instead of :func:`time.sleep`, and
  returns early when the event fires.

This is what keeps the shared worker pool free of zombie threads under
sustained timeouts: a cancelled call stops sleeping immediately instead of
serving out its full simulated latency.

The module is dependency-free on purpose: the *sources* layer may import it
without pulling in the executor.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Iterator

_local = threading.local()


@contextlib.contextmanager
def activate(event: threading.Event | None) -> Iterator[None]:
    """Install ``event`` as the current call's cancellation signal."""
    previous = getattr(_local, "event", None)
    _local.event = event
    try:
        yield
    finally:
        _local.event = previous


def current_event() -> threading.Event | None:
    """The cancellation event of the call running on this thread, if any."""
    return getattr(_local, "event", None)


def cancelled() -> bool:
    """True when the call running on this thread has been cancelled."""
    event = current_event()
    return event is not None and event.is_set()


def sleep(seconds: float) -> bool:
    """Sleep up to ``seconds``; return True when woken early by cancellation."""
    if seconds <= 0:
        return cancelled()
    event = current_event()
    if event is None:
        time.sleep(seconds)
        return False
    return event.wait(seconds)
