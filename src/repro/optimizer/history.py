"""Learning data-source costs from previous ``exec`` calls (paper Section 3.3).

"DISCO solves this problem by recording previous exec calls to a data source
and the actual cost of the call. [...] In the case that an exec call exactly
matches a sequence of previous exec calls to a data source, a smoothing
function is used to combine the associated data to generate a new estimate.
Only a fixed number of exactly matching calls are recorded.  In the case that
the exec call does not exactly match, DISCO searches for close matches [...]
In the case that there are no close matches to the exec call, a default time
cost of 0 and a data cost of 1 is used."

A *close match* here is the paper's example: the same expression shape whose
comparison operators match but whose constants differ -- implemented by
stripping constants from the expression signature.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Deque

from repro.algebra.logical import LogicalOp

DEFAULT_TIME_COST = 0.0
DEFAULT_DATA_COST = 1.0

#: Most signatures kept per table (exact, close): a mediator fed never-seen
#: query texts would otherwise keep one deque per text for ever.  The least
#: recently recorded-or-matched signature goes first.
MAX_SIGNATURES = 4096
#: Observations kept per signature (the paper's "fixed number of exactly
#: matching calls").
WINDOW = 16
#: Weight of the newest observation when a signature's window is smoothed.
SMOOTHING = 0.5
#: Weight of the newest outcome in an extent's availability EWMA.
AVAILABILITY_SMOOTHING = 0.3


@dataclass(frozen=True)
class CostEstimate:
    """An estimated (time, rows) pair plus how it was obtained.

    ``availability`` is the extent's success EWMA read in the same critical
    section as the observations (see :meth:`ExecCallHistory.availability`).
    """

    time: float
    rows: float
    kind: str  # "exact", "close" or "default"
    samples: int = 0
    availability: float = 1.0


@dataclass(frozen=True)
class _Observation:
    elapsed: float
    rows: int


#: signature -> its last ``window`` observations, least recently used first
_SignatureTable = OrderedDict[str, Deque[_Observation]]


def exact_signature(extent_name: str, expression: LogicalOp) -> str:
    """Signature for exact matching: extent plus the full expression text."""
    return f"{extent_name}|{expression.to_text()}"


def close_signature(extent_name: str, expression: LogicalOp) -> str:
    """Signature for close matching: the constants of every select predicate
    and apply expression written as placeholders, and an ``in`` list as one
    (so every probe batch of one shape shares it), in one rendering pass."""
    return f"{extent_name}|{expression.to_text(placeholders=True)}"


def signature_pair(extent_name: str, expression: LogicalOp) -> tuple[str, str]:
    """The ``(exact, close)`` pair one observation is recorded under.

    A function of the extent name and an immutable expression: a caller that
    records the same exec call again and again (a cached plan's) builds the
    pair once and hands it to :meth:`ExecCallHistory.record`.
    """
    return exact_signature(extent_name, expression), close_signature(extent_name, expression)


class ExecCallHistory:
    """Fixed-size history of exec calls, per exact and per close signature.

    Besides the per-signature (time, rows) observations, the history keeps a
    per-*extent* availability estimate: an exponentially weighted moving
    average of call success (1.0) and failure (0.0).  The cost model uses it
    to penalize plans that depend on flaky sources -- a failure is not just
    lost time, it turns the whole answer partial.

    Fixed-size in both directions: :data:`WINDOW` observations per signature, and
    :data:`MAX_SIGNATURES` signatures per table, the least recently recorded
    or matched evicted first.  Availability is per extent and never evicted.

    Lock discipline: one history-wide lock guards every signature deque and
    the availability map, on the *read* paths too -- ``estimate`` smooths a
    deque that concurrent exec workers are appending to, and a deque mutated
    mid-iteration raises.  Calls never block inside the lock (no I/O, no
    user code), so planners and workers of concurrent queries serialize only
    for the microseconds of an append or a smoothing pass.
    """

    def __init__(self):
        self._exact: _SignatureTable = OrderedDict()
        self._close: _SignatureTable = OrderedDict()
        #: EWMA of call success per extent; absent means "never observed".
        self._availability: dict[str, float] = {}
        #: total number of failed or timed-out calls recorded
        self.failures = 0
        # Exec calls are recorded from concurrent worker threads.
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------------------------
    def record(
        self,
        extent_name: str,
        expression: LogicalOp,
        elapsed: float,
        rows: int,
        signatures: tuple[str, str] | None = None,
    ) -> None:
        """Record the outcome of one successful exec call.

        ``signatures`` is :func:`signature_pair` of the same extent and
        expression when the caller holds it already.
        """
        self._record(
            extent_name, expression, max(elapsed, 0.0), max(rows, 0), True, signatures
        )

    def record_failure(
        self,
        extent_name: str,
        expression: LogicalOp,
        elapsed: float,
        signatures: tuple[str, str] | None = None,
    ) -> None:
        """Record a failed or timed-out exec call with its true elapsed time.

        The call still cost ``elapsed`` seconds of wall clock before it
        failed, so it enters the same observation stream (with zero rows):
        the cost model learns that this source is slow or flaky instead of
        seeing the attempt as free.  The extent's availability estimate moves
        towards 0.
        """
        self._record(extent_name, expression, max(elapsed, 0.0), 0, False, signatures)

    def _record(
        self,
        extent_name: str,
        expression: LogicalOp,
        elapsed: float,
        rows: int,
        succeeded: bool,
        keys: tuple[str, str] | None,
    ) -> None:
        observation = _Observation(elapsed=elapsed, rows=rows)
        # Both signatures walk and render the expression: built before the
        # lock is taken, as in ``estimate``, so one worker's long expression
        # never holds up the other workers' appends.
        exact_key, close_key = keys or signature_pair(extent_name, expression)
        with self._lock:
            if not succeeded:
                self.failures += 1
            self._append(self._exact, exact_key, observation)
            self._append(self._close, close_key, observation)
            self._observe_availability(extent_name, succeeded)

    def _observe_availability(self, extent_name: str, succeeded: bool) -> None:
        # The caller holds ``_lock``.
        previous = self._availability.get(extent_name, 1.0)
        alpha = AVAILABILITY_SMOOTHING
        self._availability[extent_name] = (
            alpha * (1.0 if succeeded else 0.0) + (1.0 - alpha) * previous
        )

    def availability(self, extent_name: str) -> float:
        """Estimated probability (EWMA) that a call to ``extent_name`` succeeds.

        1.0 for extents never observed -- the paper's optimistic default.
        """
        with self._lock:
            return self._availability.get(extent_name, 1.0)

    def _append(self, store: _SignatureTable, key: str, observation: _Observation) -> None:
        # The caller holds ``_lock``.
        queue = store.get(key)
        if queue is None:
            if len(store) >= MAX_SIGNATURES:
                store.popitem(last=False)
            queue = store[key] = deque(maxlen=WINDOW)
        else:
            store.move_to_end(key)
        queue.append(observation)

    # -- estimation ----------------------------------------------------------------------
    def estimate(self, extent_name: str, expression: LogicalOp) -> CostEstimate:
        """Estimate the cost of an exec call from history (exact, close or default).

        The signatures are computed outside the lock (they walk the
        expression tree) and the close one only when the exact one has no
        observations; each smoothing pass runs under the lock, so a
        concurrent worker appending an observation can never mutate the deque
        mid-iteration.  The extent's availability is read in the first
        critical section and returned with the estimate.
        """
        exact_key = exact_signature(extent_name, expression)
        with self._lock:
            availability = self._availability.get(extent_name, 1.0)
            exact = self._exact.get(exact_key)
            if exact:
                self._exact.move_to_end(exact_key)
                time, rows = self._smooth(exact)
                return CostEstimate(
                    time=time, rows=rows, kind="exact", samples=len(exact), availability=availability
                )
        close_key = close_signature(extent_name, expression)
        with self._lock:
            close = self._close.get(close_key)
            if close:
                self._close.move_to_end(close_key)
                time, rows = self._smooth(close)
                return CostEstimate(
                    time=time, rows=rows, kind="close", samples=len(close), availability=availability
                )
        return CostEstimate(
            time=DEFAULT_TIME_COST,
            rows=DEFAULT_DATA_COST,
            kind="default",
            samples=0,
            availability=availability,
        )

    def _smooth(self, observations: Deque[_Observation]) -> tuple[float, float]:
        """Exponential smoothing over the recorded observations (oldest first).

        The caller holds ``_lock``: the deque is iterated in place.
        """
        smoothing = SMOOTHING
        oldest_first = iter(observations)
        first = next(oldest_first)
        time_estimate = first.elapsed
        rows_estimate = float(first.rows)
        for observation in oldest_first:
            time_estimate = smoothing * observation.elapsed + (1 - smoothing) * time_estimate
            rows_estimate = smoothing * observation.rows + (1 - smoothing) * rows_estimate
        return time_estimate, rows_estimate

    # -- inspection ----------------------------------------------------------------------
    def recorded_calls(self) -> int:
        """Total number of exact signatures currently tracked."""
        with self._lock:
            return len(self._exact)

    def clear(self) -> None:
        """Forget everything (used between experiment runs)."""
        with self._lock:
            self._exact.clear()
            self._close.clear()
            self._availability.clear()
            self.failures = 0
