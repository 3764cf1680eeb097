"""Simulated network behaviour: latency and availability.

The two properties of 1995 wide-area data sources that DISCO's mechanisms
react to are (a) how long a call takes -- which drives the learned cost model
of Section 3.3 -- and (b) whether the source answers at all -- which drives
the partial-evaluation semantics of Section 4.  Both are modelled explicitly
and deterministically (seeded) so experiments are repeatable.

Lock discipline: one lock per model instance, guarding the seeded generator
and the armed-failure lists -- with concurrent queries (the serving layer,
the concurrency bench) many exec workers hit the same source model at once,
and an unguarded ``random.Random`` or a list popped by two threads corrupts
the injection schedule.  Under concurrency the *order* in which workers draw
from the generator is scheduling-dependent, so cross-run repeatability is
per-draw-set, not per-draw -- same multiset of delays, different assignment.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field

from repro.errors import UnavailableSourceError


@dataclass
class NetworkProfile:
    """Latency model for one source: ``base + per_row * rows`` seconds, plus jitter."""

    base_latency: float = 0.0
    per_row_latency: float = 0.0
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)
        self._lock = threading.Lock()

    def delay_for(self, row_count: int = 0) -> float:
        """Return the simulated transfer delay for a reply of ``row_count`` rows."""
        delay = self.base_latency + self.per_row_latency * max(row_count, 0)
        if self.jitter > 0:
            with self._lock:
                delay += self._rng.uniform(0, self.jitter)
        return max(delay, 0.0)

    @classmethod
    def instant(cls) -> "NetworkProfile":
        """A zero-latency profile (unit tests, logic-only experiments)."""
        return cls()

    @classmethod
    def lan(cls, seed: int = 0) -> "NetworkProfile":
        """A fast local-network profile."""
        return cls(base_latency=0.0005, per_row_latency=0.000001, jitter=0.0002, seed=seed)

    @classmethod
    def wan(cls, seed: int = 0) -> "NetworkProfile":
        """A slow wide-area profile, the setting the paper worries about."""
        return cls(base_latency=0.005, per_row_latency=0.00001, jitter=0.002, seed=seed)


@dataclass
class AvailabilityModel:
    """Whether a source answers a given request.

    Five mechanisms, combinable:

    * ``available`` -- a hard switch (the DBA took the source down);
    * ``failure_probability`` -- each request independently fails with this
      probability, drawn from a seeded generator;
    * ``fail_next(n)`` -- force the next ``n`` requests to fail (failure
      injection for tests and the partial-answer experiments);
    * ``crash_next(exc, n)`` -- force the next ``n`` requests to raise an
      *arbitrary* exception instead of the clean
      :class:`~repro.errors.UnavailableSourceError`, modelling sources that
      die mid-flight (connection reset, bad row, wrapper bug) rather than
      refusing service;
    * ``kill_after(rows, n)`` -- let the next ``n`` requests *succeed*, then
      kill the returned row stream after ``rows`` rows have been delivered:
      the mid-stream death (dropped connection, lost cursor) that exercises
      the streaming engine's reopen of a ``replay`` wrapper, which skips the
      rows already delivered.
    """

    available: bool = True
    failure_probability: float = 0.0
    seed: int = 0
    _forced_failures: int = field(default=0, repr=False)
    _forced_crashes: list = field(default_factory=list, repr=False)
    _forced_kills: list = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.failure_probability <= 1.0:
            raise ValueError("failure_probability must be within [0, 1]")
        self._rng = random.Random(self.seed)
        self._lock = threading.Lock()

    def fail_next(self, count: int = 1) -> None:
        """Force the next ``count`` requests to be treated as unavailable."""
        with self._lock:
            self._forced_failures += count

    def crash_next(self, exception: BaseException | type, count: int = 1) -> None:
        """Force the next ``count`` requests to raise ``exception``.

        Accepts an exception instance (raised as-is) or an exception class
        (instantiated with a descriptive message per request).  Unlike
        :meth:`fail_next`, the raised error is *not* an
        :class:`UnavailableSourceError` -- this is the hook for testing that
        the mediator isolates generic wrapper crashes.
        """
        with self._lock:
            self._forced_crashes.extend([exception] * count)

    def kill_after(
        self, rows: int, exception: BaseException | type | None = None, count: int = 1
    ) -> None:
        """Arm the next ``count`` requests to die after delivering ``rows`` rows.

        The request itself succeeds (the availability check passes and the
        call returns a row stream), but the stream raises once ``rows`` rows
        have been consumed -- a source that answered and then dropped the
        connection mid-transfer.  ``exception`` follows the
        :meth:`crash_next` conventions (instance raised as-is, class
        instantiated with a message); the default is a clean
        :class:`UnavailableSourceError`.  A stream shorter than ``rows``
        never reaches the kill point and completes normally.
        """
        if rows < 0:
            raise ValueError("rows must be non-negative")
        with self._lock:
            self._forced_kills.extend([(rows, exception)] * count)

    def take_kill(self) -> tuple[int, BaseException | type | None] | None:
        """Pop the armed kill for the request being served, if any."""
        with self._lock:
            if self._forced_kills:
                return self._forced_kills.pop(0)
            return None

    def set_available(self, available: bool) -> None:
        """Flip the hard availability switch."""
        self.available = available

    def check(self, source_name: str) -> None:
        """Raise :class:`UnavailableSourceError` when this request should fail."""
        with self._lock:
            if self._forced_crashes:
                crash = self._forced_crashes.pop(0)
                if isinstance(crash, BaseException):
                    raise crash
                raise crash(f"{source_name!r}: injected crash")
            if self._forced_failures > 0:
                self._forced_failures -= 1
                raise UnavailableSourceError(
                    source_name, f"{source_name!r}: injected failure"
                )
            if not self.available:
                raise UnavailableSourceError(source_name)
            if self.failure_probability and self._rng.random() < self.failure_probability:
                raise UnavailableSourceError(
                    source_name, f"{source_name!r}: transient network failure"
                )
