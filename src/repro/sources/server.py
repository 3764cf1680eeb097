"""The simulated data-source server.

A :class:`SimulatedServer` stands between a wrapper and the store it exposes:
every call goes through the availability model (possibly raising
:class:`~repro.errors.UnavailableSourceError`) and through the latency model
(optionally really sleeping, always accounting the simulated time).  Wrappers
never bypass it, so the mediator sees remote sources exactly as the paper's
mediator does: as things that may be slow or silent.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.errors import UnavailableSourceError
from repro.runtime import cancellation
from repro.sources.network import AvailabilityModel, NetworkProfile


@dataclass
class ServerStatistics:
    """Counters accumulated by one simulated server."""

    requests: int = 0
    failures: int = 0
    rows_returned: int = 0
    simulated_seconds: float = 0.0


@dataclass
class SimulatedServer:
    """One remote host: a store plus network and availability behaviour."""

    name: str
    store: Any
    network: NetworkProfile = field(default_factory=NetworkProfile.instant)
    availability: AvailabilityModel = field(default_factory=AvailabilityModel)
    real_sleep: bool = False
    statistics: ServerStatistics = field(default_factory=ServerStatistics)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    # -- control -----------------------------------------------------------------
    def take_down(self) -> None:
        """Make the server unavailable (hard switch)."""
        self.availability.set_available(False)

    def bring_up(self) -> None:
        """Make the server available again."""
        self.availability.set_available(True)

    def is_up(self) -> bool:
        """Return True when the hard availability switch is on."""
        return self.availability.available

    # -- the request path -------------------------------------------------------------
    def call(self, operation: Callable[[Any], Any]) -> Any:
        """Run ``operation(store)`` as one remote request.

        Applies the availability check first (an unavailable source never does
        work), runs the operation, then charges the latency of shipping the
        result back.  Returns the operation's result unchanged.

        A kill armed via :meth:`AvailabilityModel.kill_after` lets the call
        succeed but returns a lazy stream that raises after the armed number
        of rows -- the mid-stream death the streaming engine must recover
        from.  Latency is charged only for the rows delivered before the
        death.

        The latency sleep checks the caller's cooperative-cancellation event
        (see :mod:`repro.runtime.cancellation`): when the mediator writes the
        call off -- deadline expired, query aborted, ``limit`` satisfied --
        the sleep ends immediately and the call raises
        :class:`UnavailableSourceError` instead of holding its worker thread
        for the full simulated latency.
        """
        if cancellation.cancelled():
            raise UnavailableSourceError(self.name, f"{self.name!r}: call cancelled by mediator")
        with self._lock:
            self.statistics.requests += 1
            try:
                self.availability.check(self.name)
            except Exception:
                self.statistics.failures += 1
                raise
        result = operation(self.store)
        sized_count = len(result) if isinstance(result, (list, tuple)) else None
        row_count = sized_count or 0
        with self._lock:
            kill = self.availability.take_kill()
        if kill is not None:
            kill_rows, kill_exc = kill
            result = self._die_after(result, kill_rows, kill_exc)
            # Charge only the rows that cross the wire before the death.  A
            # lazy cursor's length is unknown without draining it, so the
            # kill point is the best estimate; a cursor that ends sooner is
            # (slightly) overcharged.
            row_count = min(sized_count, kill_rows) if sized_count is not None else kill_rows
        delay = self.network.delay_for(row_count)
        with self._lock:
            self.statistics.rows_returned += row_count
            self.statistics.simulated_seconds += delay
        if self.real_sleep and delay > 0:
            if cancellation.sleep(delay):
                raise UnavailableSourceError(
                    self.name, f"{self.name!r}: call cancelled by mediator"
                )
        return result

    def _die_after(
        self, rows: Any, count: int, exception: BaseException | type | None
    ) -> Iterator[Any]:
        """Wrap ``rows`` into a stream that raises after ``count`` rows."""

        def stream() -> Iterator[Any]:
            delivered = 0
            for row in iter(rows):
                if delivered >= count:
                    if isinstance(exception, BaseException):
                        raise exception
                    if exception is not None:
                        raise exception(
                            f"{self.name!r}: connection lost after {count} rows"
                        )
                    raise UnavailableSourceError(
                        self.name, f"{self.name!r}: connection lost after {count} rows"
                    )
                delivered += 1
                yield row

        return stream()

    def reset_statistics(self) -> None:
        """Zero the accumulated counters."""
        with self._lock:
            self.statistics = ServerStatistics()
