"""A wrapper over cursor-style data sources that yield rows lazily.

Every other wrapper answers a ``submit`` with a fully materialized list --
the RPC model of the paper, where one exec call is one round trip.  Modern
sources (database cursors, paginated HTTP APIs, log tails) instead hand out
an iterator; materializing it defeats the streaming engine's bounded-memory
and early-termination guarantees.  :class:`GeneratorWrapper` models such
sources: its ``scan`` functions return any iterable (typically a generator),
pushed-down ``select``/``project`` are applied per row as the consumer
pulls, and a consumer that stops early -- a satisfied ``limit`` -- stops the
scan instead of draining it.

The materialized :meth:`~repro.wrappers.base.Wrapper.submit` path still
works (it drains the stream), so the wrapper serves a materialising run
(``Mediator.query``) and the baselines unchanged.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

from repro.algebra.capabilities import CapabilitySet
from repro.algebra.logical import LogicalOp
from repro.errors import WrapperError
from repro.wrappers.base import AlgebraEvaluator, Row, Wrapper

ScanFactory = Callable[[], Iterable[Row]]


class GeneratorWrapper(Wrapper):
    """Expose lazily produced collections as a DISCO data source.

    ``scans`` maps collection names to zero-argument callables returning a
    fresh iterable of rows (a generator function, a cursor factory, ...).
    ``attributes`` optionally declares each collection's attribute names so
    the mediator's run-time type check can run without draining the source.

    ``resume`` declares mid-stream resume support (see
    :attr:`~repro.wrappers.base.Wrapper.resume_support`).  The default is
    ``None``: an arbitrary generator may be non-deterministic (a live feed, a
    sampling cursor), in which case replaying a half-consumed stream is not
    sound and the streaming engine keeps the write-off.  Declare
    ``"replay"`` only for scan factories that re-produce the same row
    sequence on every call.
    """

    def __init__(
        self,
        name: str,
        scans: Mapping[str, ScanFactory],
        attributes: Mapping[str, Sequence[str]] | None = None,
        capabilities: CapabilitySet | None = None,
        resume: str | None = None,
    ):
        super().__init__(
            name,
            capabilities or CapabilitySet.full(),
        )
        self._scans = dict(scans)
        self._attributes = {k: list(v) for k, v in (attributes or {}).items()}
        self._evaluator = AlgebraEvaluator(scan=self._scan)
        self.resume_support = resume

    def _scan(self, collection: str) -> Iterable[Row]:
        factory = self._scans.get(collection)
        if factory is None:
            raise WrapperError(f"{self.name!r} exposes no collection {collection!r}")
        return factory()

    # -- execution -----------------------------------------------------------------------
    def _execute(self, expression: LogicalOp) -> Iterable[Row]:
        return self._evaluator.evaluate_stream(expression)

    # -- meta-data ------------------------------------------------------------------------
    def source_collections(self) -> list[str]:
        return sorted(self._scans)

    def source_attributes(self, collection: str) -> list[str]:
        return list(self._attributes.get(collection, []))
