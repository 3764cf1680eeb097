"""A mediator configuration that never pushes work to data sources.

Wrapping every wrapper in :class:`GetOnlyWrapper` makes its capability
grammar advertise only ``get``, so the optimizer cannot push selections,
projections or joins: every row travels to the mediator and all work happens
there.  It is the zero point against which the benefit of DISCO's
capability-aware push-down (paper Section 3.2) is counted in rows shipped.
"""

from __future__ import annotations

from typing import Iterable

from repro.algebra.capabilities import CapabilitySet
from repro.algebra.logical import LogicalOp
from repro.wrappers.base import Row, Wrapper


class GetOnlyWrapper(Wrapper):
    """Delegate ``get`` to an inner wrapper; refuse everything else."""

    def __init__(self, inner: Wrapper):
        super().__init__(f"{inner.name}-get-only", CapabilitySet.get_only())
        self.inner = inner
        # Stripping capabilities does not change how the source's cursor
        # behaves: mid-stream resume support passes through.
        self.resume_support = inner.resume_support

    def _execute(self, expression: LogicalOp) -> Iterable[Row]:
        # Only a get passed the submit-time grammar gate; the inner
        # source's laziness passes through to the streaming engine.
        return self.inner.submit_stream(expression)

    def source_collections(self) -> list[str]:
        return self.inner.source_collections()

    def source_attributes(self, collection: str) -> list[str]:
        return self.inner.source_attributes(collection)

    def cardinality(self, collection: str) -> int | None:
        return self.inner.cardinality(collection)

