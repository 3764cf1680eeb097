"""Wrapper for the file-backed CSV source: ``get`` and ``project`` only."""

from __future__ import annotations

from repro.algebra.capabilities import CapabilitySet
from repro.algebra.logical import Get, LogicalOp, Project
from repro.errors import WrapperError
from repro.sources.server import SimulatedServer
from repro.wrappers.base import Row, StoreWrapper


class CsvWrapper(StoreWrapper):
    """Wrapper over a :class:`~repro.sources.CsvStore` hosted by a simulated server."""

    def __init__(self, name: str, server: SimulatedServer):
        super().__init__(name, server, CapabilitySet.of("get", "project"))

    def _execute(self, expression: LogicalOp) -> list[Row]:
        if isinstance(expression, Get):
            collection = expression.collection
            return self.server.call(lambda store: store.scan(collection))
        if isinstance(expression, Project) and isinstance(expression.child, Get):
            collection = expression.child.collection
            columns = list(expression.attributes)
            return self.server.call(lambda store: store.scan(collection, columns=columns))
        raise WrapperError(
            f"csv wrapper {self.name!r} cannot evaluate {expression.to_text()}"
        )
