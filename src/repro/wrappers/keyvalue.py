"""Wrapper for the key-value store: the least capable data source.

Only ``get(collection)`` is supported, so every selection, projection and
join involving this source must run at the mediator -- the situation the
paper's default cost model and capability grammar are designed to handle.
"""

from __future__ import annotations

from repro.algebra.capabilities import CapabilitySet
from repro.algebra.logical import Get, LogicalOp
from repro.errors import WrapperError
from repro.sources.keyvalue_store import KeyValueStore
from repro.sources.server import SimulatedServer
from repro.wrappers.base import Row, StoreWrapper


class KeyValueWrapper(StoreWrapper):
    """Wrapper over a :class:`KeyValueStore` hosted by a simulated server."""

    def __init__(self, name: str, server: SimulatedServer):
        super().__init__(name, server, CapabilitySet.get_only())

    def _execute(self, expression: LogicalOp) -> list[Row]:
        if not isinstance(expression, Get):
            raise WrapperError(
                f"key-value wrapper {self.name!r} only evaluates get(collection)"
            )
        collection = expression.collection

        def run(store: KeyValueStore) -> list[Row]:
            return store.scan(collection)

        return self.server.call(run)
