"""Wrapper for relational-engine data sources.

The whole pushed expression is evaluated inside one simulated server call
(:meth:`~repro.wrappers.base.StoreWrapper._execute`), matching the RPC
semantics of the ``submit`` operator: one ``exec`` equals one round trip to
the source, however much work was pushed.
"""

from __future__ import annotations

from repro.algebra.capabilities import CapabilitySet
from repro.sources.relational_engine import RelationalEngine
from repro.sources.server import SimulatedServer
from repro.wrappers.base import RESUME_REPLAY, StoreWrapper


class RelationalWrapper(StoreWrapper):
    """Wrapper over a :class:`RelationalEngine` hosted by a simulated server.

    The capability set is configurable, which is how the experiments model
    servers of different querying power backed by the same storage engine.

    The engine's scan order is stable, so the wrapper declares ``replay``
    resume support: after a mid-stream death the mediator re-runs the same
    expression and skips the rows it already delivered.
    """

    resume_support = RESUME_REPLAY

    def __init__(
        self,
        name: str,
        server: SimulatedServer,
        capabilities: CapabilitySet | None = None,
    ):
        super().__init__(name, server, capabilities or CapabilitySet.full())

    # -- meta-data: the engine's catalog -------------------------------------------------
    def source_collections(self) -> list[str]:
        engine: RelationalEngine = self.server.store
        return engine.table_names()

    def source_attributes(self, collection: str) -> list[str]:
        engine: RelationalEngine = self.server.store
        if not engine.has_table(collection):
            return []
        return engine.table(collection).column_names()

    def cardinality(self, collection: str) -> int | None:
        engine: RelationalEngine = self.server.store
        if not engine.has_table(collection):
            return None
        return engine.cardinality(collection)
