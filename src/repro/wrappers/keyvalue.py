"""Wrapper for the key-value store: the least capable data source.

Only ``get(collection)`` is supported, so every selection, projection and
join involving this source must run at the mediator -- the situation the
paper's default cost model and capability grammar are designed to handle.
The ``get`` is evaluated like every store wrapper's pushdown
(:meth:`~repro.wrappers.base.StoreWrapper._execute`).
"""

from __future__ import annotations

from repro.algebra.capabilities import CapabilitySet
from repro.sources.server import SimulatedServer
from repro.wrappers.base import StoreWrapper


class KeyValueWrapper(StoreWrapper):
    """Wrapper over a :class:`KeyValueStore` hosted by a simulated server."""

    def __init__(self, name: str, server: SimulatedServer):
        super().__init__(name, server, CapabilitySet.get_only())
