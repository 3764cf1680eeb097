"""Wrapper for the file-backed CSV source: ``get`` and ``project`` only.

What it is pushed is evaluated over the whole file, read in one server call
(:meth:`~repro.wrappers.base.StoreWrapper._execute`).
"""

from __future__ import annotations

from repro.algebra.capabilities import CapabilitySet
from repro.sources.server import SimulatedServer
from repro.wrappers.base import StoreWrapper


class CsvWrapper(StoreWrapper):
    """Wrapper over a :class:`~repro.sources.CsvStore` hosted by a simulated server."""

    def __init__(self, name: str, server: SimulatedServer):
        super().__init__(name, server, CapabilitySet.of("get", "project"))
