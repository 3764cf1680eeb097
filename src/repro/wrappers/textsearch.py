"""Wrapper for the WAIS-like text-search source.

The source understands ``get`` (scan a collection) and a restricted ``select``
-- equality of a string field against a constant, mapped onto keyword search.
Operators do not compose (a select applies directly to a collection), which
exercises the paper's non-composing capability grammar.
"""

from __future__ import annotations

from repro.algebra.capabilities import CapabilitySet
from repro.algebra.expressions import Comparison, Const, Path, Var
from repro.algebra.logical import Get, LogicalOp, Select
from repro.errors import WrapperError
from repro.sources.server import SimulatedServer
from repro.sources.text_store import TextStore
from repro.wrappers.base import Row, Wrapper


class TextSearchWrapper(Wrapper):
    """Wrapper over a :class:`TextStore` hosted by a simulated server."""

    def __init__(self, name: str, server: SimulatedServer):
        super().__init__(name, CapabilitySet.of("get", "select", compose=False))
        self.server = server

    def _execute(self, expression: LogicalOp) -> list[Row]:
        if isinstance(expression, Get):
            collection = expression.collection
            return self.server.call(lambda store: store.scan(collection))
        if isinstance(expression, Select) and isinstance(expression.child, Get):
            collection = expression.child.collection
            keyword_predicate = self._keyword_predicate(expression)
            if keyword_predicate is not None:
                keywords, field = keyword_predicate
                rows = self.server.call(lambda store: store.search(collection, keywords))
                # Keyword search is a superset match (any field); re-check the
                # exact field equality locally at the source.
                return [row for row in rows if row.get(field) == keywords]
            # Predicates with no keyword translation (numeric comparisons,
            # boolean combinations) are still evaluated at the source, but by
            # scanning: one round trip, no index assistance.
            rows = self.server.call(lambda store: store.scan(collection))
            variable = expression.variable
            holds = expression.predicate.compile()
            return [row for row in rows if holds({variable: row})]
        raise WrapperError(
            f"text-search wrapper {self.name!r} cannot evaluate {expression.to_text()}"
        )

    def _keyword_predicate(self, select: Select) -> tuple[str, str] | None:
        predicate = select.predicate
        if (
            isinstance(predicate, Comparison)
            and predicate.op == "="
            and isinstance(predicate.left, Path)
            and isinstance(predicate.left.base, Var)
            and isinstance(predicate.right, Const)
            and isinstance(predicate.right.value, str)
        ):
            return predicate.right.value, predicate.left.attribute
        return None

    def source_collections(self) -> list[str]:
        store: TextStore = self.server.store
        return store.collection_names()

    def source_attributes(self, collection: str) -> list[str]:
        store: TextStore = self.server.store
        if collection not in store.collection_names():
            return []
        rows = store.scan(collection)
        return list(rows[0]) if rows else []

    def cardinality(self, collection: str) -> int | None:
        store: TextStore = self.server.store
        if collection not in store.collection_names():
            return None
        return store.cardinality(collection)
