"""Wrapper for the WAIS-like text-search source.

The source understands ``get`` (scan a collection) and a restricted ``select``
-- equality of a string field against a constant, mapped onto keyword search.
Operators do not compose (a select applies directly to a collection), which
exercises the paper's non-composing capability grammar.  Every other pushed
tree is evaluated like every store wrapper's pushdown
(:meth:`~repro.wrappers.base.StoreWrapper._execute`).
"""

from __future__ import annotations

from repro.algebra.capabilities import CapabilitySet
from repro.algebra.expressions import Comparison, Const, Path, Var
from repro.algebra.logical import Get, LogicalOp, Select
from repro.sources.server import SimulatedServer
from repro.wrappers.base import Row, StoreWrapper


class TextSearchWrapper(StoreWrapper):
    """Wrapper over a :class:`~repro.sources.TextStore` hosted by a simulated server."""

    def __init__(self, name: str, server: SimulatedServer):
        super().__init__(name, server, CapabilitySet.of("get", "select", compose=False))

    def _execute(self, expression: LogicalOp) -> list[Row]:
        if isinstance(expression, Select) and isinstance(expression.child, Get):
            keyword_predicate = self._keyword_predicate(expression)
            if keyword_predicate is not None:
                keywords, field = keyword_predicate
                collection = expression.child.collection
                rows = self.server.call(lambda store: store.search(collection, keywords))
                # Keyword search is a superset match (any field); re-check the
                # exact field equality locally at the source.
                return [row for row in rows if row.get(field) == keywords]
        # A get, or a predicate with no keyword translation (numeric
        # comparisons, boolean combinations): still evaluated at the source,
        # but by scanning -- one round trip, no index assistance.
        return super()._execute(expression)

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
