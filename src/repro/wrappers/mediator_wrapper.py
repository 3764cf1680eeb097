"""Wrapper around another DISCO mediator.

This is what makes Figure 1 a *distributed* architecture: "this distributed
architecture permits DBAs to develop mediators independently and permits
mediators to be combined".  A mediator exposed through this wrapper looks to
its parent exactly like any other data source: the pushed logical expression
is turned back into OQL text (the child mediator's query language) and run
there; a complete answer comes back as rows, a partial one as unavailability.
"""

from __future__ import annotations

from typing import Any

from repro.algebra.capabilities import CapabilitySet
from repro.algebra.logical import LogicalOp
from repro.algebra.unparser import logical_to_oql
from repro.datamodel.values import Bag, Struct
from repro.errors import UnavailableSourceError, WrapperError
from repro.wrappers.base import Row, Wrapper


class MediatorWrapper(Wrapper):
    """Expose a child mediator as a data source of a parent mediator."""

    def __init__(self, name: str, mediator: Any, available: bool = True):
        # ``project`` is deliberately absent: the child mediator's OQL returns
        # bare values for single-attribute projections, which would lose the
        # record shape the parent's plan expects.  Selections push through
        # unchanged.
        super().__init__(name, CapabilitySet.of("get", "select"))
        self.mediator = mediator
        self.available = available

    def set_available(self, available: bool) -> None:
        """Simulate the child mediator (dis)appearing from the network."""
        self.available = available

    def _execute(self, expression: LogicalOp) -> list[Row]:
        if not self.available:
            raise UnavailableSourceError(self.name)
        oql = logical_to_oql(expression)
        result = self.mediator.query(oql)
        if getattr(result, "is_partial", False):
            # A partial answer's bag is empty, not the child's answer: to the
            # parent the child did not answer, and the parent degrades into
            # its own resubmittable partial answer.
            missing = ", ".join(result.unavailable_sources)
            raise UnavailableSourceError(
                self.name,
                f"child mediator {self.name!r} answered only partially: "
                f"unavailable in the child: {missing}",
            )
        answer = getattr(result, "data", result)
        if isinstance(answer, Bag):
            rows: list[Row] = []
            for element in answer:
                if isinstance(element, Struct):
                    rows.append(element.fields())
                elif isinstance(element, dict):
                    rows.append(dict(element))
                else:
                    rows.append({"value": element})
            return rows
        raise WrapperError(
            f"child mediator {self.name!r} returned a non-collection answer {answer!r}"
        )

    def source_collections(self) -> list[str]:
        names = []
        registry = getattr(self.mediator, "registry", None)
        if registry is not None:
            names = [meta.name for meta in registry.schema.extents()]
            names.extend(view.name for view in registry.schema.views())
        return names
