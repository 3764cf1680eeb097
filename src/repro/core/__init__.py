"""The DISCO mediator itself (the paper's primary contribution).

* :class:`~repro.core.registry.Registry` -- the mediator's one internal
  database: types, extents (one MetaExtent object each), views, repositories
  and wrappers under one lock and one schema version, plus the name
  resolution the binder needs;
* :class:`~repro.core.planner.QueryPlanner` -- the parse / bind / translate /
  optimize pipeline of Prototype 0 (Figure 2);
* :class:`~repro.core.mediator.Mediator` -- the façade applications talk to:
  ODL loading, extent management, OQL queries, partial answers, explain;
* :class:`~repro.core.result.QueryResult` -- answers, which may be partial
  (i.e. queries);
* :class:`~repro.core.catalog.Catalog` -- the special mediator that keeps
  track of databases, wrappers and mediators in the system;
* :class:`~repro.core.session.Session` -- a light application-side handle.
"""

from repro.core.registry import Registry
from repro.core.planner import QueryPlanner, PlannedQuery
from repro.core.result import QueryResult
from repro.core.mediator import Mediator
from repro.core.catalog import Catalog
from repro.core.session import Session

__all__ = [
    "Registry",
    "QueryPlanner",
    "PlannedQuery",
    "QueryResult",
    "Mediator",
    "Catalog",
    "Session",
]
