"""The mediator's internal database.

"The DISCO mediator contains an internal database.  The internal database
records information on data sources, types, interfaces, and views, etc."
(Section 3).  The registry is that database: it holds the type system, the
extents (one :class:`~repro.datamodel.extent.MetaExtent` per declaration),
views, repositories and wrappers, and adds what query processing needs:
collection-name resolution for the binder (including implicit type extents,
``type*`` and ``metaextent``), wrapper-object lookup for the run-time system,
a schema version for plan-cache invalidation and the MetaExtent rows exposed
to queries.

Lock discipline: one registry-wide :class:`threading.RLock` guards every
definition *and* every lookup -- concurrent queries resolve names and fetch
wrappers while a DBA thread may be adding or dropping extents, and the maps
must never be resized under an iterating reader.  The version bump happens
inside the same critical section as the schema change it describes, so a
reader can never observe a new schema under the old version (the invariant
the plan cache and the executor's type-check verdict cache both key on).
Registering a repository or a wrapper changes no query's meaning and bumps
nothing.  RLock, not Lock, because resolution recurses (view expansion
re-enters :meth:`resolve_collection`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any

from repro.datamodel.extent import MetaExtent
from repro.datamodel.mapping import LocalTransformationMap
from repro.datamodel.repository import Repository
from repro.datamodel.types import InterfaceType, TypeSystem
from repro.datamodel.values import Struct
from repro.errors import NameResolutionError, SchemaError, ViewDefinitionError
from repro.oql.binder import ResolvedCollection
from repro.oql.parser import parse_query

METAEXTENT_NAME = "metaextent"


@dataclass
class ViewDefinition:
    """A ``define <name> as <query>`` view (paper Sections 2.2.3 and 2.3).

    ``query_text`` keeps the original OQL text; ``ast`` caches the parsed
    query once name resolution first reaches the view.
    """

    name: str
    query_text: str
    ast: Any | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ViewDefinitionError("a view needs a non-empty name")
        if not self.query_text or not self.query_text.strip():
            raise ViewDefinitionError(f"view {self.name!r} has an empty query body")


def _insert(table: dict[str, Any], kind: str, name: str, value: Any) -> Any:
    if name in table:
        raise SchemaError(f"{kind} {name!r} is already defined")
    table[name] = value
    return value


class Registry:
    """Internal database of one mediator."""

    def __init__(self):
        self.types = TypeSystem()
        self._extents: dict[str, MetaExtent] = {}
        self._views: dict[str, ViewDefinition] = {}
        self._repositories: dict[str, Repository] = {}
        self._wrappers: dict[str, Any] = {}
        self._schema_version = 0
        # Guards the maps and the version together; see the module
        # docstring for the discipline.
        self._lock = threading.RLock()

    @property
    def schema_version(self) -> int:
        """Monotonic version, bumped inside the schema change's critical section."""
        with self._lock:
            return self._schema_version

    def _bump(self) -> None:
        """Advance the schema version; the caller holds ``_lock``."""
        self._schema_version += 1

    # -- interfaces -----------------------------------------------------------------------------
    def define_interface(self, interface: InterfaceType) -> InterfaceType:
        """Register an interface type."""
        with self._lock:
            result = self.types.define(interface)
            self._bump()
            return result

    def interface(self, name: str) -> InterfaceType:
        """Look up an interface by name."""
        with self._lock:
            return self.types.get(name)

    def interface_attributes(self, interface_name: str) -> list[str]:
        """Attribute names of an interface (used by the run-time type check)."""
        return self.interface(interface_name).attribute_names()

    # -- repositories and wrappers (no version bump) ------------------------------------------------
    def add_repository(self, repository: Repository) -> Repository:
        """Register a repository object under its name."""
        with self._lock:
            return _insert(self._repositories, "repository", repository.name, repository)

    def repository(self, name: str) -> Repository:
        """Look up a repository by name."""
        with self._lock:
            try:
                return self._repositories[name]
            except KeyError:
                raise SchemaError(f"unknown repository {name!r}") from None

    def add_wrapper(self, name: str, wrapper: Any) -> Any:
        """Register a wrapper object under ``name``."""
        with self._lock:
            return _insert(self._wrappers, "wrapper", name, wrapper)

    def wrapper_object(self, name: str) -> Any:
        """Return the wrapper object registered under ``name``."""
        with self._lock:
            try:
                return self._wrappers[name]
            except KeyError:
                raise SchemaError(f"unknown wrapper {name!r}") from None

    # -- extents ----------------------------------------------------------------------------------
    def add_extent(
        self,
        name: str,
        interface_name: str,
        wrapper_name: str,
        repository_name: str,
        map: LocalTransformationMap | None = None,
        source_collection: str | None = None,
    ) -> MetaExtent:
        """Declare ``extent <name> of <interface> wrapper <w> repository <r> [map ...]``.

        The DBA action that adds a data source: validates every referenced
        definition, then records one MetaExtent object -- exactly the side
        effect the paper ascribes to the special extent syntax.
        """
        with self._lock:
            if name in self._extents:
                raise SchemaError(f"extent {name!r} is already defined")
            if name in self._views:
                raise SchemaError(f"extent {name!r} collides with a view name")
            self.types.get(interface_name)  # unknown interface: SchemaError
            self.wrapper_object(wrapper_name)
            meta = MetaExtent(
                name=name,
                interface=interface_name,
                wrapper=wrapper_name,
                repository=self.repository(repository_name),
                map=map or LocalTransformationMap.identity(),
                source_collection=source_collection,
            )
            self._extents[name] = meta
            self._bump()
            return meta

    def drop_extent(self, name: str) -> None:
        """Remove an extent (deleting its MetaExtent object)."""
        with self._lock:
            self.extent(name)
            del self._extents[name]
            self._bump()

    def extent(self, name: str) -> MetaExtent:
        """Return the MetaExtent for extent ``name``."""
        with self._lock:
            try:
                return self._extents[name]
            except KeyError:
                raise SchemaError(f"unknown extent {name!r}") from None

    def extents(self) -> list[MetaExtent]:
        """Every declared extent's MetaExtent object."""
        with self._lock:
            return list(self._extents.values())

    def extents_of_interface(self, interface_name: str, recursive: bool = False) -> list[MetaExtent]:
        """Return the extents bound to ``interface_name``.

        ``recursive=True`` implements the paper's ``type*`` syntax by also
        including extents of every transitive subtype.
        """
        with self._lock:
            if recursive:
                wanted = set(self.types.subtypes(interface_name))
            else:
                wanted = {self.types.get(interface_name).name}
            return [meta for meta in self._extents.values() if meta.interface in wanted]

    def metaextent_rows(self) -> list[Struct]:
        """The ``metaextent`` collection: one struct per declared extent."""
        return [
            Struct(
                {
                    "name": meta.name,
                    "e": meta.name,
                    "interface": meta.interface,
                    "wrapper": meta.wrapper,
                    "repository": meta.repository.name,
                    "map": " ".join(meta.map.describe()),
                }
            )
            for meta in self.extents()
        ]

    # -- views ------------------------------------------------------------------------------------
    def define_view_text(self, name: str, query_text: str) -> ViewDefinition:
        """Register a ``define <name> as <query>`` view from raw OQL text."""
        view = ViewDefinition(name, query_text)
        with self._lock:
            if name in self._views:
                raise SchemaError(f"view {name!r} is already defined")
            if name in self._extents:
                raise SchemaError(f"view {name!r} collides with an extent name")
            self._views[name] = view
            self._bump()
            return view

    def drop_view(self, name: str) -> None:
        """Remove a view definition."""
        with self._lock:
            if name not in self._views:
                raise SchemaError(f"unknown view {name!r}")
            del self._views[name]
            self._bump()

    def views(self) -> list[ViewDefinition]:
        """Every view definition."""
        with self._lock:
            return list(self._views.values())

    # -- collection-name resolution (the binder's resolver) ---------------------------------------
    def resolve_collection(self, name: str, recursive: bool = False) -> ResolvedCollection:
        """Resolve a collection name appearing in a query."""
        with self._lock:
            if name == METAEXTENT_NAME:
                return ResolvedCollection(kind="metaextent")
            if not recursive and name in self._extents:
                return ResolvedCollection(kind="extents", extents=(self._extents[name],))
            if not recursive and name in self._views:
                view = self._views[name]
                if view.ast is None:
                    view.ast = parse_query(view.query_text)
                return ResolvedCollection(kind="view", view_query=view.ast, view_name=name)
            interface = self._interface_for_implicit_extent(name)
            if interface is not None:
                extents = self.extents_of_interface(interface.name, recursive=recursive)
                return ResolvedCollection(kind="extents", extents=tuple(extents))
        raise NameResolutionError(
            f"{name!r} does not name an extent, a view, an implicit type extent or "
            f"{METAEXTENT_NAME!r}"
        )

    def _interface_for_implicit_extent(self, name: str) -> InterfaceType | None:
        for interface in self.types.interfaces():
            if interface.extent_name == name:
                return interface
        # Fall back to the interface name itself (``from x in Person``), which
        # some of the paper's prose uses interchangeably with the extent.
        if name in self.types:
            return self.types.get(name)
        return None

    # -- catalog support ----------------------------------------------------------------------------
    def describe(self) -> dict[str, Any]:
        """Catalog-friendly description of everything this mediator knows."""
        with self._lock:
            return {
                "interfaces": self.types.names(),
                "extents": [meta.describe() for meta in self._extents.values()],
                "views": list(self._views),
                "repositories": [repo.describe() for repo in self._repositories.values()],
                "wrappers": list(self._wrappers),
                "schema_version": self._schema_version,
            }

    def statement_count(self) -> int:
        """Number of DBA-level definitions currently in the schema.

        The unit of the integration-effort comparison (paper Sections 1.2, 2):
        how many definitions a DBA touches when adding a data source in DISCO
        versus a unified-schema system.
        """
        with self._lock:
            return (
                len(self.types.names())
                + len(self._extents)
                + len(self._views)
                + len(self._repositories)
                + len(self._wrappers)
            )
