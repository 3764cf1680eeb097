"""The mediator's schema: types, extents, views, repositories and wrappers.

This is the data-model half of the mediator's "internal database" (paper
Section 3): everything the DBA declares through ODL ends up here.  Name
resolution for queries (implicit extents, ``type*`` expansion, views) is
implemented on top of this container by :mod:`repro.core.registry`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.datamodel.extent import Extent, MetaExtent
from repro.datamodel.mapping import LocalTransformationMap
from repro.datamodel.repository import Repository
from repro.datamodel.types import InterfaceType, TypeSystem
from repro.errors import SchemaError, ViewDefinitionError


@dataclass
class ViewDefinition:
    """A ``define <name> as <query>`` view (paper Sections 2.2.3 and 2.3).

    ``query_text`` keeps the original OQL text; ``ast`` caches the parsed
    query once the OQL parser has seen it (filled lazily by the registry so
    this module does not depend on the parser).
    """

    name: str
    query_text: str
    ast: Any | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ViewDefinitionError("a view needs a non-empty name")
        if not self.query_text or not self.query_text.strip():
            raise ViewDefinitionError(f"view {self.name!r} has an empty query body")


@dataclass
class Schema:
    """Container for every DBA-visible definition in one mediator."""

    types: TypeSystem = field(default_factory=TypeSystem)
    _extents: dict[str, MetaExtent] = field(default_factory=dict)
    _views: dict[str, ViewDefinition] = field(default_factory=dict)
    _repositories: dict[str, Repository] = field(default_factory=dict)
    _wrappers: dict[str, Any] = field(default_factory=dict)

    # -- interfaces ------------------------------------------------------------
    def define_interface(self, interface: InterfaceType) -> InterfaceType:
        """Register an interface type (delegates to the type system)."""
        return self.types.define(interface)

    def interface(self, name: str) -> InterfaceType:
        """Look up an interface by name."""
        return self.types.get(name)

    # -- repositories ------------------------------------------------------------
    def add_repository(self, repository: Repository) -> Repository:
        """Register a repository object under its name."""
        if repository.name in self._repositories:
            raise SchemaError(f"repository {repository.name!r} is already defined")
        self._repositories[repository.name] = repository
        return repository

    def repository(self, name: str) -> Repository:
        """Look up a repository by name."""
        try:
            return self._repositories[name]
        except KeyError:
            raise SchemaError(f"unknown repository {name!r}") from None

    def repositories(self) -> list[Repository]:
        """Return every registered repository."""
        return list(self._repositories.values())

    # -- wrappers ----------------------------------------------------------------
    def add_wrapper(self, name: str, wrapper: Any) -> Any:
        """Register a wrapper object under ``name``."""
        if name in self._wrappers:
            raise SchemaError(f"wrapper {name!r} is already defined")
        self._wrappers[name] = wrapper
        return wrapper

    def wrapper(self, name: str) -> Any:
        """Look up a wrapper by name."""
        try:
            return self._wrappers[name]
        except KeyError:
            raise SchemaError(f"unknown wrapper {name!r}") from None

    def wrappers(self) -> dict[str, Any]:
        """Return the wrapper registry (name -> wrapper object)."""
        return dict(self._wrappers)

    # -- extents -----------------------------------------------------------------
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

        Validates every referenced definition, then records a MetaExtent
        instance -- exactly the side effect the paper ascribes to the special
        extent syntax.
        """
        if name in self._extents:
            raise SchemaError(f"extent {name!r} is already defined")
        self.types.get(interface_name)
        self.wrapper(wrapper_name)
        repository = self.repository(repository_name)
        extent = Extent(
            name=name,
            interface_name=interface_name,
            wrapper_name=wrapper_name,
            repository=repository,
            map=map or LocalTransformationMap.identity(),
            source_collection=source_collection,
        )
        meta = MetaExtent.from_extent(extent)
        self._extents[name] = meta
        return meta

    def drop_extent(self, name: str) -> None:
        """Remove an extent declaration (deleting the MetaExtent object)."""
        if name not in self._extents:
            raise SchemaError(f"unknown extent {name!r}")
        del self._extents[name]

    def extent(self, name: str) -> MetaExtent:
        """Look up one extent's meta-data by extent name."""
        try:
            return self._extents[name]
        except KeyError:
            raise SchemaError(f"unknown extent {name!r}") from None

    def has_extent(self, name: str) -> bool:
        """Return True when an extent called ``name`` is declared."""
        return name in self._extents

    def extents(self) -> list[MetaExtent]:
        """Return every declared extent's meta-data (the ``metaextent`` extent)."""
        return list(self._extents.values())

    def extents_of_interface(self, interface_name: str, recursive: bool = False) -> list[MetaExtent]:
        """Return the extents bound to ``interface_name``.

        ``recursive=True`` implements the paper's ``type*`` syntax by also
        including extents of every transitive subtype.
        """
        if recursive:
            wanted = set(self.types.subtypes(interface_name))
        else:
            self.types.get(interface_name)
            wanted = {interface_name}
        return [meta for meta in self._extents.values() if meta.interface in wanted]

    # -- views -------------------------------------------------------------------
    def define_view(self, view: ViewDefinition) -> ViewDefinition:
        """Register a ``define ... as`` view."""
        if view.name in self._views:
            raise SchemaError(f"view {view.name!r} is already defined")
        if self.has_extent(view.name):
            raise SchemaError(f"view {view.name!r} collides with an extent name")
        self._views[view.name] = view
        return view

    def drop_view(self, name: str) -> None:
        """Remove a view definition."""
        if name not in self._views:
            raise SchemaError(f"unknown view {name!r}")
        del self._views[name]

    def view(self, name: str) -> ViewDefinition:
        """Look up a view by name."""
        try:
            return self._views[name]
        except KeyError:
            raise SchemaError(f"unknown view {name!r}") from None

    def has_view(self, name: str) -> bool:
        """Return True when a view called ``name`` is defined."""
        return name in self._views

    def views(self) -> list[ViewDefinition]:
        """Return every view definition."""
        return list(self._views.values())

    # -- summary -------------------------------------------------------------------
    def describe(self) -> dict[str, Any]:
        """Return a catalog-friendly summary of the schema."""
        return {
            "interfaces": self.types.names(),
            "extents": [meta.describe() for meta in self._extents.values()],
            "views": [view.name for view in self._views.values()],
            "repositories": [repo.describe() for repo in self._repositories.values()],
            "wrappers": list(self._wrappers),
        }

    def statement_count(self) -> int:
        """Number of DBA-level definitions currently in the schema.

        The unit of the integration-effort comparison (paper Sections 1.2, 2):
        how many definitions a DBA touches when adding a data source in DISCO
        versus a unified-schema system.
        """
        return (
            len(self.types.names())
            + len(self._extents)
            + len(self._views)
            + len(self._repositories)
            + len(self._wrappers)
        )


def interfaces_from_pairs(pairs: Iterable[tuple[str, list[tuple[str, str]]]]) -> list[InterfaceType]:
    """Convenience builder: ``[("Person", [("name", "String"), ...]), ...]`` -> interfaces."""
    from repro.datamodel.types import AttributeSpec, PrimitiveType

    result = []
    for name, attributes in pairs:
        result.append(
            InterfaceType(
                name=name,
                attributes=tuple(
                    AttributeSpec(attr_name, PrimitiveType.from_name(attr_type))
                    for attr_name, attr_type in attributes
                ),
            )
        )
    return result
