"""The ``MetaExtent`` meta-type: one object per extent (paper Sections 2.1-2.2).

The key DISCO idea is that *each extent represents the collection of data in
one data source*.  Declaring::

    extent person0 of Person wrapper w0 repository r0;

creates one :class:`MetaExtent` instance recording the extent name,
interface, wrapper, repository and optional local transformation map; that
object *is* the extent as far as the mediator is concerned.  The implicit
extent of a type (``person``) is *defined as a query* over the MetaExtent
collection, which is what lets a new data source join a mediator type without
touching any existing query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.datamodel.mapping import LocalTransformationMap
from repro.datamodel.repository import Repository
from repro.errors import SchemaError


@dataclass
class MetaExtent:
    """One object of the paper's ``MetaExtent`` interface.

    Mirrors the ODL given in Section 2.1::

        interface MetaExtent (extent metaextent) {
            attribute String name;
            attribute Extent e;
            attribute Type interface;
            attribute Wrapper wrapper;
            attribute Repository repository;
            attribute Map map; }

    The object stands for the extent itself, so the ``e`` attribute of a
    ``metaextent`` row is the extent's name.
    """

    name: str
    interface: str
    wrapper: str
    repository: Repository
    map: LocalTransformationMap = field(default_factory=LocalTransformationMap.identity)
    source_collection: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("an extent needs a non-empty name")
        self.map.validate()

    def source_name(self) -> str:
        """Name of the collection inside the data source.

        Defaults to the extent name (the paper: "the extent name person0 is
        determined by the name of the data source in the repository") unless a
        map or an explicit ``source_collection`` overrides it.
        """
        if self.source_collection is not None:
            return self.source_collection
        return self.map.source_collection_name(self.name)

    def describe(self) -> dict[str, Any]:
        """Plain-dict description used by catalogs and the ``metaextent`` extent."""
        return {
            "name": self.name,
            "interface": self.interface,
            "wrapper": self.wrapper,
            "repository": self.repository.name,
            "map": self.map.describe(),
        }
