"""ODMG-93 data model with the DISCO extensions (paper Section 2).

The package provides:

* value types -- :class:`~repro.datamodel.values.Bag`,
  :class:`~repro.datamodel.values.Struct` and helpers, matching the OQL value
  universe used in the paper's examples;
* the type system -- :class:`~repro.datamodel.types.InterfaceType` with
  attributes and ODMG subtyping;
* DISCO extensions -- multiple extents per interface, each one
  :class:`~repro.datamodel.extent.MetaExtent` object,
  :class:`~repro.datamodel.repository.Repository` objects and
  :class:`~repro.datamodel.mapping.LocalTransformationMap` type maps.

The mediator's internal database that holds them is
:class:`repro.core.registry.Registry`.
"""

from repro.datamodel.values import Bag, Struct, make_bag, make_struct
from repro.datamodel.types import (
    AttributeSpec,
    InterfaceType,
    PrimitiveType,
    TypeSystem,
)
from repro.datamodel.repository import Repository
from repro.datamodel.mapping import LocalTransformationMap
from repro.datamodel.extent import MetaExtent

__all__ = [
    "Bag",
    "Struct",
    "make_bag",
    "make_struct",
    "AttributeSpec",
    "InterfaceType",
    "PrimitiveType",
    "TypeSystem",
    "Repository",
    "LocalTransformationMap",
    "MetaExtent",
]
