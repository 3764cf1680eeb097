"""Applying parsed ODL declarations to a mediator registry.

The loader is the ODL half of the Prototype-0 pipeline (paper Figure 2): ODL
text goes through the parser, and each declaration updates the mediator's
internal database -- interfaces go to the type system, extent declarations
create MetaExtent objects, ``define`` statements register views, repository
declarations create Repository objects.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.datamodel.mapping import LocalTransformationMap
from repro.datamodel.repository import Repository
from repro.datamodel.types import AttributeSpec, InterfaceType, PrimitiveType
from repro.errors import SchemaError
from repro.odl.ast import (
    DefineDecl,
    ExtentDecl,
    InterfaceDecl,
    RepositoryDecl,
)
from repro.odl.parser import parse_odl

if TYPE_CHECKING:
    from repro.core.registry import Registry


class OdlLoader:
    """Load ODL text into a mediator registry."""

    def __init__(self, target: Registry):
        self.target = target

    def load(self, text: str) -> list[object]:
        """Parse ``text`` and apply every declaration; return the declarations."""
        declarations = parse_odl(text)
        for declaration in declarations:
            self.apply(declaration)
        return declarations

    def apply(self, declaration: object) -> None:
        """Apply one parsed declaration to the target."""
        if isinstance(declaration, InterfaceDecl):
            self._apply_interface(declaration)
        elif isinstance(declaration, ExtentDecl):
            self._apply_extent(declaration)
        elif isinstance(declaration, DefineDecl):
            self.target.define_view_text(declaration.name, declaration.query_text)
        elif isinstance(declaration, RepositoryDecl):
            self._apply_repository(declaration)
        else:
            raise SchemaError(f"unknown ODL declaration {declaration!r}")

    # -- helpers -------------------------------------------------------------------
    def _apply_interface(self, declaration: InterfaceDecl) -> None:
        attributes = tuple(
            AttributeSpec(attr.name, self._primitive(attr.type_name))
            for attr in declaration.attributes
        )
        self.target.define_interface(
            InterfaceType(
                name=declaration.name,
                attributes=attributes,
                supertype=declaration.supertype,
                extent_name=declaration.extent_name,
            )
        )

    def _primitive(self, type_name: str) -> PrimitiveType:
        try:
            return PrimitiveType.from_name(type_name)
        except SchemaError:
            # Unknown ODL types (object references, user-defined types) are
            # accepted as untyped attributes: the paper assumes value-based
            # references and leaves richer typing to the wrapper check.
            return PrimitiveType.ANY

    def _apply_extent(self, declaration: ExtentDecl) -> None:
        transformation_map = (
            LocalTransformationMap.from_pairs(declaration.map_pairs)
            if declaration.map_pairs
            else LocalTransformationMap.identity()
        )
        self.target.add_extent(
            name=declaration.name,
            interface_name=declaration.interface,
            wrapper_name=declaration.wrapper,
            repository_name=declaration.repository,
            map=transformation_map,
        )

    def _apply_repository(self, declaration: RepositoryDecl) -> None:
        properties = declaration.property_dict()
        self.target.add_repository(
            Repository(
                name=declaration.name,
                host=properties.pop("host", "localhost"),
                address=properties.pop("address", ""),
                maintainer=properties.pop("maintainer", None),
                properties=properties,
            )
        )
