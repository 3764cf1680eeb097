"""ODL: the object definition language plus the DISCO extensions (Section 2).

Supported statements:

* ``interface <Name> [: <Super>] [(extent <name>)] { attribute <Type> <name>; ... }``
* ``extent <name> of <Interface> wrapper <w> repository <r>``
  ``[map ((src=ext), (field=field), ...)];`` -- the DISCO extent extension;
* ``define <name> as <OQL query>;`` -- view definitions (the body is handed to
  the OQL parser);
* ``repository <name> (host="...", address="...", ...);`` -- a convenience
  extension of this reproduction so whole schemas can live in one ODL file
  (the paper creates Repository objects programmatically).

The :class:`~repro.odl.loader.OdlLoader` applies parsed declarations to a
mediator registry, producing exactly the MetaExtent side effects the paper
describes.  Keywords, operators and literal syntax are the ``ODL`` table of
:mod:`repro.lexing`; its strings are OQL strings, because a view body is OQL.
"""

from repro.odl.ast import (
    AttributeDecl,
    DefineDecl,
    ExtentDecl,
    InterfaceDecl,
    RepositoryDecl,
)
from repro.odl.parser import OdlParser, parse_odl
from repro.odl.loader import OdlLoader

__all__ = [
    "AttributeDecl",
    "DefineDecl",
    "ExtentDecl",
    "InterfaceDecl",
    "RepositoryDecl",
    "OdlParser",
    "parse_odl",
    "OdlLoader",
]
