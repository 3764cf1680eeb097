"""The DISCO OQL subset (paper Sections 1.2, 2 and 4).

The subset implements every construct the paper's examples use:

* ``select <item> from <var> in <collection> [and <var> in <collection>]*``
  ``[where <predicate>]`` with ``struct(...)`` select items;
* collections that are extents, implicit type extents, ``type*`` recursive
  extents, views, ``union(...)``, ``flatten(...)``, ``bag(...)`` /
  ``Bag(...)`` literals and nested selects;
* aggregate functions (``sum``, ``count``, ``min``, ``max``, ``avg``) over
  nested selects -- the reconciliation functions of Section 2.2.3;
* ``define <name> as <query>`` view definitions.

Modules: :mod:`ast` (query nodes), :mod:`parser`, :mod:`printer` (AST ->
text), :mod:`binder` (name resolution against a mediator registry) and
:mod:`translator` (AST -> logical algebra).  Keywords, operators and literal
syntax are the ``OQL`` table of :mod:`repro.lexing`.
"""

from repro.oql.parser import OqlParser, parse_query, parse_statement
from repro.oql.printer import query_to_oql
from repro.oql.binder import Binder
from repro.oql.translator import Translator

__all__ = [
    "OqlParser",
    "parse_query",
    "parse_statement",
    "query_to_oql",
    "Binder",
    "Translator",
]
