"""A miniature SQL dialect: a parser into the algebra, and the source that runs it.

The paper's first wrapper example is ``WrapperPostgres()`` -- a wrapper around
a relational database that speaks SQL.  To exercise the same code path (the
wrapper translates the mediator's algebraic expression into a *different*
query language), this package implements a small SQL source:

* ``SELECT <columns | aggregates | *> FROM <table> [JOIN <table> ON a = b ...]``
  ``[WHERE <predicate>] [GROUP BY <columns>] [LIMIT n]`` with ``AND`` /
  ``OR`` / ``NOT``, comparisons, ``IN`` lists, numeric and string literals,
  read into the logical algebra (:class:`SqlParser`);
* :class:`SqlEngine`, a :class:`~repro.sources.relational_engine.RelationalEngine`
  that answers SQL text by evaluating what the parser reads.

The SQL wrapper (:mod:`repro.wrappers.sqlwrapper`) builds SQL text from
algebra trees and sends it here, never touching the engine's tables directly.
Keywords, operators and literal syntax are the ``SQL`` table of
:mod:`repro.lexing`; wrapper and parser quote strings through it.
"""

from repro.sources.sql.parser import SqlParser
from repro.sources.sql.engine import SqlEngine

__all__ = [
    "SqlParser",
    "SqlEngine",
]
