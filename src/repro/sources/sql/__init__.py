"""A miniature SQL dialect: parser and executor.

The paper's first wrapper example is ``WrapperPostgres()`` -- a wrapper around
a relational database that speaks SQL.  To exercise the same code path (the
wrapper translates the mediator's algebraic expression into a *different*
query language), this package implements a small but genuine SQL engine:

* ``SELECT <columns | *> FROM <table> [JOIN <table> ON a = b ...]``
  ``[WHERE <predicate>]`` with ``AND`` / ``OR`` / ``NOT``, comparison
  operators, numeric and string literals;
* query execution against a :class:`~repro.sources.relational_engine.RelationalEngine`.

The SQL wrapper (:mod:`repro.wrappers.sqlwrapper`) builds SQL text from
algebra trees and sends it here, never touching the engine's tables directly.
Keywords, operators and literal syntax are the ``SQL`` table of
:mod:`repro.lexing`; wrapper and engine quote strings through it.
"""

from repro.sources.sql.parser import SqlParser, SelectStatement, JoinClause
from repro.sources.sql.engine import SqlEngine

__all__ = [
    "SqlParser",
    "SelectStatement",
    "JoinClause",
    "SqlEngine",
]
