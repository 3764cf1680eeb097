"""The SQL source: a relational engine that answers SQL text.

A statement is read into the logical algebra (:class:`SqlParser`) and run by
the one source-side evaluator every simulated source shares
(:class:`~repro.wrappers.base.AlgebraEvaluator`), so the SQL wrapper really
translates mediator algebra into another language while a pushed predicate,
join or grouping means the same at this source as anywhere else.
"""

from __future__ import annotations

from typing import Any

from repro.sources.relational_engine import RelationalEngine
from repro.sources.sql.parser import SqlParser


class SqlEngine(RelationalEngine):
    """A :class:`RelationalEngine` whose query interface is SQL text."""

    def execute(self, sql: str) -> list[dict[str, Any]]:
        """Parse and evaluate ``sql``, returning a list of result rows."""
        from repro.wrappers.base import AlgebraEvaluator  # local: repro.wrappers imports this module

        return AlgebraEvaluator(scan=self.scan).evaluate(SqlParser(sql).parse())
