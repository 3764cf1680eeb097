"""Executor for the miniature SQL dialect.

Evaluates a parsed :class:`~repro.sources.sql.parser.SelectStatement` against
a :class:`~repro.sources.relational_engine.RelationalEngine`.  The engine is
deliberately simple (nested hash joins, tuple-at-a-time predicates); it exists
so that the SQL wrapper really translates mediator algebra into another
language and gets rows back from a foreign executor.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Mapping

from repro.errors import QueryExecutionError
from repro.sources.relational_engine import RelationalEngine
from repro.sources.sql.parser import (
    AggregateRef,
    BooleanExpr,
    ColumnRef,
    Comparison,
    InPredicate,
    Literal,
    SelectStatement,
    SqlParser,
)

Row = dict[str, Any]

_COMPARISONS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class SqlEngine:
    """Run miniature-SQL SELECT statements against a relational engine."""

    def __init__(self, engine: RelationalEngine | None = None, name: str = "sqldb"):
        self.name = name
        self.engine = engine or RelationalEngine(name=f"{name}-storage")

    # -- convenience passthroughs -----------------------------------------------------
    def create_table(self, name: str, schema=None, rows=None):
        """Create a table in the underlying storage engine."""
        return self.engine.create_table(name, schema=schema, rows=rows)

    def table_names(self) -> list[str]:
        """Names of the tables this SQL engine can query."""
        return self.engine.table_names()

    def cardinality(self, table_name: str) -> int:
        """Row count of ``table_name``."""
        return self.engine.cardinality(table_name)

    # -- execution --------------------------------------------------------------------
    def execute(self, sql: str) -> list[Row]:
        """Parse and execute ``sql``, returning a list of result rows."""
        statement = SqlParser(sql).parse()
        return self.execute_statement(statement)

    def execute_statement(self, statement: SelectStatement) -> list[Row]:
        """Execute an already-parsed SELECT statement."""
        rows = self._rows_for(statement.table)
        for join in statement.joins:
            right_rows = self._rows_for(join.table)
            rows = self.engine.join(
                rows, right_rows, on=(join.left_column.name, join.right_column.name)
            )
        if statement.where is not None:
            holds = self._predicate(statement.where)
            rows = [row for row in rows if holds(row)]
        aggregates = any(
            isinstance(column, AggregateRef) for column in statement.columns or ()
        )
        if statement.group_by or aggregates:
            rows = self._grouped(statement, rows)
        elif statement.columns is not None:
            # Aliases (``col AS name``) rename while projecting; a derived
            # table built this way exposes uniquely named columns before any
            # enclosing join merges rows.  Unknown columns stay an error,
            # like the storage engine's own projection.
            projected: list[Row] = []
            for row in rows:
                missing = [c.name for c in statement.columns if c.name not in row]
                if missing:
                    raise QueryExecutionError(
                        f"projection refers to unknown column(s) {missing!r}"
                    )
                projected.append(
                    {c.output_name(): row[c.name] for c in statement.columns}
                )
            rows = projected
        if statement.limit is not None:
            rows = rows[: max(statement.limit, 0)]
        return rows

    def _grouped(self, statement: SelectStatement, rows: list[Row]) -> list[Row]:
        """Evaluate a GROUP BY / aggregate projection over ``rows``.

        NULL semantics match the mediator's own aggregation
        (:mod:`repro.runtime.operators`): COUNT(col) counts non-NULL values
        while COUNT(*) counts rows; SUM/MIN/MAX/AVG ignore NULLs and return
        NULL when no non-NULL value exists.
        """
        if statement.columns is None:
            raise QueryExecutionError(
                "SELECT * cannot be combined with GROUP BY or aggregates"
            )
        key_names = [column.name for column in statement.group_by]
        for column in statement.columns:
            if isinstance(column, ColumnRef) and column.name not in key_names:
                raise QueryExecutionError(
                    f"column {column.render()!r} must appear in GROUP BY or an aggregate"
                )
        groups: dict[tuple[Any, ...], list[Row]] = {}
        order: list[tuple[Any, ...]] = []
        for row in rows:
            key = tuple(self._column_value(column, row) for column in statement.group_by)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(row)
        if not statement.group_by and not order:
            # An aggregate without keys always yields exactly one row, even
            # over empty input (COUNT gives 0, the others NULL).
            groups[()] = []
            order.append(())
        result: list[Row] = []
        for key in order:
            bucket = groups[key]
            key_values = dict(zip(key_names, key))
            out: Row = {}
            for column in statement.columns:
                if isinstance(column, AggregateRef):
                    out[column.output_name()] = self._aggregate_value(column, bucket)
                else:
                    out[column.output_name()] = key_values[column.name]
            result.append(out)
        return result

    def _aggregate_value(self, aggregate: AggregateRef, bucket: list[Row]) -> Any:
        if aggregate.column is None:  # COUNT(*)
            return len(bucket)
        values = [
            value
            for row in bucket
            if (value := self._column_value(aggregate.column, row)) is not None
        ]
        if aggregate.func == "COUNT":
            return len(values)
        if not values:
            return None
        if aggregate.func == "SUM":
            return sum(values)
        if aggregate.func == "AVG":
            return sum(values) / len(values)
        if aggregate.func == "MIN":
            return min(values)
        if aggregate.func == "MAX":
            return max(values)
        raise QueryExecutionError(f"unknown aggregate function {aggregate.func!r}")

    def _column_value(self, column: ColumnRef, row: Mapping[str, Any]) -> Any:
        if column.name not in row:
            raise QueryExecutionError(f"unknown column {column.render()!r}")
        return row[column.name]

    def _rows_for(self, table_ref: Any) -> list[Row]:
        """Rows of a FROM/JOIN operand: a base table or a derived table."""
        if isinstance(table_ref, SelectStatement):
            return self.execute_statement(table_ref)
        return self.engine.scan(table_ref)

    # -- predicate evaluation -------------------------------------------------------------
    def _predicate(self, expr: Any) -> Callable[[Mapping[str, Any]], bool]:
        """``expr`` as a row test, built once per statement, not walked per row."""
        if isinstance(expr, Comparison):
            return lambda row: self._compare(expr, row)
        if isinstance(expr, InPredicate):
            return self._in_test(expr)
        if isinstance(expr, BooleanExpr):
            parts = [self._predicate(operand) for operand in expr.operands]
            if expr.op == "AND":
                return lambda row: all(part(row) for part in parts)
            if expr.op == "OR":
                return lambda row: any(part(row) for part in parts)
            if expr.op == "NOT":
                return lambda row: not parts[0](row)
        raise QueryExecutionError(f"cannot evaluate SQL expression {expr!r}")

    def _in_test(self, expr: InPredicate) -> Callable[[Mapping[str, Any]], bool]:
        """``operand IN (items)`` with the items hashed once, so a row is one probe."""
        candidates = [item.value for item in expr.items if item.value is not None]  # NULL = nothing
        try:  # NaN items stay out: a set would find one by identity, ``=`` never does
            members = frozenset(value for value in candidates if value == value)
        except TypeError:
            members = None  # an unhashable item: every row is compared item by item

        def test(row: Mapping[str, Any]) -> bool:
            value = self._operand_value(expr.operand, row)
            if value is None:
                return False
            if members is not None:
                try:
                    return value in members
                except TypeError:
                    pass
            for candidate in candidates:
                try:
                    if value == candidate:
                        return True
                except TypeError:
                    continue
            return False

        return test

    def _compare(self, comparison: Comparison, row: Mapping[str, Any]) -> bool:
        left = self._operand_value(comparison.left, row)
        right = self._operand_value(comparison.right, row)
        if left is None or right is None:
            # SQL three-valued logic collapsed to "unknown is false".
            return False
        if comparison.op not in _COMPARISONS:
            raise QueryExecutionError(f"unknown comparison operator {comparison.op!r}")
        try:
            return _COMPARISONS[comparison.op](left, right)
        except TypeError:
            return False

    def _operand_value(self, operand: Any, row: Mapping[str, Any]) -> Any:
        if isinstance(operand, Literal):
            return operand.value
        if isinstance(operand, ColumnRef):
            if operand.name not in row:
                raise QueryExecutionError(f"unknown column {operand.render()!r}")
            return row[operand.name]
        raise QueryExecutionError(f"unknown operand {operand!r}")
