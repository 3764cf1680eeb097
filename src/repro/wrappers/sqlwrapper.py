"""Wrapper that translates the mediator algebra into the miniature SQL dialect.

This is the reproduction's ``WrapperPostgres``: the pushed logical expression
is rendered as SQL text, shipped to the SQL engine through the simulated
server, parsed and executed there.  Only the operators that have an SQL
rendering are advertised (``get``, ``project``, ``select``, ``join``,
``limit``, ``rename`` -- the aliasing the namespace planner injects for
colliding multi-extent pushdowns, rendered as ``col AS alias`` inside a
derived table -- ``groupby``, rendered as ``GROUP BY`` with aggregate
projection items, and the ``in`` predicate terminal, rendered as ``IN (...)``
for batched bind-join probes), and only predicates built from comparisons
and membership tests of attributes and constants can cross the boundary --
richer predicates raise :class:`WrapperError` so the optimizer keeps them at
the mediator.
"""

from __future__ import annotations

from typing import Any

from repro.algebra.capabilities import CapabilitySet
from repro.algebra.expressions import (
    BooleanExpr,
    Comparison,
    Const,
    Expr,
    InList,
    Path,
    Var,
)
from repro.algebra.logical import (
    Get,
    GroupBy,
    Join,
    Limit,
    LogicalOp,
    Project,
    Rename,
    Select,
    join_on,
)
from repro.errors import WrapperError
from repro.sources.server import SimulatedServer
from repro.sources.sql.engine import SqlEngine
from repro.sources.sql.parser import Literal
from repro.wrappers.base import RESUME_REPLAY, Row, Wrapper


class SqlWrapper(Wrapper):
    """Wrapper over a :class:`SqlEngine` hosted by a simulated server.

    The mini-SQL dialect has no cursor handles, but the engine evaluates a
    statement deterministically over stable table order, so the wrapper
    declares ``replay`` resume support: after a mid-stream death the mediator
    may re-run the same statement and skip the rows it already delivered.
    """

    resume_support = RESUME_REPLAY

    def __init__(self, name: str, server: SimulatedServer, capabilities: CapabilitySet | None = None):
        super().__init__(
            name,
            capabilities
            or CapabilitySet.of(
                "get", "project", "select", "join", "limit", "rename", "in", "groupby"
            ),
        )
        self.server = server

    # -- execution -----------------------------------------------------------------------
    def _execute(self, expression: LogicalOp) -> list[Row]:
        sql = self.to_sql(expression)

        def run(engine: SqlEngine) -> list[Row]:
            return engine.execute(sql)

        return self.server.call(run)

    # -- SQL generation ---------------------------------------------------------------------
    def to_sql(self, expression: LogicalOp) -> str:
        """Render a pushed logical expression as one SELECT statement."""
        limit_above: int | None = None
        projected: tuple[str, ...] | None = None
        node = expression
        if isinstance(node, Limit) and isinstance(
            node.child, (GroupBy, Project)
        ):
            # OQL's limit clause applies after grouping, exactly like SQL's
            # LIMIT, so it renders on the grouped statement.
            inner = node.child
            if isinstance(inner, GroupBy) or isinstance(inner.child, GroupBy):
                limit_above = node.count
                node = inner
        if isinstance(node, Project) and isinstance(node.child, GroupBy):
            # A projection over the grouped record narrows the SELECT list to
            # a subset of the group outputs; GROUP BY still names every key.
            projected = node.attributes
            node = node.child
        if isinstance(node, GroupBy):
            return self._groupby_sql(node, limit_above, projected)
        columns, table, joins, predicates, limit = self._decompose(expression)
        select_clause = ", ".join(columns) if columns else "*"
        sql = f"SELECT {select_clause} FROM {table}"
        for join_table, left_column, right_column in joins:
            sql += f" JOIN {join_table} ON {left_column} = {right_column}"
        if predicates:
            sql += " WHERE " + " AND ".join(predicates)
        if limit is not None:
            sql += f" LIMIT {limit}"
        return sql

    def _decompose(
        self, expression: LogicalOp
    ) -> tuple[list[str], str, list[tuple[str, str, str]], list[str], int | None]:
        if isinstance(expression, Get):
            return [], expression.collection, [], [], None
        if isinstance(expression, Rename):
            # The namespace planner's aliasing shape: rename directly over a
            # source table.  It renders as a derived table whose SELECT list
            # aliases the colliding columns with AS -- per branch, *before*
            # any join merges rows, so the aliases actually disambiguate.
            if not isinstance(expression.child, Get):
                raise WrapperError(
                    "SQL wrapper renders rename only directly over a source table"
                )
            items = ", ".join(
                old if old == new else f"{old} AS {new}"
                for old, new in expression.pairs
            )
            derived = f"(SELECT {items} FROM {expression.child.collection})"
            return [], derived, [], [], None
        if isinstance(expression, Limit):
            columns, table, joins, predicates, limit = self._decompose(expression.child)
            limit = expression.count if limit is None else min(limit, expression.count)
            return columns, table, joins, predicates, limit
        if isinstance(expression, Project):
            # Projection is one-to-one per row, so a limit below it renders
            # identically to SQL's project-then-LIMIT evaluation order.
            columns, table, joins, predicates, limit = self._decompose(expression.child)
            return list(expression.attributes), table, joins, predicates, limit
        if isinstance(expression, Select):
            columns, table, joins, predicates, limit = self._decompose(expression.child)
            if limit is not None:
                # SQL filters before it limits; a selection *above* a limit
                # would change which rows survive, so it has no rendering.
                raise WrapperError("cannot translate a selection above a limit to SQL")
            predicates = predicates + [self._predicate_sql(expression.predicate)]
            return columns, table, joins, predicates, limit
        if isinstance(expression, Join):
            left_cols, left_table, left_joins, left_preds, left_limit = self._decompose(
                expression.left
            )
            right_cols, right_table, right_joins, right_preds, right_limit = self._decompose(
                expression.right
            )
            if right_joins:
                raise WrapperError("SQL wrapper supports only left-deep join chains")
            if left_limit is not None or right_limit is not None:
                raise WrapperError("cannot translate a limited join operand to SQL")
            left_attr, right_attr, _ = join_on(expression.on)
            joins = left_joins + [(right_table, left_attr, right_attr)]
            columns = left_cols + right_cols
            return columns, left_table, joins, left_preds + right_preds, None
        raise WrapperError(f"cannot translate {expression.to_text()} to SQL")

    def _groupby_sql(
        self,
        node: GroupBy,
        limit: int | None,
        projected: tuple[str, ...] | None = None,
    ) -> str:
        """Render ``GroupBy`` (optionally projected/limited above) as a grouped SELECT."""
        columns, table, joins, predicates, child_limit = self._decompose(node.child)
        del columns  # the grouped select list replaces any child projection
        if child_limit is not None:
            # SQL groups before it limits; a limit *below* the grouping would
            # change which rows are aggregated, so it has no rendering.
            raise WrapperError("cannot translate grouping above a limit to SQL")
        rendered: dict[str, str] = {}
        group_columns: list[str] = []
        for name, expr in node.keys:
            column = self._key_column(expr)
            group_columns.append(column)
            rendered[name] = column if column == name else f"{column} AS {name}"
        for name, func, arg in node.aggregates:
            rendered[name] = f"{self._aggregate_sql(node.variable, func, arg)} AS {name}"
        if projected is None:
            items = list(rendered.values())
        else:
            missing = [name for name in projected if name not in rendered]
            if missing:
                raise WrapperError(
                    f"cannot project {', '.join(missing)} out of a grouped SELECT"
                )
            items = [rendered[name] for name in projected]
        sql = f"SELECT {', '.join(items)} FROM {table}"
        for join_table, left_column, right_column in joins:
            sql += f" JOIN {join_table} ON {left_column} = {right_column}"
        if predicates:
            sql += " WHERE " + " AND ".join(predicates)
        if group_columns:
            sql += " GROUP BY " + ", ".join(group_columns)
        if limit is not None:
            sql += f" LIMIT {limit}"
        return sql

    def _key_column(self, expr: Expr) -> str:
        if isinstance(expr, Path) and isinstance(expr.base, Var):
            return expr.attribute
        raise WrapperError(f"cannot translate grouping key {expr.to_oql()} to SQL")

    def _aggregate_sql(self, variable: str, func: str, arg: Expr) -> str:
        if isinstance(arg, Var) and arg.name == variable:
            if func == "count":
                # Counting the row variable counts rows; source rows are
                # structs and never NULL, so COUNT(*) matches exactly.
                return "COUNT(*)"
            raise WrapperError(f"cannot translate {func} over whole rows to SQL")
        if isinstance(arg, Path) and isinstance(arg.base, Var):
            return f"{func.upper()}({arg.attribute})"
        raise WrapperError(f"cannot translate aggregate argument {arg.to_oql()} to SQL")

    def _predicate_sql(self, predicate: Expr) -> str:
        if isinstance(predicate, Comparison):
            op = "<>" if predicate.op == "!=" else predicate.op
            return f"{self._operand_sql(predicate.left)} {op} {self._operand_sql(predicate.right)}"
        if isinstance(predicate, InList):
            if not predicate.items:
                # ``x in ()`` is unsatisfiable and has no SQL spelling --
                # ``IN ()`` is a syntax error in the dialect.  The probe
                # runner filters empty batches before they get here; this
                # guard keeps any other caller from shipping invalid SQL.
                raise WrapperError("cannot translate an empty IN list to SQL")
            items = ", ".join(self._operand_sql(item) for item in predicate.items)
            return f"{self._operand_sql(predicate.operand)} IN ({items})"
        if isinstance(predicate, BooleanExpr):
            if predicate.op == "not":
                return f"NOT ({self._predicate_sql(predicate.operands[0])})"
            joiner = f" {predicate.op.upper()} "
            return "(" + joiner.join(self._predicate_sql(p) for p in predicate.operands) + ")"
        raise WrapperError(f"cannot translate predicate {predicate.to_oql()} to SQL")

    def _operand_sql(self, operand: Expr) -> str:
        if isinstance(operand, Path) and isinstance(operand.base, Var):
            return operand.attribute
        if isinstance(operand, Const):
            return Literal(operand.value).render()
        raise WrapperError(f"cannot translate operand {operand.to_oql()} to SQL")

    # -- meta-data ----------------------------------------------------------------------------
    def source_collections(self) -> list[str]:
        engine: SqlEngine = self.server.store
        return engine.table_names()

    def source_attributes(self, collection: str) -> list[str]:
        engine: SqlEngine = self.server.store
        if collection not in engine.table_names():
            return []
        return engine.engine.table(collection).column_names()

    def cardinality(self, collection: str) -> int | None:
        engine: SqlEngine = self.server.store
        if collection not in engine.table_names():
            return None
        return engine.cardinality(collection)
