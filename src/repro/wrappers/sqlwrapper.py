"""Wrapper that translates the mediator algebra into the miniature SQL dialect.

This is the reproduction's ``WrapperPostgres``: the pushed logical expression
is rendered as SQL text, shipped to the SQL engine through the simulated
server, and read back into the algebra there.  Every pushable operator has an
SQL rendering (``get``, ``project``, ``select``, ``limit``, ``groupby``,
rendered as ``GROUP BY`` with aggregate projection items, and the ``in``
predicate terminal, rendered as ``IN (...)`` for batched bind-join probes).
A tree is accepted only when the renderer can write it -- predicates, for
one, only from comparisons and membership tests of attributes and constants,
combined with ``AND``/``OR``/``NOT``, and names only where they are not SQL
keywords -- so the optimizer keeps anything else at the mediator.
"""

from __future__ import annotations

from math import isinf

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
from repro.algebra.logical import Get, GroupBy, Limit, LogicalOp, Project, Select
from repro.errors import WrapperError
from repro.lexing import SQL
from repro.sources.server import SimulatedServer
from repro.sources.sql.engine import SqlEngine
from repro.wrappers.base import RESUME_REPLAY, Row
from repro.wrappers.relational import RelationalWrapper

#: a decomposed statement: SELECT columns, FROM table, WHERE conjuncts and LIMIT
_Parts = tuple[list[str], str, list[str], int | None]


class SqlCapabilitySet(CapabilitySet):
    """Capabilities that accept only what the SQL renderer can write.

    Whether the dialect can write a tree is the renderer's own answer
    (:func:`statement_sql`), asked whenever the planner considers a pushdown:
    a tree it cannot write -- a computed predicate, a collection constant, a
    selection above a limit -- stays at the mediator instead of failing at
    the source on every attempt.
    """

    def accepts(self, expr: LogicalOp) -> bool:
        if not super().accepts(expr):
            return False
        try:
            statement_sql(expr)
        except WrapperError:
            return False
        return True


class SqlWrapper(RelationalWrapper):
    """Wrapper over a :class:`SqlEngine` hosted by a simulated server.

    It ships SQL text where :class:`RelationalWrapper` ships the algebra, and
    reads the engine's catalog the same way.  The mini-SQL dialect has no
    cursor handles, but the engine evaluates a statement deterministically
    over stable table order, so the wrapper declares ``replay`` resume
    support: after a mid-stream death the mediator may re-run the same
    statement and skip the rows it already delivered.  Whatever operators
    ``capabilities`` declares, a tree is pushed only when the renderer can
    write it (:class:`SqlCapabilitySet`).
    """

    def __init__(self, name: str, server: SimulatedServer, capabilities: CapabilitySet | None = None):
        declared = capabilities or CapabilitySet.full()
        super().__init__(
            name,
            server,
            SqlCapabilitySet(declared.operators, compose=declared.compose),
            resume=RESUME_REPLAY,
        )

    def _execute(self, expression: LogicalOp) -> list[Row]:
        sql = self.to_sql(expression)

        def run(engine: SqlEngine) -> list[Row]:
            return engine.execute(sql)

        return self.server.call(run)

    def to_sql(self, expression: LogicalOp) -> str:
        """Render a pushed logical expression as one SELECT statement."""
        return statement_sql(expression)


# -- statements ------------------------------------------------------------------------------
def statement_sql(expression: LogicalOp) -> str:
    """``expression`` as one SELECT statement, or :class:`WrapperError` when it has none."""
    grouped = _groupby_parts(expression)
    if grouped is not None:
        return _groupby_sql(*grouped)
    columns, table, predicates, limit = _decompose(expression)
    return _select_sql(columns or ["*"], table, predicates, (), limit)


def _select_sql(
    items: list[str],
    table: str,
    predicates: list[str],
    group_columns: tuple[str, ...] | list[str],
    limit: int | None,
) -> str:
    sql = f"SELECT {', '.join(items)} FROM {table}"
    if predicates:
        sql += " WHERE " + " AND ".join(predicates)
    if group_columns:
        sql += " GROUP BY " + ", ".join(group_columns)
    if limit is not None:
        sql += f" LIMIT {limit}"
    return sql


def _groupby_parts(
    expression: LogicalOp,
) -> tuple[GroupBy, int | None, tuple[str, ...] | None] | None:
    """A ``GroupBy`` under limits and at most one projection, or None.

    OQL's limit clause applies after grouping, exactly like SQL's LIMIT, and
    a projection over the grouped record narrows the SELECT list to a subset
    of the group outputs (GROUP BY still names every key); a projection is
    one-to-one per row, so the two render alike in either order.
    """
    limit: int | None = None
    projected: tuple[str, ...] | None = None
    node = expression
    while isinstance(node, (Limit, Project)):
        if isinstance(node, Limit):
            limit = node.count if limit is None else min(limit, node.count)
        elif projected is None:
            projected = node.attributes
        else:
            return None
        node = node.child
    return (node, limit, projected) if isinstance(node, GroupBy) else None


def _decompose(expression: LogicalOp) -> _Parts:
    if isinstance(expression, Get):
        return [], _name(expression.collection), [], None
    if isinstance(expression, Limit):
        columns, table, predicates, limit = _decompose(expression.child)
        limit = expression.count if limit is None else min(limit, expression.count)
        return columns, table, predicates, limit
    if isinstance(expression, Project):
        # Projection is one-to-one per row, so a limit below it renders
        # identically to SQL's project-then-LIMIT evaluation order.
        columns, table, predicates, limit = _decompose(expression.child)
        return [_name(attribute) for attribute in expression.attributes], table, predicates, limit
    if isinstance(expression, Select):
        columns, table, predicates, limit = _decompose(expression.child)
        if limit is not None:
            # SQL filters before it limits; a selection *above* a limit
            # would change which rows survive, so it has no rendering.
            raise WrapperError("cannot translate a selection above a limit to SQL")
        predicates = predicates + [_predicate_sql(expression.predicate)]
        return columns, table, predicates, limit
    raise WrapperError(f"cannot translate {expression.to_text()} to SQL")


def _name(name: str) -> str:
    """A table or column name as the dialect reads it: a keyword has no rendering.

    The dialect quotes no identifiers, so a column called ``limit`` or
    ``group`` (legal in OQL) is refused here and the work stays at the
    mediator, instead of shipping a statement the source cannot parse.
    """
    if name.upper() in SQL.keywords:
        raise WrapperError(f"cannot use the SQL keyword {name!r} as a name")
    return name


def _groupby_sql(node: GroupBy, limit: int | None, projected: tuple[str, ...] | None) -> str:
    """Render ``GroupBy`` (optionally projected/limited above) as a grouped SELECT."""
    _, table, predicates, child_limit = _decompose(node.child)
    if child_limit is not None:
        # SQL groups before it limits; a limit *below* the grouping would
        # change which rows are aggregated, so it has no rendering.
        raise WrapperError("cannot translate grouping above a limit to SQL")
    rendered: dict[str, str] = {}
    group_columns: list[str] = []
    for name, expr in node.keys:
        column = _key_column(expr)
        group_columns.append(column)
        rendered[name] = column if column == name else f"{column} AS {_name(name)}"
    for name, func, arg in node.aggregates:
        rendered[name] = f"{_aggregate_sql(node.variable, func, arg)} AS {_name(name)}"
    if projected is None:
        items = list(rendered.values())
    else:
        missing = [name for name in projected if name not in rendered]
        if missing:
            raise WrapperError(f"cannot project {', '.join(missing)} out of a grouped SELECT")
        items = [rendered[name] for name in projected]
    return _select_sql(items, table, predicates, group_columns, limit)


def _key_column(expr: Expr) -> str:
    if isinstance(expr, Path) and isinstance(expr.base, Var):
        return _name(expr.attribute)
    raise WrapperError(f"cannot translate grouping key {expr.to_oql()} to SQL")


def _aggregate_sql(variable: str, func: str, arg: Expr) -> str:
    if isinstance(arg, Var) and arg.name == variable:
        if func == "count":
            # Counting the row variable counts rows; source rows are
            # structs and never NULL, so COUNT(*) matches exactly.
            return "COUNT(*)"
        raise WrapperError(f"cannot translate {func} over whole rows to SQL")
    if isinstance(arg, Path) and isinstance(arg.base, Var):
        return f"{func.upper()}({_name(arg.attribute)})"
    raise WrapperError(f"cannot translate aggregate argument {arg.to_oql()} to SQL")


# -- predicates ------------------------------------------------------------------------------
def _predicate_sql(predicate: Expr) -> str:
    """``predicate`` as a SQL condition, or :class:`WrapperError` when it has none."""
    if isinstance(predicate, Comparison):
        op = "<>" if predicate.op == "!=" else predicate.op
        return f"{_operand_sql(predicate.left)} {op} {_operand_sql(predicate.right)}"
    if isinstance(predicate, InList):
        if not predicate.items:
            # ``x in ()`` is unsatisfiable and has no SQL spelling --
            # ``IN ()`` is a syntax error in the dialect.  The probe
            # runner filters empty batches before they get here; this
            # guard keeps any other caller from shipping invalid SQL.
            raise WrapperError("cannot translate an empty IN list to SQL")
        if not all(isinstance(item, Const) for item in predicate.items):
            raise WrapperError("cannot translate an IN list of non-constants to SQL")
        items = ", ".join(_operand_sql(item) for item in predicate.items)
        return f"{_operand_sql(predicate.operand)} IN ({items})"
    if isinstance(predicate, BooleanExpr):
        if predicate.op == "not":
            return f"NOT ({_predicate_sql(predicate.operands[0])})"
        joiner = f" {predicate.op.upper()} "
        return "(" + joiner.join(_predicate_sql(p) for p in predicate.operands) + ")"
    raise WrapperError(f"cannot translate predicate {predicate.to_oql()} to SQL")


def _operand_sql(operand: Expr) -> str:
    """A column or a literal: what the dialect's comparisons take."""
    if isinstance(operand, Path) and isinstance(operand.base, Var):
        return _name(operand.attribute)
    if isinstance(operand, Const):
        value = operand.value
        if value is None:
            return "NULL"
        if isinstance(value, bool):
            return "TRUE" if value else "FALSE"
        if isinstance(value, str):
            return SQL.quote(value)
        if isinstance(value, (int, float)):
            if isinf(value):
                # ``repr`` writes ``inf``, a column name to SQL; the number
                # scanner reads an overflowing exponent as infinity.
                return "1e999" if value > 0 else "-1e999"
            return repr(value)
    raise WrapperError(f"cannot translate operand {operand.to_oql()} to SQL")
