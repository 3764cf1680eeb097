"""Recursive-descent parser for the miniature SQL dialect.

Grammar (roughly)::

    select    := SELECT projection FROM table_ref
                 (JOIN table_ref ON column = column)*
                 (WHERE expr)? (GROUP BY column (',' column)*)? (LIMIT number)?
    table_ref := IDENT | '(' select ')'
    projection:= '*' | item (',' item)*
    item      := (column | aggregate) (AS IDENT)?
    aggregate := (COUNT | SUM | MIN | MAX | AVG) '(' ('*' | column) ')'
    expr      := term (OR term)*
    term      := factor (AND factor)*
    factor    := NOT factor | '(' expr ')' | comparison
    comparison:= operand cmp_op operand
    operand   := column | NUMBER | STRING | TRUE | FALSE | NULL
    column    := IDENT ('.' IDENT)?

``AS`` aliases and derived tables exist for the mediator's namespace
aliasing: a pushed multi-extent join whose source columns collide arrives as
``SELECT * FROM (SELECT id, nm AS nm__emp0 FROM t_emp) JOIN (...) ON ...``,
so each branch's columns are uniquely named *before* the join merges rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.lexing import SQL, TokenStream, number_value


# -- AST ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ColumnRef:
    """A column reference, optionally qualified by a table name and aliased."""

    name: str
    table: str | None = None
    #: output name when the projection item carries ``AS alias``; None keeps
    #: the column's own name.
    alias: str | None = None

    def output_name(self) -> str:
        """The name this column contributes to the result row."""
        return self.alias or self.name

    def render(self) -> str:
        """Render back to SQL text."""
        text = f"{self.table}.{self.name}" if self.table else self.name
        return f"{text} AS {self.alias}" if self.alias else text


#: the aggregate functions of the dialect (``COUNT(*)`` takes no column).
AGGREGATE_FUNCTIONS = ("COUNT", "SUM", "MIN", "MAX", "AVG")


@dataclass(frozen=True)
class AggregateRef:
    """``FUNC(column)`` / ``COUNT(*)`` as a projection item, optionally aliased."""

    func: str  # one of AGGREGATE_FUNCTIONS, upper-cased
    column: ColumnRef | None = None  # None means COUNT(*)
    alias: str | None = None

    def output_name(self) -> str:
        """The name this aggregate contributes to the result row."""
        return self.alias or self.func.lower()

    def render(self) -> str:
        """Render back to SQL text."""
        argument = "*" if self.column is None else self.column.render()
        text = f"{self.func}({argument})"
        return f"{text} AS {self.alias}" if self.alias else text


@dataclass(frozen=True)
class Literal:
    """A constant value in a predicate."""

    value: Any

    def render(self) -> str:
        """Render back to SQL text."""
        if self.value is None:
            return "NULL"
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        if isinstance(self.value, str):
            return SQL.quote(self.value)
        return repr(self.value)


@dataclass(frozen=True)
class Comparison:
    """``left <op> right`` with op in =, <>, <, <=, >, >=."""

    op: str
    left: ColumnRef | Literal
    right: ColumnRef | Literal


@dataclass(frozen=True)
class InPredicate:
    """``operand IN (literal, ...)`` -- the batched-probe membership test."""

    operand: ColumnRef | Literal
    items: tuple[Literal, ...]


@dataclass(frozen=True)
class BooleanExpr:
    """``AND`` / ``OR`` / ``NOT`` combination of predicates."""

    op: str  # AND, OR, NOT
    operands: tuple[Any, ...]


@dataclass(frozen=True)
class JoinClause:
    """``JOIN <table ref> ON <left column> = <right column>``.

    ``table`` is either a table name or a nested :class:`SelectStatement`
    (a derived table).
    """

    table: Any
    left_column: ColumnRef
    right_column: ColumnRef


@dataclass(frozen=True)
class SelectStatement:
    """A parsed SELECT statement.

    ``table`` is either a table name (str) or a nested
    :class:`SelectStatement` -- a derived table, ``FROM (SELECT ...)``.
    """

    columns: tuple[Any, ...] | None  # ColumnRef/AggregateRef items; None means '*'
    table: Any
    joins: tuple[JoinClause, ...] = ()
    where: Any | None = None
    limit: int | None = None
    group_by: tuple[ColumnRef, ...] = ()


# -- parser -------------------------------------------------------------------------
class SqlParser(TokenStream):
    """Turn SQL text into a :class:`SelectStatement`."""

    dialect = SQL

    # -- grammar ----------------------------------------------------------------------
    def parse(self) -> SelectStatement:
        """Parse one SELECT statement; trailing input is an error."""
        statement = self._select()
        trailing = self._peek()
        if trailing.kind != "EOF":
            raise self.error(f"unexpected trailing input {trailing.text!r}", trailing)
        return statement

    def _select(self) -> SelectStatement:
        self._expect_keyword("SELECT")
        columns = self._projection()
        self._expect_keyword("FROM")
        table = self._table_ref()
        joins: list[JoinClause] = []
        while self._match_keyword("JOIN"):
            join_table = self._table_ref()
            self._expect_keyword("ON")
            left = self._column()
            self._expect_op("=")
            right = self._column()
            joins.append(JoinClause(table=join_table, left_column=left, right_column=right))
        where = None
        if self._match_keyword("WHERE"):
            where = self._expression()
        group_by: tuple[ColumnRef, ...] = ()
        if self._match_keyword("GROUP"):
            self._expect_keyword("BY")
            keys = [self._column()]
            while self._match_op(","):
                keys.append(self._column())
            group_by = tuple(keys)
        limit = None
        if self._match_keyword("LIMIT"):
            token = self._expect("NUMBER")
            limit = number_value(token.text)
            if not isinstance(limit, int) or limit < 0:
                raise self.error(f"LIMIT takes a non-negative integer, got {token.text!r}", token)
        return SelectStatement(
            columns=columns,
            table=table,
            joins=tuple(joins),
            where=where,
            limit=limit,
            group_by=group_by,
        )

    def _table_ref(self) -> Any:
        """A table name, or a parenthesized derived table ``(SELECT ...)``."""
        if self._match_op("("):
            statement = self._select()
            self._expect_op(")")
            return statement
        return self._expect("IDENT").text

    def _projection(self) -> tuple[ColumnRef, ...] | None:
        if self._match_op("*"):
            return None
        columns = [self._projection_item()]
        while self._match_op(","):
            columns.append(self._projection_item())
        return tuple(columns)

    def _projection_item(self) -> ColumnRef | AggregateRef:
        token = self._peek()
        if (
            token.kind == "IDENT"
            and token.text.upper() in AGGREGATE_FUNCTIONS
            and self._peek(1).is_op("(")
        ):
            return self._aggregate_item()
        column = self._column()
        if self._match_keyword("AS"):
            alias = self._expect("IDENT").text
            return ColumnRef(name=column.name, table=column.table, alias=alias)
        return column

    def _aggregate_item(self) -> AggregateRef:
        func = self._expect("IDENT").text.upper()
        self._expect_op("(")
        column: ColumnRef | None = None
        if self._match_op("*"):
            if func != "COUNT":
                raise self.error(f"{func}(*) is not valid; only COUNT takes '*'", self._peek())
        else:
            column = self._column()
        self._expect_op(")")
        alias = None
        if self._match_keyword("AS"):
            alias = self._expect("IDENT").text
        return AggregateRef(func=func, column=column, alias=alias)

    def _column(self) -> ColumnRef:
        first = self._expect("IDENT").text
        if self._match_op("."):
            second = self._expect("IDENT").text
            return ColumnRef(name=second, table=first)
        return ColumnRef(name=first)

    def _expression(self) -> Any:
        left = self._term()
        operands = [left]
        while self._match_keyword("OR"):
            operands.append(self._term())
        if len(operands) == 1:
            return left
        return BooleanExpr(op="OR", operands=tuple(operands))

    def _term(self) -> Any:
        left = self._factor()
        operands = [left]
        while self._match_keyword("AND"):
            operands.append(self._factor())
        if len(operands) == 1:
            return left
        return BooleanExpr(op="AND", operands=tuple(operands))

    def _factor(self) -> Any:
        if self._match_keyword("NOT"):
            return BooleanExpr(op="NOT", operands=(self._factor(),))
        if self._match_op("("):
            inner = self._expression()
            self._expect_op(")")
            return inner
        return self._comparison()

    def _comparison(self) -> Comparison | InPredicate:
        left = self._operand()
        if self._match_keyword("IN"):
            return InPredicate(operand=left, items=self._parenthesized(self._literal))
        token = self._advance()
        if token.kind != "OP" or token.text not in ("=", "<>", "!=", "<", "<=", ">", ">="):
            raise self.error(f"expected comparison operator, got {token.text!r}", token)
        op = "<>" if token.text == "!=" else token.text
        right = self._operand()
        return Comparison(op=op, left=left, right=right)

    def _literal(self) -> Literal:
        operand = self._operand()
        if not isinstance(operand, Literal):
            raise self.error(f"IN list items must be literals, got {operand!r}", self._peek())
        return operand

    def _operand(self) -> ColumnRef | Literal:
        token = self._peek()
        if token.kind == "IDENT":
            return self._column()
        token = self._advance()
        if token.kind == "NUMBER":
            return Literal(number_value(token.text))
        if token.kind == "STRING":
            return Literal(token.text)
        if token.is_keyword("TRUE"):
            return Literal(True)
        if token.is_keyword("FALSE"):
            return Literal(False)
        if token.is_keyword("NULL"):
            return Literal(None)
        raise self.error(f"expected operand, got {token.text!r}", token)
