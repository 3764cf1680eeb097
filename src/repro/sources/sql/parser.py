"""Recursive-descent parser for the miniature SQL dialect: SQL text to algebra.

Grammar (roughly)::

    select    := SELECT projection FROM IDENT
                 (WHERE expr)? (GROUP BY column (',' column)*)? (LIMIT number)?
    projection:= '*' | item (',' item)*
    item      := (column | aggregate) (AS IDENT)?
    aggregate := (COUNT | SUM | MIN | MAX | AVG) '(' ('*' | column) ')'
    expr      := term (OR term)*
    term      := factor (AND factor)*
    factor    := NOT factor | '(' expr ')' | comparison
    comparison:= operand cmp_op operand | operand IN '(' literal (',' literal)* ')'
    operand   := column | literal
    literal   := NUMBER | STRING | TRUE | FALSE | NULL
    column    := IDENT ('.' IDENT)?

A statement reads straight into :mod:`repro.algebra` operators, clause by
clause in SQL's evaluation order: ``FROM`` becomes a ``get``, ``WHERE`` a
``select``, ``GROUP BY`` (or an aggregate in the SELECT list) a ``groupby``,
the SELECT list a ``project`` and ``LIMIT`` a ``limit``.  An ``AS`` alias
names a grouped SELECT's items only (the ``groupby``'s output names).
Predicates, grouping keys and aggregate arguments range over the row
variable :data:`ROW`; a column's table qualifier is read and dropped, as a
statement reads one table.  The source evaluates the tree with the one
source-side evaluator, so a pushed predicate means at a SQL source what it
means everywhere else.
"""

from __future__ import annotations

from repro.algebra.expressions import BooleanExpr, Comparison, Const, Expr, InList, Path, Var
from repro.algebra.logical import GroupBy, Get, Limit, LogicalOp, Project, Select
from repro.errors import QueryExecutionError
from repro.lexing import SQL, TokenStream, number_value

#: the variable a statement's predicates, keys and aggregates range over
ROW = "r"

#: the aggregate functions of the dialect (``COUNT(*)`` takes no column).
AGGREGATE_FUNCTIONS = ("COUNT", "SUM", "MIN", "MAX", "AVG")

#: one SELECT-list item: (output name, column or None for ``*``, aggregate
#: function or None for a plain column)
Item = tuple[str, str | None, str | None]


def _path(column: str) -> Path:
    """``r.column``: the column of the row under evaluation."""
    return Path(Var(ROW), column)


class SqlParser(TokenStream):
    """Turn SQL text into the logical algebra tree that answers it."""

    dialect = SQL

    # -- grammar ----------------------------------------------------------------------
    def parse(self) -> LogicalOp:
        """Parse one SELECT statement; trailing input is an error."""
        statement = self._select()
        trailing = self._peek()
        if trailing.kind != "EOF":
            raise self.error(f"unexpected trailing input {trailing.text!r}", trailing)
        return statement

    def _select(self) -> LogicalOp:
        self._expect_keyword("SELECT")
        items = self._projection()
        self._expect_keyword("FROM")
        plan: LogicalOp = Get(self._expect("IDENT").text)
        if self._match_keyword("WHERE"):
            plan = Select(ROW, self._expression(), plan)
        group_by: list[str] = []
        if self._match_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by.append(self._column())
            while self._match_op(","):
                group_by.append(self._column())
        if group_by or any(func is not None for _, _, func in items or ()):
            plan = self._group_by(items, group_by, plan)
        elif items is not None:
            if any(output != column for output, column, _ in items):
                raise QueryExecutionError("AS names the items of a grouped SELECT only")
            plan = Project(tuple(column for _, column, _ in items), plan)
        if self._match_keyword("LIMIT"):
            token = self._expect("NUMBER")
            count = number_value(token.text)
            if not isinstance(count, int) or count < 0:
                raise self.error(f"LIMIT takes a non-negative integer, got {token.text!r}", token)
            plan = Limit(count, plan)
        return plan

    @staticmethod
    def _group_by(items: list[Item] | None, group_by: list[str], child: LogicalOp) -> LogicalOp:
        """``GROUP BY`` and aggregate items as a ``groupby``, narrowed to the SELECT list.

        Each plain item is a grouping key under its output name; a GROUP BY
        column the list leaves out still groups, under its own name, and a
        ``project`` above drops it (and restores the list's order).
        """
        if items is None:
            raise QueryExecutionError("SELECT * cannot be combined with GROUP BY or aggregates")
        keys: list[tuple[str, Expr]] = []
        aggregates: list[tuple[str, str, Expr]] = []
        for output, column, func in items:
            if func is not None:
                argument = Var(ROW) if column is None else _path(column)
                aggregates.append((output, func.lower(), argument))
            elif column in group_by:
                keys.append((output, _path(column)))
            else:
                raise QueryExecutionError(
                    f"column {column!r} must appear in GROUP BY or an aggregate"
                )
        listed = {column for _, column, func in items if func is None}
        keys += [(column, _path(column)) for column in group_by if column not in listed]
        plan = GroupBy(ROW, tuple(keys), tuple(aggregates), child)
        outputs = tuple(output for output, _, _ in items)
        return plan if plan.output_attributes() == outputs else Project(outputs, plan)

    def _projection(self) -> list[Item] | None:
        if self._match_op("*"):
            return None
        items = [self._projection_item()]
        while self._match_op(","):
            items.append(self._projection_item())
        return items

    def _projection_item(self) -> Item:
        token = self._peek()
        if (
            token.kind == "IDENT"
            and token.text.upper() in AGGREGATE_FUNCTIONS
            and self._peek(1).is_op("(")
        ):
            func = self._advance().text.upper()
            self._expect_op("(")
            column = None
            if self._match_op("*"):
                if func != "COUNT":
                    raise self.error(f"{func}(*) is not valid; only COUNT takes '*'", self._peek())
            else:
                column = self._column()
            self._expect_op(")")
            return self._alias(func.lower()), column, func
        column = self._column()
        return self._alias(column), column, None

    def _alias(self, name: str) -> str:
        """``AS alias`` when present, else ``name``."""
        return self._expect("IDENT").text if self._match_keyword("AS") else name

    def _column(self) -> str:
        """A column name; a ``table.`` qualifier is read and dropped."""
        name = self._expect("IDENT").text
        if self._match_op("."):
            return self._expect("IDENT").text
        return name

    def _expression(self) -> Expr:
        operands = [self._term()]
        while self._match_keyword("OR"):
            operands.append(self._term())
        return operands[0] if len(operands) == 1 else BooleanExpr("or", tuple(operands))

    def _term(self) -> Expr:
        operands = [self._factor()]
        while self._match_keyword("AND"):
            operands.append(self._factor())
        return operands[0] if len(operands) == 1 else BooleanExpr("and", tuple(operands))

    def _factor(self) -> Expr:
        if self._match_keyword("NOT"):
            return BooleanExpr("not", (self._factor(),))
        if self._match_op("("):
            inner = self._expression()
            self._expect_op(")")
            return inner
        return self._comparison()

    def _comparison(self) -> Expr:
        left = self._operand()
        if self._match_keyword("IN"):
            return InList(left, self._parenthesized(self._literal, allow_empty=False))
        token = self._advance()
        if token.kind != "OP" or token.text not in ("=", "<>", "!=", "<", "<=", ">", ">="):
            raise self.error(f"expected comparison operator, got {token.text!r}", token)
        op = "!=" if token.text == "<>" else token.text
        return Comparison(op, left, self._operand())

    def _literal(self) -> Const:
        token = self._peek()
        operand = self._operand()
        if not isinstance(operand, Const):
            raise self.error(f"IN list items must be literals, got {token.text!r}", token)
        return operand

    def _operand(self) -> Expr:
        token = self._peek()
        if token.kind == "IDENT":
            return _path(self._column())
        token = self._advance()
        if token.kind == "NUMBER":
            return Const(number_value(token.text))
        if token.kind == "STRING":
            return Const(token.text)
        if token.is_keyword("TRUE"):
            return Const(True)
        if token.is_keyword("FALSE"):
            return Const(False)
        if token.is_keyword("NULL"):
            return Const(None)
        raise self.error(f"expected operand, got {token.text!r}", token)
