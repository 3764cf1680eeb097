"""Recursive-descent parser for the DISCO OQL subset."""

from __future__ import annotations

from typing import Any

from repro.algebra.expressions import (
    Arithmetic,
    BagExpr,
    BooleanExpr,
    Comparison,
    Const,
    Expr,
    FunctionCall,
    InList,
    Path,
    StructExpr,
    Subquery,
    Var,
)
from repro.lexing import OQL, TokenStream, number_value
from repro.oql.ast import (
    BagLiteralQuery,
    Binding,
    CollectionRef,
    DefineStatement,
    ExprQuery,
    FlattenQuery,
    QueryNode,
    SelectQuery,
    UnionQuery,
)

_COMPARISON_OPS = ("=", "!=", "<>", "<", "<=", ">", ">=")
#: the keywords that are literals (what ``Const.to_oql`` writes for them).
_KEYWORD_VALUES = {"true": True, "false": False, "nil": None}
#: the keywords (besides "(") that open a collection-valued query.
_QUERY_KEYWORDS = ("select", "union", "flatten", "bag")


class OqlParser(TokenStream):
    """Parse OQL text into query AST nodes."""

    dialect = OQL

    def __init__(self, text: str):
        super().__init__(text)
        #: >0 while parsing a from-clause collection expression.  ``and x in``
        #: continues the from clause only there; at depth 0 it is an in-list
        #: membership conjunct (``where flag and y in (1, 2)``).
        self._from_depth = 0

    # -- public entry points --------------------------------------------------------
    def parse_query(self) -> QueryNode:
        """Parse a single query; trailing input (except ``;``) is an error."""
        query = self._query()
        self._match_op(";")
        token = self._peek()
        if token.kind != "EOF":
            raise self.error(f"unexpected trailing input {token.text!r}", token)
        return query

    def parse_statement(self) -> QueryNode:
        """Parse either a ``define ... as ...`` statement or a query."""
        if self._peek().is_keyword("define"):
            self._advance()
            name = self._expect("IDENT").text
            self._expect_keyword("as")
            query = self._query()
            self._match_op(";")
            return DefineStatement(name=name, query=query)
        return self.parse_query()

    # -- queries ------------------------------------------------------------------------
    def _query(self) -> QueryNode:
        token = self._peek()
        if token.is_keyword("select"):
            return self._select_query()
        if token.is_keyword("union"):
            self._advance()
            return UnionQuery(self._parenthesized(self._query, allow_empty=False))
        if token.is_keyword("flatten"):
            self._advance()
            self._expect_op("(")
            child = self._query()
            self._expect_op(")")
            return FlattenQuery(child)
        if token.is_keyword("bag"):
            self._advance()
            return BagLiteralQuery(self._parenthesized(self._expression_or_subquery))
        if token.is_op("("):
            self._advance()
            inner = self._query()
            self._expect_op(")")
            return inner
        # An identifier is either a bare collection reference or the start of
        # a scalar expression such as sum(select ...) or x.name; a following
        # "(" means a function call, a "." a path.
        following = self._peek(1)
        if token.kind == "IDENT" and not (following.is_op("(") or following.is_op(".")):
            return self._collection_ref()
        # Anything else is a scalar expression used as a query.
        return ExprQuery(self._expression())

    def _collection_ref(self) -> CollectionRef:
        name = self._expect("IDENT").text
        return CollectionRef(name=name, recursive=self._match_op("*"))

    def _select_query(self) -> SelectQuery:
        self._expect_keyword("select")
        distinct = self._match_keyword("distinct")
        item = self._expression()
        self._expect_keyword("from")
        bindings = [self._binding()]
        # A "," or "and" continues the from clause only when a binding
        # (IDENT "in" ...) follows; otherwise it belongs to an enclosing
        # construct such as union(select ..., select ...).  The paper also
        # separates bindings with "and":
        #   from x in person0 and y in person1
        while (
            self._peek().is_op(",") or self._peek().is_keyword("and")
        ) and self._looks_like_binding(1):
            self._advance()
            bindings.append(self._binding())
        where = None
        if self._match_keyword("where"):
            where = self._expression()
        group_by = self._group_by_clause()
        limit = self._limit_clause()
        return SelectQuery(
            item=item,
            bindings=tuple(bindings),
            where=where,
            distinct=distinct,
            limit=limit,
            group_by=group_by,
        )

    def _group_by_clause(self) -> tuple[tuple[str, Expr], ...] | None:
        # "group" and "by" are soft keywords exactly like "limit": only the
        # two identifiers in clause position (after from/where, before limit)
        # start the clause, so attributes named "group" keep working.
        token = self._peek()
        following = self._peek(1)
        if not (
            token.kind == "IDENT"
            and token.text.lower() == "group"
            and following.kind == "IDENT"
            and following.text.lower() == "by"
        ):
            return None
        self._advance()
        self._advance()
        keys = [self._group_key(0)]
        while self._match_op(","):
            keys.append(self._group_key(len(keys)))
        return tuple(keys)

    def _group_key(self, index: int) -> tuple[str, Expr]:
        # Either ``name: expression`` or a bare expression; bare keys take
        # their output name from the path attribute (or variable name) when
        # there is one, else a positional ``key<N>``.
        token = self._peek()
        if token.kind == "IDENT" and self._peek(1).is_op(":"):
            name = self._advance().text
            self._advance()
            return name, self._expression()
        expression = self._expression()
        if isinstance(expression, Path):
            return expression.attribute, expression
        if isinstance(expression, Var):
            return expression.name, expression
        return f"key{index}", expression

    def _limit_clause(self) -> int | None:
        # "limit" is a soft keyword: only the identifier "limit" in clause
        # position (after from/where) starts the clause, so attributes and
        # collections named "limit" keep working everywhere else.
        token = self._peek()
        if not (token.kind == "IDENT" and token.text.lower() == "limit"):
            return None
        self._advance()
        token = self._expect("NUMBER")
        limit = number_value(token.text)
        if not isinstance(limit, int):
            raise self.error(f"limit takes a non-negative integer, got {token.text!r}", token)
        return limit

    def _looks_like_binding(self, offset: int) -> bool:
        return self._peek(offset).kind == "IDENT" and self._peek(offset + 1).is_keyword("in")

    def _binding(self) -> Binding:
        variable = self._expect("IDENT").text
        self._expect_keyword("in")
        self._from_depth += 1
        try:
            collection = self._collection_expression()
        finally:
            self._from_depth -= 1
        return Binding(variable=variable, collection=collection)

    def _collection_expression(self) -> QueryNode:
        token = self._peek()
        if token.kind == "IDENT" and not self._peek(1).is_op("("):
            return self._collection_ref()
        if token.is_op("(") or (token.kind == "KEYWORD" and token.text in _QUERY_KEYWORDS):
            return self._query()
        return ExprQuery(self._expression())

    # -- expressions -----------------------------------------------------------------------
    def _expression_or_subquery(self) -> Expr:
        if self._peek().is_keyword("select"):
            return Subquery(self._select_query())
        return self._expression()

    def _expression(self) -> Expr:
        return self._or_expression()

    def _or_expression(self) -> Expr:
        operands = [self._and_expression()]
        while self._match_keyword("or"):
            operands.append(self._and_expression())
        if len(operands) == 1:
            return operands[0]
        return BooleanExpr("or", tuple(operands))

    def _and_expression(self) -> Expr:
        operands = [self._not_expression()]
        while self._peek().is_keyword("and") and not (
            self._from_depth > 0 and self._looks_like_binding(1)
        ):
            self._advance()
            operands.append(self._not_expression())
        if len(operands) == 1:
            return operands[0]
        return BooleanExpr("and", tuple(operands))

    def _not_expression(self) -> Expr:
        if self._match_keyword("not"):
            return BooleanExpr("not", (self._not_expression(),))
        return self._comparison()

    def _comparison(self) -> Expr:
        left = self._additive()
        token = self._peek()
        if token.kind == "OP" and token.text in _COMPARISON_OPS:
            self._advance()
            op = "!=" if token.text == "<>" else token.text
            right = self._additive()
            return Comparison(op, left, right)
        # Set-valued membership: ``expr in (item, ...)``.  Only the form with
        # a parenthesized literal list is an expression; a bare ``x in coll``
        # remains a from-clause binding.
        if token.is_keyword("in") and self._peek(1).is_op("("):
            self._advance()
            return InList(left, self._parenthesized(self._additive))
        return left

    def _additive(self) -> Expr:
        left = self._multiplicative()
        while self._peek().is_op("+") or self._peek().is_op("-"):
            op = self._advance().text
            right = self._multiplicative()
            left = Arithmetic(op, left, right)
        return left

    def _multiplicative(self) -> Expr:
        left = self._primary()
        while self._peek().is_op("*") or self._peek().is_op("/"):
            op = self._advance().text
            right = self._primary()
            left = Arithmetic(op, left, right)
        return left

    def _primary(self) -> Expr:
        token = self._peek()
        if token.kind == "NUMBER":
            self._advance()
            return Const(number_value(token.text))
        if token.is_op("-"):
            # Unary minus.  A negated numeric literal folds into the constant,
            # so the "-200" a partial answer writes for a delivered row reads
            # back as the same Const; anything else is 0 - operand.
            self._advance()
            if self._peek().kind == "NUMBER":
                return Const(-number_value(self._advance().text))
            return Arithmetic("-", Const(0), self._primary())
        if token.kind == "STRING":
            self._advance()
            return Const(token.text)
        if token.kind == "KEYWORD" and token.text in _KEYWORD_VALUES:
            self._advance()
            return Const(_KEYWORD_VALUES[token.text])
        if token.is_keyword("struct"):
            return self._struct_expression()
        if token.is_keyword("bag"):
            self._advance()
            return BagExpr(self._parenthesized(self._expression_or_subquery))
        if token.is_keyword("union") or token.is_keyword("flatten"):
            name = self._advance().text
            args = self._parenthesized(self._expression_or_subquery, allow_empty=False)
            return FunctionCall(name, args)
        if token.is_keyword("select"):
            return Subquery(self._select_query())
        if token.is_op("("):
            self._advance()
            if self._peek().is_keyword("select"):
                inner: Expr = Subquery(self._select_query())
            else:
                inner = self._expression()
            self._expect_op(")")
            return inner
        if token.kind == "IDENT":
            return self._identifier_expression()
        raise self.error(f"unexpected token {token.text!r} in expression", token)

    def _struct_expression(self) -> Expr:
        self._expect_keyword("struct")
        return StructExpr(self._parenthesized(self._struct_field))

    def _struct_field(self) -> tuple[str, Expr]:
        name = self._expect("IDENT").text
        self._expect_op(":")
        return name, self._expression_or_subquery()

    def _identifier_expression(self) -> Expr:
        name = self._expect("IDENT").text
        if self._peek().is_op("("):
            return FunctionCall(name, self._parenthesized(self._expression_or_subquery))
        expression: Expr = Var(name)
        while self._match_op("."):
            expression = Path(expression, self._expect("IDENT").text)
        return expression


def parse_query(text: str) -> QueryNode:
    """Parse ``text`` as one OQL query."""
    return OqlParser(text).parse_query()


def parse_statement(text: str) -> QueryNode:
    """Parse ``text`` as one OQL statement (a query or a ``define``)."""
    return OqlParser(text).parse_statement()
