"""Scalar expression language shared by the OQL AST and the algebra.

Expressions are evaluated against an *environment*: a mapping from query
variable names to the current element bound by the enclosing ``from`` clause
(a :class:`~repro.datamodel.values.Struct` or plain dict).  Every node knows
how to ``compile`` itself into a closure over one environment (row loops
compile once, before the loop; ``evaluate`` is compile-and-call for one-off
callers; nothing is cached on a node), report the variables and attribute
paths it uses (what the optimizer may push to a wrapper), rename attributes
(the local transformation maps of Section 2.2.2) and print itself back as
OQL text (partial answers, Section 4).
"""

from __future__ import annotations

import operator
from collections.abc import Mapping
from dataclasses import dataclass
from math import isfinite
from typing import Any, Callable, Iterable

from repro.algebra.nodes import Node, walk
from repro.datamodel.values import Bag, Struct
from repro.errors import QueryExecutionError
from repro.lexing import OQL

Environment = Mapping[str, Any]

Compiled = Callable[[Environment], Any]

#: ``expr`` and every sub-expression in it, pre-order; a ``Subquery``'s body is
#: an OQL AST, not an operand, so nested queries are not entered
walk_expr = walk

COMPARISON_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

ARITHMETIC_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}

AGGREGATE_FUNCTIONS = ("sum", "count", "min", "max", "avg")


def literal_to_oql(value: Any) -> str:
    """Write one value as the OQL literal that reads back as it.

    The one literal writer: constants in predicates, the rows embedded in a
    partial answer and the fields and items nested inside them all come
    through here, so what the mediator writes is what ``parse_query`` reads.
    A partial answer is a few hundred values, hence the dispatch on the exact
    type, commonest first.  ``bool`` is tested before the numbers because
    ``True`` is an ``int``: as a number it would be written ``True``, which
    OQL reads as a name.  Collections, subclasses and foreign mappings take
    the ``isinstance`` arms at the end.
    """
    kind = type(value)
    if kind is str:
        return OQL.quote(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "nil"
    if kind is int or kind is float:
        if kind is float and not isfinite(value):
            # ``str`` gives ``inf``/``nan``, names to OQL: the number scanner reads
            # an overflowing exponent as infinity, and nan (no literal) is inf - inf.
            return "1e999" if value > 0 else "-1e999" if value < 0 else "(1e999 - 1e999)"
        return str(value)
    if kind is Struct or kind is dict or isinstance(value, Mapping):
        fields = value
    elif isinstance(value, (Bag, list, tuple)):
        return "bag(" + ", ".join(map(literal_to_oql, value)) + ")"
    elif isinstance(value, str):
        return OQL.quote(value)
    else:
        return str(value)
    inner = ", ".join([f"{name}: {literal_to_oql(field)}" for name, field in fields.items()])
    return f"struct({inner})"


class Expr(Node):
    """Base class for every scalar expression node (operands: the fields typed ``Expr``)."""

    def compile(self, evaluator=None) -> Compiled:
        """The closure evaluating this expression under one environment.

        Built by one walk of the tree, so a row loop compiles before the loop;
        ``evaluator`` runs nested subqueries; nothing is kept on the node.
        """
        raise NotImplementedError

    def evaluate(self, env: Environment, evaluator=None) -> Any:
        """Evaluate once under ``env`` (the one-off callers' entry point)."""
        return self.compile(evaluator)(env)

    def free_variables(self) -> set[str]:
        """Names of the query variables this expression references."""
        result: set[str] = set()
        for operand in self.children():
            result |= operand.free_variables()
        return result

    def attribute_paths(self) -> set[tuple[str, str]]:
        """``(variable, attribute)`` pairs accessed by this expression."""
        result: set[tuple[str, str]] = set()
        for operand in self.children():
            result |= operand.attribute_paths()
        return result

    def rename_attributes(self, renames: Mapping[str, str]) -> "Expr":
        """Return a copy with attribute names substituted (map application)."""
        return self.map_operands(lambda operand: operand.rename_attributes(renames))

    def map_operands(self, visit: Callable[["Expr"], "Expr"]) -> "Expr":
        """This node over ``visit(operand)`` in place of each operand; a leaf is itself."""
        operands = self.children()
        return self.with_children([visit(operand) for operand in operands]) if operands else self

    def to_oql(self) -> str:
        """Render back to OQL text."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_oql()})"

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.to_oql() == other.to_oql()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.to_oql()))


@dataclass(frozen=True, eq=False)
class Const(Expr):
    """A literal constant."""

    value: Any

    def compile(self, evaluator=None) -> Compiled:
        value = self.value
        return lambda env: value

    def to_oql(self) -> str:
        return literal_to_oql(self.value)


@dataclass(frozen=True, eq=False)
class Var(Expr):
    """A reference to a query variable bound by a ``from`` clause."""

    name: str

    def compile(self, evaluator=None) -> Compiled:
        name = self.name

        def run(env: Environment) -> Any:
            try:
                return env[name]
            except KeyError:
                raise QueryExecutionError(f"unbound variable {name!r}") from None

        return run

    def free_variables(self) -> set[str]:
        return {self.name}

    def to_oql(self) -> str:
        return self.name


@dataclass(frozen=True, eq=False)
class Path(Expr):
    """Attribute access ``base.attribute`` (e.g. ``x.salary``)."""

    base: Expr
    attribute: str

    def compile(self, evaluator=None) -> Compiled:
        base = self.base.compile(evaluator)
        attribute = self.attribute

        def run(env: Environment) -> Any:
            value = base(env)
            if type(value) is Struct or type(value) is dict:
                try:
                    return value[attribute]
                except KeyError:
                    pass
            return read_attribute(value, attribute)

        return run

    def attribute_paths(self) -> set[tuple[str, str]]:
        paths = set(self.base.attribute_paths())
        if isinstance(self.base, Var):
            paths.add((self.base.name, self.attribute))
        return paths

    def rename_attributes(self, renames: Mapping[str, str]) -> "Expr":
        return Path(self.base.rename_attributes(renames), renames.get(self.attribute, self.attribute))

    def to_oql(self) -> str:
        return f"{self.base.to_oql()}.{self.attribute}"


@dataclass(frozen=True, eq=False)
class Comparison(Expr):
    """Binary comparison ``left <op> right`` with op in =, !=, <, <=, >, >=."""

    op: str
    left: Expr
    right: Expr

    def compile(self, evaluator=None) -> Compiled:
        compare = COMPARISON_OPS.get(self.op)
        if compare is None:
            return _raises(f"unknown comparison operator {self.op!r}")
        left = self.left.compile(evaluator)
        right = self.right.compile(evaluator)

        def run(env: Environment) -> bool:
            a, b = left(env), right(env)
            if a is None or b is None:
                return False
            try:
                return compare(a, b)
            except TypeError:
                return False

        return run

    def to_oql(self) -> str:
        return f"{self.left.to_oql()} {self.op} {self.right.to_oql()}"


@dataclass(frozen=True, eq=False)
class InList(Expr):
    """Set-valued membership test ``operand in (item, ...)``.

    This is the batched-probe predicate: a bind join collecting probe keys
    issues one ``select(x: x.attr in (k1, ..., kn), get(...))`` submit per
    batch instead of one submit per key.  Wrappers advertise the ``in``
    capability terminal when they can evaluate it (the SQL dialect renders it
    as ``IN (...)``).  Semantics mirror :class:`Comparison` equality: a None
    operand matches nothing, None items match nothing, incomparable types
    are simply not equal -- whether the items were hashed or not.
    """

    operand: Expr
    items: tuple[Expr, ...]

    def compile(self, evaluator=None) -> Compiled:
        operand = self.operand.compile(evaluator)
        # All-constant items (every probe batch) are hashed once: a row costs
        # one set probe, not one ``==`` per item, and no item is compiled.
        # Nil and NaN items equal nothing (a set would find a NaN by identity)
        # and stay out; one unhashable item means no set, and an unhashable
        # operand value misses it: either is compared item by item.
        members = None
        if all(isinstance(item, Const) for item in self.items):
            values = [item.value for item in self.items]
            candidates = lambda env: values  # noqa: E731
            try:
                members = frozenset(v for v in values if v is not None and v == v)
            except TypeError:
                pass
        else:
            items = [item.compile(evaluator) for item in self.items]
            candidates = lambda env: (item(env) for item in items)  # noqa: E731

        def run(env: Environment) -> bool:
            value = operand(env)
            if value is None:
                return False
            if members is not None:
                try:
                    return value in members
                except TypeError:
                    pass  # an unhashable operand value: compare one by one
            for candidate in candidates(env):
                if candidate is None:
                    continue
                try:
                    if value == candidate:
                        return True
                except TypeError:
                    continue
            return False

        return run

    def to_oql(self) -> str:
        return (
            f"{self.operand.to_oql()} in ("
            + ", ".join(item.to_oql() for item in self.items)
            + ")"
        )


@dataclass(frozen=True, eq=False)
class BooleanExpr(Expr):
    """``and`` / ``or`` / ``not`` combination of predicates."""

    op: str
    operands: tuple[Expr, ...]

    def compile(self, evaluator=None) -> Compiled:
        if self.op not in ("and", "or", "not"):
            return _raises(f"unknown boolean operator {self.op!r}")
        parts = [operand.compile(evaluator) for operand in self.operands]
        if self.op == "not":
            negated = parts[0]
            return lambda env: not negated(env)
        stop = self.op == "or"  # ``or`` ends at its first true operand, ``and`` at its first false

        def run(env: Environment) -> bool:
            for part in parts:
                if bool(part(env)) is stop:
                    return stop
            return not stop

        return run

    def to_oql(self) -> str:
        if self.op == "not":
            return f"not ({self.operands[0].to_oql()})"
        joiner = f" {self.op} "
        return "(" + joiner.join(operand.to_oql() for operand in self.operands) + ")"


@dataclass(frozen=True, eq=False)
class Arithmetic(Expr):
    """Binary arithmetic ``left <op> right`` with op in +, -, *, /."""

    op: str
    left: Expr
    right: Expr

    def compile(self, evaluator=None) -> Compiled:
        compute = ARITHMETIC_OPS.get(self.op)
        if compute is None:
            return _raises(f"unknown arithmetic operator {self.op!r}")
        left = self.left.compile(evaluator)
        right = self.right.compile(evaluator)

        def run(env: Environment) -> Any:
            a, b = left(env), right(env)
            try:
                return compute(a, b)
            except (TypeError, ZeroDivisionError) as exc:
                raise QueryExecutionError(f"cannot compute {self.to_oql()}: {exc}") from exc

        return run

    def to_oql(self) -> str:
        return f"{self.left.to_oql()} {self.op} {self.right.to_oql()}"


@dataclass(frozen=True, eq=False)
class StructExpr(Expr):
    """The OQL ``struct(name: expr, ...)`` constructor."""

    fields: tuple[tuple[str, Expr], ...]

    def compile(self, evaluator=None) -> Compiled:
        fields = [(name, expr.compile(evaluator)) for name, expr in self.fields]
        return lambda env: Struct({name: field(env) for name, field in fields})

    def to_oql(self) -> str:
        inner = ", ".join(f"{name}: {expr.to_oql()}" for name, expr in self.fields)
        return f"struct({inner})"


@dataclass(frozen=True, eq=False)
class BagExpr(Expr):
    """The OQL ``bag(e1, e2, ...)`` constructor."""

    items: tuple[Expr, ...]

    def compile(self, evaluator=None) -> Compiled:
        items = [item.compile(evaluator) for item in self.items]

        def run(env: Environment) -> Bag:
            result = Bag()
            for item in items:
                value = item(env)
                if isinstance(value, Bag):
                    result.extend(value)
                else:
                    result.add(value)
            return result

        return run

    def to_oql(self) -> str:
        return "bag(" + ", ".join(item.to_oql() for item in self.items) + ")"


@dataclass(frozen=True, eq=False)
class FunctionCall(Expr):
    """A call to a built-in function, including the aggregates and ``flatten``.

    Aggregates (``sum``, ``count``, ``min``, ``max``, ``avg``) take a single
    collection-valued argument -- typically a nested ``select`` wrapped in a
    :class:`Subquery`.  Reconciliation functions (Section 2.2.3) are just
    ordinary function calls; ``sum`` over two sources in the paper's
    ``multiple`` view is exactly this node.
    """

    name: str
    args: tuple[Expr, ...]

    def compile(self, evaluator=None) -> Compiled:
        args = [arg.compile(evaluator) for arg in self.args]
        name = self.name.lower()
        return lambda env: self._call(name, [arg(env) for arg in args])

    def _call(self, name: str, values: list[Any]) -> Any:
        if name in AGGREGATE_FUNCTIONS:
            return self._aggregate(name, values)
        if name == "flatten":
            collection = values[0]
            if isinstance(collection, Bag):
                return collection.flatten()
            return Bag(collection).flatten()
        if name == "abs":
            return abs(values[0])
        if name == "ratio":
            # Nil-safe division used by the partial-aggregation combine to
            # recompute ``avg`` from shipped sum/count partials: an empty
            # group's ``avg`` is nil, never a division error.
            if len(values) != 2:
                raise QueryExecutionError("ratio takes exactly two arguments")
            numerator, denominator = values
            if numerator is None or denominator is None or denominator == 0:
                return None
            return numerator / denominator
        if name == "union":
            result = Bag()
            for value in values:
                result.extend(value if isinstance(value, (Bag, list, tuple)) else [value])
            return result
        raise QueryExecutionError(f"unknown function {self.name!r}")

    def _aggregate(self, name: str, values: list[Any]) -> Any:
        if len(values) != 1:
            raise QueryExecutionError(f"aggregate {name!r} takes exactly one argument")
        collection = values[0]
        items = list(collection) if isinstance(collection, (Bag, list, tuple)) else [collection]
        if name == "count":
            return len(items)
        if not items:
            return 0 if name == "sum" else None
        if name == "sum":
            return sum(items)
        if name == "min":
            return min(items)
        if name == "max":
            return max(items)
        if name == "avg":
            return sum(items) / len(items)
        raise QueryExecutionError(f"unknown aggregate {name!r}")

    def to_oql(self) -> str:
        return f"{self.name}(" + ", ".join(arg.to_oql() for arg in self.args) + ")"


@dataclass(frozen=True, eq=False)
class Subquery(Expr):
    """A nested query used as an expression (``sum(select z.salary from ...)``).

    ``query`` is an OQL AST node; evaluation is delegated to the ``evaluator``
    callable supplied by the run-time system, with the enclosing environment
    made available so correlated subqueries (``where x.id = z.id``) work.
    """

    query: Any

    def compile(self, evaluator=None) -> Compiled:
        if evaluator is None:
            return _raises("no evaluator available for nested subquery")
        query = self.query
        return lambda env: evaluator(query, env)

    def free_variables(self) -> set[str]:
        free = getattr(self.query, "free_variables", None)
        return free() if callable(free) else set()

    def to_oql(self) -> str:
        to_oql = getattr(self.query, "to_oql", None)
        return to_oql() if callable(to_oql) else repr(self.query)


# -- helpers -----------------------------------------------------------------------
def read_attribute(value: Any, attribute: str) -> Any:
    """``value.attribute``: a mapping's entry, else an object's attribute (path
    reads take a :class:`Struct`'s fields themselves, and the rest here)."""
    if type(value) is dict or isinstance(value, Mapping):
        try:
            return value[attribute]
        except KeyError:
            raise QueryExecutionError(f"object {value!r} has no attribute {attribute!r}") from None
    if hasattr(value, attribute):
        return getattr(value, attribute)
    raise QueryExecutionError(f"cannot access {attribute!r} on {value!r}")


def _raises(message: str) -> Compiled:
    """A compiled expression that fails when (not before) a row reaches it."""

    def run(env: Environment) -> Any:
        raise QueryExecutionError(message)

    return run


def contains_subquery(expr: Expr) -> bool:
    """Return True when ``expr`` contains a nested :class:`Subquery`."""
    return any(isinstance(node, Subquery) for node in walk_expr(expr))


def conjunction(predicates: Iterable[Expr]) -> Expr | None:
    """Combine predicates with ``and``; return None for an empty iterable."""
    predicates = [p for p in predicates if p is not None]
    if not predicates:
        return None
    if len(predicates) == 1:
        return predicates[0]
    return BooleanExpr("and", tuple(predicates))


def split_conjuncts(predicate: Expr | None) -> list[Expr]:
    """Split a predicate into its top-level ``and`` conjuncts."""
    if predicate is None:
        return []
    if isinstance(predicate, BooleanExpr) and predicate.op == "and":
        result: list[Expr] = []
        for operand in predicate.operands:
            result.extend(split_conjuncts(operand))
        return result
    return [predicate]


def find_equi_conjunct(
    condition: Expr | None, left_variable: str, right_variable: str
) -> tuple[Expr, Expr] | None:
    """Find a ``left.a = right.b`` conjunct usable as a hash/probe-join key.

    Returns the ``(left_expression, right_expression)`` pair oriented so the
    first's free variables are exactly ``{left_variable}`` and the second's
    exactly ``{right_variable}``, whichever way the comparison was written.
    """
    for conjunct in split_conjuncts(condition):
        if not isinstance(conjunct, Comparison) or conjunct.op != "=":
            continue
        left_vars = conjunct.left.free_variables()
        right_vars = conjunct.right.free_variables()
        if left_vars == {left_variable} and right_vars == {right_variable}:
            return conjunct.left, conjunct.right
        if left_vars == {right_variable} and right_vars == {left_variable}:
            return conjunct.right, conjunct.left
    return None
