"""Translation of bound OQL ASTs into logical algebra (paper Section 3.2).

"When the query optimizer transforms an OQL query into a logical expression,
references to extents are transformed into the submit operator."  The
translator does exactly that: every :class:`~repro.oql.ast.BoundExtent`
becomes ``submit(<repository>, get(<extent>))``, a query over an implicit
type extent becomes a union of submits (one per data source), and the select
block's projection and predicate become ``project`` / ``select`` operators on
top -- the starting point from which the transformation rules push work
towards the wrappers.
"""

from __future__ import annotations

from typing import Callable

from typing import Mapping

from repro.algebra.expressions import (
    AGGREGATE_FUNCTIONS,
    BagExpr,
    Expr,
    FunctionCall,
    Path,
    StructExpr,
    Subquery,
    Var,
    contains_subquery,
    walk_expr,
)
from repro.algebra.logical import (
    Apply,
    BagLiteral,
    BindJoin,
    Distinct,
    Flatten,
    Get,
    GroupBy,
    Limit,
    LogicalOp,
    Project,
    Select,
    Submit,
    Union,
)
from repro.datamodel.values import Struct
from repro.errors import NameResolutionError, QueryExecutionError
from repro.oql.ast import (
    BagLiteralQuery,
    BoundExtent,
    CollectionRef,
    ExprQuery,
    FlattenQuery,
    MetaExtentCollection,
    QueryNode,
    SelectQuery,
    UnionQuery,
)

MetaExtentRowsProvider = Callable[[], list[Struct]]


class Translator:
    """Translate bound query ASTs into logical plans."""

    def __init__(self, metaextent_rows: MetaExtentRowsProvider | None = None):
        self._metaextent_rows = metaextent_rows

    # -- entry point ----------------------------------------------------------------------
    def translate(self, query: QueryNode) -> LogicalOp:
        """Translate a *bound* collection query into a logical plan.

        Scalar queries (:class:`ExprQuery`) have no collection-level plan and
        are evaluated directly by the run-time system; asking for their plan
        is an error so callers handle them explicitly.
        """
        if isinstance(query, ExprQuery):
            raise QueryExecutionError(
                "scalar expression queries are evaluated directly, not planned"
            )
        return self._collection(query)

    # -- collections ------------------------------------------------------------------------
    def _collection(self, query: QueryNode) -> LogicalOp:
        if isinstance(query, BoundExtent):
            meta = query.meta
            return Submit(meta.repository.name, Get(meta.name), extent_name=meta.name)
        if isinstance(query, CollectionRef):
            raise NameResolutionError(
                f"collection {query.name!r} was not bound before translation"
            )
        if isinstance(query, MetaExtentCollection):
            rows = self._metaextent_rows() if self._metaextent_rows is not None else []
            return BagLiteral(tuple(rows))
        if isinstance(query, UnionQuery):
            return Union(tuple(self._collection(part) for part in query.parts))
        if isinstance(query, FlattenQuery):
            return Flatten(self._collection(query.child))
        if isinstance(query, BagLiteralQuery):
            return self._bag_literal(query)
        if isinstance(query, SelectQuery):
            return self._select(query)
        raise QueryExecutionError(f"cannot translate query node {query!r}")

    def _bag_literal(self, query: BagLiteralQuery) -> LogicalOp:
        """Translate ``bag(...)`` used as a collection.

        Constant items become literal data.  Items that are themselves queries
        (the paper's ``personnew`` view builds a bag of two selects) are
        evaluated by the mediator: the whole constructor becomes a single
        apply over a dummy element, producing one bag value that combines the
        sub-results; ``flatten`` then merges them exactly as in the paper.
        """
        if any(contains_subquery(item) or item.free_variables() for item in query.items):
            from repro.algebra.expressions import BagExpr

            return Apply("_bag", BagExpr(tuple(query.items)), BagLiteral((0,)))
        return BagLiteral(tuple(item.evaluate({}) for item in query.items))

    # -- select blocks -----------------------------------------------------------------------
    def _select(self, query: SelectQuery) -> LogicalOp:
        if len(query.bindings) == 1:
            plan = self._single_binding_select(query)
        else:
            if query.group_by is not None:
                raise QueryExecutionError(
                    "group by supports a single from binding; join in a nested "
                    "select and group over its result instead"
                )
            plan = self._multi_binding_select(query)
        if query.distinct:
            plan = Distinct(plan)
        if query.limit is not None:
            # Outermost: the limit applies to the final answer; the rewrite
            # rules then push it through projections/applies/unions.
            plan = Limit(query.limit, plan)
        return plan

    def _single_binding_select(self, query: SelectQuery) -> LogicalOp:
        binding = query.bindings[0]
        variable = binding.variable
        plan = self._collection(binding.collection)
        if query.where is not None:
            plan = Select(variable, query.where, plan)
        aggregate_calls = _grouping_aggregates(query.item, variable)
        if query.group_by is not None or aggregate_calls:
            return self._grouped_select(query, variable, plan, aggregate_calls)
        return self._apply_item(plan, variable, query.item)

    def _grouped_select(
        self,
        query: SelectQuery,
        variable: str,
        plan: LogicalOp,
        aggregate_calls: list[FunctionCall],
    ) -> LogicalOp:
        """Translate a summarization block into a :class:`GroupBy` plan.

        The grouping keys and the aggregate calls move into the ``groupby``
        operator; the select item is then rewritten over the operator's
        output rows -- each key expression becomes a path to its key
        attribute and each aggregate call a path to its aggregate attribute
        -- so an item that merely lists them needs no operator at all, and
        anything else (arithmetic over aggregates, renamed fields) becomes
        the usual mediator-side apply.
        """
        keys = tuple(query.group_by or ())
        taken = {name for name, _ in keys}
        aggregates: list[tuple[str, str, Expr]] = []
        element = Var(variable)
        replacements: dict[Expr, Expr] = {}
        for call in aggregate_calls:
            name = _aggregate_name(query.item, call, taken)
            taken.add(name)
            aggregates.append((name, call.name, call.args[0]))
            replacements[call] = Path(element, name)
        for name, expr in keys:
            replacements.setdefault(expr, Path(element, name))
        grouped = GroupBy(variable, keys, tuple(aggregates), plan)
        item = _replace_expressions(query.item, replacements)
        outputs = grouped.output_attributes()
        _check_grouped_item(item, variable, set(outputs))
        canonical = StructExpr(tuple((name, Path(element, name)) for name in outputs))
        if item == canonical:
            # The item is exactly the group row: the groupby already
            # produces the answer shape.
            return grouped
        return self._apply_item(grouped, variable, item)

    def _apply_item(self, plan: LogicalOp, variable: str, item: Expr) -> LogicalOp:
        # ``select x from ...`` keeps the element unchanged.
        if isinstance(item, Var) and item.name == variable:
            return plan
        # ``select x.name from ...`` yields bare values: the column reduction
        # (project, pushable to the wrapper) is followed by a mediator-side
        # apply extracting the value out of the single-field record.
        if isinstance(item, Path) and isinstance(item.base, Var) and item.base.name == variable:
            return Apply(variable, item, Project((item.attribute,), plan))
        # ``select struct(a: x.a, b: x.b) from ...`` with matching field names
        # is a pure projection (the answer is a bag of structs).
        if isinstance(item, StructExpr) and self._is_simple_projection(item, variable):
            return Project(tuple(name for name, _ in item.fields), plan)
        # Anything else (arithmetic, renamed fields, aggregates, nested
        # subqueries) is computed by the mediator.
        return Apply(variable, item, plan)

    def _is_simple_projection(self, item: StructExpr, variable: str) -> bool:
        for name, value in item.fields:
            if not (
                isinstance(value, Path)
                and isinstance(value.base, Var)
                and value.base.name == variable
                and value.attribute == name
            ):
                return False
        return True

    def _multi_binding_select(self, query: SelectQuery) -> LogicalOp:
        # Fold the bindings left to right into a BindJoin tree whose elements
        # are variable environments; predicates and the select item are then
        # evaluated over those environments at the mediator.
        bindings = list(query.bindings)
        plan = self._collection(bindings[0].collection)
        bound_variables = [bindings[0].variable]
        for binding in bindings[1:]:
            right = self._collection(binding.collection)
            plan = BindJoin(
                plan,
                right,
                left_variable=bound_variables[-1] if len(bound_variables) == 1 else "_env",
                right_variable=binding.variable,
                condition=None,
            )
            bound_variables.append(binding.variable)
        if query.where is not None:
            plan = Select("_env", query.where, plan)
        item = query.item
        if isinstance(item, Var) and len(bound_variables) == 1:
            return plan
        return Apply("_env", item, plan)


def _grouping_aggregates(item: Expr, variable: str) -> list[FunctionCall]:
    """Aggregate calls in ``item`` that range over the select block itself.

    ``count(x)`` / ``sum(x.salary)`` summarize the block's rows and turn the
    select into an aggregate query.  ``sum(select ...)`` -- an aggregate over
    a nested subquery -- keeps its existing scalar-expression semantics and
    is *not* collected; :func:`walk_expr` does not descend into subqueries,
    so aggregates inside a nested select stay invisible here too.
    """
    calls: list[FunctionCall] = []
    for node in walk_expr(item):
        if (
            isinstance(node, FunctionCall)
            and node.name in AGGREGATE_FUNCTIONS
            and len(node.args) == 1
            and not isinstance(node.args[0], Subquery)
            and variable in node.args[0].free_variables()
            and node not in calls
        ):
            calls.append(node)
    return calls


def _aggregate_name(item: Expr, call: FunctionCall, taken: set[str]) -> str:
    """Output attribute name for one aggregate call.

    A struct field whose value is exactly the call donates its name
    (``struct(total: sum(x.sal), ...)`` -> ``total``); a bare aggregate item
    is named after its function; anything else gets a positional ``agg<N>``.
    """
    preferred: str | None = None
    if isinstance(item, StructExpr):
        for name, value in item.fields:
            if value == call:
                preferred = name
                break
    if preferred is None and item == call:
        preferred = call.name
    if preferred is not None and preferred not in taken:
        return preferred
    index = 0
    while f"agg{index}" in taken:
        index += 1
    return f"agg{index}"


def _replace_expressions(expression: Expr, replacements: Mapping[Expr, Expr]) -> Expr:
    """Structurally replace sub-expressions (checked before recursion).

    Relies on the text-based equality/hashing of :class:`Expr`, so two
    occurrences of the same aggregate call or key expression map to the same
    replacement; matched sub-trees are not descended into.
    """
    replaced = replacements.get(expression)
    if replaced is not None:
        return replaced
    return expression.map_operands(lambda operand: _replace_expressions(operand, replacements))


def _check_grouped_item(item: Expr, variable: str, outputs: set[str]) -> None:
    """Reject grouped-item references that are not keys or aggregates.

    After rewriting, every remaining reference to the block variable must be
    a path to one of the groupby's output attributes: ``select struct(d:
    x.dept, nm: x.name) from x in ... group by d: x.dept`` has no
    well-defined value for ``x.name`` within a group.
    """
    if (
        isinstance(item, Path)
        and isinstance(item.base, Var)
        and item.base.name == variable
    ):
        if item.attribute not in outputs:
            raise QueryExecutionError(
                f"attribute {item.attribute!r} in a grouped select item is "
                "neither a grouping key nor an aggregate"
            )
        return
    if isinstance(item, Var) and item.name == variable:
        raise QueryExecutionError(
            f"the select item of a grouped query may reference {variable!r} "
            "only inside grouping keys or aggregate calls"
        )
    for operand in item.children():
        _check_grouped_item(operand, variable, outputs)
