"""Name resolution: turning collection names into bound data-source extents.

The binder resolves the names appearing in ``from`` clauses against the
mediator's internal database:

* an **extent name** (``person0``) resolves to that single data source;
* an **implicit type extent** (``person``) resolves to the union of every
  extent currently declared for the type -- this is the paper's query
  definition expression over ``metaextent``, evaluated here dynamically so
  that adding a new source changes no query;
* a **recursive extent** (``person*``) also includes extents of subtypes;
* a **view name** expands to the view's own (recursively bound) query, with
  cycle detection ("a view can reference other views, as long as the
  references are not cyclic");
* ``metaextent`` resolves to the special meta-data collection.

The binder works against any object implementing :class:`CollectionResolver`;
the mediator registry is the production implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from repro.algebra.expressions import Expr, Subquery
from repro.datamodel.extent import MetaExtent
from repro.errors import NameResolutionError, ViewDefinitionError
from repro.oql.ast import (
    BagLiteralQuery,
    Binding,
    BoundExtent,
    CollectionRef,
    DefineStatement,
    ExprQuery,
    FlattenQuery,
    MetaExtentCollection,
    QueryNode,
    SelectQuery,
    UnionQuery,
)


@dataclass
class ResolvedCollection:
    """What a collection name resolves to."""

    kind: str  # "extents", "view" or "metaextent"
    extents: tuple[MetaExtent, ...] = ()
    view_query: QueryNode | None = None
    view_name: str | None = None


class CollectionResolver(Protocol):
    """The interface the binder needs from the mediator's internal database."""

    def resolve_collection(self, name: str, recursive: bool = False) -> ResolvedCollection:
        """Resolve ``name`` (with the ``*`` flag) or raise :class:`NameResolutionError`."""
        ...


class Binder:
    """Rewrites a query AST so every collection reference is bound."""

    def __init__(self, resolver: CollectionResolver):
        self.resolver = resolver

    # -- queries ------------------------------------------------------------------------
    def bind(self, query: QueryNode, _expanding: frozenset[str] = frozenset()) -> QueryNode:
        """Return a copy of ``query`` with every collection name resolved."""
        if isinstance(query, DefineStatement):
            return DefineStatement(query.name, self.bind(query.query, _expanding))
        if isinstance(query, CollectionRef):
            return self._bind_collection(query, _expanding)
        if isinstance(query, (BoundExtent, MetaExtentCollection)):
            return query
        if isinstance(query, UnionQuery):
            return UnionQuery(tuple(self.bind(part, _expanding) for part in query.parts))
        if isinstance(query, FlattenQuery):
            return FlattenQuery(self.bind(query.child, _expanding))
        if isinstance(query, BagLiteralQuery):
            return BagLiteralQuery(
                tuple(self._bind_expr(item, _expanding) for item in query.items)
            )
        if isinstance(query, ExprQuery):
            return ExprQuery(self._bind_expr(query.expression, _expanding))
        if isinstance(query, SelectQuery):
            bindings = tuple(
                Binding(binding.variable, self.bind(binding.collection, _expanding))
                for binding in query.bindings
            )
            where = (
                self._bind_expr(query.where, _expanding) if query.where is not None else None
            )
            item = self._bind_expr(query.item, _expanding)
            group_by = (
                tuple(
                    (name, self._bind_expr(expr, _expanding))
                    for name, expr in query.group_by
                )
                if query.group_by is not None
                else None
            )
            return SelectQuery(
                item=item,
                bindings=bindings,
                where=where,
                distinct=query.distinct,
                limit=query.limit,
                group_by=group_by,
            )
        raise NameResolutionError(f"cannot bind query node {query!r}")

    # -- collections ---------------------------------------------------------------------
    def _bind_collection(self, ref: CollectionRef, expanding: frozenset[str]) -> QueryNode:
        resolved = self.resolver.resolve_collection(ref.name, recursive=ref.recursive)
        if resolved.kind == "metaextent":
            return MetaExtentCollection()
        if resolved.kind == "extents":
            bound = [BoundExtent(meta) for meta in resolved.extents]
            if not bound:
                # A type with no extents yet: the implicit extent is empty.
                return BagLiteralQuery(())
            if len(bound) == 1:
                return bound[0]
            return UnionQuery(tuple(bound))
        if resolved.kind == "view":
            view_name = resolved.view_name or ref.name
            if view_name in expanding:
                raise ViewDefinitionError(
                    f"cyclic view reference involving {view_name!r}"
                )
            if resolved.view_query is None:
                raise ViewDefinitionError(f"view {view_name!r} has no parsed query")
            return self.bind(resolved.view_query, expanding | {view_name})
        raise NameResolutionError(f"unknown collection kind {resolved.kind!r}")

    # -- expressions -------------------------------------------------------------------------
    def _bind_expr(self, expression: Expr, expanding: frozenset[str]) -> Expr:
        if isinstance(expression, Subquery):
            return Subquery(self.bind(expression.query, expanding))
        return expression.map_operands(lambda operand: self._bind_expr(operand, expanding))
