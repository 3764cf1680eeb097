"""Name-space planning: how a pushdown crosses the submit boundary.

Paper Section 2.1: every extent carries a *local transformation map* between
the mediator's vocabulary (interface attribute names, extent names) and the
data source's (column names, collection names).  Before an expression is
given to a wrapper it is translated into the source's vocabulary, and the
rows that come back are renamed into the mediator's.  These are functions of
a registry -- the mediator's internal database -- and of nothing else: the
executor calls them once per compiled exec call
(:meth:`~repro.runtime.executor.Executor.compile_call`), and at call time
only for expressions that did not exist when the plan was compiled (a rung of
the degrade ladder, a per-batch probe expression).

:func:`namespace_plan` is the entry point.  A submit ranges over one extent
-- every pushable operator has one operand -- so a pushdown is translated
with that extent's map, and its rows come back through the map's reverse.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol

from repro.algebra import logical as log
from repro.datamodel.extent import MetaExtent
from repro.datamodel.mapping import rename_row
from repro.errors import SchemaError
from repro.runtime.operators import as_struct


class RuntimeRegistry(Protocol):
    """What the run-time system needs from the mediator's internal database."""

    schema_version: int

    def extent(self, name: str) -> MetaExtent: ...

    def wrapper_object(self, name: str) -> Any: ...

    def interface_attributes(self, interface_name: str) -> list[str]: ...


def row_normaliser(renames: Mapping[str, str]) -> Callable[[Any], Any]:
    """The function taking one source row to mediator vocabulary.

    Chosen once per call, not once per row: with nothing to rename (an
    identity map, or rows renamed already) no row is rebuilt key by key.
    Either way mappings come out as :class:`~repro.datamodel.values.Struct`\\ s
    (:func:`~repro.runtime.operators.as_struct`) and non-mapping values
    (scalars from projected single columns, nested bags) pass through
    unchanged.  Shared by exec calls and probe calls so malformed-row
    handling cannot diverge between them.
    """
    if not renames:
        return as_struct

    def renamed(raw: Any) -> Any:
        if type(raw) is dict or isinstance(raw, Mapping):
            return rename_row(raw, renames)
        return raw

    return renamed


def _wrapper_accepts(wrapper: Any, expression: log.LogicalOp) -> bool:
    """True when the wrapper's declared capabilities accept ``expression``."""
    try:
        return bool(wrapper.submit_functionality().admits(expression))
    except Exception:
        return False


@dataclass(slots=True)
class NamespacePlan:
    """How one pushdown crosses the submit boundary (name-space planning).

    ``expression`` is what is actually given to the wrapper: the pushdown in
    the source's vocabulary.  ``reverse`` maps returned row attributes back
    to mediator vocabulary, and ``normalise`` is the row function applying
    it (:func:`row_normaliser`).
    """

    expression: log.LogicalOp
    reverse: dict[str, str] = field(default_factory=dict)
    normalise: Callable[[Any], Any] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.normalise = row_normaliser(self.reverse)


def _meta_for_collection(
    registry: RuntimeRegistry, name: str, default: MetaExtent
) -> MetaExtent | None:
    """The MetaExtent a ``get(name)`` refers to, or None for a non-extent name."""
    if name == default.name:
        return default
    try:
        return registry.extent(name)
    except SchemaError:
        return None


def namespace_plan(
    registry: RuntimeRegistry, expression: log.LogicalOp, meta: MetaExtent
) -> NamespacePlan:
    """Plan how ``expression`` crosses the submit boundary for one extent.

    The reverse map is that of the extent the pushdown's ``get`` names (none
    for a pushdown over literal data).
    """
    reverse: dict[str, str] = {}
    for node in log.walk(expression):
        if isinstance(node, log.Get):
            node_meta = _meta_for_collection(registry, node.collection, meta)
            if node_meta is not None:
                reverse = dict(node_meta.map.source_to_mediator)
            break
    return NamespacePlan(to_source_namespace(registry, expression, meta), reverse)


def to_source_namespace(
    registry: RuntimeRegistry, expression: log.LogicalOp, meta: MetaExtent
) -> log.LogicalOp:
    """Rename collections and attributes from mediator to source vocabulary."""
    translated, _ = _translate(registry, expression, meta)
    return translated


def _translate(
    registry: RuntimeRegistry, node: log.LogicalOp, meta: MetaExtent
) -> tuple[log.LogicalOp, dict[str, str]]:
    """Translate ``node``; also return the renames its subtree is under.

    A subtree the maps leave as it is (an identity map is the common case)
    is returned itself, not rebuilt: nodes are immutable, and a compiled
    call then holds no second copy of the plan's own expression.
    """
    if isinstance(node, log.Get):
        node_meta = _meta_for_collection(registry, node.collection, meta)
        if node_meta is None:
            return node, {}
        source_name = node_meta.source_name()
        source_get = node if source_name == node.collection else log.Get(source_name)
        return source_get, dict(node_meta.map.mediator_to_source)
    visited = [_translate(registry, child, meta) for child in node.children()]
    children = [translated for translated, _ in visited]
    same_children = all(new is old for new, old in zip(children, node.children()))
    renames: dict[str, str] = {}
    for _, child_renames in visited:
        renames.update(child_renames)
    # Nothing is renamed beneath and nothing was rebuilt: the node's own
    # attribute references stand as they are.
    untouched = same_children and not renames
    if isinstance(node, log.Project):
        if untouched:
            return node, renames
        return (
            log.Project(
                tuple(renames.get(attr, attr) for attr in node.attributes), children[0]
            ),
            renames,
        )
    if isinstance(node, log.Select):
        if untouched:
            return node, renames
        return (
            log.Select(node.variable, node.predicate.rename_attributes(renames), children[0]),
            renames,
        )
    if isinstance(node, log.GroupBy):
        # Key and aggregate expressions read the child's (source)
        # attribute names; above the groupby only its own output
        # names -- chosen at the mediator -- are visible.
        outputs = {name: name for name in node.output_attributes()}
        if untouched:
            return node, outputs
        keys = tuple((name, expr.rename_attributes(renames)) for name, expr in node.keys)
        aggregates = tuple(
            (name, func, arg.rename_attributes(renames))
            for name, func, arg in node.aggregates
        )
        return log.GroupBy(node.variable, keys, aggregates, children[0]), outputs
    if same_children:
        return node, renames
    return node.with_children(children), renames
