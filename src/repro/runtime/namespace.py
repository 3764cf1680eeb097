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

:func:`namespace_plan` is the entry point.  A pushdown referencing several
extents of one source is translated per branch, and when two extents collide
on a source attribute name (both call a column ``nm``, say, but map it to
different mediator attributes) a per-branch ``rename`` alias is injected into
the submitted expression, so rows cross the submit boundary already uniquely
named and the reverse (source-to-mediator) map is collision-free by
construction.  Wrappers that cannot express the aliases never receive such a
pushdown: the plan calls for a split into per-leaf ``get``\\ s recombined at
the mediator (the refuse-to-push fallback) rather than ever returning
mis-renamed rows.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Protocol

from repro.algebra import logical as log
from repro.datamodel.extent import MetaExtent
from repro.datamodel.mapping import rename_row
from repro.datamodel.values import Struct
from repro.errors import SchemaError


class RuntimeRegistry(Protocol):
    """What the run-time system needs from the mediator's internal database."""

    schema_version: int

    def extent(self, name: str) -> MetaExtent: ...

    def wrapper_object(self, name: str) -> Any: ...

    def interface_attributes(self, interface_name: str) -> list[str]: ...


def _as_struct(raw: Any) -> Any:
    """One source row whose attribute names are the mediator's already."""
    kind = type(raw)
    if kind is dict:
        # Copied once: the wrapper may keep and change its own.
        return Struct._adopt(dict(raw))
    if kind is Struct:
        return raw  # immutable: it is the row
    if isinstance(raw, Mapping):
        return Struct._adopt(dict(raw))
    return raw


def row_normaliser(renames: Mapping[str, str]) -> Callable[[Any], Any]:
    """The function taking one source row to mediator vocabulary.

    Chosen once per call, not once per row: with nothing to rename (an
    identity map, or rows renamed already) no row is rebuilt key by key.
    Either way mappings come out as :class:`Struct`\\ s and non-mapping values
    (scalars from projected single columns, nested bags) pass through
    unchanged.  Shared by exec calls, probe calls and the split fallback so
    malformed-row handling cannot diverge between them.
    """
    if not renames:
        return _as_struct

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


@dataclass(frozen=True)
class _BranchAliases:
    """Alias assignment for one extent branch of an aliased pushdown."""

    #: ``(source attribute, output name)`` pairs covering the branch's whole
    #: vocabulary -- the argument of the injected ``rename`` operator.
    pairs: tuple[tuple[str, str], ...]
    #: mediator attribute -> output name, for translating references above.
    mediator_to_output: dict[str, str]


@dataclass(slots=True)
class NamespacePlan:
    """How one pushdown crosses the submit boundary (name-space planning).

    ``expression`` is what is actually given to the wrapper: the pushdown in
    the source's vocabulary, with a per-branch ``rename`` injected wherever
    extents collide on a source attribute name.  ``reverse`` maps returned
    row attributes (source names or aliases) back to mediator vocabulary;
    with aliasing it is collision-free by construction, and ``normalise`` is
    the row function applying it (:func:`row_normaliser`).  When the wrapper
    cannot express the aliases, ``split`` lists the extents to fetch with
    bare per-leaf ``get`` calls instead (the refuse-to-push fallback);
    ``expression`` then stays the *mediator*-namespace pushdown, to be
    replayed at the mediator over the fetched rows.
    """

    expression: log.LogicalOp
    reverse: dict[str, str] = field(default_factory=dict)
    aliased: bool = False
    split: tuple[tuple[str, MetaExtent], ...] | None = None
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


def _branch_vocabulary(registry: RuntimeRegistry, node_meta: MetaExtent) -> dict[str, str]:
    """One extent's source-to-mediator attribute vocabulary, in stable order.

    The keys are the attribute names the source's rows carry (interface
    attributes translated through the local transformation map, plus any
    further map pairs); the values are the mediator names they stand for.
    """
    vocabulary: dict[str, str] = {}
    try:
        interface_attributes = registry.interface_attributes(node_meta.interface)
    except SchemaError:
        interface_attributes = []
    for attribute in interface_attributes:
        vocabulary[node_meta.map.attribute_to_source(attribute)] = attribute
    for source, mediator in node_meta.map.source_to_mediator.items():
        vocabulary.setdefault(source, mediator)
    return vocabulary


def _colliding_attributes(registry: RuntimeRegistry, metas: Iterable[MetaExtent]) -> set[str]:
    """Source attribute names that different extents map to different mediator names."""
    mediator_names: dict[str, set[str]] = {}
    for node_meta in metas:
        for source, mediator in _branch_vocabulary(registry, node_meta).items():
            mediator_names.setdefault(source, set()).add(mediator)
    return {source for source, names in mediator_names.items() if len(names) > 1}


def _alias_plan(
    registry: RuntimeRegistry, metas: Iterable[MetaExtent], colliding: set[str]
) -> tuple[dict[str, _BranchAliases], dict[str, str]]:
    """Per-extent alias assignments plus the merged (collision-free) reverse map.

    Every extent touching a colliding attribute gets a ``rename`` branch
    covering its *whole* vocabulary, with unique output names for the
    colliding attributes; the reverse map then keys on those outputs, so
    no two extents can claim the same row attribute.
    """
    vocabularies = [
        (node_meta, _branch_vocabulary(registry, node_meta)) for node_meta in metas
    ]
    taken: set[str] = set()
    for _, vocabulary in vocabularies:
        taken.update(vocabulary)
        taken.update(vocabulary.values())
    aliases: dict[str, _BranchAliases] = {}
    reverse: dict[str, str] = {}
    for node_meta, vocabulary in vocabularies:
        pairs: list[tuple[str, str]] = []
        mediator_to_output: dict[str, str] = {}
        for source, mediator in vocabulary.items():
            output = source
            if source in colliding:
                output = f"{source}__{node_meta.name}"
                while output in taken:
                    output += "_"
                taken.add(output)
            pairs.append((source, output))
            mediator_to_output[mediator] = output
            reverse[output] = mediator
        aliases[node_meta.name] = _BranchAliases(tuple(pairs), mediator_to_output)
    return aliases, reverse


def _referenced_extents(
    registry: RuntimeRegistry, expression: log.LogicalOp, meta: MetaExtent
) -> dict[str, MetaExtent]:
    """The extents the pushdown's ``get`` nodes name, in first-seen order."""
    resolved: dict[str, MetaExtent] = {}
    for node in log.walk(expression):
        if isinstance(node, log.Get):
            node_meta = _meta_for_collection(registry, node.collection, meta)
            if node_meta is not None and node_meta.name not in resolved:
                resolved[node_meta.name] = node_meta
    return resolved


def split_plan(
    registry: RuntimeRegistry, expression: log.LogicalOp, meta: MetaExtent
) -> NamespacePlan | None:
    """The degrade ladder's last rung: split a refused multi-leaf pushdown.

    A pushed ``join`` or ``union`` the wrapper rejected at call time has no
    operator left to strip; it is fetched as per-leaf ``get`` calls and
    replayed at the mediator -- the refuse-to-push fallback planning uses
    for alias collisions.  ``None`` for any other pushdown.
    """
    if not isinstance(expression, (log.Join, log.Union)):
        return None
    extents = _referenced_extents(registry, expression, meta)
    return NamespacePlan(expression, split=tuple(extents.items()))


def namespace_plan(
    registry: RuntimeRegistry,
    expression: log.LogicalOp,
    meta: MetaExtent,
    wrapper: Any = None,
) -> NamespacePlan:
    """Plan how ``expression`` crosses the submit boundary for one source.

    Detects source attribute names that collide across the extents the
    pushdown actually references (only the ``get`` nodes present -- the
    submit's default extent contributes nothing unless referenced) and
    disambiguates them by injecting a per-branch :class:`~repro.algebra.
    logical.Rename` into the submitted expression, so the reverse map is
    collision-free by construction.  When ``wrapper`` is given and its
    grammar cannot express the aliased expression, the plan instead calls
    for the refuse-to-push fallback: per-leaf ``get`` calls recombined at
    the mediator (never mis-renamed rows).
    """
    resolved = _referenced_extents(registry, expression, meta)
    # One extent cannot collide with itself: the common single-leaf pushdown
    # skips the vocabulary scan (and its registry round trip).
    colliding = _colliding_attributes(registry, resolved.values()) if len(resolved) > 1 else None
    if not colliding:
        reverse: dict[str, str] = {}
        for node_meta in resolved.values():
            reverse.update(node_meta.map.source_to_mediator)
        return NamespacePlan(to_source_namespace(registry, expression, meta), reverse)
    aliases, reverse = _alias_plan(registry, resolved.values(), colliding)
    translated = to_source_namespace(registry, expression, meta, aliases=aliases)
    if wrapper is not None and not _wrapper_accepts(wrapper, translated):
        return NamespacePlan(expression, aliased=True, split=tuple(resolved.items()))
    return NamespacePlan(translated, reverse, aliased=True)


def to_source_namespace(
    registry: RuntimeRegistry,
    expression: log.LogicalOp,
    meta: MetaExtent,
    aliases: Mapping[str, _BranchAliases] | None = None,
) -> log.LogicalOp:
    """Rename collections and attributes from mediator to source vocabulary.

    A pushed-down expression may reference several extents of the same
    wrapper (e.g. a join pushed to one source); each subtree is renamed
    with the map of the extent(s) *it* references, so the two sides of a
    join can carry different local transformation maps.  ``aliases``
    (from :func:`namespace_plan`) additionally wraps each listed extent's
    ``get`` in a :class:`~repro.algebra.logical.Rename`, and every
    attribute reference above it then uses the branch's output names.
    """
    translated, _ = _translate(registry, expression, meta, aliases or {})
    return translated


def _translate(
    registry: RuntimeRegistry,
    node: log.LogicalOp,
    meta: MetaExtent,
    aliases: Mapping[str, _BranchAliases],
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
        source_name = node_meta.e.source_name()
        source_get = node if source_name == node.collection else log.Get(source_name)
        branch = aliases.get(node_meta.name)
        if branch is None:
            return source_get, dict(node_meta.map.mediator_to_source)
        return log.Rename(branch.pairs, source_get), dict(branch.mediator_to_output)
    visited = [_translate(registry, child, meta, aliases) for child in node.children()]
    children = [translated for translated, _ in visited]
    same_children = all(new is old for new, old in zip(children, node.children()))
    if isinstance(node, log.Join):
        (left, left_renames), (right, right_renames) = visited
        left_attr, right_attr, _ = log.join_on(node.on)
        return (
            log.Join(
                left,
                right,
                (
                    left_renames.get(left_attr, left_attr),
                    right_renames.get(right_attr, right_attr),
                ),
                left_variable=node.left_variable,
                right_variable=node.right_variable,
            ),
            {**left_renames, **right_renames},
        )
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
    if isinstance(node, log.Rename):
        # A rename already present in the pushdown: translate the old
        # names it reads; above it only its own outputs are visible.
        outputs = {new: new for _, new in node.pairs}
        if untouched:
            return node, outputs
        pairs = tuple((renames.get(old, old), new) for old, new in node.pairs)
        return log.Rename(pairs, children[0]), outputs
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
        # names -- chosen at the mediator -- are visible, mirroring
        # the Rename case.
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
