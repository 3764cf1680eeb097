"""Which fields of an algebra node are its operands: one rule for all three hierarchies.

The algebra is three closed hierarchies of frozen dataclass nodes: logical
operators (``LogicalOp``), physical algorithms (``PhysicalOp``) and scalar
expressions (``Expr``).  A field is an *operand* when its type is the
hierarchy's own root, a tuple of the root or -- ``StructExpr``'s fields -- a
tuple of ``(name, root)`` pairs; every other field is carried as it is.  So
``Submit.expression`` is a child, while ``Exec.expression``/``Exec.source``,
``ProbeJoin.probe`` (an ``Exec``, not any physical node), ``Subquery.query``
(an OQL AST) and ``BindJoin.condition`` (an ``Expr`` on a logical node) are not.

A class's field types are read once, on its first ``children()`` or
``with_children()`` call, and what they give is kept on the class as two plain
methods: the optimizer rebuilds hundreds of nodes per plan search, and walking
the fields per call measured +50% on its own time (and -5% queries/s) on
never-seen texts.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from itertools import takewhile
from operator import attrgetter
from types import FunctionType
from typing import Any, Callable, Iterator, Sequence, get_type_hints

#: how an operand field holds its operands: one node, a tuple, (name, node) pairs
ONE, MANY, PAIRS = "one", "many", "pairs"

Builder = Callable[[Any, Sequence[Any]], Any]


class Node:
    """Mixin of a hierarchy's root: ``children``/``with_children`` from field types.

    The two methods here run once per concrete class; they put that class's
    own pair on it (:func:`install`) and call it.
    """

    def children(self) -> tuple[Any, ...]:
        """The operands, left to right."""
        install(type(self))
        return self.children()

    def with_children(self, children: Sequence[Any]) -> Any:
        """A copy of this node with ``children`` as its operands."""
        install(type(self))
        return self.with_children(children)


def root_of(cls: type) -> type:
    """The hierarchy root ``cls`` belongs to (the class that mixes in :class:`Node`)."""
    return next(base for base in cls.__mro__ if Node in base.__bases__)


def operand_kinds(cls: type) -> dict[str, str]:
    """``{field name: ONE | MANY | PAIRS}`` for ``cls``'s operand fields, in order."""
    if not is_dataclass(cls):
        return {}
    root = root_of(cls)
    kinds = {root: ONE, tuple[root, ...]: MANY, tuple[tuple[str, root], ...]: PAIRS}
    hints = get_type_hints(cls)
    return {f.name: kinds[hints[f.name]] for f in fields(cls) if hints[f.name] in kinds}


def install(cls: type) -> None:
    """Put ``cls``'s own ``children``/``with_children`` on it."""
    if Node in cls.__bases__:
        raise TypeError(f"{cls.__name__} is a hierarchy root, not a node class")
    kinds = operand_kinds(cls)
    get = _children(kinds)
    # an ``attrgetter`` is no descriptor: as a class attribute it would not bind
    cls.children = get if isinstance(get, FunctionType) else lambda node: get(node)
    cls.with_children = builder(cls, cls) if kinds else _no_operands


def builder(target: type, source: type) -> Builder:
    """``(node, children) -> target(...)`` for a ``node`` of class ``source``.

    ``target``'s operands are ``children``, in order: one per single field,
    the rest to its one tuple field (a pair field keeps ``node``'s names).
    Each other field is the one ``node`` carries under the same name, up to
    the first it lacks: ``Join``'s variable names, which no join algorithm
    keeps, have defaults.  With ``source`` equal to ``target`` this is
    ``with_children``; across :data:`~repro.algebra.physical.IMPLEMENTS` it
    is :func:`~repro.algebra.physical.counterpart`.
    """
    kinds = operand_kinds(target)
    names = [f.name for f in fields(target)]
    theirs = {f.name for f in fields(source)}
    if not kinds:
        take = _getter(list(takewhile(theirs.__contains__, names)))
        return lambda node, children: target(*take(node))
    first = names.index(next(iter(kinds)))
    end = first + len(kinds)
    if list(kinds) != names[first:end]:
        raise TypeError(f"{target.__name__}: operand fields must be adjacent")
    before = _getter(names[:first])
    after = _getter(list(takewhile(theirs.__contains__, names[end:])))
    shapes = list(kinds.values())
    if MANY not in shapes and PAIRS not in shapes:
        return lambda node, children: target(*before(node), *children, *after(node))
    if shapes == [MANY]:
        return lambda node, children: target(*before(node), tuple(children), *after(node))
    if len(shapes) - shapes.count(ONE) > 1:
        raise TypeError(f"{target.__name__}: at most one tuple operand field")
    singles = shapes.count(ONE)

    def operands(node: Any, children: Sequence[Any]) -> Iterator[Any]:
        spare, at = len(children) - singles, 0
        for name, kind in kinds.items():
            if kind is ONE:
                yield children[at]
                at += 1
                continue
            part = tuple(children[at : at + spare])
            at += spare
            if kind is PAIRS:
                part = tuple(zip([label for label, _ in getattr(node, name)], part))
            yield part

    return lambda node, children: target(*before(node), *operands(node, children), *after(node))


def walk(node: Any) -> Iterator[Any]:
    """Yield ``node`` and every node below it, parents before children."""
    yield node
    for child in node.children():
        yield from walk(child)


def _children(kinds: dict[str, str]) -> Callable[[Any], tuple[Any, ...]]:
    """``node -> its operands`` for a class with operand fields ``kinds``."""
    names = list(kinds)
    shapes = list(kinds.values())
    if MANY not in shapes and PAIRS not in shapes:
        return _getter(names)
    if shapes == [MANY]:
        return attrgetter(names[0])

    def children(node: Any) -> tuple[Any, ...]:
        result: list[Any] = []
        for name, kind in kinds.items():
            value = getattr(node, name)
            if kind is ONE:
                result.append(value)
            elif kind is MANY:
                result.extend(value)
            else:
                result.extend([operand for _, operand in value])
        return tuple(result)

    return children


def _getter(names: Sequence[str]) -> Callable[[Any], tuple[Any, ...]]:
    """``node -> the tuple of its fields named ``names```` (``()`` for none)."""
    if not names:
        return lambda node: ()
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda node: (get(node),)
    return attrgetter(*names)


def _no_operands(node: Any, children: Sequence[Any]) -> Any:
    """``with_children`` of a node with no operands: the node itself."""
    if children:
        raise ValueError(f"{type(node).__name__} takes no children")
    return node
