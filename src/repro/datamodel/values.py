"""Value universe of the DISCO OQL subset.

The paper's answers are bags (``Bag("Mary", "Sam")``) and bags of structs
(``select struct(name: ..., salary: ...) ...``).  A :class:`Bag` is an
unordered collection with duplicates; two bags are equal when every element
occurs with the same multiplicity in both.  A :class:`Struct` is an immutable
record: a ``dict`` whose mutators raise, so that building a row, ``==``,
``len``, iteration, ``get`` and subscript all run in C, and runtime operators
treat rows coming from data sources and structs built by ``struct(...)``
constructors uniformly.

Two rules follow from the representation:

* **The engine reads a field by subscript, never by attribute.**  A field is
  also readable as an attribute (``s.name``), but only when no ``dict``
  method has its name: ``s.items``, ``s.get``, ``s.copy``, ``s.update``,
  ``s.pop`` and the like are the methods, whatever fields the struct has.
  A source may well have a column called ``items`` or ``copy``; OQL paths
  (``x.items``) read it with ``x["items"]``.
* **Immutability is enforced at the public mutators** (``s[k] = v``,
  ``del s[k]``, ``update``, ``pop``, ``popitem``, ``setdefault``, ``clear``,
  ``|=`` and attribute assignment).  The unbound ``dict`` methods
  (``dict.__setitem__(s, k, v)``, ``dict.update(s, ...)``) and a second
  ``s.__init__(...)`` bypass them, as ``object.__setattr__`` could bypass
  the old record class; nothing in the engine calls them.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from typing import Any, NoReturn


class Struct(dict):
    """Immutable named-field record (the OQL ``struct(name: v, ...)`` value).

    Built like a ``dict`` (``Struct(mapping_or_pairs, **fields)``); equal to
    any mapping with the same items, whatever their order; hashable when its
    values are.
    """

    __slots__ = ()

    def _immutable(self, *args: Any, **kwargs: Any) -> NoReturn:
        raise TypeError("Struct is immutable")

    __setitem__ = __delitem__ = update = pop = popitem = setdefault = clear = __ior__ = _immutable

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Struct is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("Struct is immutable")

    def __getattr__(self, name: str) -> Any:
        # Only reached when no dict method has the name (see the module docstring).
        try:
            return self[name]
        except KeyError:
            raise AttributeError(f"struct has no field {name!r}") from None

    def __reduce__(self) -> tuple:
        return Struct, (dict(self),)

    def __hash__(self) -> int:  # type: ignore[override]
        try:
            return hash(frozenset(self.items()))
        except TypeError:
            # Unhashable field values: hash the names alone, so that equal
            # structs still hash equal (and compare by value).
            return hash(frozenset(self))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {v!r}" for k, v in self.items())
        return f"struct({inner})"

    # -- conveniences ------------------------------------------------------
    def fields(self) -> dict[str, Any]:
        """Return a plain mutable dict copy of the fields."""
        return dict(self)

    def project(self, names: Iterable[str]) -> "Struct":
        """Return a new struct containing only ``names`` (missing names error)."""
        return Struct({name: self[name] for name in names})

    def renamed(self, renames: Mapping[str, str]) -> "Struct":
        """Return a struct with fields renamed according to ``renames``.

        Fields not mentioned in ``renames`` keep their names.  Used by the
        local transformation map to convert data-source rows into mediator
        rows (paper Section 2.2.2).
        """
        return Struct({renames.get(k, k): v for k, v in self.items()})


class Bag:
    """Unordered collection with duplicates (the ODMG/OQL ``bag``).

    Equality ignores order but respects multiplicity, matching the paper's
    statement that "the union of two bags is a bag" and the example answers
    such as ``Bag("Mary", "Sam")``.
    """

    __slots__ = ("_items",)

    def __init__(self, items: Iterable[Any] = ()):  # noqa: D401 - simple init
        self._items: list[Any] = list(items)

    # -- collection protocol -------------------------------------------------
    def __iter__(self) -> Iterator[Any]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item: Any) -> bool:
        return item in self._items

    def __bool__(self) -> bool:
        return bool(self._items)

    # -- equality ------------------------------------------------------------
    def _counter(self) -> Counter:
        counter: Counter = Counter()
        for item in self._items:
            try:
                counter[item] += 1
            except TypeError:
                counter[_Unhashable(item)] += 1
        return counter

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bag):
            return NotImplemented
        if len(self._items) != len(other._items):
            return False
        return self._counter() == other._counter()

    def __hash__(self) -> int:
        return hash(frozenset(self._counter().items()))

    def __repr__(self) -> str:
        inner = ", ".join(repr(item) for item in sorted(self._items, key=repr))
        return f"Bag({inner})"

    # -- bag algebra -----------------------------------------------------------
    def union(self, other: "Bag") -> "Bag":
        """Additive bag union: multiplicities add up (paper Section 1.3)."""
        return Bag(self._items + list(other))

    def add(self, item: Any) -> None:
        """Append one element (used while accumulating answers)."""
        self._items.append(item)

    def extend(self, items: Iterable[Any]) -> None:
        """Append every element of ``items``."""
        self._items.extend(items)

    def map(self, func) -> "Bag":
        """Return a new bag with ``func`` applied to every element."""
        return Bag(func(item) for item in self._items)

    def filter(self, predicate) -> "Bag":
        """Return a new bag keeping elements for which ``predicate`` is true."""
        return Bag(item for item in self._items if predicate(item))

    def flatten(self) -> "Bag":
        """Flatten one level of nesting (the OQL ``flatten`` operator)."""
        flat: list[Any] = []
        for item in self._items:
            if isinstance(item, Bag):
                flat.extend(item)
            elif isinstance(item, (list, tuple, set, frozenset)):
                flat.extend(item)
            else:
                flat.append(item)
        return Bag(flat)

    def distinct(self) -> "Bag":
        """Return a bag with duplicates removed (first occurrence kept)."""
        seen: list[Any] = []
        for item in self._items:
            if item not in seen:
                seen.append(item)
        return Bag(seen)

    def to_list(self) -> list[Any]:
        """Return the elements as a plain list (order is arbitrary but stable)."""
        return list(self._items)

    def sorted(self, key=repr) -> list[Any]:
        """Return the elements sorted by ``key`` -- handy for deterministic tests."""
        return sorted(self._items, key=key)


class _Unhashable:
    """Wrapper giving unhashable elements a value-based identity inside Counters."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Unhashable) and self.value == other.value

    def __hash__(self) -> int:
        return hash(repr(self.value))


def make_bag(*items: Any) -> Bag:
    """Build a bag from positional elements: ``make_bag("Mary", "Sam")``."""
    return Bag(items)


def make_struct(**fields: Any) -> Struct:
    """Build a struct from keyword fields: ``make_struct(name="Mary", salary=200)``."""
    return Struct(fields)
