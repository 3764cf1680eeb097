"""Value universe of the DISCO OQL subset.

The paper's answers are bags (``Bag("Mary", "Sam")``) and bags of structs
(``select struct(name: ..., salary: ...) ...``).  A :class:`Bag` is an
unordered collection with duplicates; two bags are equal when every element
occurs with the same multiplicity in both.  A :class:`Struct` is an immutable
record with named fields accessible both as attributes and by subscript, which
lets runtime operators treat rows coming from data sources and structs built
by ``struct(...)`` constructors uniformly.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from typing import Any


class Struct(Mapping):
    """Immutable named-field record (the OQL ``struct(name: v, ...)`` value).

    Fields are accessible as attributes (``s.name``), by subscript
    (``s["name"]``) and through the full :class:`Mapping` protocol so that
    generic code (projections, join key extraction) can iterate over fields.
    """

    __slots__ = ("_fields",)

    def __init__(self, fields: Mapping[str, Any] | None = None, **kwargs: Any):
        merged: dict[str, Any] = dict(fields or {})
        merged.update(kwargs)
        object.__setattr__(self, "_fields", merged)

    @classmethod
    def _adopt(cls, fields: dict[str, Any]) -> "Struct":
        """Wrap a dict the caller just built and gives up: no copy (the per-row paths)."""
        struct = cls.__new__(cls)
        object.__setattr__(struct, "_fields", fields)
        return struct

    # -- Mapping protocol -------------------------------------------------
    def __getitem__(self, key: str) -> Any:
        return self._fields[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._fields)

    def __len__(self) -> int:
        return len(self._fields)

    # -- attribute access --------------------------------------------------
    def __getattr__(self, name: str) -> Any:
        try:
            return self._fields[name]
        except KeyError:
            raise AttributeError(f"struct has no field {name!r}") from None

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Struct is immutable")

    # -- equality / hashing --------------------------------------------------
    def _key(self) -> tuple:
        return tuple(sorted(self._fields.items(), key=lambda kv: kv[0]))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Struct):
            return self._fields == other._fields
        if isinstance(other, Mapping):
            return dict(self._fields) == dict(other)
        return NotImplemented

    def __hash__(self) -> int:
        try:
            return hash(self._key())
        except TypeError:
            # Unhashable field values: fall back to identity-free constant so
            # that equal structs still compare equal via __eq__.
            return hash(tuple(sorted(self._fields)))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {v!r}" for k, v in self._fields.items())
        return f"struct({inner})"

    # -- conveniences ------------------------------------------------------
    def fields(self) -> dict[str, Any]:
        """Return a plain mutable dict copy of the fields."""
        return dict(self._fields)

    def project(self, names: Iterable[str]) -> "Struct":
        """Return a new struct containing only ``names`` (missing names error)."""
        return Struct({name: self._fields[name] for name in names})

    def renamed(self, renames: Mapping[str, str]) -> "Struct":
        """Return a struct with fields renamed according to ``renames``.

        Fields not mentioned in ``renames`` keep their names.  Used by the
        local transformation map to convert data-source rows into mediator
        rows (paper Section 2.2.2).
        """
        return Struct({renames.get(k, k): v for k, v in self._fields.items()})


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
