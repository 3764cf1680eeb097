"""Local transformation maps (paper Section 2.2.2).

A map is "a list of strings", each string being either an equivalence between
the data-source relation name and the mediator extent name, or an equivalence
between a field of the data-source relation and a field of the mediator type::

    extent personprime0 of PersonPrime wrapper w0 repository r0
        map ((person0=personprime0), (name=n), (salary=s));

The mediator applies the map to queries *before* passing them to wrappers
(mediator name -> source name) and applies the inverse to rows coming back
from wrappers (source field -> mediator field).  Maps are flat: nested types
and value-conversion functions are future work in the paper and out of scope
here (see DESIGN.md Section 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.datamodel.values import Struct
from repro.errors import SchemaError


def rename_row(row: Mapping, renames: Mapping[str, str]) -> Struct:
    """Rename the fields of ``row`` according to ``renames``.

    The shared primitive behind :meth:`LocalTransformationMap.row_to_mediator`
    and the executor's reverse mapping of the rows an exec call returns.
    """
    return Struct({renames.get(key, key): value for key, value in row.items()})


@dataclass(frozen=True)
class LocalTransformationMap:
    """Bidirectional flat renaming between a data source and a mediator type.

    ``source_name``/``extent_name`` record the relation-name equivalence;
    ``attribute_pairs`` records ``(source_field, mediator_field)`` pairs.
    """

    source_name: str | None = None
    extent_name: str | None = None
    attribute_pairs: tuple[tuple[str, str], ...] = ()

    # -- constructors -------------------------------------------------------
    @classmethod
    def identity(cls) -> "LocalTransformationMap":
        """The no-op map used when mediator and source types coincide."""
        return cls()

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, str]]) -> "LocalTransformationMap":
        """Build a map from ``(source_side, mediator_side)`` string pairs.

        The first pair whose *mediator side* names the extent is taken as the
        relation-name equivalence; this mirrors the paper's syntax where the
        relation pair and the attribute pairs share one list.
        """
        pairs = list(pairs)
        if not pairs:
            return cls.identity()
        source_name, extent_name = pairs[0]
        return cls(
            source_name=source_name,
            extent_name=extent_name,
            attribute_pairs=tuple(pairs[1:]),
        )

    # -- derived dictionaries -------------------------------------------------
    @property
    def mediator_to_source(self) -> dict[str, str]:
        """Attribute renaming applied to queries sent towards the source."""
        return {mediator: source for source, mediator in self.attribute_pairs}

    @property
    def source_to_mediator(self) -> dict[str, str]:
        """Attribute renaming applied to rows returned from the source."""
        return {source: mediator for source, mediator in self.attribute_pairs}

    def is_identity(self) -> bool:
        """Return True when the map performs no renaming at all."""
        return self.source_name is None and not self.attribute_pairs

    # -- application -----------------------------------------------------------
    def source_collection_name(self, extent_name: str) -> str:
        """Return the data-source relation name for ``extent_name``."""
        if self.source_name is not None and self.extent_name == extent_name:
            return self.source_name
        if self.source_name is not None and self.extent_name is None:
            return self.source_name
        return extent_name if self.source_name is None else self.source_name

    def attribute_to_source(self, mediator_attribute: str) -> str:
        """Translate a mediator attribute name into the source's name."""
        return self.mediator_to_source.get(mediator_attribute, mediator_attribute)

    def attribute_to_mediator(self, source_attribute: str) -> str:
        """Translate a source attribute name into the mediator's name."""
        return self.source_to_mediator.get(source_attribute, source_attribute)

    def row_to_mediator(self, row: Mapping) -> Struct:
        """Rename the fields of a source row into mediator vocabulary."""
        return rename_row(row, self.source_to_mediator)

    def validate(self) -> None:
        """Check the map is well formed (no duplicate or conflicting entries)."""
        seen_source: set[str] = set()
        seen_mediator: set[str] = set()
        for source, mediator in self.attribute_pairs:
            if source in seen_source:
                raise SchemaError(f"map renames source attribute {source!r} twice")
            if mediator in seen_mediator:
                raise SchemaError(f"map renames mediator attribute {mediator!r} twice")
            seen_source.add(source)
            seen_mediator.add(mediator)

    def describe(self) -> list[str]:
        """Render the map back into the paper's ``(a=b)`` string list form."""
        entries: list[str] = []
        if self.source_name is not None:
            entries.append(f"({self.source_name}={self.extent_name})")
        entries.extend(f"({source}={mediator})" for source, mediator in self.attribute_pairs)
        return entries
