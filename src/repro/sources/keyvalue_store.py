"""A key-value data source: the least capable kind of server.

The paper stresses that wrappers must handle a "mismatch in querying power of
each server".  This store can only enumerate its collections and return every
record of one collection (``get``); it cannot filter, project or join.  Its
wrapper therefore advertises the minimal capability grammar and the mediator
must do all other work itself.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.datamodel.values import Struct
from repro.errors import QueryExecutionError, SchemaError


class KeyValueStore:
    """Named collections of ``key -> record`` entries."""

    def __init__(self, name: str = "kvstore"):
        self.name = name
        self._collections: dict[str, dict[Any, Struct]] = {}

    def create_collection(self, name: str) -> None:
        """Create an empty collection; duplicates are an error."""
        if name in self._collections:
            raise SchemaError(f"collection {name!r} already exists in {self.name!r}")
        self._collections[name] = {}

    def put(self, collection: str, key: Any, record: Mapping[str, Any]) -> None:
        """Insert or replace a record under ``key``, stored as an immutable :class:`Struct`."""
        self._require(collection)[key] = Struct(record)

    def put_many(self, collection: str, records: Iterable[tuple[Any, Mapping[str, Any]]]) -> int:
        """Insert many ``(key, record)`` pairs; return how many were stored."""
        count = 0
        for key, record in records:
            self.put(collection, key, record)
            count += 1
        return count

    def get(self, collection: str, key: Any) -> Struct:
        """Return the record stored under ``key`` (the stored object itself)."""
        records = self._require(collection)
        if key not in records:
            raise QueryExecutionError(f"no record {key!r} in collection {collection!r}")
        return records[key]

    def scan(self, collection: str) -> list[Struct]:
        """Return every record of ``collection`` (the only bulk operation).

        The stored records are immutable, so they are handed out uncopied.
        """
        return list(self._require(collection).values())

    def collection_names(self) -> list[str]:
        """Names of every collection."""
        return list(self._collections)

    def cardinality(self, collection: str) -> int:
        """Number of records in ``collection``."""
        return len(self._require(collection))

    def _require(self, collection: str) -> dict[Any, Struct]:
        try:
            return self._collections[collection]
        except KeyError:
            raise QueryExecutionError(
                f"store {self.name!r} has no collection {collection!r}"
            ) from None
