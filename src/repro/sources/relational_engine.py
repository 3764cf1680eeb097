"""A small relational engine over in-memory tables.

This is the execution substrate of the "relational database" data sources in
the reproduction.  It exposes the handful of operations a wrapper may push
down -- scan, selection, projection, join and union -- plus a tiny statistics
interface.  Wrappers with restricted capability grammars simply refuse to call
the richer operations even though the engine supports them, which is exactly
the querying-power mismatch the paper's wrapper interface is designed around.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping

from repro.errors import QueryExecutionError, SchemaError
from repro.sources.table import Table, TableSchema

Row = dict[str, Any]
Predicate = Callable[[Mapping[str, Any]], bool]


class RelationalEngine:
    """A named collection of tables with basic relational operations."""

    def __init__(self, name: str = "reldb"):
        self.name = name
        self._tables: dict[str, Table] = {}

    # -- catalog ----------------------------------------------------------------
    def create_table(
        self,
        name: str,
        schema: TableSchema | None = None,
        rows: Iterable[Mapping[str, Any]] | None = None,
    ) -> Table:
        """Create (and register) a table; duplicate names are an error."""
        if name in self._tables:
            raise SchemaError(f"table {name!r} already exists in {self.name!r}")
        table = Table(name, schema=schema, rows=rows)
        self._tables[name] = table
        return table

    def drop_table(self, name: str) -> None:
        """Remove a table from the engine."""
        if name not in self._tables:
            raise SchemaError(f"unknown table {name!r} in {self.name!r}")
        del self._tables[name]

    def table(self, name: str) -> Table:
        """Return the table called ``name`` or raise."""
        try:
            return self._tables[name]
        except KeyError:
            raise QueryExecutionError(
                f"engine {self.name!r} has no table {name!r}"
            ) from None

    def has_table(self, name: str) -> bool:
        """Return True when a table called ``name`` exists."""
        return name in self._tables

    def table_names(self) -> list[str]:
        """Return the names of every table."""
        return list(self._tables)

    # -- relational operations ------------------------------------------------------
    def scan(self, table_name: str) -> list[Row]:
        """Full scan of a table (the ``get`` operator at the source)."""
        return list(self.table(table_name).rows())

    def select(self, rows: Iterable[Row], predicate: Predicate) -> list[Row]:
        """Keep rows satisfying ``predicate``."""
        return [row for row in rows if predicate(row)]

    def project(self, rows: Iterable[Row], columns: list[str]) -> list[Row]:
        """Keep only ``columns`` of each row; unknown columns are an error."""
        result: list[Row] = []
        for row in rows:
            missing = [column for column in columns if column not in row]
            if missing:
                raise QueryExecutionError(
                    f"projection refers to unknown column(s) {missing!r}"
                )
            result.append({column: row[column] for column in columns})
        return result

    def join(
        self,
        left: Iterable[Row],
        right: Iterable[Row],
        on: str | tuple[str, str],
    ) -> list[Row]:
        """Equi-join two row collections on a shared column (hash join).

        ``on`` is either a single column present on both sides (the paper's
        ``join(..., dept)``) or a ``(left_column, right_column)`` pair.  When
        both sides define a non-join column with the same name the left value
        wins, which mirrors the struct-merging behaviour of the mediator's own
        join operator.
        """
        if isinstance(on, tuple):
            left_key, right_key = on
        else:
            left_key = right_key = on
        buckets: dict[Any, list[Row]] = {}
        for row in right:
            if row.get(right_key) is not None:  # NULL = NULL is not true: it matches nothing
                buckets.setdefault(row[right_key], []).append(row)
        joined: list[Row] = []
        for row in left:
            for match in buckets.get(row.get(left_key), ()):
                merged = dict(match)
                merged.update(row)
                joined.append(merged)
        return joined

    def union(self, left: Iterable[Row], right: Iterable[Row]) -> list[Row]:
        """Bag union of two row collections."""
        return list(left) + list(right)

    # -- statistics ------------------------------------------------------------------
    def cardinality(self, table_name: str) -> int:
        """Number of rows in a table (exported by cooperative wrappers)."""
        return self.table(table_name).cardinality()

    def statistics(self) -> dict[str, int]:
        """Cardinality of every table, keyed by table name."""
        return {name: table.cardinality() for name, table in self._tables.items()}
