"""A small relational engine over in-memory tables.

This is the storage of the "relational database" data sources in the
reproduction: a catalog of tables, a full scan per table and a tiny statistics
interface.  A pushed expression runs over those scans in the one source-side
evaluator (:class:`~repro.wrappers.base.AlgebraEvaluator`), whatever the
wrapper; wrappers with restricted capability sets simply push less of it,
which is exactly the querying-power mismatch the paper's wrapper interface is
designed around.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.datamodel.values import Struct
from repro.errors import QueryExecutionError, SchemaError
from repro.sources.table import Table, TableSchema


class RelationalEngine:
    """A named collection of tables, each scanned whole."""

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

    # -- access -----------------------------------------------------------------------
    def scan(self, table_name: str) -> list[Struct]:
        """Full scan of a table (the ``get`` operator at the source).

        The table's stored rows themselves, immutable and uncopied.
        """
        return self.table(table_name).snapshot()

    # -- statistics ------------------------------------------------------------------
    def cardinality(self, table_name: str) -> int:
        """Number of rows in a table (exported by cooperative wrappers)."""
        return self.table(table_name).cardinality()

    def statistics(self) -> dict[str, int]:
        """Cardinality of every table, keyed by table name."""
        return {name: table.cardinality() for name, table in self._tables.items()}
