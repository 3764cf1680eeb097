"""In-memory tables: the storage layer under every simulated data source.

Each row is stored once, as an immutable
:class:`~repro.datamodel.values.Struct` built at insert, and scans hand out
the stored objects themselves: immutability, not a copy per read, keeps a
caller from corrupting storage, and the mediator passes the same objects on
into the answer.  A :class:`TableSchema` carries column names and
light-weight Python types so the engines can validate inserts and the
wrappers can report the source-side type to the mediator (which is how the
run-time type check of paper Section 2.1 is exercised).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.datamodel.values import Struct
from repro.errors import QueryExecutionError, SchemaError


@dataclass(frozen=True)
class Column:
    """One column of a table: a name and an optional Python type."""

    name: str
    py_type: type | None = None

    def check(self, value: Any) -> None:
        """Raise :class:`SchemaError` when ``value`` does not match the column type."""
        if value is None or self.py_type is None:
            return
        if self.py_type is float and isinstance(value, int) and not isinstance(value, bool):
            return
        if not isinstance(value, self.py_type):
            raise SchemaError(
                f"column {self.name!r} expects {self.py_type.__name__}, got {value!r}"
            )


@dataclass(frozen=True)
class TableSchema:
    """Ordered collection of columns."""

    columns: tuple[Column, ...]

    @classmethod
    def of(cls, *specs: str | tuple[str, type]) -> "TableSchema":
        """Build a schema from names or ``(name, type)`` pairs."""
        columns = []
        for spec in specs:
            if isinstance(spec, tuple):
                columns.append(Column(spec[0], spec[1]))
            else:
                columns.append(Column(spec))
        return cls(tuple(columns))

    def column_names(self) -> list[str]:
        """Return column names in order."""
        return [column.name for column in self.columns]

    def validate_row(self, row: Mapping[str, Any]) -> None:
        """Raise when ``row`` is missing a column or has a badly typed value."""
        for column in self.columns:
            if column.name not in row:
                raise SchemaError(f"row {dict(row)!r} is missing column {column.name!r}")
            column.check(row[column.name])


class Table:
    """A named collection of rows with an optional schema.

    This is the storage substrate shared by the relational engine, the SQL
    engine and the CSV store; wrappers never see it directly.
    """

    def __init__(
        self,
        name: str,
        schema: TableSchema | None = None,
        rows: Iterable[Mapping[str, Any]] | None = None,
    ):
        if not name:
            raise SchemaError("a table needs a non-empty name")
        self.name = name
        self.schema = schema
        self._rows: list[Struct] = []
        for row in rows or ():
            self.insert(row)

    # -- mutation -------------------------------------------------------------
    def insert(self, row: Mapping[str, Any]) -> None:
        """Insert a row, validating against the schema when one is declared."""
        stored = Struct(row)
        if self.schema is not None:
            self.schema.validate_row(stored)
        self._rows.append(stored)

    def insert_many(self, rows: Iterable[Mapping[str, Any]]) -> int:
        """Insert every row in ``rows``; return how many were inserted."""
        count = 0
        for row in rows:
            self.insert(row)
            count += 1
        return count

    def delete_where(self, predicate: Callable[[Mapping[str, Any]], bool]) -> int:
        """Delete rows matching ``predicate``; return how many were removed."""
        before = len(self._rows)
        self._rows = [row for row in self._rows if not predicate(row)]
        return before - len(self._rows)

    def clear(self) -> None:
        """Remove every row."""
        self._rows.clear()

    # -- access ----------------------------------------------------------------
    def rows(self) -> Iterator[Struct]:
        """Iterate over the stored rows themselves (see :meth:`snapshot`)."""
        return iter(self.snapshot())

    def snapshot(self) -> list[Struct]:
        """The stored rows themselves, in a list of their own.

        The rows are immutable, so they are handed out uncopied; the list is
        a snapshot, so an ``insert`` or ``delete_where`` during a scan does
        not disturb it.
        """
        return list(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Struct]:
        return self.rows()

    def column_names(self) -> list[str]:
        """Column names from the schema, or inferred from the first row."""
        if self.schema is not None:
            return self.schema.column_names()
        if self._rows:
            return list(self._rows[0])
        return []

    def column_values(self, name: str) -> list[Any]:
        """Return every value of column ``name`` (for statistics and tests)."""
        if self.column_names() and name not in self.column_names():
            raise QueryExecutionError(f"table {self.name!r} has no column {name!r}")
        return [row.get(name) for row in self._rows]

    def cardinality(self) -> int:
        """Number of rows (used by cost statistics exported by some wrappers)."""
        return len(self._rows)

    def __repr__(self) -> str:
        return f"Table(name={self.name!r}, rows={len(self._rows)})"
