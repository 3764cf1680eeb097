"""A file-backed CSV data source.

Stands in for the paper's "file systems" class of information servers: the
data lives in plain CSV files on disk and the source can only deliver whole
files.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.errors import QueryExecutionError, SchemaError


def _coerce(value: str) -> Any:
    """Best-effort conversion of CSV text to int/float/bool, else keep the string."""
    lowered = value.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        return value


class CsvStore:
    """A directory of CSV files, each file being one collection."""

    def __init__(self, directory: str | Path, name: str = "csvstore"):
        self.name = name
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, collection: str) -> Path:
        return self.directory / f"{collection}.csv"

    def write_collection(
        self, collection: str, rows: Iterable[Mapping[str, Any]], overwrite: bool = False
    ) -> int:
        """Write ``rows`` to ``<collection>.csv``; return the number of rows written."""
        path = self._path(collection)
        if path.exists() and not overwrite:
            raise SchemaError(f"collection {collection!r} already exists in {self.name!r}")
        rows = [dict(row) for row in rows]
        if not rows:
            path.write_text("")
            return 0
        fieldnames = list(rows[0])
        with path.open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=fieldnames)
            writer.writeheader()
            writer.writerows(rows)
        return len(rows)

    def scan(self, collection: str) -> list[dict[str, Any]]:
        """Read every row of ``collection``."""
        path = self._path(collection)
        if not path.exists():
            raise QueryExecutionError(f"store {self.name!r} has no collection {collection!r}")
        if path.stat().st_size == 0:
            return []
        with path.open(newline="") as handle:
            reader = csv.DictReader(handle)
            return [{key: _coerce(value) for key, value in row.items()} for row in reader]

    def collection_names(self) -> list[str]:
        """Names of every CSV collection in the directory."""
        return sorted(path.stem for path in self.directory.glob("*.csv"))

    def cardinality(self, collection: str) -> int:
        """Number of rows in ``collection``."""
        return len(self.scan(collection))
