"""A WAIS-like keyword-search data source.

The paper lists WAIS servers among the information servers DISCO should
federate.  This store holds documents with a few structured fields plus a
body, and supports keyword search with a tiny inverted index.  Its wrapper
maps the mediator's equality/containment selections onto keyword queries and
returns the structured fields as rows.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.datamodel.values import Struct
from repro.errors import QueryExecutionError, SchemaError

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    """Lower-case word tokens of ``text``."""
    return _TOKEN_RE.findall(text.lower())


@dataclass
class Document:
    """One document: an identifier, structured fields and a free-text body."""

    doc_id: str
    body: str
    fields: dict[str, Any] = field(default_factory=dict)

    def as_row(self) -> Struct:
        """Flatten the document into a row the wrapper can hand to the mediator."""
        return Struct({"doc_id": self.doc_id, "body": self.body, **self.fields})


class TextStore:
    """Named collections of documents with keyword search.

    Each document is stored as its row, an immutable :class:`Struct` built
    once at :meth:`add_document`; ``scan`` and ``search`` hand out the stored
    objects themselves (a mutation is a ``TypeError``).
    """

    def __init__(self, name: str = "waisstore"):
        self.name = name
        self._collections: dict[str, dict[str, Struct]] = {}
        self._index: dict[str, dict[str, set[str]]] = {}

    def create_collection(self, name: str) -> None:
        """Create an empty document collection."""
        if name in self._collections:
            raise SchemaError(f"collection {name!r} already exists in {self.name!r}")
        self._collections[name] = {}
        self._index[name] = {}

    def add_document(self, collection: str, document: Document) -> None:
        """Add a document and index its body and string fields."""
        self._require(collection)[document.doc_id] = document.as_row()
        index = self._index[collection]
        searchable = [document.body] + [
            value for value in document.fields.values() if isinstance(value, str)
        ]
        for token in set(tokenize(" ".join(searchable))):
            index.setdefault(token, set()).add(document.doc_id)

    def add_documents(self, collection: str, documents: Iterable[Document]) -> int:
        """Add many documents; return how many were added."""
        count = 0
        for document in documents:
            self.add_document(collection, document)
            count += 1
        return count

    def scan(self, collection: str) -> list[Struct]:
        """Return every document of ``collection`` as rows."""
        return list(self._require(collection).values())

    def search(self, collection: str, keywords: str) -> list[Struct]:
        """Return rows of documents containing *all* keywords."""
        rows = self._require(collection)
        tokens = tokenize(keywords)
        if not tokens:
            return self.scan(collection)
        index = self._index[collection]
        matching: set[str] | None = None
        for token in tokens:
            ids = index.get(token, set())
            matching = ids if matching is None else (matching & ids)
        return [rows[doc_id] for doc_id in sorted(matching or set())]

    def collection_names(self) -> list[str]:
        """Names of every collection."""
        return list(self._collections)

    def cardinality(self, collection: str) -> int:
        """Number of documents in ``collection``."""
        return len(self._require(collection))

    def _require(self, collection: str) -> dict[str, Struct]:
        try:
            return self._collections[collection]
        except KeyError:
            raise QueryExecutionError(
                f"store {self.name!r} has no collection {collection!r}"
            ) from None
