"""Simulated heterogeneous data sources (substrates).

The paper's mediator talks, through wrappers, to autonomous remote data
sources: relational databases, WAIS servers, file systems and so on.  This
package provides laptop-scale stand-ins for those sources:

* :mod:`repro.sources.table` -- in-memory tables with a typed schema;
* :mod:`repro.sources.relational_engine` -- a small relational engine
  (a catalog of tables, each scanned whole) over those tables;
* :mod:`repro.sources.sql` -- a miniature SQL dialect: a relational engine
  that reads SQL text into the algebra, so that one wrapper genuinely
  translates the mediator algebra into a different query language;
* :mod:`repro.sources.keyvalue_store` -- a get-only key-value store, the
  least capable source;
* :mod:`repro.sources.text_store` -- a WAIS-like keyword-search server;
* :mod:`repro.sources.csv_store` -- a file-backed source;
* :mod:`repro.sources.network` and :mod:`repro.sources.server` -- the
  simulated network (latency, availability failures) and the server wrapper
  around any store;
* :mod:`repro.sources.workload` -- synthetic data generators, including the
  water-quality application the paper uses as motivation.
"""

from repro.sources.table import Table, TableSchema, Column
from repro.sources.relational_engine import RelationalEngine
from repro.sources.keyvalue_store import KeyValueStore
from repro.sources.text_store import TextStore, Document
from repro.sources.csv_store import CsvStore
from repro.sources.network import NetworkProfile, AvailabilityModel
from repro.sources.server import SimulatedServer
from repro.sources.workload import (
    WorkloadConfig,
    generate_person_rows,
    generate_water_quality_rows,
    build_person_sources,
    build_water_quality_sources,
)

__all__ = [
    "Table",
    "TableSchema",
    "Column",
    "RelationalEngine",
    "KeyValueStore",
    "TextStore",
    "Document",
    "CsvStore",
    "NetworkProfile",
    "AvailabilityModel",
    "SimulatedServer",
    "WorkloadConfig",
    "generate_person_rows",
    "generate_water_quality_rows",
    "build_person_sources",
    "build_water_quality_sources",
]
