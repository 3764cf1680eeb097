"""The two federations every workload runs against.

``fed8``       8 ``Person`` extents x 60 rows over wrappers cycling
               Relational, Relational, Sql, GetOnly(Relational), plus ``dept0``
               (480 rows) for joins and an ``Audit`` interface no query reads.
``fed4x2500``  4 ``Person`` extents x 2 500 rows alternating
               GetOnly/Relational, plus ``dept0`` with 500 rows.

Zero simulated latency and ``real_sleep=False``: the numbers are the
mediator's own CPU and thread hand-offs, not sleeps.  Mediator knobs are at
their defaults except ``timeout=60`` so that machine noise can never
manufacture a deadline partial answer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from repro import AnswerCache, Mediator, RelationalWrapper, SqlWrapper
from repro.baselines import GetOnlyWrapper
from repro.sources import RelationalEngine, SimulatedServer, generate_person_rows
from repro.sources.sql.engine import SqlEngine

PERSON_ATTRIBUTES = [("id", "Long"), ("name", "String"), ("salary", "Short")]
DEPT_ATTRIBUTES = [("id", "Long"), ("dname", "String"), ("budget", "Long")]
AUDIT_ATTRIBUTES = [("id", "Long"), ("note", "String")]

#: wrapper kinds, by extent index (cycled)
FED8_KINDS = ("relational", "relational", "sql", "getonly")
FED4_KINDS = ("getonly", "relational")


@dataclass(frozen=True)
class FederationSpec:
    """Shape of one federation; the data itself comes from the seed."""

    name: str
    person_extents: int
    rows_per_extent: int
    dept_rows: int
    kinds: tuple[str, ...]


FED8 = FederationSpec("fed8", 8, 60, 480, FED8_KINDS)
FED4X2500 = FederationSpec("fed4x2500", 4, 2500, 500, FED4_KINDS)


@dataclass
class Federation:
    """A live mediator plus handles on the objects the benchmark drives."""

    spec: FederationSpec
    mediator: Mediator
    #: servers of the person extents, by extent index (outages hit these)
    person_servers: list[SimulatedServer]
    #: every simulated server (persons, dept, audit), for source counters
    servers: list[SimulatedServer]
    #: every registered wrapper object, by registered name
    wrappers: dict[str, Any]

    def close(self) -> None:
        self.mediator.close()


def _wrapper(kind: str, name: str, rows: list[dict], table: str) -> tuple[Any, SimulatedServer]:
    if kind == "sql":
        store: Any = SqlEngine(name=f"{name}-sql")
    else:
        store = RelationalEngine(name=f"{name}-db")
    store.create_table(table, rows=rows)
    server = SimulatedServer(name=f"{name}-host", store=store)
    if kind == "sql":
        return SqlWrapper(name, server), server
    wrapper = RelationalWrapper(name, server)
    if kind == "getonly":
        return GetOnlyWrapper(wrapper), server
    return wrapper, server


def build(spec: FederationSpec, seed: int, answer_cache: AnswerCache | None = None) -> Federation:
    """Build ``spec`` with data derived from ``seed`` (same seed, same rows)."""
    mediator = Mediator(name=spec.name, timeout=60.0, answer_cache=answer_cache)
    mediator.define_interface("Person", PERSON_ATTRIBUTES, extent_name="person")
    mediator.define_interface("Dept", DEPT_ATTRIBUTES, extent_name="dept")
    mediator.define_interface("Audit", AUDIT_ATTRIBUTES, extent_name="audit")
    person_servers: list[SimulatedServer] = []
    servers: list[SimulatedServer] = []
    wrappers: dict[str, Any] = {}

    def register(kind: str, name: str, rows: list[dict], extent: str, interface: str) -> SimulatedServer:
        wrapper, server = _wrapper(kind, name, rows, extent)
        mediator.register_wrapper(name, wrapper)
        mediator.create_repository(f"r-{name}", host=server.name)
        wrappers[name] = wrapper
        servers.append(server)
        if interface != "Audit":  # audit0 is added and dropped by the DBA writes
            mediator.add_extent(extent, interface, name, f"r-{name}")
        return server

    for index in range(spec.person_extents):
        rows = generate_person_rows(
            spec.rows_per_extent,
            seed=seed * 1009 + index,
            id_offset=index * spec.rows_per_extent,
        )
        kind = spec.kinds[index % len(spec.kinds)]
        person_servers.append(register(kind, f"w{index}", rows, f"person{index}", "Person"))
    rng = random.Random(seed * 1009 + 997)
    dept_rows = [
        {"id": i, "dname": f"dept_{i % 40}", "budget": rng.randint(1, 1000)}
        for i in range(spec.dept_rows)
    ]
    register("relational", "wdept", dept_rows, "dept0", "Dept")
    audit_rows = [{"id": i, "note": f"n{i}"} for i in range(8)]
    register("relational", "waudit", audit_rows, "audit0", "Audit")
    return Federation(spec, mediator, person_servers, servers, wrappers)
