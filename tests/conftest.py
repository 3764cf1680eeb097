"""Shared fixtures: the paper's running example and workload builders."""

from __future__ import annotations

import pytest

from repro import Mediator, RelationalWrapper
from repro.sources import RelationalEngine, SimulatedServer, TableSchema
from repro.sources.workload import WorkloadConfig, build_person_sources


PERSON_ATTRIBUTES = [("id", "Long"), ("name", "String"), ("salary", "Short")]


def build_person_engine(index: int, rows: list[dict]) -> tuple[RelationalEngine, SimulatedServer]:
    """One relational source holding a ``person<index>`` table."""
    engine = RelationalEngine(name=f"persondb{index}")
    engine.create_table(
        f"person{index}",
        schema=TableSchema.of(("id", int), ("name", str), ("salary", int)),
        rows=rows,
    )
    server = SimulatedServer(name=f"host{index}", store=engine)
    return engine, server


def build_paper_mediator(**mediator_kwargs):
    """The running example of the paper.

    Two repositories: r0 holds Mary (salary 200), r1 holds Sam (salary 50);
    one relational wrapper per source; a Person interface with implicit extent
    ``person`` and member extents ``person0`` / ``person1``.

    Returns (mediator, servers) so tests can take sources down.
    """
    _, server0 = build_person_engine(0, [{"id": 1, "name": "Mary", "salary": 200}])
    _, server1 = build_person_engine(1, [{"id": 1, "name": "Sam", "salary": 50}])
    mediator = Mediator(name="paper", **mediator_kwargs)
    mediator.register_wrapper("w0", RelationalWrapper("w0", server0))
    mediator.register_wrapper("w1", RelationalWrapper("w1", server1))
    mediator.create_repository("r0", host="rodin", address="123.45.6.7")
    mediator.create_repository("r1", host="umiacs")
    mediator.define_interface(
        "Person",
        PERSON_ATTRIBUTES,
        extent_name="person",
    )
    mediator.add_extent("person0", "Person", "w0", "r0")
    mediator.add_extent("person1", "Person", "w1", "r1")
    return mediator, [server0, server1]


def build_person_federation(
    sources, rows_per_source=50, failure_probability=0.0, capabilities=None, **mediator_kwargs
):
    """``sources`` seeded Person databases of ``repro.sources.workload`` under one mediator.

    Member extents ``person0`` .. ``person<sources-1>`` of the implicit extent
    ``person``, one relational wrapper ``w<i>`` (declaring ``capabilities``)
    and one repository ``r<i>`` each.  Returns (mediator, servers).
    """
    servers = build_person_sources(
        WorkloadConfig(
            sources=sources,
            rows_per_source=rows_per_source,
            failure_probability=failure_probability,
        )
    )
    mediator = Mediator(name=f"fed{sources}", **mediator_kwargs)
    mediator.define_interface(
        "Person",
        PERSON_ATTRIBUTES,
        extent_name="person",
    )
    for index, server in enumerate(servers):
        wrapper = RelationalWrapper(f"w{index}", server, capabilities=capabilities)
        mediator.register_wrapper(f"w{index}", wrapper)
        mediator.create_repository(f"r{index}", host=server.name)
        mediator.add_extent(f"person{index}", "Person", f"w{index}", f"r{index}")
    return mediator, servers


class CountedKey:
    """A value whose ``==`` is counted (and whose hash agrees with it).

    The deterministic stand-in for a timing: an ``in``-list probed by hash
    costs about one comparison per row, a linear one about half the list.
    """

    comparisons = 0

    def __init__(self, key: int):
        self.key = key

    def __eq__(self, other: object) -> bool:
        CountedKey.comparisons += 1
        return isinstance(other, CountedKey) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)


@pytest.fixture
def paper_mediator():
    """The paper's two-source Person mediator."""
    mediator, _servers = build_paper_mediator()
    return mediator


@pytest.fixture
def paper_mediator_with_servers():
    """The paper mediator plus its servers (for availability experiments)."""
    return build_paper_mediator()
