"""Fields named like ``dict`` methods are read as fields, on every path.

A :class:`~repro.datamodel.values.Struct` is a ``dict``, so ``row.items``,
``row.copy``, ``row.update`` and ``row.pop`` are its methods, not its fields.
The engine must read a field by subscript, never by attribute: these tests
give a source exactly those columns and read them through OQL paths at the
wrapper (a pushed select/project), in the mediator's filter and apply
kernels, in a ``struct(...)`` projection, and in a partial answer's text
resubmitted after recovery -- each through ``query()`` and ``query_stream()``.
"""

from __future__ import annotations

import pytest

from repro import Mediator, RelationalWrapper
from repro.baselines import GetOnlyWrapper
from repro.datamodel.values import Bag, Struct
from repro.sources import RelationalEngine, SimulatedServer

ATTRIBUTES = [("id", "Long"), ("items", "Long"), ("copy", "String"), ("update", "Long"), ("pop", "String")]


def thing_rows(index: int) -> list[dict]:
    base = 100 * index
    return [
        {"id": base + i, "items": 10 * i, "copy": f"c{i % 3}", "update": i, "pop": f"p{base + i}"}
        for i in range(6)
    ]


@pytest.fixture
def federation():
    """``thing0`` behind a pushing wrapper, ``thing1`` behind a get-only one."""
    mediator = Mediator(name="dict-names")
    mediator.define_interface("Thing", ATTRIBUTES, extent_name="thing")
    servers = []
    for index, get_only in ((0, False), (1, True)):
        engine = RelationalEngine(name=f"thingdb{index}")
        engine.create_table(f"thing{index}", rows=thing_rows(index))
        server = SimulatedServer(name=f"thinghost{index}", store=engine)
        wrapper = RelationalWrapper(f"w{index}", server)
        mediator.register_wrapper(f"w{index}", GetOnlyWrapper(wrapper) if get_only else wrapper)
        mediator.create_repository(f"r{index}", host=server.name)
        mediator.add_extent(f"thing{index}", "Thing", f"w{index}", f"r{index}")
        servers.append(server)
    yield mediator, servers
    mediator.close()


def both_answers(mediator: Mediator, text: str) -> tuple[Bag, Bag]:
    """``text``'s answer through ``query()`` and through ``query_stream()``."""
    materialised = mediator.query(text)
    assert not materialised.is_partial
    streamed = mediator.query_stream(text)
    rows = list(streamed.iter_rows())
    assert not streamed.is_partial
    return Bag(materialised.rows()), Bag(rows)


def test_a_select_and_project_pushed_to_the_wrapper(federation):
    mediator, _ = federation
    text = "select x.items from x in thing0 where x.update > 2"
    assert "select(x: x.update > 2" in mediator.query(text).physical_plan
    want = Bag([row["items"] for row in thing_rows(0) if row["update"] > 2])
    assert both_answers(mediator, text) == (want, want)


def test_the_mediator_side_filter_and_apply_kernels(federation):
    mediator, _ = federation
    text = 'select x.pop from x in thing1 where x.copy = "c1" and x.items > 0'
    assert "filter(x:" in mediator.query(text).physical_plan
    want = Bag([row["pop"] for row in thing_rows(1) if row["copy"] == "c1" and row["items"] > 0])
    assert both_answers(mediator, text) == (want, want)


def test_a_struct_projection(federation):
    mediator, _ = federation
    text = "select struct(items: x.items, copy: x.copy, update: x.update, pop: x.pop) from x in thing where x.items > 10"
    want = Bag(
        [
            Struct({name: row[name] for name in ("items", "copy", "update", "pop")})
            for row in thing_rows(0) + thing_rows(1)
            if row["items"] > 10
        ]
    )
    assert both_answers(mediator, text) == (want, want)


def test_a_partial_answers_text_resubmitted_after_recovery(federation):
    """The embedded rows of ``thing0`` are ``struct`` literals in the text,
    joined after recovery by their ``copy`` field and read by ``x.items``."""
    mediator, servers = federation
    text = (
        "select struct(items: x.items, pop: y.pop) from x in thing0, y in thing1 "
        "where x.copy = y.copy and x.update > 1"
    )
    want = Bag(
        [
            Struct(items=x["items"], pop=y["pop"])
            for x in thing_rows(0)
            for y in thing_rows(1)
            if x["copy"] == y["copy"] and x["update"] > 1
        ]
    )
    servers[1].take_down()
    partial = mediator.query(text)
    assert partial.is_partial and "items: 20" in partial.partial_query
    servers[1].bring_up()
    assert both_answers(mediator, partial.partial_query) == (want, want)
    assert Bag(mediator.resubmit(partial).rows()) == want
