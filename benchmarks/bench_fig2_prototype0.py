"""E7 / Figure 2: the Prototype 0 pipeline, stage by stage.

Figure 2 shows the single-process prototype: ODL parser, OQL parser, internal
database, query optimizer, run-time system and wrappers.  The benchmark times
each stage separately (ODL load, OQL parse, bind+translate+optimize, execute)
and the whole pipeline on the paper's example schema and query.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import build_person_federation
from repro.core.registry import Registry
from repro.odl.loader import OdlLoader
from repro.oql.parser import parse_query
from repro.wrappers.base import Wrapper
from repro.algebra.capabilities import CapabilitySet

PAPER_ODL = """
interface Person (extent person) {
    attribute Long id;
    attribute String name;
    attribute Short salary;
}
interface Student : Person { }
repository r0 (host="rodin", name="db", address="123.45.6.7");
repository r1 (host="umiacs");
extent person0 of Person wrapper w0 repository r0;
extent person1 of Person wrapper w0 repository r1;
define rich as select x from x in person where x.salary > 100;
"""

PAPER_QUERY = "select x.name from x in person where x.salary > 10"


class _NullWrapper(Wrapper):
    """Capability-only wrapper used when benchmarking the frontend stages."""

    def __init__(self):
        super().__init__("null", CapabilitySet.full())

    def _execute(self, expression):  # pragma: no cover - never executed
        return []


def test_fig2_odl_load(benchmark):
    """ODL parse + internal-database update for the paper's schema."""

    def run():
        registry = Registry()
        registry.add_wrapper("w0", _NullWrapper())
        OdlLoader(registry).load(PAPER_ODL)
        return registry

    registry = benchmark(run)
    assert len(registry.schema.extents()) == 2


def test_fig2_oql_parse(benchmark):
    """OQL parsing of the paper's query."""
    query = benchmark(lambda: parse_query(PAPER_QUERY))
    assert query.bindings[0].variable == "x"


def test_fig2_optimize(benchmark):
    """Bind + translate + optimize against a live internal database."""
    mediator = build_person_federation(sources=2, rows_per_source=10)

    def run():
        return mediator.planner.plan(PAPER_QUERY, use_cache=False)

    planned = benchmark(run)
    assert planned.optimized is not None
    benchmark.extra_info["logical_alternatives"] = planned.optimized.logical_alternatives


def test_fig2_execute(benchmark):
    """Run-time execution of an already-optimized plan."""
    mediator = build_person_federation(sources=2, rows_per_source=10)
    planned = mediator.planner.plan(PAPER_QUERY)

    def run():
        return mediator.executor.execute(planned.optimized.physical)

    result = benchmark(run)
    assert not result.is_partial


def test_fig2_whole_pipeline(benchmark):
    """Parse -> bind -> translate -> optimize -> execute, plan cache disabled."""
    mediator = build_person_federation(sources=2, rows_per_source=10, seed=3)

    def run():
        mediator.planner.plan_cache.clear()
        return mediator.query(PAPER_QUERY)

    result = benchmark(run)
    assert not result.is_partial


def test_fig2_whole_pipeline_with_plan_cache(benchmark):
    """Same pipeline with the plan cache on: repeated queries skip optimization."""
    mediator = build_person_federation(sources=2, rows_per_source=10, seed=3)
    mediator.query(PAPER_QUERY)

    def run():
        return mediator.query(PAPER_QUERY)

    result = benchmark(run)
    assert result.from_plan_cache
