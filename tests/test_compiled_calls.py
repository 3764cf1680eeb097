"""Compiled exec calls: derived once per cached plan, owned by the plan.

What an exec call needs that depends only on its plan node and the schema
version -- the resolved extent and wrapper, the type check, the name-space
plan, the grammar's verdict on the translated expression, the history
signatures -- is derived the first time a plan runs as a cached plan and kept
in ``OptimizedPlan.exec_calls``.  Deterministic counters only: how often each
derivation runs, never how long it takes.  The lifetime half uses ``weakref``
and ``gc.collect()``: whatever drops the plan drops what was compiled for
it, and nothing else ever holds a compiled call, a wrapper or a probe
expression.
"""

from __future__ import annotations

import gc
import threading
import weakref

import pytest

from benchmarks.spine import federation, workloads
from repro import Mediator, RelationalWrapper, TypeConflictError
from repro.algebra import physical as phys
from repro.algebra.capabilities import CapabilitySet
from repro.algebra.expressions import InList
from repro.algebra.logical import Get, Select, Submit
from repro.baselines import GetOnlyWrapper
from repro.datamodel.mapping import LocalTransformationMap
from repro.optimizer import history as history_module
from repro.optimizer import plancache
from repro.optimizer.implementation import implement
from repro.runtime import kernels, namespace
from repro.runtime.executor import CompiledCall, Executor
from repro.sources import RelationalEngine, SimulatedServer, TableSchema
from tests.test_bind_batching import QUERY as PROBE_QUERY
from tests.test_bind_batching import build_probe_mediator, learn_right_rows
from tests.test_degrading_retry import ROWS as DEGRADE_ROWS
from tests.test_degrading_retry import LyingWrapper
from tests.test_degrading_retry import build_mediator as build_degrading_mediator


class Counters:
    """Call counts of the four derivations a compiled call replaces."""

    def __init__(self, monkeypatch):
        self.namespace_plans = 0
        self.grammar_walks = 0
        self.close_signatures = 0
        self.type_checks = 0
        plan, accepts = namespace.namespace_plan, CapabilitySet.accepts
        close, check = history_module.close_signature, Executor._check_types

        def namespace_plan(*args, **kwargs):
            self.namespace_plans += 1
            return plan(*args, **kwargs)

        walking = threading.local()

        def capabilities_accept(capabilities, expr):
            depth = getattr(walking, "depth", 0)
            if depth == 0:  # a walk from the root; accepting its operands is the same walk
                self.grammar_walks += 1
            walking.depth = depth + 1
            try:
                return accepts(capabilities, expr)
            finally:
                walking.depth = depth

        def close_signature(*args, **kwargs):
            self.close_signatures += 1
            return close(*args, **kwargs)

        def check_types(executor, meta, wrapper):
            self.type_checks += 1
            return check(executor, meta, wrapper)

        monkeypatch.setattr(namespace, "namespace_plan", namespace_plan)
        monkeypatch.setattr(CapabilitySet, "accepts", capabilities_accept)
        monkeypatch.setattr(history_module, "close_signature", close_signature)
        monkeypatch.setattr(Executor, "_check_types", check_types)

    def snapshot(self) -> tuple[int, int, int, int]:
        return (
            self.namespace_plans,
            self.grammar_walks,
            self.close_signatures,
            self.type_checks,
        )


# -- once per cached plan ---------------------------------------------------------------------


def test_hundred_runs_of_a_cached_plan_compile_each_exec_node_once(monkeypatch):
    fed = federation.build(federation.FED8, seed=3)
    mediator = fed.mediator
    try:
        text = workloads.templates()[1].text  # a pushed filter-project over ``person``
        # Plan first: the optimizer's own grammar checks and history
        # estimates are not what is counted here.
        planned = mediator.planner.plan(text)
        execs = phys.execs_in(planned.optimized.physical)
        assert len(execs) == 8
        # A get-only wrapper hands its ``get`` to the wrapper it restricts,
        # whose own ``submit`` checks its own grammar: one more walk each.
        delegating = sum(isinstance(w, GetOnlyWrapper) for w in fed.wrappers.values())
        counters = Counters(monkeypatch)
        requests = sum(server.statistics.requests for server in fed.servers)
        expected = None
        for _ in range(100):
            result = mediator.query(text)
            assert result.from_plan_cache and not result.is_partial
            rows = sorted(result.rows())
            expected = rows if expected is None else expected
            assert rows == expected
        assert counters.snapshot() == (8, 8 + delegating, 8, 8)
        assert delegating == 2
        # ... while every run really called every source.
        assert sum(server.statistics.requests for server in fed.servers) == requests + 800
        slot = planned.optimized.exec_calls
        assert {node for node in slot if isinstance(node, phys.Exec)} == set(execs)
        # ... beside the kernels of the get-only branches' per-element chains,
        # kept under their top nodes' identities
        chains = {id(node) for node in phys.walk(planned.optimized.physical) if isinstance(node, kernels.CHAIN)}
        assert all(isinstance(node, phys.Exec) or node in chains for node in slot)
        assert len(slot) > len(execs)
    finally:
        fed.close()


def test_a_plan_run_without_a_slot_compiles_for_that_run_alone(monkeypatch):
    """``Executor.execute(plan)`` of a hand-built plan keeps nothing: each run
    derives everything again, as every run did before there was a slot."""
    mediator, _ = build_remappable()
    try:
        plan = implement(Submit("r0", Get("person0"), extent_name="person0"))
        counters = Counters(monkeypatch)
        for run in (1, 2, 3):
            assert not mediator.executor.execute(plan).is_partial
            assert counters.namespace_plans == run and counters.close_signatures == run
        calls: dict = {}
        for _ in range(3):
            assert not mediator.executor.execute(plan, calls=calls).is_partial
        assert counters.namespace_plans == 4 and len(calls) == 1
    finally:
        mediator.close()


# -- what invalidates a compiled call --------------------------------------------------------


def build_remappable(**mediator_kwargs):
    """One source table with two name columns, so two valid maps exist."""
    engine = RelationalEngine(name="db0")
    engine.create_table(
        "t_person",
        schema=TableSchema.of(("id", int), ("nm", str), ("alias", str)),
        rows=[{"id": 1, "nm": "mary", "alias": "MARY"}, {"id": 2, "nm": "sam", "alias": "SAM"}],
    )
    server = SimulatedServer(name="h0", store=engine)
    mediator = Mediator(name="remap", **mediator_kwargs)
    mediator.register_wrapper("w0", RelationalWrapper("w0", server))
    mediator.create_repository("r0")
    mediator.define_interface("Person", [("id", "Long"), ("name", "String")], extent_name="person")
    add_person0(mediator, "nm")
    return mediator, server


def add_person0(mediator, name_column: str) -> None:
    mediator.add_extent(
        "person0",
        "Person",
        "w0",
        "r0",
        map=LocalTransformationMap.from_pairs([("t_person", "person0"), (name_column, "name")]),
    )


@pytest.mark.parametrize("entry", ["query", "query_stream"])
def test_a_reregistered_extent_is_translated_with_its_new_map(entry):
    mediator, _ = build_remappable()
    try:
        text = "select x.name from x in person0 where x.id > 0"

        def names():
            return sorted(getattr(mediator, entry)(text).rows())

        assert names() == ["mary", "sam"]
        assert names() == ["mary", "sam"]  # compiled into the cached plan's slot
        assert names() == ["mary", "sam"]  # ... and read from it
        mediator.drop_extent("person0")
        add_person0(mediator, "alias")
        assert names() == ["MARY", "SAM"]
        # ... and a map that names a column the source lacks is refused by
        # the type check of the new compilation, not waved through by the
        # verdict of the old one.
        mediator.drop_extent("person0")
        add_person0(mediator, "missing")
        with pytest.raises(TypeConflictError):
            names()
    finally:
        mediator.close()


def test_a_held_plan_notices_the_schema_moving_under_its_slot():
    """The slot is checked against the schema version, not trusted because
    the plan cache would have dropped the plan: a caller holding a plan and
    its slot across a DBA change gets the new map too."""
    mediator, _ = build_remappable()
    try:
        plan = implement(Submit("r0", Get("person0"), extent_name="person0"))
        calls: dict = {}
        first = mediator.executor.execute(plan, calls=calls)
        assert sorted(row["name"] for row in first.data) == ["mary", "sam"]
        (before,) = calls.values()
        mediator.registry.drop_extent("person0")
        add_person0(mediator, "alias")
        second = mediator.executor.execute(plan, calls=calls)
        assert sorted(row["name"] for row in second.data) == ["MARY", "SAM"]
        (after,) = calls.values()
        assert after is not before and after.schema_version > before.schema_version
    finally:
        mediator.close()


def test_switching_the_type_check_on_compiles_unchecked_calls_again():
    mediator, _ = build_remappable(type_check=False)
    try:
        mediator.registry.drop_extent("person0")
        add_person0(mediator, "missing")
        text = "select x.id from x in person0"
        assert sorted(mediator.query(text).rows()) == [1, 2]
        mediator.executor.config.type_check = True
        with pytest.raises(TypeConflictError):
            mediator.query(text)
    finally:
        mediator.close()


def test_reregistration_through_the_registry_drops_stale_type_verdicts():
    """Type-check verdicts are keyed to the schema version: a re-registration
    made through the registry alone, which tells the executor nothing, still
    gets its new map checked."""
    mediator, _ = build_remappable()
    try:
        plan = implement(Submit("r0", Get("person0"), extent_name="person0"))
        assert not mediator.executor.execute(plan).is_partial  # verdict cached
        mediator.registry.drop_extent("person0")
        add_person0(mediator.registry, "missing")
        with pytest.raises(TypeConflictError):
            mediator.executor.execute(plan)
    finally:
        mediator.close()


# -- call-time planning stays call-time -------------------------------------------------------


def test_a_capability_failure_at_call_time_still_replans_per_rung(monkeypatch):
    wrapper = LyingWrapper("w0", DEGRADE_ROWS)  # declares select/project, evaluates only get
    mediator = build_degrading_mediator(wrapper, max_retries=3)
    try:
        text = "select x.name from x in person0 where x.salary > 40"
        first = mediator.query(text)
        ladder = list(wrapper.submitted)
        assert ladder[-1] == "get(person0)" and len(ladder) == 3
        mediator.query(text)  # the text came back: compiled into the plan's slot
        del wrapper.submitted[:3]
        counters = Counters(monkeypatch)
        second = mediator.query(text)
        assert second.from_plan_cache
        assert sorted(second.rows()) == sorted(first.rows()) == ["p5", "p6", "p7", "p8", "p9"]
        # The refused expression is the compiled one; each rung below it is
        # planned when it is tried.  (Under this identity map a rung is a
        # subtree of the plan's own expression and its own translation: the
        # object the wrapper's grammar walked on the first run, not again.)
        assert wrapper.submitted == ladder * 2
        assert counters.namespace_plans == 2 and counters.grammar_walks == 0
        assert counters.close_signatures == 0 and counters.type_checks == 0
        (report,) = second.reports
        assert report.degraded_to == "get(person0)" and report.attempts == 3
    finally:
        mediator.close()


def test_a_submit_replaced_on_the_wrapper_instance_is_the_one_called():
    """Tracers and tests shadow ``submit`` with an instance attribute; the
    compiled call holds the wrapper, never a bound method of it."""
    mediator, _ = build_remappable()
    try:
        text = "select x.name from x in person0"
        assert sorted(mediator.query(text).rows()) == ["mary", "sam"]
        wrapper = mediator.registry.wrapper_object("w0")
        original, seen = wrapper.submit, []

        def shim(expression):
            seen.append(expression.to_text())
            return original(expression)

        wrapper.submit = shim
        assert sorted(mediator.query(text).rows()) == ["mary", "sam"]
        assert seen == ["project(nm, get(t_person))"]
        del wrapper.submit
        assert sorted(mediator.query(text).rows()) == ["mary", "sam"]
        assert len(seen) == 1
    finally:
        mediator.close()


def test_a_swapped_grammar_walks_the_compiled_expression_again():
    """The verdict is keyed on the identity of the capability set: a wrapper
    given another set re-checks an expression the old one accepted."""
    mediator, server = build_remappable()
    try:
        text = "select x.name from x in person0"
        assert not mediator.query(text).is_partial
        wrapper = mediator.registry.wrapper_object("w0")
        wrapper.capabilities = CapabilitySet.get_only()
        requests = server.statistics.requests
        refused = mediator.query(text)
        assert refused.from_plan_cache and refused.is_partial
        assert "does not accept expression" in refused.errors()["person0"]
        assert server.statistics.requests == requests  # refused before the source
    finally:
        mediator.close()


# -- lifetime: the plan owns what was compiled for it -------------------------------------


def compiled_calls_of(mediator, text) -> list[weakref.ref]:
    """Weak references to what ``text``'s cached plan holds once it has run
    as one (the run that made the plan compiles for itself alone)."""
    mediator.query(text).rows()
    assert not mediator.planner.plan(text).optimized.exec_calls
    mediator.query(text).rows()
    optimized = mediator.planner.plan(text).optimized
    assert optimized.exec_calls, "the run compiled nothing into the plan's slot"
    kernel_nodes = (*kernels.CHAIN, phys.MkGroupBy)
    kept = {id(node) for node in phys.walk(optimized.physical) if isinstance(node, kernel_nodes)}
    assert all(type(call) is CompiledCall or node in kept for node, call in optimized.exec_calls.items())
    return [weakref.ref(optimized)] + [weakref.ref(call) for call in optimized.exec_calls.values()]


def all_dead(references) -> bool:
    gc.collect()
    return all(reference() is None for reference in references)


def test_a_plan_cache_eviction_drops_the_compiled_calls(monkeypatch):
    monkeypatch.setattr(plancache, "PLAN_CACHE_CAPACITY", 1)
    mediator, _ = build_remappable()
    try:
        references = compiled_calls_of(mediator, "select x.name from x in person0")
        assert not all_dead(references)  # the cache entry holds them
        mediator.query("select x.id from x in person0").rows()
        assert mediator.planner.plan_cache.stats()["evictions"] == 1
        assert all_dead(references)
    finally:
        mediator.close()


def test_a_schema_version_bump_drops_the_compiled_calls():
    mediator, _ = build_remappable()
    try:
        text = "select x.name from x in person0"
        references = compiled_calls_of(mediator, text)
        mediator.define_interface("Audit", [("id", "Long")], extent_name="audit")
        mediator.query(text).rows()  # the stale entry is replaced on this lookup
        assert mediator.planner.plan_cache.stats()["invalidations"] == 1
        assert all_dead(references)
    finally:
        mediator.close()


def test_closing_and_dropping_a_mediator_frees_its_wrappers_and_compiled_calls():
    fed = federation.build(federation.FED8, seed=3)
    references = compiled_calls_of(fed.mediator, workloads.templates()[0].text)
    references += [weakref.ref(wrapper) for wrapper in fed.wrappers.values()]
    references += [weakref.ref(fed.mediator)]
    assert len(references) > 8
    fed.close()
    del fed
    assert all_dead(references)


def test_a_bind_join_keeps_no_probe_expression_once_it_returns():
    mediator, _left, _right = build_probe_mediator(range(10), batch_size=4)
    try:
        learn_right_rows(mediator, 50)  # 3 batches stay cheaper than a ship
        probes: list[weakref.ref] = []
        wrapper = mediator.registry.wrapper_object("wr")
        original = wrapper.submit

        def shim(expression):
            if isinstance(expression, Select) and isinstance(expression.predicate, InList):
                probes.append(weakref.ref(expression))
            return original(expression)

        wrapper.submit = shim
        for _ in range(2):  # the second run on the cached plan
            result = mediator.query(PROBE_QUERY)
            assert "probejoin(" in result.physical.to_text()
            assert len(result.rows()) == 10
        del result
        assert len(probes) == 2 * 3  # ceil(10 / 4) batches a run
        assert all_dead(probes)
        # ... though the plan, and the probe node's compiled call, live on.
        assert mediator.planner.plan(PROBE_QUERY).optimized.exec_calls
    finally:
        mediator.close()
