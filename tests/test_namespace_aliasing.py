"""Per-branch namespace planning: source-side aliasing for colliding pushdowns.

Covers the full surface of the multi-extent reverse-rename fix:

* the namespace planner injects ``rename`` aliases per branch and the reverse
  map is collision-free by construction;
* all three pushdown targets evaluate aliased expressions -- the relational
  wrapper (algebra evaluator), the SQL wrapper (``AS`` inside a derived
  table) and the generator wrapper (lazy cursors);
* both engines (barrier ``execute`` and streaming ``execute_stream``) agree,
  and the user-level ``query()`` / ``query_stream()`` APIs stay correct over
  colliding schemas;
* a wrapper that cannot express renames triggers the refuse-to-push fallback
  (per-leaf gets, recombined at the mediator) instead of mis-renaming rows;
* partial answers containing aliases unparse to OQL, re-parse, and resubmit
  to the right rows;
* the satellite fixes: reverse maps are built only from the ``get`` nodes
  actually present, type-check verdicts die with the schema version, and the
  two engines agree on retry-attempt accounting under write-off.
"""

import dataclasses
import time

import pytest

from repro import Mediator, RelationalWrapper, TypeConflictError
from repro.algebra.capabilities import CapabilitySet, PUSHABLE_OPERATORS, grammar_for
from repro.algebra.logical import Get, Join, Rename, Select, Submit, Union
from repro.algebra.unparser import logical_to_oql
from repro.datamodel.mapping import LocalTransformationMap
from repro.oql.parser import parse_query
from repro.optimizer.implementation import implement
from repro.runtime.backpressure import StreamClosed
from repro.runtime.degrade import compensate_rows, degradation_ladder
from repro.runtime.namespace import _branch_vocabulary, _meta_for_collection, namespace_plan
from repro.sources import RelationalEngine, SimulatedServer, TableSchema
from repro.sources.sql.engine import SqlEngine
from repro.wrappers import GeneratorWrapper, SqlWrapper
from repro.wrappers.base import Wrapper

EMP_ROWS = [{"id": 1, "nm": "mary"}, {"id": 2, "nm": "sam"}]
DEPT_ROWS = [{"id": 1, "nm": "engineering"}, {"id": 2, "nm": "sales"}]

JOIN_PLAN = Submit("r0", Join(Get("emp0"), Get("dept0"), "id"), extent_name="emp0")

EXPECTED = [
    {"id": 1, "name": "mary", "label": "engineering"},
    {"id": 2, "name": "sam", "label": "sales"},
]


def define_colliding_schema(mediator):
    """Two interfaces whose extents map the same source column ``nm`` apart."""
    mediator.create_repository("r0")
    mediator.define_interface(
        "Emp", [("id", "Long"), ("name", "String")], extent_name="emps"
    )
    mediator.define_interface(
        "Dept", [("id", "Long"), ("label", "String")], extent_name="depts"
    )
    mediator.add_extent(
        "emp0",
        "Emp",
        "w0",
        "r0",
        map=LocalTransformationMap.from_pairs([("t_emp", "emp0"), ("nm", "name")]),
    )
    mediator.add_extent(
        "dept0",
        "Dept",
        "w0",
        "r0",
        map=LocalTransformationMap.from_pairs([("t_dept", "dept0"), ("nm", "label")]),
    )


def build_relational_collider(capabilities=None):
    engine = RelationalEngine(name="db0")
    engine.create_table(
        "t_emp", schema=TableSchema.of(("id", int), ("nm", str)), rows=EMP_ROWS
    )
    engine.create_table(
        "t_dept", schema=TableSchema.of(("id", int), ("nm", str)), rows=DEPT_ROWS
    )
    server = SimulatedServer(name="h0", store=engine)
    mediator = Mediator(name="collide")
    mediator.register_wrapper(
        "w0", RelationalWrapper("w0", server, capabilities=capabilities)
    )
    define_colliding_schema(mediator)
    return mediator, server


def build_sql_collider():
    engine = SqlEngine(name="pg")
    engine.create_table("t_emp", rows=EMP_ROWS)
    engine.create_table("t_dept", rows=DEPT_ROWS)
    server = SimulatedServer(name="pg-host", store=engine)
    mediator = Mediator(name="sql-collide")
    mediator.register_wrapper("w0", SqlWrapper("w0", server))
    define_colliding_schema(mediator)
    return mediator, server


def sorted_rows(values):
    return sorted((dict(row) for row in values), key=lambda row: row["id"])


def run_both_engines(mediator, plan):
    """The plan's rows from the barrier and the streaming engine, plus reports."""
    barrier = mediator.executor.execute(plan)
    assert not barrier.is_partial, barrier.errors()
    stream = mediator.executor.execute_stream(plan)
    streamed = stream.to_list()
    assert not stream.is_partial, stream.errors()
    return barrier, streamed, stream


# -- the namespace plan itself ---------------------------------------------------------


class TestNamespacePlan:
    def test_injects_per_branch_renames_and_collision_free_reverse_map(self):
        mediator, _ = build_relational_collider()
        try:
            meta = mediator.registry.extent("emp0")
            wrapper = mediator.registry.wrapper_object("w0")
            plan = namespace_plan(mediator.registry, JOIN_PLAN.expression, meta, wrapper)
            assert plan.aliased and plan.split is None
            renames = [
                node for node in _walk(plan.expression) if isinstance(node, Rename)
            ]
            assert len(renames) == 2  # one alias layer per join branch
            outputs = [dict(node.pairs) for node in renames]
            # The colliding column got a unique name per branch; the join
            # attribute did not collide and kept its source name.
            assert {pairs["nm"] for pairs in outputs} == {"nm__emp0", "nm__dept0"}
            assert all(pairs["id"] == "id" for pairs in outputs)
            assert plan.reverse["nm__emp0"] == "name"
            assert plan.reverse["nm__dept0"] == "label"
            # Collision-free by construction: distinct keys, nothing clobbered.
            assert "nm" not in plan.reverse
        finally:
            mediator.close()

    def test_no_aliases_without_a_collision(self):
        mediator, _ = build_relational_collider()
        try:
            meta = mediator.registry.extent("emp0")
            plan = namespace_plan(mediator.registry, Get("emp0"), meta)
            assert not plan.aliased and plan.split is None
            assert not any(isinstance(n, Rename) for n in _walk(plan.expression))
            assert plan.reverse == {"nm": "name"}
        finally:
            mediator.close()

    @pytest.mark.parametrize("probe", ["extent", "interface_attributes"])
    def test_stream_closed_inside_a_registry_probe_propagates(self, probe, monkeypatch):
        """Only an unknown name (``SchemaError``) means "no extent" / "no
        vocabulary"; the consumer hanging up mid-probe is not that."""
        mediator, _ = build_relational_collider()
        try:
            registry = mediator.registry
            meta = registry.extent("emp0")
            assert _meta_for_collection(registry, "no_such_extent", meta) is None
            unknown = dataclasses.replace(meta, interface="NoSuchInterface")
            assert _branch_vocabulary(registry, unknown) == {"nm": "name"}

            def hang_up(name):
                raise StreamClosed("consumer closed the stream")

            monkeypatch.setattr(mediator.registry, probe, hang_up)
            with pytest.raises(StreamClosed):
                namespace_plan(mediator.registry, JOIN_PLAN.expression, meta)
        finally:
            mediator.close()

    def test_reverse_map_built_only_from_gets_actually_present(self):
        """The submit's default extent must not clobber an unrelated call."""
        engine = RelationalEngine(name="db0")
        engine.create_table(
            "t_emp", schema=TableSchema.of(("id", int), ("nm", str)), rows=EMP_ROWS
        )
        engine.create_table(
            "t_raw",
            schema=TableSchema.of(("id", int), ("nm", str)),
            rows=[{"id": 7, "nm": "plain"}],
        )
        server = SimulatedServer(name="h0", store=engine)
        mediator = Mediator(name="stray-map")
        mediator.register_wrapper("w0", RelationalWrapper("w0", server))
        mediator.create_repository("r0")
        mediator.define_interface(
            "Emp", [("id", "Long"), ("name", "String")], extent_name="emps"
        )
        mediator.define_interface(
            "Raw", [("id", "Long"), ("nm", "String")], extent_name="raws"
        )
        mediator.add_extent(
            "emp0",
            "Emp",
            "w0",
            "r0",
            map=LocalTransformationMap.from_pairs([("t_emp", "emp0"), ("nm", "name")]),
        )
        mediator.add_extent(
            "raw0",
            "Raw",
            "w0",
            "r0",
            map=LocalTransformationMap.from_pairs([("t_raw", "raw0")]),
        )
        try:
            # The exec call's *default* extent is emp0 (whose map renames
            # nm -> name), but the expression only references raw0, whose
            # rows keep their nm attribute untouched.
            plan = implement(Submit("r0", Get("raw0"), extent_name="emp0"))
            (row,) = mediator.executor.execute(plan).data.to_list()
            assert row["nm"] == "plain"
            assert "name" not in dict(row)
        finally:
            mediator.close()


def _walk(node):
    yield node
    for child in node.children():
        yield from _walk(child)


# -- pushdown targets, both engines ------------------------------------------------------


class TestCollidingPushdowns:
    def test_relational_wrapper_barrier_and_streaming(self):
        mediator, _ = build_relational_collider()
        try:
            barrier, streamed, stream = run_both_engines(mediator, implement(JOIN_PLAN))
            assert sorted_rows(barrier.data.to_list()) == EXPECTED
            assert sorted_rows(streamed) == EXPECTED
            for report in (*barrier.reports, *stream.reports):
                assert report.available and report.split_calls == 0
        finally:
            mediator.close()

    def test_sql_wrapper_renders_aliases_as_AS(self):
        mediator, server = build_sql_collider()
        try:
            meta = mediator.registry.extent("emp0")
            wrapper = mediator.registry.wrapper_object("w0")
            plan = namespace_plan(mediator.registry, JOIN_PLAN.expression, meta, wrapper)
            sql = wrapper.to_sql(plan.expression)
            assert "AS nm__emp0" in sql and "AS nm__dept0" in sql
            assert sql.count("JOIN") == 1
            # ... and the whole round trip returns correctly renamed rows.
            barrier, streamed, _ = run_both_engines(mediator, implement(JOIN_PLAN))
            assert sorted_rows(barrier.data.to_list()) == EXPECTED
            assert sorted_rows(streamed) == EXPECTED
        finally:
            mediator.close()

    def test_generator_wrapper_cursor_union(self):
        """Aliasing also disambiguates a colliding union over lazy cursors."""
        mediator = Mediator(name="gen-collide")
        mediator.register_wrapper(
            "w0",
            GeneratorWrapper(
                "w0",
                {
                    "t_emp": lambda: iter(EMP_ROWS),
                    "t_dept": lambda: iter(DEPT_ROWS),
                },
                attributes={"t_emp": ["id", "nm"], "t_dept": ["id", "nm"]},
            ),
        )
        define_colliding_schema(mediator)
        try:
            plan = implement(
                Submit("r0", Union((Get("emp0"), Get("dept0"))), extent_name="emp0")
            )
            barrier, streamed, _ = run_both_engines(mediator, plan)
            for rows in (barrier.data.to_list(), streamed):
                names = sorted(
                    dict(row)["name"] for row in rows if "name" in dict(row)
                )
                labels = sorted(
                    dict(row)["label"] for row in rows if "label" in dict(row)
                )
                assert names == ["mary", "sam"]
                assert labels == ["engineering", "sales"]
        finally:
            mediator.close()

    def test_query_and_query_stream_over_colliding_schema(self):
        """The user-level APIs stay correct when the schema collides."""
        mediator, _ = build_relational_collider()
        try:
            text = (
                "select struct(n: x.name, l: y.label) "
                "from x in emp0 and y in dept0 where x.id = y.id"
            )
            expected = [
                {"n": "mary", "l": "engineering"},
                {"n": "sam", "l": "sales"},
            ]
            queried = sorted(
                (dict(r) for r in mediator.query(text).rows()), key=lambda r: r["n"]
            )
            streamed = sorted(
                (dict(r) for r in mediator.query_stream(text).rows()),
                key=lambda r: r["n"],
            )
            assert queried == sorted(expected, key=lambda r: r["n"])
            assert streamed == queried
        finally:
            mediator.close()


# -- refuse-to-push fallback ---------------------------------------------------------


class TestRefuseToPushFallback:
    def test_wrapper_without_rename_splits_into_per_leaf_calls(self):
        capabilities = CapabilitySet.of("get", "project", "select", "join")
        mediator, _ = build_relational_collider(capabilities=capabilities)
        try:
            plan = implement(JOIN_PLAN)
            barrier, streamed, stream = run_both_engines(mediator, plan)
            # Never mis-renamed rows: the join happened at the mediator over
            # two bare per-leaf gets.
            assert sorted_rows(barrier.data.to_list()) == EXPECTED
            assert sorted_rows(streamed) == EXPECTED
            (report,) = barrier.reports
            assert report.available and report.split_calls == 2
            (stream_report,) = stream.reports
            assert stream_report.available and stream_report.split_calls == 2
        finally:
            mediator.close()

    def test_split_with_predicate_replays_it_at_the_mediator(self):
        from repro.algebra.expressions import Comparison, Const, Path, Var

        capabilities = CapabilitySet.of("get", "project", "select", "join")
        mediator, _ = build_relational_collider(capabilities=capabilities)
        try:
            predicate = Comparison(">", Path(Var("x"), "id"), Const(1))
            plan = implement(
                Submit(
                    "r0",
                    Select("x", predicate, Join(Get("emp0"), Get("dept0"), "id")),
                    extent_name="emp0",
                )
            )
            barrier, streamed, _ = run_both_engines(mediator, plan)
            assert sorted_rows(barrier.data.to_list()) == [EXPECTED[1]]
            assert sorted_rows(streamed) == [EXPECTED[1]]
        finally:
            mediator.close()


# -- degradation coherence ----------------------------------------------------------------


class TestDegradeStripsAliases:
    def test_rename_is_on_the_degradation_ladder(self):
        pairs = (("name", "n"), ("id", "id"))
        ladder = degradation_ladder(Rename(pairs, Get("emp0")))
        assert [step.to_text() for step in ladder] == ["get(emp0)"]
        rows = list(
            compensate_rows([Rename(pairs, Get("emp0"))][:1], [{"name": "mary", "id": 1}])
        )
        assert [dict(row) for row in rows] == [{"n": "mary", "id": 1}]

    def test_capability_vocabulary_includes_rename(self):
        assert "rename" in PUSHABLE_OPERATORS
        assert CapabilitySet.full().supports("rename")
        grammar = grammar_for({"get", "rename"})
        assert grammar.accepts(Rename((("a", "b"),), Get("c")))
        assert "rename OPEN ALIASES COMMA" in grammar.render()
        assert not grammar_for({"get"}).accepts(Rename((("a", "b"),), Get("c")))


# -- unparser round trip -------------------------------------------------------------------


class TestAliasedPartialAnswers:
    def test_partial_answer_with_rename_round_trips(self):
        mediator, server = build_relational_collider()
        try:
            plan = implement(
                Submit(
                    "r0",
                    Rename((("name", "n"), ("id", "id")), Get("emp0")),
                    extent_name="emp0",
                )
            )
            server.take_down()
            partial = mediator.executor.execute(plan)
            assert partial.is_partial
            text = partial.partial_query
            assert "struct(n: " in text
            parse_query(text)  # the partial answer is itself a query
            server.bring_up()
            resubmitted = mediator.executor.execute(implement(partial.partial_plan))
            assert not resubmitted.is_partial
            assert sorted(
                (dict(row) for row in resubmitted.data.to_list()),
                key=lambda row: row["id"],
            ) == [{"n": "mary", "id": 1}, {"n": "sam", "id": 2}]
        finally:
            mediator.close()

    def test_mediator_side_rename_runs_in_both_engines(self):
        mediator, _ = build_relational_collider()
        try:
            plan = implement(
                Rename(
                    (("name", "n"), ("id", "id")),
                    Submit("r0", Get("emp0"), extent_name="emp0"),
                )
            )
            barrier, streamed, _ = run_both_engines(mediator, plan)
            expected = [{"n": "mary", "id": 1}, {"n": "sam", "id": 2}]
            for rows in (barrier.data.to_list(), streamed):
                assert sorted(
                    (dict(row) for row in rows), key=lambda row: row["id"]
                ) == expected
        finally:
            mediator.close()

    def test_rename_above_a_join_has_no_oql_rendering(self):
        from repro.errors import QueryExecutionError

        # The merged join element's attributes cannot be attributed to one
        # block variable without schema knowledge; unparsing must fail loudly
        # instead of reading every attribute off the first variable.
        plan = Submit(
            "r0",
            Rename((("name", "n"), ("label", "l")), Join(Get("emp0"), Get("dept0"), "id")),
            extent_name="emp0",
        )
        with pytest.raises(QueryExecutionError, match="multi-source"):
            logical_to_oql(plan)

    def test_join_with_renamed_operand_unparses_to_inline_block(self):
        expression = Join(
            Rename((("name", "n"), ("id", "id")), Get("emp0")),
            Get("dept0"),
            ("id", "id"),
        )
        text = logical_to_oql(Submit("r0", expression, extent_name="emp0"))
        # The renamed side became its own inline block so the aliases apply
        # before the join sees the element.
        assert "in (select struct(n: " in text
        parse_query(text)


# -- type-check verdicts die with the schema version -----------------------------------------


class TestTypeCheckInvalidation:
    def test_reregistration_through_the_registry_drops_stale_verdicts(self):
        mediator, _ = build_relational_collider()
        try:
            plan = implement(Submit("r0", Get("emp0"), extent_name="emp0"))
            assert not mediator.executor.execute(plan).is_partial  # verdict cached
            # Re-register the extent *through the registry* (the only path:
            # the verdicts are keyed to the schema version, and nothing tells
            # the executor to forget them) with a map whose source column
            # does not exist.
            mediator.registry.drop_extent("emp0")
            mediator.registry.add_extent(
                "emp0",
                "Emp",
                "w0",
                "r0",
                map=LocalTransformationMap.from_pairs(
                    [("t_emp", "emp0"), ("missing", "name")]
                ),
            )
            with pytest.raises(TypeConflictError):
                mediator.executor.execute(plan)
        finally:
            mediator.close()


# -- attempt accounting is aligned across engines ---------------------------------------------


class _AlwaysFailing(Wrapper):
    def __init__(self, name: str):
        super().__init__(name, CapabilitySet.full())
        self.calls = 0

    def _execute(self, expression):
        self.calls += 1
        raise RuntimeError("transient boom")


class TestAttemptAccounting:
    def _build(self):
        mediator = Mediator(name="attempts", timeout=0.5, max_retries=8)
        mediator.executor.config.retry_backoff = 0.2
        mediator.register_wrapper("w0", _AlwaysFailing("w0"))
        mediator.create_repository("r0")
        mediator.define_interface("Thing", [("id", "Long")], extent_name="things")
        mediator.add_extent("thing0", "Thing", "w0", "r0")
        return mediator

    def test_write_off_during_backoff_reports_true_attempts_in_both_engines(self):
        # Attempts fail instantly at t=0 and t=0.2; the third would start at
        # t=0.6, but the 0.5s deadline writes the call off mid-backoff.  Both
        # engines must report the two attempts actually made -- the abandoned
        # backoff is not an attempt.
        plan = implement(Submit("r0", Get("thing0"), extent_name="thing0"))
        mediator = self._build()
        try:
            barrier = mediator.executor.execute(plan, timeout=0.5)
            assert barrier.is_partial
            (barrier_report,) = barrier.reports
            stream = mediator.executor.execute_stream(plan, timeout=0.5)
            stream.to_list()
            (stream_report,) = stream.reports
            assert not barrier_report.available and not stream_report.available
            assert barrier_report.attempts == 2
            assert stream_report.attempts == barrier_report.attempts
            # Give the zombie workers time to observe the write-off and stop.
            time.sleep(0.3)
        finally:
            mediator.close()
