"""Tests for the run-time system: executor, maps, parallelism, partial evaluation."""

import time

import pytest

from repro import Bag, LocalTransformationMap, Mediator, RelationalWrapper, Struct
from repro.algebra.expressions import Arithmetic, Comparison, Const, Path, StructExpr, Var
from repro.algebra.logical import Get, Join, Project, Select, Submit, Union
from repro.algebra.physical import Exec, Field, MkUnion
from repro.optimizer.implementation import implement
from repro.runtime.executor import normalize_row
from repro.runtime.operators import (
    Env,
    bind_join_rows,
    distinct_rows,
    environment_builder,
    apply_rows,
    filter_rows,
    flatten_rows,
    group_rows,
    hash_join_rows,
    limit_rows,
    nested_loop_join_rows,
    probe_join_rows,
    project_rows,
)
from repro.runtime.partial_eval import UNAVAILABLE, PartialAnswerBuilder
from repro.sources import RelationalEngine, SimulatedServer
from repro.sources.network import NetworkProfile
from tests.conftest import build_paper_mediator


def salary_filter(var="x", threshold=10):
    return Comparison(">", Path(Var(var), "salary"), Const(threshold))


class TestRowOperators:
    """The operators are lazy generators; tests materialize with list()."""

    ROWS = [
        Struct({"id": 1, "name": "Mary", "salary": 200}),
        Struct({"id": 2, "name": "Sam", "salary": 50}),
    ]

    def test_project_rows_keeps_records(self):
        projected = list(project_rows(self.ROWS, ("name",)))
        assert projected == [Struct({"name": "Mary"}), Struct({"name": "Sam"})]

    def test_filter_rows_binds_the_variable(self):
        assert list(filter_rows(self.ROWS, "x", salary_filter(threshold=100))) == [self.ROWS[0]]

    def test_filter_rows_with_env_elements(self):
        envs = [Env({"x": self.ROWS[0], "y": self.ROWS[1]})]
        predicate = Comparison("=", Path(Var("x"), "id"), Const(1))
        assert list(filter_rows(envs, "_env", predicate)) == envs

    def test_element_environment_merges_base_env(self):
        env = environment_builder("x", {"outer": 42})(self.ROWS[0])
        assert env["outer"] == 42 and env["x"] == self.ROWS[0]
        assert environment_builder("x", None)(self.ROWS[0]) == {"x": self.ROWS[0]}
        both = Env({"x": self.ROWS[0], "y": self.ROWS[1]})
        assert environment_builder("z", None)(both) == dict(both)
        # a struct bound to the reserved variable is an environment that lost its type
        assert environment_builder("_env", None)(Struct(both)) == {"_env": Struct(both), **both}

    def test_operators_are_lazy_generators(self):
        """No input element is consumed before the output is iterated."""
        consumed = []

        def source():
            for row in self.ROWS:
                consumed.append(row)
                yield row

        pipeline = project_rows(
            filter_rows(source(), "x", salary_filter(threshold=0)), ("name",)
        )
        assert consumed == []
        first = next(iter(pipeline))
        assert first == Struct({"name": "Mary"})
        assert len(consumed) == 1  # only one row pulled so far

    def test_hash_and_nested_loop_joins_agree(self):
        left = [{"id": 1, "a": "x"}, {"id": 2, "a": "y"}]
        right = [{"id": 1, "b": "z"}]
        assert list(hash_join_rows(left, right, "id")) == list(
            nested_loop_join_rows(left, right, "id")
        )

    def test_a_nil_join_key_matches_nothing_under_every_join_operator(self):
        """``=`` is nil-rejecting, so which join the optimizer picked must not
        decide whether two nil-keyed rows pair up."""
        left = [{"id": None, "a": 1}, {"id": 2, "a": 2}]
        right = [{"id": None, "b": 1}, {"id": 2, "b": 2}]
        condition = Comparison("=", Path(Var("x"), "id"), Path(Var("y"), "id"))

        def prober(keys):
            assert None not in keys
            return {key: [row for row in right if row["id"] == key] for key in keys}

        merged = [Struct({"id": 2, "a": 2, "b": 2})]
        assert list(hash_join_rows(left, right, "id")) == merged
        assert list(nested_loop_join_rows(left, right, "id")) == merged
        pair = [Env({"x": left[1], "y": right[1]})]
        assert list(bind_join_rows(left, right, "x", "y", condition)) == pair
        assert list(probe_join_rows(left, "x", "y", condition, prober, 10)) == pair

    def test_row_loops_compile_once_per_operator_invocation(self, monkeypatch):
        """However many rows flow, the expression tree is walked once -- and the
        closure dies with the operator: nothing is left on the nodes."""
        compiled = []
        for kind in (Comparison, Arithmetic, StructExpr):
            original = kind.compile

            def spy(self, evaluator=None, original=original):
                compiled.append(type(self).__name__)
                return original(self, evaluator)

            monkeypatch.setattr(kind, "compile", spy)
        rows = [Struct({"id": i % 7, "salary": i}) for i in range(300)]
        predicate = salary_filter(threshold=100)
        double = Arithmetic("*", Path(Var("x"), "salary"), Const(2))
        item = StructExpr((("s", Path(Var("x"), "salary")),))
        condition = Comparison("=", Path(Var("x"), "id"), Path(Var("y"), "id"))

        assert len(list(filter_rows(rows, "x", predicate))) == 199
        assert compiled == ["Comparison"]
        del compiled[:]
        assert len(list(apply_rows(rows, "x", item))) == 300
        assert compiled == ["StructExpr"]
        del compiled[:]
        keys = (("k", Arithmetic("+", Path(Var("x"), "id"), Const(0))),)
        aggregates = (("n", "count", Var("x")), ("t", "sum", double))
        assert len(list(group_rows(rows, "x", keys, aggregates))) == 7
        assert compiled == ["Arithmetic", "Arithmetic"]
        del compiled[:]
        joined = probe_join_rows(
            rows, "x", "y", condition, lambda keys: {key: [{"id": key}] for key in keys}, 16
        )
        assert len(list(joined)) == 300
        assert compiled == ["Comparison"]  # the condition, once; not once per batch
        for node in (predicate, double, item, condition):
            assert set(vars(node)) == set(node.__dataclass_fields__)

    def test_hash_join_streams_the_probe_side(self):
        """Only the build (right) side is materialized."""
        probed = []

        def probe():
            for row in [{"id": 1}, {"id": 1}]:
                probed.append(row)
                yield row

        joined = hash_join_rows(probe(), [{"id": 1, "b": "z"}], "id")
        assert probed == []
        next(joined)
        assert len(probed) == 1

    def test_bind_join_uses_equi_condition(self):
        left = [Struct({"id": 1, "name": "Mary"})]
        right = [Struct({"id": 1, "name": "Sam"}), Struct({"id": 2, "name": "Ana"})]
        condition = Comparison("=", Path(Var("x"), "id"), Path(Var("y"), "id"))
        result = list(bind_join_rows(left, right, "x", "y", condition))
        assert len(result) == 1
        assert result[0]["y"]["name"] == "Sam"

    def test_bind_join_without_condition_is_cross_product(self):
        result = list(bind_join_rows([1, 2], ["a", "b"], "x", "y", None))
        assert len(result) == 4

    def test_flatten_and_distinct(self):
        assert list(flatten_rows([[1, 2], 3, Bag([4])])) == [1, 2, 3, 4]
        assert list(distinct_rows([1, 1, 2])) == [1, 2]

    def test_distinct_keeps_no_linear_list_for_hashable_rows(self):
        """Regression: hashable rows must live once (in the set), never also
        in the unhashable-fallback list -- a streaming ``distinct`` over a
        large extent was holding every emitted row live twice."""
        gen = distinct_rows(iter(range(1000)))
        for _ in range(500):
            next(gen)
        internals = gen.gi_frame.f_locals
        assert len(internals["seen_hashable"]) == 500
        assert internals["emitted_unhashable"] == []
        gen.close()
        # Unhashable elements still deduplicate through the fallback list,
        # and only they are retained there.
        mixed = iter([1, [1], 1, [1], 2])
        gen = distinct_rows(mixed)
        assert [next(gen) for _ in range(3)] == [1, [1], 2]
        assert gen.gi_frame.f_locals["emitted_unhashable"] == [[1]]
        gen.close()

    def test_limit_rows_truncates_and_closes_upstream(self):
        closed = []

        def source():
            try:
                for value in range(1000):
                    yield value
            finally:
                closed.append(True)

        assert list(limit_rows(source(), 3)) == [0, 1, 2]
        assert closed == [True]
        assert list(limit_rows(source(), 0)) == []
        assert list(limit_rows([1, 2], 10)) == [1, 2]


class TestExecutor:
    def test_map_is_applied_in_both_directions(self):
        """Queries go out in source vocabulary, rows come back in mediator vocabulary."""
        mediator, _ = build_paper_mediator()
        mediator.define_interface(
            "PersonPrime", [("n", "String"), ("s", "Short")], extent_name="personprime"
        )
        mapping = LocalTransformationMap.from_pairs(
            [("person0", "personprime0"), ("name", "n"), ("salary", "s")]
        )
        mediator.add_extent("personprime0", "PersonPrime", "w0", "r0", map=mapping)
        meta = mediator.registry.extent("personprime0")
        expression = Project(("n",), Select("x", Comparison(">", Path(Var("x"), "s"), Const(10)), Get("personprime0")))
        translated = mediator.executor.to_source_namespace(expression, meta)
        assert translated.to_text() == (
            "project(name, select(x: x.salary > 10, get(person0)))"
        )

    def build_hr_mediator(self):
        """One wrapper exposing two tables; two extents with *different* maps."""
        engine = RelationalEngine(name="hr")
        engine.create_table("employees", rows=[{"ename": "Mary", "edept": "cs"}])
        engine.create_table("departments", rows=[{"ddept": "cs", "dbudget": 100}])
        server = SimulatedServer(name="hr-host", store=engine)
        mediator = Mediator(name="hr-mediator")
        mediator.register_wrapper("w0", RelationalWrapper("w0", server))
        mediator.create_repository("r0")
        mediator.define_interface(
            "Emp", [("name", "String"), ("dept", "String")], extent_name="emp"
        )
        mediator.define_interface(
            "Dept", [("dept", "String"), ("budget", "Long")], extent_name="dept"
        )
        mediator.add_extent(
            "emp0", "Emp", "w0", "r0",
            map=LocalTransformationMap.from_pairs(
                [("employees", "emp0"), ("ename", "name"), ("edept", "dept")]
            ),
        )
        mediator.add_extent(
            "dept0", "Dept", "w0", "r0",
            map=LocalTransformationMap.from_pairs(
                [("departments", "dept0"), ("ddept", "dept"), ("dbudget", "budget")]
            ),
        )
        return mediator

    def test_pushed_down_join_renames_each_side_with_its_own_map(self):
        """Regression: a join's sides must use their own extents' rename maps."""
        mediator = self.build_hr_mediator()
        meta = mediator.registry.extent("emp0")
        expression = Join(Get("emp0"), Get("dept0"), ("dept", "dept"))
        translated = mediator.executor.to_source_namespace(expression, meta)
        assert translated.to_text() == (
            "join(get(employees), get(departments), edept=ddept)"
        )

    def test_pushed_down_join_rows_come_back_in_mediator_vocabulary(self):
        mediator = self.build_hr_mediator()
        exec_node = Exec(
            Field("r0"), Join(Get("emp0"), Get("dept0"), ("dept", "dept")), extent_name="emp0"
        )
        result = mediator.executor.execute(exec_node)
        assert not result.is_partial
        (row,) = result.data.to_list()
        assert row["name"] == "Mary"
        assert row["dept"] == "cs"
        assert row["budget"] == 100

    @pytest.mark.parametrize("engine", ["query", "query_stream"])
    def test_delivered_rows_do_not_alias_the_dicts_a_wrapper_keeps(self, engine):
        """Rows that need no rename are not rebuilt key by key -- and still
        are the mediator's own: the wrapper may reuse what it returned."""

        class KeepingWrapper(RelationalWrapper):
            kept: list = []

            def submit(self, expression):
                self.kept = [dict(row) for row in super().submit(expression)]
                return self.kept

            def submit_stream(self, expression, resume_from=None):
                return self.submit(expression)

        mediator, servers = build_paper_mediator()
        with mediator:
            wrapper = KeepingWrapper("keeping", servers[0])
            mediator.register_wrapper("keeping", wrapper)
            mediator.add_extent(
                "kept0", "Person", "keeping", "r0", source_collection="person0"
            )
            result = getattr(mediator, engine)("select x from x in kept0")
            (row,) = result.rows()
            assert type(row) is Struct
            (kept,) = wrapper.kept
            kept["name"] = "Mallory"
            kept["extra"] = 1
            assert row == Struct({"id": 1, "name": "Mary", "salary": 200})
            assert result.rows() == [row]

    def test_normalize_row_renames_only_when_there_is_something_to_rename(self):
        row = {"n": "Mary", "s": 200}
        renamed = normalize_row(row, {"n": "name", "s": "salary"})
        assert type(renamed) is Struct and dict(renamed) == {"name": "Mary", "salary": 200}
        struct = Struct({"n": "Mary"})
        assert normalize_row(struct, {}) is struct  # immutable: it is the row
        assert normalize_row(struct, {"n": "name"}) == Struct({"name": "Mary"})
        copied = normalize_row(row, {})
        assert type(copied) is Struct and copied == Struct(row)
        row["n"] = "Mallory"
        assert copied["n"] == "Mary"
        # Off the two exact types nothing changed: an environment still comes
        # back as a struct of its bindings, scalars and bags as they are.
        env = Env({"x": struct})
        assert type(normalize_row(env, {})) is Struct
        assert normalize_row(env, {}) == Struct({"x": struct})
        bag = Bag([1])
        assert normalize_row("Mary", {}) == "Mary" and normalize_row(7, {"n": "m"}) == 7
        assert normalize_row(bag, {}) is bag and normalize_row(None, {}) is None

    def test_exec_reports_and_history_are_recorded(self):
        mediator, _ = build_paper_mediator()
        result = mediator.query("select x.name from x in person")
        assert len(result.reports) == 2
        assert all(report.available for report in result.reports)
        assert mediator.history.recorded_calls() == 2

    def test_exec_calls_run_in_parallel(self):
        """Two slow sources should not take twice the single-source latency."""
        mediator, servers = build_paper_mediator()
        for server in servers:
            server.network = NetworkProfile(base_latency=0.15)
            server.real_sleep = True
        started = time.monotonic()
        mediator.query("select x.name from x in person")
        elapsed = time.monotonic() - started
        assert elapsed < 0.28  # sequential would be >= 0.30

    def test_timeout_declares_slow_sources_unavailable(self):
        mediator, servers = build_paper_mediator()
        servers[0].network = NetworkProfile(base_latency=0.5)
        servers[0].real_sleep = True
        result = mediator.query(
            "select x.name from x in person where x.salary > 10", timeout=0.1
        )
        assert result.is_partial
        assert result.unavailable_sources == ("person0",)

    def test_type_check_runs_once_per_extent(self):
        mediator, servers = build_paper_mediator()
        mediator.query("select x.name from x in person0")
        requests_after_first = servers[0].statistics.requests
        mediator.query("select x.salary from x in person0")
        # one exec per query; the type check does not add extra server calls
        assert servers[0].statistics.requests == requests_after_first + 1


class TestPartialAnswerBuilder:
    def physical_plan(self):
        return MkUnion(
            (
                Exec(Field("r0"), Project(("name",), Get("person0")), extent_name="person0"),
                Exec(Field("r1"), Project(("name",), Get("person1")), extent_name="person1"),
            )
        )

    def test_to_logical_replaces_available_exec_with_data(self):
        builder = PartialAnswerBuilder()
        plan = self.physical_plan()
        execs = plan.inputs
        outcomes = {id(execs[0]): UNAVAILABLE, id(execs[1]): [Struct({"name": "Sam"})]}
        logical = builder.to_logical(plan, outcomes)
        assert "submit(r0" in logical.to_text()
        assert "Bag" in logical.to_text()

    def test_build_collapses_available_branches(self):
        builder = PartialAnswerBuilder()
        plan = self.physical_plan()
        execs = plan.inputs
        outcomes = {id(execs[0]): UNAVAILABLE, id(execs[1]): [Struct({"name": "Sam"})]}
        partial = builder.build(plan, outcomes)
        text = builder.to_oql(partial)
        assert text == 'union(select x0.name from x0 in person0, Bag(struct(name: "Sam")))'

    def test_fully_available_plan_collapses_to_data(self):
        builder = PartialAnswerBuilder()
        plan = self.physical_plan()
        execs = plan.inputs
        outcomes = {
            id(execs[0]): [Struct({"name": "Mary"})],
            id(execs[1]): [Struct({"name": "Sam"})],
        }
        partial = builder.build(plan, outcomes)
        assert not partial.contains_submit()

    def test_evaluate_logical_refuses_submit(self):
        builder = PartialAnswerBuilder()
        with pytest.raises(Exception):
            builder.evaluate_logical(Submit("r0", Get("person0")))

    def test_round_trip_physical_to_logical_for_every_operator(self):
        builder = PartialAnswerBuilder()
        logical = Union(
            (
                Project(("name",), Select("x", salary_filter(), Submit("r0", Get("person0"), extent_name="person0"))),
                Submit("r1", Get("person1"), extent_name="person1"),
            )
        )
        physical = implement(logical)
        back = builder.to_logical(physical, {})
        assert back == logical
