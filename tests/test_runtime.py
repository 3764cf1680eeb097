"""Tests for the run-time system: executor, maps, parallelism, partial evaluation."""

import gc
import time
import weakref

import pytest

from repro import Bag, LocalTransformationMap, Mediator, RelationalWrapper, SqlWrapper, Struct
from repro.algebra.capabilities import CapabilitySet
from repro.algebra.expressions import Arithmetic, Comparison, Const, Path, StructExpr, Var
from repro.algebra.logical import (
    Apply,
    BagLiteral,
    BindJoin,
    Distinct,
    Flatten,
    Get,
    GroupBy,
    Limit,
    LogicalOp,
    Project,
    Select,
    Submit,
    Union,
    submits_in,
)
from repro.algebra.unparser import OQLText, logical_to_oql
from repro.algebra.physical import (
    IMPLEMENTS,
    Exec,
    Field,
    Filter,
    MkBag,
    MkGroupBy,
    MkProj,
    MkUnion,
    PhysicalOp,
    ProbeJoin,
    walk,
)
from repro.baselines import GetOnlyWrapper
from repro.errors import DiscoError, QueryExecutionError
from repro.optimizer.implementation import implement
from repro.runtime import kernels
from repro.runtime.backpressure import StreamClosed
from repro.runtime.namespace import _meta_for_collection, namespace_plan, row_normaliser, to_source_namespace
from repro.runtime.operators import (
    Env,
    bind_join_rows,
    compose_rows,
    distinct_rows,
    environment_builder,
    flatten_rows,
    group_rows,
    limit_rows,
    probe_join_rows,
)
from repro.runtime.partial_eval import UNAVAILABLE, PartialAnswerBuilder
from repro.runtime.streaming import StreamingExecution
from repro.sources import RelationalEngine, SimulatedServer
from repro.sources.network import NetworkProfile
from repro.sources.sql import SqlEngine
from repro.wrappers import MediatorWrapper
from tests.conftest import build_paper_mediator, build_person_federation


def salary_filter(var="x", threshold=10):
    return Comparison(">", Path(Var(var), "salary"), Const(threshold))


#: a placeholder exec: the leaf of a hand-built chain, its rows the test's
ROWS_IN = Exec(Field("r"), Get("rows"), "rows")


def chained(top, rows):
    """``rows`` through the per-element chain ``top`` built over :data:`ROWS_IN`."""
    return compose_rows(top, lambda _exec: rows)


class TestRowOperators:
    """The operators are lazy generators; tests materialize with list()."""

    ROWS = [
        Struct({"id": 1, "name": "Mary", "salary": 200}),
        Struct({"id": 2, "name": "Sam", "salary": 50}),
    ]

    def test_project_rows_keeps_records(self):
        projected = list(chained(MkProj(("name",), ROWS_IN), self.ROWS))
        assert projected == [Struct({"name": "Mary"}), Struct({"name": "Sam"})]

    def test_filter_rows_binds_the_variable(self):
        top = Filter("x", salary_filter(threshold=100), ROWS_IN)
        assert list(chained(top, self.ROWS)) == [self.ROWS[0]]

    def test_filter_rows_with_env_elements(self):
        envs = [Env({"x": self.ROWS[0], "y": self.ROWS[1]})]
        predicate = Comparison("=", Path(Var("x"), "id"), Const(1))
        assert list(chained(Filter("_env", predicate, ROWS_IN), envs)) == envs

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

        top = MkProj(("name",), Filter("x", salary_filter(threshold=0), ROWS_IN))
        pipeline = chained(top, source())
        assert consumed == []
        first = next(iter(pipeline))
        assert first == Struct({"name": "Mary"})
        assert len(consumed) == 1  # only one row pulled so far

    def test_a_nil_join_key_matches_nothing_under_every_join_operator(self):
        """``=`` is nil-rejecting, so which join the optimizer picked must not
        decide whether two nil-keyed rows pair up."""
        left = [{"id": None, "a": 1}, {"id": 2, "a": 2}]
        right = [{"id": None, "b": 1}, {"id": 2, "b": 2}]
        condition = Comparison("=", Path(Var("x"), "id"), Path(Var("y"), "id"))

        def prober(keys):
            assert None not in keys
            return {key: [row for row in right if row["id"] == key] for key in keys}, False

        pair = [Env({"x": left[1], "y": right[1]})]
        assert list(bind_join_rows(left, right, "x", "y", condition)) == pair
        assert list(probe_join_rows(left, "x", "y", condition, prober, 10)) == pair

    def test_row_loops_compile_once_per_operator_invocation(self, monkeypatch):
        """However many rows flow, a grouping's or a probe join's expression
        tree is walked once -- and the closure dies with the operator: nothing
        is left on the nodes.  (Per-element chains: ``TestKernelCounts``.)"""
        compiled = []
        for kind in (Comparison, Arithmetic):
            original = kind.compile

            def spy(self, evaluator=None, original=original):
                compiled.append(type(self).__name__)
                return original(self, evaluator)

            monkeypatch.setattr(kind, "compile", spy)
        rows = [Struct({"id": i % 7, "salary": i}) for i in range(300)]
        double = Arithmetic("*", Path(Var("x"), "salary"), Const(2))
        condition = Comparison("=", Path(Var("x"), "id"), Path(Var("y"), "id"))

        keys = (("k", Arithmetic("+", Path(Var("x"), "id"), Const(0))),)
        aggregates = (("n", "count", Var("x")), ("t", "sum", double))
        for _ in range(2):  # the grouping's kernel compiles its closures per invocation, not per row
            assert len(list(group_rows(rows, "x", keys, aggregates))) == 7
            assert compiled == ["Arithmetic", "Arithmetic"]
            del compiled[:]
        joined = probe_join_rows(
            rows, "x", "y", condition, lambda keys: ({key: [{"id": key}] for key in keys}, False), 16
        )
        assert len(list(joined)) == 300
        assert compiled == ["Comparison"]  # the condition, once; not once per batch
        for node in (double, condition):
            assert set(vars(node)) == set(node.__dataclass_fields__)

    def test_bind_join_streams_its_left_side(self):
        """Only the build (right) side is materialized."""
        probed = []

        def probe():
            for row in [{"id": 1}, {"id": 1}]:
                probed.append(row)
                yield row

        condition = Comparison("=", Path(Var("x"), "id"), Path(Var("y"), "id"))
        joined = bind_join_rows(probe(), [{"id": 1, "b": "z"}], "x", "y", condition)
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
        translated = to_source_namespace(mediator.registry, expression, meta)
        assert translated.to_text() == (
            "project(name, select(x: x.salary > 10, get(person0)))"
        )

    def test_a_stored_row_is_the_answer_row(self):
        """One object per row, source to answer: a table stores immutable
        rows and hands them out, and the mediator passes them through."""
        tables = []
        mediator = Mediator(name="identity")
        mediator.create_repository("r0")
        mediator.define_interface("Person", [("id", "Long"), ("name", "String")])
        sources = (
            (RelationalEngine, lambda server: RelationalWrapper("relational", server)),
            (RelationalEngine, lambda server: GetOnlyWrapper(RelationalWrapper("inner", server))),
            (SqlEngine, lambda server: SqlWrapper("sql", server)),
        )
        for index, (engine_class, make_wrapper) in enumerate(sources):
            engine = engine_class(name=f"db{index}")
            tables.append(
                engine.create_table(
                    f"person{index}", rows=[{"id": i, "name": f"p{i}"} for i in range(3)]
                )
            )
            wrapper = make_wrapper(SimulatedServer(name=f"host{index}", store=engine))
            mediator.register_wrapper(f"w{index}", wrapper)
            mediator.add_extent(f"person{index}", "Person", f"w{index}", "r0")
        with mediator:
            for index, table in enumerate(tables):
                stored = list(table.rows())
                query = f"select x from x in person{index}"
                for answer in (mediator.query(query), mediator.query_stream(query)):
                    assert sorted(map(id, answer.rows())) == sorted(map(id, stored))

    def test_a_child_mediators_stored_row_is_the_answer_row(self):
        """A child mediator's answer rows are the immutable rows it stored:
        the mediator wrapper hands them on to the parent as they are."""
        engine = RelationalEngine(name="db")
        table = engine.create_table("people", rows=[{"id": i, "name": f"p{i}"} for i in range(3)])
        child = Mediator(name="child")
        child.register_wrapper("w0", RelationalWrapper("w0", SimulatedServer(name="host", store=engine)))
        parent = Mediator(name="parent")
        parent.register_wrapper("child", MediatorWrapper("child", child))
        for mediator, wrapper in ((child, "w0"), (parent, "child")):
            mediator.create_repository("r0")
            mediator.define_interface("Person", [("id", "Long"), ("name", "String")])
            mediator.add_extent("people", "Person", wrapper, "r0")
        with child, parent:
            stored = list(table.rows())
            query = "select x from x in people"
            for answer in (parent.query(query), parent.query_stream(query)):
                assert sorted(map(id, answer.rows())) == sorted(map(id, stored))

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

    def test_a_pushdown_is_translated_with_the_map_of_the_extent_it_names(self):
        mediator = self.build_hr_mediator()
        meta = mediator.registry.extent("emp0")
        expression = Project(("budget",), Get("dept0"))
        plan = namespace_plan(mediator.registry, expression, meta)
        assert plan.expression.to_text() == "project(dbudget, get(departments))"
        assert plan.reverse == {"ddept": "dept", "dbudget": "budget"}
        assert _meta_for_collection(mediator.registry, "no_such_extent", meta) is None

    def test_stream_closed_inside_a_registry_probe_propagates(self, monkeypatch):
        """Only an unknown name (``SchemaError``) means "no extent"; the
        consumer hanging up mid-probe is not that."""
        mediator = self.build_hr_mediator()
        meta = mediator.registry.extent("emp0")

        def hang_up(name):
            raise StreamClosed("consumer closed the stream")

        monkeypatch.setattr(mediator.registry, "extent", hang_up)
        with pytest.raises(StreamClosed):
            namespace_plan(mediator.registry, Get("dept0"), meta)

    @pytest.mark.parametrize("engine", ["query", "query_stream"])
    def test_delivered_rows_do_not_alias_the_dicts_a_wrapper_keeps(self, engine):
        """Rows that need no rename are not rebuilt key by key -- and still
        are the mediator's own: the wrapper may reuse what it returned."""

        class KeepingWrapper(RelationalWrapper):
            kept: list = []

            def submit(self, expression):
                self.kept = [dict(row) for row in super().submit(expression)]
                return self.kept

            def submit_stream(self, expression):
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
        def normalize_row(raw, renames):
            return row_normaliser(renames)(raw)

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
        # One normaliser for every layer: an environment is variable
        # bindings, not a data row, so it passes through like a struct;
        # scalars and bags come back as they are.
        env = Env({"x": struct})
        assert normalize_row(env, {}) is env
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

    def test_rows_shipped_shrink_as_wrappers_declare_more(self):
        """Section 3.2: what a wrapper declares decides what crosses it.  One
        query per fresh mediator: with no recorded call yet the plan is chosen
        from the default costs, which push all a wrapper accepts."""
        query = "select x.name from x in person where x.salary > 480"
        shipped, answer_sizes = {}, set()
        for label, capabilities in [
            ("get", CapabilitySet.get_only()),
            ("project", CapabilitySet.of("get", "project")),
            ("select", CapabilitySet.of("get", "project", "select")),
            ("full", CapabilitySet.full()),
        ]:
            mediator, servers = build_person_federation(
                2, rows_per_source=200, capabilities=capabilities
            )
            result = mediator.query(query)
            assert not result.is_partial
            shipped[label] = sum(server.statistics.rows_returned for server in servers)
            assert shipped[label] == sum(report.rows for report in result.reports)
            answer_sizes.add(len(result.rows()))
            mediator.close()
        [answer_rows] = answer_sizes  # the same answer whatever the wrappers declare
        assert shipped["get"] == 2 * 200  # everything crosses, the mediator filters
        assert shipped["full"] == answer_rows  # only the matching rows cross
        assert shipped["full"] <= shipped["select"] <= shipped["project"] <= shipped["get"]
        assert shipped["full"] < shipped["get"]

    def test_type_check_runs_once_per_extent(self):
        mediator, servers = build_paper_mediator()
        mediator.query("select x.name from x in person0")
        requests_after_first = servers[0].statistics.requests
        mediator.query("select x.salary from x in person0")
        # one exec per query; the type check does not add extra server calls
        assert servers[0].statistics.requests == requests_after_first + 1


LEAF0 = Submit("r0", Get("person0"), extent_name="person0")
LEAF1 = Submit("r1", Get("person1"))
SAME_ID = Comparison("=", Path(Var("x"), "id"), Path(Var("y"), "id"))

#: one plan per concrete logical operator but ``get`` (refused outside a
#: submit), with the physical text ``implement`` gave it before the
#: correspondence became a table
ROUND_TRIPS = {
    Submit: (LEAF1, "exec(field(r1), get(person1))"),
    Project: (
        Project(("name", "salary"), LEAF0),
        "mkproj(name,salary, exec(field(r0), get(person0)))",
    ),
    Select: (
        Select("x", salary_filter(), LEAF0),
        "filter(x: x.salary > 10, exec(field(r0), get(person0)))",
    ),
    Apply: (
        Apply("x", Arithmetic("+", Path(Var("x"), "salary"), Const(1)), LEAF0),
        "mkapply(x: x.salary + 1, exec(field(r0), get(person0)))",
    ),
    BindJoin: (
        BindJoin(LEAF0, LEAF1, "x", "y", SAME_ID),
        "mkbindjoin(x: exec(field(r0), get(person0)), y: exec(field(r1), get(person1)), x.id = y.id)",
    ),
    Union: (
        Union((LEAF0, Union((LEAF1, BagLiteral((7,)))))),
        "mkunion(exec(field(r0), get(person0)), mkunion(exec(field(r1), get(person1)), mkbag(7)))",
    ),
    Flatten: (Flatten(LEAF0), "mkflatten(exec(field(r0), get(person0)))"),
    Distinct: (Distinct(LEAF0), "mkdistinct(exec(field(r0), get(person0)))"),
    Limit: (Limit(3, LEAF0), "mklimit(3, exec(field(r0), get(person0)))"),
    GroupBy: (
        GroupBy("x", (("s", Path(Var("x"), "salary")),), (("n", "count", Var("x")),), LEAF0),
        "mkgroupby(x: [s: x.salary] [n: count(x)], exec(field(r0), get(person0)))",
    ),
    BagLiteral: (BagLiteral((Struct({"name": "Sam"}), 7)), "mkbag(struct(name: 'Sam'), 7)"),
}

#: the rows each source returns once it is up; ``b``, ``d`` and ``e`` are
#: down when the partial answer is built
SOURCE_ROWS = {
    "a": [
        Struct({"id": 1, "name": "Mary", "salary": 200, "boss": None}),
        {"id": 2, "name": "Sam", "salary": 50, "boss": 1},
    ],
    "b": [
        Struct({"id": None, "name": "Nil", "salary": 70, "boss": 2}),
        Struct({"id": 4, "name": "Ann", "salary": 50, "boss": 1}),
        {"id": 2, "name": "Sam", "salary": 50, "boss": 1},
    ],
    "c": [(1, 2), [3]],
    "d": [4, Bag([5, 6])],
    "e": [],
}
DOWN = {"b", "d", "e"}
UP_A, DOWN_B = Submit("a", Get("pa")), Submit("b", Get("pb"))
PEOPLE = Union((UP_A, DOWN_B))
ABOVE_FLOOR = Comparison(">", Path(Var("x"), "salary"), Var("floor"))  # ``floor``: outer variable
HEADCOUNT = (("n", "count", Var("x")), ("top", "max", Path(Var("x"), "salary")))
PAIRS = BindJoin(PEOPLE, UP_A, "x", "y", Comparison("=", Path(Var("x"), "boss"), Path(Var("y"), "id")))

#: every logical operator at least once over a source that is down, on the
#: inputs that have gone wrong before
RESUBMITTED = {
    "union": PEOPLE,
    "project": Project(("name", "missing"), PEOPLE),
    "select": Select("x", salary_filter(threshold=60), PEOPLE),
    "select-outer-variable": Select("x", ABOVE_FLOOR, PEOPLE),
    "apply": Apply("x", StructExpr((("n", Path(Var("x"), "name")), ("f", Var("floor")))), PEOPLE),
    "bindjoin-equi": PAIRS,
    "bindjoin-cross": BindJoin(PEOPLE, Limit(2, PEOPLE), "x", "y", None),
    # a nil ``boss`` on the left and a nil ``id`` on the right: ``=`` pairs neither
    "bindjoin-nil-keys": BindJoin(
        PEOPLE, PEOPLE, "x", "y", Comparison("=", Path(Var("x"), "boss"), Path(Var("y"), "id"))
    ),
    "bindjoin-env-elements": Select(
        "_env",
        Comparison("<", Path(Var("z"), "salary"), Path(Var("y"), "salary")),
        BindJoin(
            PAIRS, PEOPLE, "_env", "z", Comparison("=", Path(Var("x"), "id"), Path(Var("z"), "boss"))
        ),
    ),
    "union-nested": Union((UP_A, Union((BagLiteral(()), Limit(1, PEOPLE))), BagLiteral((7,)))),
    "flatten": Flatten(Union((Submit("c", Get("pc")), Submit("d", Get("pd"))))),
    "distinct": Distinct(Project(("salary",), Union((PEOPLE, PEOPLE)))),
    "limit-zero": Limit(0, PEOPLE),
    "limit-negative": Limit(-1, PEOPLE),
    "limit": Limit(2, Select("x", salary_filter(threshold=60), Union((DOWN_B, UP_A)))),
    "groupby": GroupBy("x", (("s", Path(Var("x"), "salary")),), HEADCOUNT, PEOPLE),
    "groupby-keyless-empty": GroupBy("x", (), HEADCOUNT, Submit("e", Get("pe"))),
    "groupby-outer-variable": GroupBy("x", (("f", Var("floor")),), HEADCOUNT, PEOPLE),
}


def _execs(plan):
    if isinstance(plan, Exec):
        yield plan
    for child in plan.children():
        yield from _execs(child)


def _evaluated(plan, base_env):
    """The rows of ``plan`` with every source up, or the error that stopped them."""
    leaf = lambda node: SOURCE_ROWS[node.source.name]  # noqa: E731
    try:
        return ("rows", list(compose_rows(implement(plan), leaf, base_env)))
    except DiscoError as exc:
        return ("error", type(exc).__name__, str(exc))

class TestKernelCounts:
    """A chain's kernel source is emitted once per cached plan and compiled
    once per chain shape; deterministic counts, never timings."""

    @pytest.fixture
    def counts(self, monkeypatch):
        emitted, compiled = [], []
        emit, compile_source = kernels.emit, compile

        def counting_emit(shape):
            emitted.append(shape)
            return emit(shape)

        def counting_compile(*args):
            compiled.append(args[0])
            return compile_source(*args)

        monkeypatch.setattr(kernels, "emit", counting_emit)
        monkeypatch.setattr(kernels, "compile", counting_compile, raising=False)
        kernels._factory.cache_clear()
        yield emitted, compiled
        kernels._factory.cache_clear()

    def test_a_plan_cache_hit_emits_no_source_and_compiles_nothing(self, counts, monkeypatch):
        from benchmarks.spine import federation, workloads

        emitted, compiled = counts
        fed = federation.build(federation.FED8, seed=3)
        try:
            text = workloads.templates()[1].text  # get-only branches filter at the mediator
            expected = sorted(fed.mediator.query(text).rows())
            assert sorted(fed.mediator.query(text).rows()) == expected  # binds into the slot
            optimized = fed.mediator.planner.plan(text).optimized
            chains = [node for node in walk(optimized.physical) if isinstance(node, kernels.CHAIN)]
            assert any(id(node) in optimized.exec_calls for node in chains)
            del emitted[:], compiled[:]
            bound = []
            monkeypatch.setattr("repro.runtime.operators.chain_kernel", bound.append)
            for entry in ("query", "query_stream") * 25:
                result = getattr(fed.mediator, entry)(text)
                assert result.from_plan_cache and sorted(result.rows()) == expected
            assert emitted == [] and compiled == [] and bound == []
        finally:
            fed.close()

    def test_fifty_never_seen_texts_of_one_shape_compile_one_code_object(self, counts):
        import random

        from benchmarks.spine import federation, workloads

        emitted, compiled = counts
        # Every source get-only: the plan cannot vary with the cost model's
        # latency samples, so each text's plan has the one chain shape.
        spec = federation.FederationSpec("getonly4", 4, 60, 480, ("getonly",))
        fed = federation.build(spec, seed=3)
        try:
            texts = workloads.AdhocTexts(spec, random.Random(1), first_serial=0)
            for _ in range(50):
                result = fed.mediator.query(texts.next("filter").text)
                assert not result.from_plan_cache and result.rows()
            assert len(emitted) == len(compiled) == 1
        finally:
            fed.close()

    def test_fifty_plan_cache_hits_of_a_grouping_emit_and_compile_nothing(self, counts, monkeypatch):
        """The mediator's groupings are bound into the plan's slot once; only
        the sources' ``groupby`` terminals bind per call, from compiled code."""
        from benchmarks.spine import federation, workloads
        from repro.runtime import operators

        emitted, compiled = counts
        fed = federation.build(federation.FED4X2500, seed=3)
        try:
            # The spine's warm-up: once the history knows the extents' sizes,
            # the relational sources group their own rows.
            for op in workloads.SCAN_CYCLE:
                fed.mediator.query(op.text).rows()
            (text,) = [op.text for op in workloads.SCAN_CYCLE if op.label == "groupby"]
            expected = sorted(map(repr, fed.mediator.query(text).rows()))  # a hit: binds into the slot
            optimized = fed.mediator.planner.plan(text).optimized
            groupings = [node for node in walk(optimized.physical) if isinstance(node, MkGroupBy)]
            pushed = [node for node in walk(optimized.physical) if isinstance(node, Exec) and "groupby" in node.to_text()]
            assert groupings and all(id(node) in optimized.exec_calls for node in groupings)
            del emitted[:], compiled[:]
            bound, bind = [], operators.group_kernel
            monkeypatch.setattr(operators, "group_kernel", lambda *shape: bound.append(shape) or bind(*shape))
            for entry in ("query", "query_stream") * 25:
                result = getattr(fed.mediator, entry)(text)
                assert result.from_plan_cache and sorted(map(repr, result.rows())) == expected
            assert emitted == [] and compiled == []
            assert len(bound) == 50 * len(pushed)  # the sources' terminals, never the mediator's groupings
        finally:
            fed.close()

    def test_fifty_source_side_groupby_submits_of_one_shape_compile_one_code_object(self, counts):
        emitted, compiled = counts
        engine = RelationalEngine(name="db")
        engine.create_table("person", rows=[{"id": i, "name": f"p{i % 7}", "salary": i % 5} for i in range(40)])
        wrapper = RelationalWrapper("w", SimulatedServer(name="host", store=engine))
        for i in range(50):
            attribute = ("id", "name", "salary")[i % 3]
            keys = ((f"k{i}", Path(Var("x"), attribute)),)
            aggregates = ((f"n{i}", "count", Var("x")), (f"hi{i}", "max", Path(Var("x"), "id")))
            rows = wrapper.submit(GroupBy("x", keys, aggregates, Get("person")))
            assert len(rows) == {"id": 40, "name": 7, "salary": 5}[attribute]
            assert sum(row[f"n{i}"] for row in rows) == 40
        assert len(emitted) == len(compiled) == 1

    def test_a_kept_kernel_is_found_without_rendering_the_rows_under_it(self, monkeypatch):
        """A resubmitted partial answer embeds rows under its chains and
        groupings; finding their kernels in the slot must not write them out
        (a node's hash is its text, rebuilt per call once it holds rows)."""
        rows = tuple(Struct({"a": i % 7}) for i in range(60))
        over = Comparison(">", Path(Var("x"), "a"), Const(2))
        grouped = MkGroupBy("x", (("a", Path(Var("x"), "a")),), (("n", "count", Var("x")),), Filter("x", over, MkBag(rows)))
        slot: dict = {}
        expected = list(compose_rows(grouped, None, kernels=slot))
        assert len(slot) == 2 and len(expected) == 4
        rendered = []
        monkeypatch.setattr(Struct, "__repr__", lambda row: rendered.append(row) or "row")
        for _ in range(3):
            assert list(compose_rows(grouped, None, kernels=slot)) == expected
        assert rendered == [] and len(slot) == 2

    def test_the_code_table_never_exceeds_its_bound(self, counts):
        _, compiled = counts
        rows = [Struct({f"c{i}": i for i in range(kernels.CODE_CAPACITY + 20)})]
        for width in range(1, kernels.CODE_CAPACITY + 21):
            top = MkProj(tuple(f"c{i}" for i in range(width)), ROWS_IN)
            assert list(chained(top, rows)) == [Struct({f"c{i}": i for i in range(width)})]
            assert kernels._factory.cache_info().currsize <= kernels.CODE_CAPACITY
        assert len(compiled) == kernels.CODE_CAPACITY + 20
        assert kernels._factory.cache_info().currsize == kernels.CODE_CAPACITY


class TestPartialAnswerBuilder:
    def physical_plan(self):
        return MkUnion(
            (
                Exec(Field("r0"), Project(("name",), Get("person0")), extent_name="person0"),
                Exec(Field("r1"), Project(("name",), Get("person1")), extent_name="person1"),
            )
        )

    def test_build_collapses_available_branches(self):
        builder = PartialAnswerBuilder()
        plan = self.physical_plan()
        execs = plan.inputs
        outcomes = {id(execs[0]): UNAVAILABLE, id(execs[1]): [Struct({"name": "Sam"})]}
        partial = builder.build(plan, outcomes)
        assert partial == Union(
            (
                Submit("r0", Project(("name",), Get("person0")), extent_name="person0"),
                BagLiteral((Struct({"name": "Sam"}),)),
            )
        )
        text = logical_to_oql(partial)
        assert text == 'union(select x0.name from x0 in person0, Bag(struct(name: "Sam")))'

    def test_a_partial_answer_leaves_no_reference_cycle(self):
        """The run and its calls are freed by reference counting once the
        answer is built: a cycle through them would keep every row and lock
        alive until a collection, which then lands on some later query."""
        mediator, servers = build_paper_mediator()
        with mediator:
            mediator.query("select x.name from x in person")
            servers[0].take_down()
            gc.collect()
            gc.disable()
            try:
                for _ in range(3):
                    assert mediator.query("select x.name from x in person").is_partial
                assert gc.collect() == 0
            finally:
                gc.enable()

    def test_both_entry_points_hand_back_the_run(self):
        """``Executor.execute`` returns its run finished, the outcome on it,
        and the result of either entry point carries its own run's outcome."""
        mediator, servers = build_paper_mediator()
        query = "select x.name from x in person"
        with mediator:
            full = mediator.query(query).data
            servers[0].take_down()
            run = mediator.executor.execute(mediator.explain(query).optimized.physical)
            assert isinstance(run, StreamingExecution)
            assert run.finished and run.is_partial and run.partial_plan is not None
            assert isinstance(run.partial_query, OQLText) and run.data == Bag()
            runs = []
            for entry in ("execute", "execute_stream"):

                def keep(*args, original=getattr(mediator.executor, entry), **kwargs):
                    runs.append(original(*args, **kwargs))
                    return runs[-1]

                setattr(mediator.executor, entry, keep)
            barrier, streamed = mediator.query(query), mediator.query_stream(query)
            streamed.rows()
            for result, ran in zip((barrier, streamed), runs):
                assert result.stream is None and ran.finished
                assert result.is_partial and result.is_partial == ran.is_partial
                assert result.reports and result.reports == ran.reports
                assert result.unavailable_sources == ran.unavailable_sources == ("person0",)
            servers[0].bring_up()
            assert mediator.query(str(run.partial_query)).data == full

    def test_a_closed_mediator_leaves_no_reference_cycle(self):
        """The planner's capability lookup holds the registry, not the
        planner, so a closed federation (registry, wrappers, servers,
        tables, caches) is freed by reference counting, not by a cyclic
        collection that lands on some later query."""
        gc.collect()
        gc.disable()
        try:
            mediator, servers = build_paper_mediator()
            query = "select x.name from x in person"
            assert len(mediator.query(query).rows()) == 2
            assert len(mediator.query_stream(query).rows()) == 2
            with mediator.serve(workers=1) as server:
                assert len(server.submit(query).result(timeout=10).rows()) == 2
            mediator.close()
            registry = weakref.ref(mediator.registry)
            del mediator, servers, server
            assert registry() is None
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_fully_available_plan_collapses_to_data(self):
        builder = PartialAnswerBuilder()
        plan = self.physical_plan()
        execs = plan.inputs
        outcomes = {
            id(execs[0]): [Struct({"name": "Mary"})],
            id(execs[1]): [Struct({"name": "Sam"})],
        }
        partial = builder.build(plan, outcomes)
        assert not submits_in(partial)

    def test_round_trip_physical_to_logical_for_every_operator(self):
        """By enumeration: a new logical operator without a sample fails here."""
        builder = PartialAnswerBuilder()

        def operators_of(root):
            # The library's own: a test-local subclass (test_optimizer's
            # ``Stalled``) stays listed for as long as anything holds an
            # instance of it, which is up to the garbage collector.
            return {cls for cls in root.__subclasses__() if cls.__module__.startswith("repro.")}

        assert set(ROUND_TRIPS) == operators_of(LogicalOp) - {Get}
        assert set(IMPLEMENTS) == operators_of(PhysicalOp) - {Field}
        assert set(IMPLEMENTS.values()) == set(ROUND_TRIPS)
        for cls, (logical, physical_text) in ROUND_TRIPS.items():
            physical = implement(logical)
            assert IMPLEMENTS[type(physical)] is cls
            assert physical.to_text() == physical_text
            back = builder.build(physical, {})
            assert type(back) is cls
            assert back == logical and back.to_text() == logical.to_text()
        nested = Union(
            (
                Project(("name",), Select("x", salary_filter(), LEAF0)),
                Submit("r1", Get("person1"), extent_name="person1"),
            )
        )
        assert builder.build(implement(nested), {}) == nested

    def test_algorithms_that_are_not_the_default_convert_back_too(self):
        builder = PartialAnswerBuilder()
        left, right = implement(LEAF0), implement(LEAF1)
        probe_join = ProbeJoin(left, right, "x", "y", SAME_ID)
        assert builder.build(probe_join, {}).to_text() == (
            "bindjoin(x: submit(r0, get(person0)), y: submit(r1, get(person1)), x.id = y.id)"
        )
        # The probe exec is not a child, but rows recorded under it are data.
        probed = builder.build(probe_join, {id(right): [Struct({"id": 1})]})
        assert probed.to_text() == (
            "bindjoin(x: submit(r0, get(person0)), y: Bag(struct(id: 1)), x.id = y.id)"
        )
        with pytest.raises(QueryExecutionError, match=r"field\(r0\)"):
            builder.build(Field("r0"), {})

    def test_a_probe_join_over_settled_calls_collapses_like_any_subtree(self):
        """One collapse path: a probe join whose probe rows are in hand is
        composed as the bind join it implements, straight into data."""
        left, right = implement(LEAF0), implement(LEAF1)
        probe_join = ProbeJoin(left, right, "x", "y", SAME_ID)
        people = [Struct({"id": 1, "name": "Mary"}), {"id": 2, "name": "Sam"}]
        outcomes = {id(left): people, id(right): [{"id": 2, "boss": 1}]}
        # The union's second branch is an exec nobody settled: unavailable.
        collapsed = PartialAnswerBuilder().build(MkUnion((probe_join, implement(LEAF0))), outcomes)
        assert collapsed.to_text() == (
            "union(Bag({'x': struct(id: 2, name: 'Sam'), 'y': struct(id: 2, boss: 1)}), "
            "submit(r0, get(person0)))"
        )

    @pytest.mark.parametrize("base_env", [None, {"floor": 60}], ids=["no-env", "base-env"])
    @pytest.mark.parametrize("name", sorted(RESUBMITTED))
    def test_a_resubmitted_partial_answer_is_the_full_answer(self, name, base_env):
        """The collapse is sound for every operator: the partial answer built
        while some sources are down, evaluated once they are up, gives the
        rows (or the error) the original plan gives."""
        plan = RESUBMITTED[name]
        physical = implement(plan)
        outcomes = {
            id(node): SOURCE_ROWS[node.source.name]
            for node in _execs(physical)
            if node.source.name not in DOWN
        }
        try:
            partial = PartialAnswerBuilder().build(physical, outcomes, base_env=base_env)
        except DiscoError as exc:
            resubmitted = ("error", type(exc).__name__, str(exc))
        else:
            assert submits_in(partial)
            resubmitted = _evaluated(partial, base_env)
        assert resubmitted == _evaluated(plan, base_env)

    def test_every_logical_operator_is_resubmitted(self):
        def walk(plan):
            yield plan
            for child in plan.children():
                yield from walk(child)

        covered = {type(node) for plan in RESUBMITTED.values() for node in walk(plan)}
        assert covered >= set(LogicalOp.__subclasses__()) - {Get}
