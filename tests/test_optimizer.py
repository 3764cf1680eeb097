"""Tests for the optimizer: history, cost model, implementation rules, search, plan cache."""

import dataclasses
import threading
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.spine import federation
from repro.algebra import physical as phys
from repro.algebra.capabilities import grammar_for
from repro.algebra.expressions import Comparison, Const, InList, Path, Var
from repro.algebra.logical import (
    Apply,
    BagLiteral,
    BindJoin,
    Distinct,
    Flatten,
    Get,
    GroupBy,
    LogicalOp,
    Project,
    Select,
    Submit,
    Union,
    walk,
)
from repro.algebra.rewriter import Rewriter
from repro.core.planner import QueryPlanner
from repro.core.registry import Registry
from repro.errors import OptimizationError
from repro.optimizer.cost import Cost, CostMemo, CostModel
from repro.optimizer import history as history_module
from repro.optimizer.history import ExecCallHistory, close_signature, exact_signature
from repro.optimizer.implementation import implement, implementation_alternatives
from repro.optimizer.optimizer import Optimizer
from repro.optimizer import plancache
from repro.optimizer.plancache import PlanCache
from repro.sources.workload import generate_person_rows


def salary_filter(threshold=10):
    return Comparison(">", Path(Var("x"), "salary"), Const(threshold))


def submit(extent="person0", source="r0", expression=None):
    return Submit(source, expression or Get(extent), extent_name=extent)


class TestExecCallHistory:
    def test_default_estimate_is_paper_zero_one(self):
        history = ExecCallHistory()
        estimate = history.estimate("person0", Get("person0"))
        assert estimate.kind == "default"
        assert estimate.time == 0.0
        assert estimate.rows == 1.0

    def test_exact_match_after_recording(self):
        history = ExecCallHistory()
        history.record("person0", Get("person0"), elapsed=0.5, rows=100)
        estimate = history.estimate("person0", Get("person0"))
        assert estimate.kind == "exact"
        assert estimate.time == pytest.approx(0.5)
        assert estimate.rows == pytest.approx(100)

    def test_smoothing_combines_observations(self):
        history = ExecCallHistory()
        history.record("person0", Get("person0"), elapsed=1.0, rows=100)
        history.record("person0", Get("person0"), elapsed=0.0, rows=0)
        estimate = history.estimate("person0", Get("person0"))
        assert 0.0 < estimate.time < 1.0
        assert 0 < estimate.rows < 100

    def test_window_bounds_the_number_of_observations(self, monkeypatch):
        monkeypatch.setattr(history_module, "WINDOW", 4)
        history = ExecCallHistory()
        for index in range(20):
            history.record("person0", Get("person0"), elapsed=float(index), rows=index)
        estimate = history.estimate("person0", Get("person0"))
        # Only the last four observations (16..19) survive.
        assert estimate.time >= 16.0

    def test_close_match_ignores_constants(self):
        """The paper's close match: comparison operators match, constants do not."""
        history = ExecCallHistory()
        expr_10 = Select("x", salary_filter(10), Get("person0"))
        expr_99 = Select("x", salary_filter(99), Get("person0"))
        history.record("person0", expr_10, elapsed=0.2, rows=40)
        estimate = history.estimate("person0", expr_99)
        assert estimate.kind == "close"
        assert estimate.rows == pytest.approx(40)

    def test_different_operator_is_not_a_close_match(self):
        history = ExecCallHistory()
        history.record("person0", Select("x", salary_filter(10), Get("person0")), 0.2, 40)
        other = Select("x", Comparison("<", Path(Var("x"), "salary"), Const(10)), Get("person0"))
        assert history.estimate("person0", other).kind == "default"

    def test_histories_are_per_extent(self):
        history = ExecCallHistory()
        history.record("person0", Get("person0"), 0.2, 40)
        assert history.estimate("person1", Get("person1")).kind == "default"

    def test_signatures(self):
        expr = Select("x", salary_filter(10), Get("person0"))
        assert exact_signature("person0", expr) != exact_signature("person1", expr)
        assert close_signature("person0", expr) == close_signature(
            "person0", Select("x", salary_filter(77), Get("person0"))
        )

        def batch(*keys):
            return Select("x", InList(Path(Var("x"), "id"), tuple(map(Const, keys))), Get("person0"))

        # every probe batch of one shape, whatever its size or keys
        assert close_signature("person0", batch(1, 2, 3)) == close_signature("person0", batch(7))
        assert close_signature("person0", batch(1)) == 'person0|select(x: x.id in ("?"), get(person0))'

    def test_clear_and_recorded_calls(self):
        history = ExecCallHistory()
        history.record("person0", Get("person0"), 0.2, 40)
        assert history.recorded_calls() == 1
        history.clear()
        assert history.recorded_calls() == 0

    @pytest.mark.parametrize("outcome", ["record", "record_failure"])
    def test_a_slow_signature_does_not_hold_up_other_workers(self, outcome):
        """Signatures are rendered before the lock is taken, not inside it."""
        entered, release = threading.Event(), threading.Event()

        class Stalled(LogicalOp):
            op_name = "stalled"

            def to_text(self, placeholders=False):
                entered.set()
                assert release.wait(timeout=10)
                return "stalled()"

        history = ExecCallHistory()

        def call(expression):
            if outcome == "record":
                history.record("person0", expression, 0.1, 1)
            else:
                history.record_failure("person0", expression, 0.1)

        slow = threading.Thread(target=call, args=(Stalled(),))
        fast = threading.Thread(target=call, args=(Get("person0"),))
        slow.start()
        try:
            assert entered.wait(timeout=10)
            fast.start()
            fast.join(timeout=10)
            assert not fast.is_alive()
            assert slow.is_alive()
            assert history.estimate("person0", Get("person0")).kind == "exact"
        finally:
            release.set()
            slow.join(timeout=10)
        assert not slow.is_alive()
        assert history.recorded_calls() == 2

    def test_signature_tables_are_bounded_least_recently_used_first(self, monkeypatch):
        bound = 8
        monkeypatch.setattr(history_module, "MAX_SIGNATURES", bound)
        history = ExecCallHistory()
        history.record_failure("person0", Get("person0"), 0.1)
        history.record("person1", Get("person1"), 0.1, 1)
        availability = (history.availability("person0"), history.availability("person1"))

        def expression(index):
            # Distinct exact *and* close signatures: the attribute differs.
            return Project((f"a{index}",), Get("person2"))

        for index in range(10 * bound):
            history.record("person2", expression(index), 0.1, index)
            # Matched after every record: the first signature is never the
            # least recently used, so it outlives the 72 that came after it.
            assert history.estimate("person2", expression(0)).kind == "exact"
        assert history.recorded_calls() == bound
        assert len(history._close) == bound
        most_recent = range(10 * bound - (bound - 1), 10 * bound)
        assert [history.estimate("person2", expression(i)).rows for i in most_recent] == [
            float(i) for i in most_recent
        ]
        assert history.estimate("person2", expression(5)).kind == "default"
        # Eviction forgets observations, never what is known about an extent.
        assert (history.availability("person0"), history.availability("person1")) == availability
        assert history.failures == 1


class TestImplementationRules:
    def test_each_logical_operator_has_a_physical_algorithm(self):
        predicate = salary_filter()
        plan = Distinct(
            Flatten(
                Union(
                    (
                        Apply("x", Path(Var("x"), "name"), Project(("name",), Select("x", predicate, submit()))),
                        BagLiteral(("Sam",)),
                    )
                )
            )
        )
        physical = implement(plan)
        names = {node.algo_name for node in phys.walk(physical)}
        assert {"mkdistinct", "mkflatten", "mkunion", "mkapply", "mkproj", "filter", "exec", "mkbag"} <= names

    def test_submit_becomes_exec_with_logical_argument(self):
        physical = implement(submit(expression=Project(("name",), Get("person0"))))
        assert isinstance(physical, phys.Exec)
        assert physical.expression.to_text() == "project(name, get(person0))"
        assert physical.extent_name == "person0"

    def test_join_has_two_physical_alternatives(self):
        on = Comparison("=", Path(Var("x"), "id"), Path(Var("y"), "id"))
        join = BindJoin(submit("a", "r0"), submit("b", "r1"), "x", "y", on)
        alternatives = implementation_alternatives(join)
        names = {type(plan).__name__ for plan in alternatives}
        assert names == {"MkBindJoin", "ProbeJoin"}

    def test_bindjoin_is_implemented(self):
        bind = BindJoin(submit("a", "r0"), submit("b", "r1"), "x", "y")
        assert isinstance(implement(bind), phys.MkBindJoin)

    def test_bare_get_outside_submit_is_an_error(self):
        with pytest.raises(OptimizationError):
            implement(Get("person0"))


class TestCostModel:
    def model(self, history=None):
        return CostModel(history=history or ExecCallHistory())

    def test_default_cost_prefers_pushdown(self):
        """The paper: with no cost information, push the maximum work to the source."""
        model = self.model()
        pushed = implement(submit(expression=Project(("name",), Select("x", salary_filter(), Get("person0")))))
        unpushed = implement(
            Project(("name",), Select("x", salary_filter(), submit()))
        )
        assert model.estimate(pushed).total() < model.estimate(unpushed).total()

    def test_recorded_history_feeds_exec_estimates(self):
        history = ExecCallHistory()
        history.record("person0", Get("person0"), elapsed=2.0, rows=10_000)
        model = self.model(history)
        expensive = model.estimate(implement(submit()))
        cheap = model.estimate(implement(submit("person1", "r1")))
        assert expensive.total() > cheap.total()
        assert expensive.rows == pytest.approx(10_000)

    def test_recorded_calls_shrink_the_cardinality_error_of_an_unseen_constant(self):
        """Section 3.3 with no plan choice in the loop: calls recorded with
        other constants estimate a new one far better than the 0/1 default,
        and the cost of the same plan follows."""
        salaries = [row["salary"] for row in generate_person_rows(300, seed=7)]
        actual = lambda threshold: sum(salary > threshold for salary in salaries)
        history = ExecCallHistory()
        probe = Select("x", salary_filter(275), Get("person0"))
        plan = implement(submit(expression=probe))
        cold = history.estimate("person0", probe)
        cold_cost = self.model(history).estimate(plan)
        for threshold in (150, 200, 250, 300, 350, 400):
            recorded = Select("x", salary_filter(threshold), Get("person0"))
            history.record("person0", recorded, elapsed=0.01, rows=actual(threshold))
        warm = history.estimate("person0", probe)
        assert (cold.kind, warm.kind) == ("default", "close")
        error = lambda estimate: abs(estimate.rows - actual(275)) / actual(275)
        assert error(warm) < error(cold)
        warm_cost = self.model(history).estimate(plan)
        assert warm_cost.rows == pytest.approx(warm.rows)
        assert warm_cost.total() > cold_cost.total()

    def test_hash_join_estimated_cheaper_than_nested_loop_on_large_inputs(self):
        history = ExecCallHistory()
        history.record("a", Get("a"), elapsed=0.0, rows=1000)
        history.record("b", Get("b"), elapsed=0.0, rows=1000)
        model = self.model(history)
        left = implement(submit("a", "r0"))
        right = implement(submit("b", "r1"))
        on = Comparison("=", Path(Var("x"), "id"), Path(Var("y"), "id"))
        hash_cost = model.estimate(phys.MkBindJoin(left, right, "x", "y", on)).total()
        loop_cost = model.estimate(phys.MkBindJoin(left, right, "x", "y")).total()
        assert hash_cost < loop_cost

    def test_a_bind_join_without_an_equi_conjunct_is_priced_as_a_nested_loop(self):
        """The translator's ``select(x.id = d.id ..., bindjoin(..., true))``
        stays in the memo.  Neither a cold plan (every side estimated at 1
        row) nor a re-plan once the history knows 4 x 2 500 person rows and
        500 dept rows may pick its nested loop (10^7 pairs, seconds of
        mediator time) over a join on ``x.id = d.id``."""
        fed = federation.build(federation.FED4X2500, seed=5)
        join = "select struct(n: x.name, d: d.dname) from x in person, d in dept where x.id = d.id"
        answers: dict[str, int] = {}
        try:
            for _ in range(2):  # cold, then informed by the first runs
                plans = {
                    text: fed.mediator.planner.plan(text, use_cache=False).optimized.physical
                    for text in (join, join + " and x.salary > 280")
                }
                for text, plan in plans.items():
                    bind_joins = [node for node in walk(plan) if isinstance(node, phys.MkBindJoin)]
                    assert all(node.condition is not None for node in bind_joins)
                    rows = len(fed.mediator.executor.execute(plan).data)
                    assert answers.setdefault(text, rows) == rows
            assert answers[join] == 500
        finally:
            fed.close()

    def test_union_cost_adds_children(self):
        model = self.model()
        single = model.estimate(implement(submit()))
        double = model.estimate(implement(Union((submit(), submit("person1", "r1")))))
        assert double.total() == pytest.approx(2 * single.total())

    def test_unknown_operator_raises(self):
        """An algorithm with no counterpart and no cost is refused when it is
        defined, before any plan could hold one."""
        with pytest.raises(TypeError):

            class Weird(phys.PhysicalOp):
                algo_name = "weird"

                def to_text(self):
                    return "weird()"


#: a grouping of person rows by salary, and the exec call reading person0
BY_SALARY = ((("s", Path(Var("x"), "salary")),), (("n", "count", Var("x")),))
SCAN = phys.Exec(phys.Field("r0"), Get("person0"), "person0")


class TestOneRowEstimatePerExpression:
    """A mediator-side operator directly over an exec call ships the rows that
    call ships with the operator pushed into it: where the history has seen
    the pushed call, both places take its rows.  Hand-recorded history: no
    timing is measured."""

    def history(self):
        history = ExecCallHistory()
        history.record("person0", Get("person0"), elapsed=0.01, rows=1000)
        history.record("person0", Select("x", salary_filter(100), Get("person0")), elapsed=0.004, rows=120)
        history.record("person0", GroupBy("x", *BY_SALARY, Get("person0")), elapsed=0.006, rows=7)
        return history

    def test_a_filter_and_its_pushed_select_cost_the_same_rows(self):
        model = CostModel(self.history())
        pushed = phys.Exec(phys.Field("r0"), Select("x", salary_filter(100), Get("person0")), "person0")
        kept = phys.Filter("x", salary_filter(100), SCAN)
        assert model.estimate(kept).rows == model.estimate(pushed).rows == pytest.approx(120)
        # a close match (another constant) reads the same observations
        other = phys.Filter("x", salary_filter(250), SCAN)
        assert model.estimate(other).rows == pytest.approx(120)
        # the filter still pays for every row it reads
        assert model.estimate(kept).time > model.estimate(SCAN).time

    def test_a_pushed_groupby_costs_its_observed_group_rows(self):
        model = CostModel(self.history())
        pushed = phys.Exec(phys.Field("r0"), GroupBy("x", *BY_SALARY, Get("person0")), "person0")
        assert model.estimate(pushed).rows == pytest.approx(7)
        assert model.estimate(phys.MkGroupBy("x", *BY_SALARY, SCAN)).rows == pytest.approx(7)

    def test_an_extent_never_observed_with_the_pushed_form_keeps_its_formula(self):
        """A ``GetOnlyWrapper`` extent is only ever read whole: its filter and
        grouping are estimated from its scan, as before."""
        history = ExecCallHistory()
        history.record("person1", Get("person1"), elapsed=0.01, rows=1000)
        model = CostModel(history)
        scan = phys.Exec(phys.Field("r1"), Get("person1"), "person1")
        filtered = model.estimate(phys.Filter("x", salary_filter(100), scan))
        grouped = model.estimate(phys.MkGroupBy("x", *BY_SALARY, scan))
        assert filtered.rows == pytest.approx(1000 * phys.DEFAULT_SELECTIVITY)
        assert grouped.rows == pytest.approx(phys.grouped_rows(1000, has_keys=True))
        # over anything but an exec call the formula holds too
        union = phys.MkUnion((scan, scan))
        assert model.estimate(phys.Filter("x", salary_filter(100), union)).rows == pytest.approx(
            2000 * phys.DEFAULT_SELECTIVITY
        )


class TestOneDefinitionSite:
    """A physical algorithm is one class: its counterpart and its cost live on it."""

    def test_an_algorithm_that_states_both_is_costed_with_no_other_edit(self):
        @dataclass(frozen=True, eq=False)
        class MkShuffle(phys.PhysicalOp):
            child: phys.PhysicalOp
            algo_name = "mkshuffle"
            implements = Distinct

            def cost(self, child):
                return Cost(child.time + 1.0, child.rows * 2)

            def _render(self):
                return f"mkshuffle({self.child.to_text()})"

        model = CostModel(ExecCallHistory())
        leaf = implement(submit())
        below = model.estimate(leaf)
        assert model.estimate(MkShuffle(leaf)) == Cost(below.time + 1.0, below.rows * 2)
        assert MkShuffle not in phys.IMPLEMENTS  # the table is the library's own

    @pytest.mark.parametrize("omitted", ["implements", "cost"])
    def test_an_algorithm_that_omits_either_is_refused_when_defined(self, omitted):
        stated = {"implements": Distinct, "cost": lambda self, child: child}
        del stated[omitted]
        with pytest.raises(TypeError, match=omitted):
            type("MkHalfDone", (phys.PhysicalOp,), stated)

    def test_the_cost_model_dispatches_on_history_costed_algorithms_only(self):
        assert [cls for cls in phys.IMPLEMENTS if cls.cost is None] == [phys.Exec, phys.ProbeJoin]
        assert phys.Field.implements is None and phys.Field.cost is None
        assert [field.name for field in dataclasses.fields(CostModel)] == ["history"]


#: probed by every ``ProbeJoin`` sample; :func:`_probe_history` holds its readings
_PROBED = Submit("r1", Get("person1"), extent_name="person1")


def _probe_history():
    """A fixed history: the probed extent is big, slow and flaky."""
    history = ExecCallHistory()
    history.record("person1", Get("person1"), elapsed=0.02, rows=5000)
    history.record_failure("person1", Get("person1"), elapsed=0.5)
    return history


def _cost_samples():
    """One or more nodes per physical algorithm, operands left as placeholders
    (the property hands in their costs)."""
    leaf = phys.MkBag()
    on = Comparison("=", Path(Var("x"), "id"), Path(Var("y"), "id"))
    key = (("band", Path(Var("x"), "band")),)
    count = (("n", "count", Var("x")),)
    probe = implement(_PROBED)
    return [
        phys.MkBag((1, 2, 3)),
        phys.MkProj(("name",), leaf),
        phys.Filter("x", salary_filter(), leaf),
        phys.MkApply("x", Path(Var("x"), "name"), leaf),
        phys.MkBindJoin(leaf, leaf, "x", "y", on),
        phys.MkBindJoin(leaf, leaf, "x", "y"),
        phys.MkBindJoin(leaf, leaf, "x", "y", Comparison("<", Path(Var("x"), "id"), Path(Var("y"), "id"))),
        phys.ProbeJoin(leaf, probe, "x", "y", on),
        phys.MkUnion((leaf, leaf, leaf)),
        phys.MkFlatten(leaf),
        phys.MkDistinct(leaf),
        phys.MkGroupBy("x", key, count, leaf),
        phys.MkGroupBy("x", (), count, leaf),
        phys.MkLimit(5, leaf),
        phys.MkLimit(0, leaf),
    ]


COST_SAMPLES = _cost_samples()
AMOUNTS = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)


def _costed(node, operands):
    """``node``'s cost over the given operand costs: its own formula, or the
    cost model's on a fixed history for the history-costed ``ProbeJoin``."""
    if node.cost is not None:
        return node.cost(*operands)
    memo = CostMemo()
    memo.plans[id(node.left)] = (node.left, operands[0])
    return CostModel(_probe_history()).estimate(node, memo)


class TestCostFunctionsAreMonotone:
    """The plan search keeps Pareto sets, which is only sound while every cost
    function is nondecreasing in each operand's time and rows."""

    def test_every_algorithm_but_the_history_costed_exec_is_sampled(self):
        sampled = {type(node) for node in COST_SAMPLES}
        assert sampled == {cls for cls in phys.IMPLEMENTS if cls is not phys.Exec}

    @settings(derandomize=True, max_examples=400)
    @given(
        st.sampled_from(COST_SAMPLES),
        st.lists(st.tuples(AMOUNTS, AMOUNTS), min_size=3, max_size=3),
        st.integers(min_value=0, max_value=2),
        st.sampled_from(["time", "rows"]),
        AMOUNTS,
    )
    def test_raising_one_operand_never_lowers_the_result(self, node, amounts, which, field, more):
        operands = [Cost(time, rows) for time, rows in amounts[: len(node.children())]]
        before = _costed(node, operands)
        if operands:
            which %= len(operands)
            operands[which] = dataclasses.replace(
                operands[which], **{field: getattr(operands[which], field) + more}
            )
        after = _costed(node, operands)
        assert after.time >= before.time and after.rows >= before.rows


class TestOptimizerSearch:
    def optimizer(self, history=None):
        capabilities = lambda submit_node: grammar_for({"get", "project", "select"})
        history = history or ExecCallHistory()
        return Optimizer(Rewriter(capabilities), CostModel(history=history))

    def paper_plan(self):
        union = Union((submit(), submit("person1", "r1")))
        return Apply(
            "x",
            Path(Var("x"), "name"),
            Project(("name",), Select("x", salary_filter(), union)),
        )

    def test_optimize_chooses_full_pushdown_with_default_costs(self):
        plan = self.optimizer().optimize(self.paper_plan())
        text = plan.logical.to_text()
        assert "submit(r0, project(name, select" in text
        assert "submit(r1, project(name, select" in text
        assert plan.cost.total() > 0

    def test_optimize_reports_search_space_size(self):
        """Group members explored and implementations costed."""
        logical = self.paper_plan()
        plan = self.optimizer().optimize(logical)
        assert plan.logical_alternatives > len({node.to_text() for node in walk(logical)})
        assert plan.physical_alternatives > 1


@pytest.fixture
def two_plan_cache(monkeypatch):
    """Plan caches hold two plans: eviction after the third."""
    monkeypatch.setattr(plancache, "PLAN_CACHE_CAPACITY", 2)


def keyed_plan_cache(version: Callable[[], int] = lambda: 1) -> tuple[PlanCache, Callable[[str], str]]:
    """A planner's plan cache over the schema version ``version`` reads, and
    its text -> key (the only keys a plan cache takes)."""
    planner = QueryPlanner(Registry())
    planner.plan_cache = PlanCache(version)
    return planner.plan_cache, lambda text: planner.key(text)[0]


class TestPlanCache:
    def test_hit_and_miss(self):
        cache, key = keyed_plan_cache()
        assert cache.get(key("q"), schema_version=1) is None
        cache.put(key("q"), 1, "PLAN")
        assert cache.get(key("q"), schema_version=1) == "PLAN"
        assert cache.hits == 1 and cache.misses == 1

    def test_schema_change_invalidates(self):
        """The paper: cached plans must be recomputed when extents change."""
        registry = SimpleNamespace(schema_version=1)
        cache, key = keyed_plan_cache(lambda: registry.schema_version)
        assert cache.put(key("q"), 1, "PLAN")
        assert cache.get(key("q"), schema_version=2) is None
        assert cache.invalidations == 1
        assert len(cache) == 0
        registry.schema_version = 2
        assert not cache.put(key("q"), 1, "PLAN")  # planned before the change
        assert len(cache) == 0

    def test_capacity_is_bounded(self, two_plan_cache):
        cache, key = keyed_plan_cache()
        cache.put(key("a"), 1, "A")
        cache.put(key("b"), 1, "B")
        cache.put(key("c"), 1, "C")
        assert len(cache) == 2
        assert cache.get(key("a"), 1) is None

    def test_get_refreshes_recency(self, two_plan_cache):
        """True LRU: a recently *used* entry survives eviction."""
        cache, key = keyed_plan_cache()
        cache.put(key("a"), 1, "A")
        cache.put(key("b"), 1, "B")
        cache.get(key("a"), 1)  # "a" becomes most recently used
        cache.put(key("c"), 1, "C")  # evicts "b", the least recently used
        assert cache.get(key("a"), 1) == "A"
        assert cache.get(key("b"), 1) is None

    def test_put_refreshes_recency_of_existing_keys(self, two_plan_cache):
        cache, key = keyed_plan_cache()
        cache.put(key("a"), 1, "A")
        cache.put(key("b"), 1, "B")
        cache.put(key("a"), 1, "A2")  # refresh, not insert: nothing is evicted
        cache.put(key("c"), 1, "C")
        assert len(cache) == 2
        assert cache.get(key("a"), 1) == "A2"
        assert cache.get(key("b"), 1) is None

    def test_reformatted_query_text_hits_the_cache(self):
        cache, key = keyed_plan_cache()
        cache.put(key("select x.name from x in person"), 1, "PLAN")
        assert cache.get(key("select  x.name\n  from x in person"), 1) == "PLAN"
        assert cache.hits == 1

    def test_whitespace_inside_string_literals_is_significant(self):
        """Regression: literals differing only in inner spaces must not collide."""
        cache, key = keyed_plan_cache()
        cache.put(key('select x from x in y where x.name = "Mary  Smith"'), 1, "TWO-SPACES")
        assert cache.get(key('select x from x in y where x.name = "Mary Smith"'), 1) is None
        cache.put(key('select x from x in y where x.name = "Mary Smith"'), 1, "ONE-SPACE")
        assert cache.get(key('select  x from x in y where x.name = "Mary  Smith"'), 1) == "TWO-SPACES"
        assert cache.get(key('select x from x in y  where x.name = "Mary Smith"'), 1) == "ONE-SPACE"

    def test_clear(self):
        cache, key = keyed_plan_cache()
        cache.put(key("a"), 1, "A")
        cache.clear()
        assert len(cache) == 0
