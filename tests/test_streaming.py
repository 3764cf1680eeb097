"""Tests for the streaming execution engine and the LIMIT pipeline.

Covers the streaming semantics contract: rows appear incrementally and in
completion order, iteration is replayable (pipeline generators are never
consumed twice), ``distinct``/``flatten`` keep first-occurrence order,
``LIMIT`` edge cases behave in both engines, early termination cancels
upstream work cooperatively, and a source dying mid-stream still surfaces
through ``errors()``.
"""

import math
import time
import tracemalloc
from types import SimpleNamespace

import pytest

from repro import GeneratorWrapper, Mediator, RelationalWrapper
from repro.algebra.capabilities import CapabilitySet
from repro.algebra.logical import Limit, Project, Submit, Union, Get
from repro.oql.parser import parse_query
from repro.optimizer.history import ExecCallHistory
from repro.core.planner import QueryPlanner
from repro.core.registry import Registry
from repro.errors import ParseError
from repro.runtime import streaming
from repro.sources import RelationalEngine, SimulatedServer
from repro.sources.network import NetworkProfile
from tests.conftest import build_paper_mediator, build_person_federation


class ScanCounter:
    """A lazy source that counts how many rows the consumer actually pulled."""

    def __init__(self, total, fail_after=None):
        self.total = total
        self.fail_after = fail_after
        self.yielded = 0
        self.opened = 0

    def __call__(self):
        self.opened += 1

        def rows():
            for i in range(self.total):
                if self.fail_after is not None and i >= self.fail_after:
                    raise RuntimeError("cursor lost mid-stream")
                self.yielded += 1
                yield {"id": i, "name": f"p{i}", "salary": i}

        return rows()


def build_generator_mediator(scan, extent="person0", capabilities=None, **mediator_kwargs):
    mediator = Mediator(name="gen", **mediator_kwargs)
    mediator.define_interface(
        "Person",
        [("id", "Long"), ("name", "String"), ("salary", "Short")],
        extent_name="person",
    )
    mediator.register_wrapper(
        "w0",
        GeneratorWrapper(
            "w0",
            {extent: scan},
            attributes={extent: ["id", "name", "salary"]},
            capabilities=capabilities,
        ),
    )
    mediator.create_repository("r0")
    mediator.add_extent(extent, "Person", "w0", "r0")
    return mediator


class TestIncrementalResults:
    def test_iter_rows_is_incremental_and_replayable(self):
        scan = ScanCounter(1000)
        mediator = build_generator_mediator(scan)
        result = mediator.query_stream("select x.name from x in person")
        iterator = result.iter_rows()
        first = next(iterator)
        assert first == "p0"
        # Lazy end to end: only a handful of source rows were pulled so far.
        assert scan.yielded < 1000
        # A second iteration replays the buffered prefix and continues the
        # live tail -- nothing is consumed twice, nothing is lost.
        assert list(result.iter_rows()) == [f"p{i}" for i in range(1000)]
        assert list(result.iter_rows()) == [f"p{i}" for i in range(1000)]
        mediator.close()

    def test_rows_after_partial_iteration_sees_everything(self):
        mediator = build_generator_mediator(ScanCounter(50))
        result = mediator.query_stream("select x.name from x in person")
        taken = [row for _, row in zip(range(10), result.iter_rows())]
        assert len(taken) == 10
        assert len(result.rows()) == 50
        assert result.complete()
        mediator.close()

    def test_materialized_surface_matches_barrier_engine(self):
        mediator, _ = build_paper_mediator()
        streamed = mediator.query_stream("select x.name from x in person where x.salary > 10")
        barrier = mediator.query("select x.name from x in person where x.salary > 10")
        assert streamed.answer() == barrier.answer()
        assert sorted(streamed.rows()) == sorted(barrier.rows())
        mediator.close()

    def test_scalar_queries_come_back_materialized(self):
        mediator, _ = build_paper_mediator()
        result = mediator.query_stream("sum(select x.salary from x in person)")
        assert result.stream is None
        assert result.answer() == 250
        mediator.close()


class TestOrderingStability:
    def test_distinct_keeps_first_occurrence_order(self):
        def scan():
            for name in ["b", "a", "b", "c", "a", "d"]:
                yield {"id": 0, "name": name, "salary": 1}

        mediator = build_generator_mediator(scan)
        result = mediator.query_stream("select distinct x.name from x in person")
        assert list(result.iter_rows()) == ["b", "a", "c", "d"]
        mediator.close()

    def test_flatten_preserves_element_order(self):
        mediator, _ = build_paper_mediator()
        result = mediator.query_stream(
            "flatten(bag(bag(1, 2), bag(3), bag(4, 5)))"
        )
        assert list(result.iter_rows()) == [1, 2, 3, 4, 5]
        mediator.close()


class TestLimitExecution:
    QUERY = "select x.name from x in person limit 3"

    def test_limit_truncates_in_both_engines(self):
        mediator, _ = build_paper_mediator()
        assert len(mediator.query(self.QUERY).rows()) == 2  # only 2 rows exist
        assert len(mediator.query("select x.name from x in person0 limit 1").rows()) == 1
        streamed = mediator.query_stream("select x.name from x in person0 limit 1")
        assert len(list(streamed.iter_rows())) == 1
        mediator.close()

    def test_limit_zero_yields_nothing_and_scans_nothing(self):
        scan = ScanCounter(100)
        mediator = build_generator_mediator(scan)
        result = mediator.query_stream("select x.name from x in person limit 0")
        assert list(result.iter_rows()) == []
        assert scan.yielded == 0
        assert not result.is_partial
        mediator.close()

    def test_limit_larger_than_source_returns_everything(self):
        mediator = build_generator_mediator(ScanCounter(5))
        result = mediator.query_stream("select x.name from x in person limit 50")
        assert len(list(result.iter_rows())) == 5
        assert not result.is_partial
        mediator.close()

    def test_limit_works_without_pushdown(self):
        """A get-only wrapper: everything (limit included) runs at the mediator."""
        from repro.baselines import GetOnlyWrapper

        engine = RelationalEngine(name="db0")
        engine.create_table(
            "person0", rows=[{"id": i, "name": f"p{i}", "salary": i} for i in range(20)]
        )
        server = SimulatedServer(name="h0", store=engine)
        mediator = Mediator(name="nopush")
        mediator.register_wrapper(
            "w0", GetOnlyWrapper(RelationalWrapper("inner", server))
        )
        mediator.create_repository("r0")
        mediator.define_interface(
            "Person",
            [("id", "Long"), ("name", "String"), ("salary", "Short")],
            extent_name="person",
        )
        mediator.add_extent("person0", "Person", "w0", "r0")
        query = "select x.name from x in person where x.salary > 5 limit 4"
        assert len(mediator.query(query).rows()) == 4
        assert len(list(mediator.query_stream(query).iter_rows())) == 4
        mediator.close()

    def test_limit_pushes_through_projection_and_union(self):
        """The rewriter pushes the limit below apply/project and caps every
        union branch (the cost-based search may still prefer a cheaper
        shape; the *rules* must offer the pushed-down one)."""
        mediator, _ = build_paper_mediator()
        planned = mediator.explain("select x.name from x in person limit 1")
        greedy = mediator.planner.rewriter.rewrite_greedy(planned.logical)
        text = greedy.to_text()
        # The outer limit moved below the apply and caps each union branch.
        assert text.startswith("apply(")
        assert text.count("limit(1") == 3
        # Whatever shape wins the cost search, the limit itself survives.
        assert "limit(1" in planned.optimized.logical.to_text()
        mediator.close()

    def test_early_termination_cancels_the_scan(self):
        # No limit capability: the limit stays at the mediator, so a
        # satisfied mklimit must cancel the in-flight call cooperatively.
        scan = ScanCounter(100_000)
        mediator = build_generator_mediator(
            scan, capabilities=CapabilitySet.of("get", "project", "select")
        )
        result = mediator.query_stream(
            "select x.name from x in person where x.salary > 10 limit 5"
        )
        assert list(result.iter_rows()) == [f"p{i}" for i in range(11, 16)]
        # The 100k-row scan was abandoned after a handful of rows.
        assert scan.yielded < 100
        report = result.reports[0]
        assert report.cancelled and report.available
        assert not result.is_partial and result.errors() == {}
        mediator.close()

    def test_early_termination_allocates_by_the_batch_not_by_the_extent(self):
        """The same mediator-side limit over 10^5 lazy rows, through both entry
        points: the materialising run drains the cursor into a list first, the
        streaming run never holds more than the pipeline's lookahead."""
        query = "select x.name from x in person where x.salary > 10 limit 10"
        peak, pulled = {}, {}
        for entry in ("query_stream", "query"):
            scan = ScanCounter(100_000)
            mediator = build_generator_mediator(
                scan, capabilities=CapabilitySet.of("get", "project", "select")
            )
            tracemalloc.start()
            try:
                assert len(getattr(mediator, entry)(query).rows()) == 10
                peak[entry] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                mediator.close()
            pulled[entry] = scan.yielded
        assert pulled["query_stream"] < 1_000 and pulled["query"] == 100_000
        assert peak["query_stream"] * 10 < peak["query"]

    def test_pushed_limit_ends_the_scan_without_cancellation(self):
        # With the limit capability the cap crosses the submit boundary: the
        # source stops on its own and the call completes normally.
        scan = ScanCounter(100_000)
        mediator = build_generator_mediator(scan)
        result = mediator.query_stream(
            "select x.name from x in person where x.salary > 10 limit 5"
        )
        assert list(result.iter_rows()) == [f"p{i}" for i in range(11, 16)]
        assert scan.yielded < 100
        report = result.reports[0]
        assert report.available and not report.cancelled
        assert not result.is_partial and result.errors() == {}
        mediator.close()

    def test_close_cancels_midway(self):
        scan = ScanCounter(100_000)
        mediator = build_generator_mediator(scan)
        result = mediator.query_stream("select x.name from x in person")
        taken = [row for _, row in zip(range(7), result.iter_rows())]
        assert len(taken) == 7
        result.close()
        assert scan.yielded < 100
        # close() folds the outcome in and detaches the finished stream.
        assert result.stream is None
        assert len(result.rows()) == 7
        mediator.close()


class TestCompletionOrderUnion:
    def test_fast_source_streams_before_the_slow_one_answers(self):
        mediator, servers = build_paper_mediator()
        servers[0].network = NetworkProfile(base_latency=0.5)
        servers[0].real_sleep = True
        started = time.monotonic()
        result = mediator.query_stream("select x.name from x in person", timeout=5.0)
        first = next(result.iter_rows())
        elapsed = time.monotonic() - started
        assert first == "Sam"  # r1 is instant; r0 sleeps half a second
        assert elapsed < 0.4
        # Draining still waits for (and includes) the slow source.
        assert sorted(result.rows()) == ["Mary", "Sam"]
        assert result.complete()
        mediator.close()

    def test_limit_satisfied_by_fast_source_cancels_the_slow_one(self):
        mediator, servers = build_paper_mediator()
        servers[0].network = NetworkProfile(base_latency=5.0)
        servers[0].real_sleep = True
        started = time.monotonic()
        result = mediator.query_stream(
            "select x.name from x in person limit 1", timeout=30.0
        )
        rows = list(result.iter_rows())
        elapsed = time.monotonic() - started
        assert rows == ["Sam"]
        assert elapsed < 1.0  # nowhere near the 5s source
        assert not result.is_partial
        cancelled = [r for r in result.reports if r.cancelled]
        assert any(r.extent_name == "person0" for r in cancelled)
        mediator.close()

    def test_calls_started_behind_an_answer_give_the_consumer_a_turn(self, monkeypatch):
        # One pool thread: the four calls run one after another, so which of
        # them start once another has answered is fixed -- all but the first.
        mediator, _ = build_person_federation(4, rows_per_source=5, max_parallel_calls=1)
        turns = []
        sleep = time.sleep
        monkeypatch.setattr(time, "sleep", lambda s: turns.append(s) if s == 0 else sleep(s))
        assert len(mediator.query_stream("select x.name from x in person").rows()) == 20
        assert turns == [0, 0, 0]
        # A materialising run hands nothing over before its last answer.
        assert len(mediator.query("select x.name from x in person").rows()) == 20
        assert turns == [0, 0, 0]
        mediator.close()


class TestMidStreamFailure:
    def test_source_dying_mid_stream_reports_errors(self):
        scan = ScanCounter(100, fail_after=10)
        mediator = build_generator_mediator(scan)
        result = mediator.query_stream("select x.name from x in person")
        rows = list(result.iter_rows())
        # The rows delivered before the crash are kept ...
        assert rows == [f"p{i}" for i in range(10)]
        # ... and the failure is still reported, partial-answer style.
        assert result.is_partial
        assert not result.complete()
        assert result.unavailable_sources == ("person0",)
        assert "RuntimeError" in result.errors()["person0"]
        mediator.close()

    def test_unavailable_source_contributes_no_rows_but_reports(self):
        mediator, servers = build_paper_mediator()
        servers[0].take_down()
        result = mediator.query_stream("select x.name from x in person")
        assert list(result.iter_rows()) == ["Sam"]
        assert result.is_partial
        assert result.unavailable_sources == ("person0",)
        assert "person0" in result.errors()
        mediator.close()

    def test_timeout_reports_like_the_barrier_engine(self):
        mediator, servers = build_paper_mediator()
        servers[0].network = NetworkProfile(base_latency=2.0)
        servers[0].real_sleep = True
        result = mediator.query_stream("select x.name from x in person", timeout=0.15)
        assert list(result.iter_rows()) == ["Sam"]
        assert result.is_partial
        assert "timed out" in result.errors()["person0"]
        mediator.close()


class TestCooperativeCancellation:
    def test_timed_out_call_releases_its_worker_slot(self):
        """With a single-worker pool, a zombie would serialize the next query."""
        mediator, servers = build_paper_mediator(max_parallel_calls=1)
        servers[0].network = NetworkProfile(base_latency=3.0)
        servers[0].real_sleep = True
        result = mediator.query(
            "select x.name from x in person0 where x.salary > 10", timeout=0.15
        )
        assert result.is_partial
        # The write-off set the call's cancellation event; the worker wakes
        # from the simulated latency sleep immediately instead of holding the
        # pool's only slot for the remaining ~2.85s.
        servers[0].network = NetworkProfile.instant()
        started = time.monotonic()
        second = mediator.query("select x.name from x in person1")
        elapsed = time.monotonic() - started
        assert second.rows() == ["Sam"]
        assert elapsed < 1.0
        mediator.close()

    def test_cancelled_call_is_not_recorded_as_failure(self):
        """A limit-cancelled call must not poison the availability estimate."""
        mediator, servers = build_paper_mediator()
        servers[0].network = NetworkProfile(base_latency=1.0)
        servers[0].real_sleep = True
        failures_before = mediator.history.failures
        result = mediator.query_stream(
            "select x.name from x in person limit 1", timeout=10.0
        )
        assert list(result.iter_rows()) == ["Sam"]
        mediator.close()  # reap the cancelled worker
        assert mediator.history.failures == failures_before
        assert mediator.history.availability("person0") == 1.0


class TestPlanCacheNormalization:
    def test_comment_and_case_variants_hit_the_same_entry(self):
        mediator, _ = build_paper_mediator()
        mediator.query("select x.name from x in person where x.salary > 10")
        stats = mediator.statistics()
        assert stats["plan_cache_hits"] == 0
        mediator.query(
            "SELECT x.name FROM x IN person // cached?\nWHERE x.salary > 10"
        )
        stats = mediator.statistics()
        assert stats["plan_cache_hits"] == 1
        assert stats["plan_cache_entries"] == 1
        mediator.close()

    def test_unparseable_text_has_no_key(self):
        planner = QueryPlanner(Registry())
        with pytest.raises(ParseError):
            planner.key("not   oql \t at all")
        assert len(planner.plan_cache) == 0

    def test_string_literals_stay_significant(self):
        planner = QueryPlanner(Registry())
        cache = planner.plan_cache
        cache.put(planner.key('select x from x in person where x.name = "Mary  S"')[0], 0, "a")
        assert cache.get(planner.key('select x from x in person where x.name = "Mary  S"')[0], 0) == "a"
        assert cache.get(planner.key('select x from x in person where x.name = "Mary S"')[0], 0) is None


class TestAvailabilityEstimate:
    def test_failures_lower_the_estimate_and_successes_restore_it(self):
        history = ExecCallHistory()
        assert history.availability("person0") == 1.0
        expr = Get("person0")
        for _ in range(5):
            history.record_failure("person0", expr, 0.01)
        flaky = history.availability("person0")
        assert flaky < 0.5
        for _ in range(10):
            history.record("person0", expr, 0.01, 10)
        assert history.availability("person0") > flaky

    def test_cost_model_penalizes_flaky_sources(self):
        from repro.optimizer.cost import CostModel
        from repro.optimizer.implementation import implement

        history = ExecCallHistory()
        model = CostModel(history=history)
        plan_flaky = implement(Submit("r0", Get("person0"), extent_name="person0"))
        plan_solid = implement(Submit("r1", Get("person1"), extent_name="person1"))
        # Same latency/row observations for both extents ...
        for extent, expr in (("person0", Get("person0")), ("person1", Get("person1"))):
            history.record(extent, expr, 0.05, 100)
        baseline_flaky = model.estimate(plan_flaky).total()
        assert baseline_flaky == pytest.approx(model.estimate(plan_solid).total())
        # ... but person0 keeps failing: its calls now look more expensive.
        for _ in range(5):
            history.record_failure("person0", Get("person0"), 0.05)
        assert model.estimate(plan_flaky).total() > model.estimate(plan_solid).total()


class TestPartialAnswersWithLimit:
    def test_partial_query_with_limit_reparses(self):
        mediator, servers = build_paper_mediator()
        servers[0].take_down()
        result = mediator.query("select x.name from x in person limit 5")
        assert result.is_partial
        assert "limit" in result.partial_query
        parse_query(result.partial_query)  # must stay a legal OQL query

    def test_partial_query_text_reevaluates_exactly(self):
        """The answer *is* a query: re-running the text equals resubmitting
        the plan, even with the limit pushed inside the submit."""
        mediator, servers = build_paper_mediator()
        servers[0].take_down()
        result = mediator.query("select x.name from x in person0 limit 1")
        assert result.is_partial
        servers[0].bring_up()
        assert mediator.query(result.partial_query).rows() == ["Mary"]
        assert mediator.resubmit(result).rows() == ["Mary"]
        mediator.close()

    def test_partial_query_with_distinct_and_limit_reparses(self):
        """select distinct ... limit n must degrade, not crash the unparser."""
        mediator, servers = build_paper_mediator()
        servers[0].take_down()
        result = mediator.query("select distinct x.name from x in person limit 3")
        assert result.is_partial
        assert "distinct" in result.partial_query and "limit 3" in result.partial_query
        parse_query(result.partial_query)
        servers[0].bring_up()
        resubmitted = mediator.resubmit(result)
        assert sorted(resubmitted.rows()) == ["Mary", "Sam"]
        mediator.close()

    def test_limit_plan_round_trips_physical_to_logical(self):
        from repro.optimizer.implementation import implement
        from repro.runtime.partial_eval import PartialAnswerBuilder

        logical = Limit(
            2,
            Union(
                (
                    Project(("name",), Submit("r0", Get("person0"), extent_name="person0")),
                    Submit("r1", Get("person1"), extent_name="person1"),
                )
            ),
        )
        assert PartialAnswerBuilder().build(implement(logical), {}) == logical


class TestAbortedStreams:
    def test_mediator_side_error_reraises_on_every_consumption(self):
        """An aborted stream must never replay as a complete-looking answer."""
        from repro.errors import QueryExecutionError

        mediator = build_generator_mediator(ScanCounter(10))
        # The apply runs at the mediator and crashes on the first row
        # (division by zero, wrapped by the expression evaluator).
        result = mediator.query_stream(
            "select x.salary / (x.salary - x.salary) from x in person"
        )
        with pytest.raises(QueryExecutionError):
            list(result.iter_rows())
        assert result.stream.finished
        with pytest.raises(QueryExecutionError):
            result.rows()
        with pytest.raises(QueryExecutionError):
            list(result.iter_rows())
        mediator.close()

    def test_sources_contacted_counts_issued_calls_up_front(self):
        mediator, _ = build_paper_mediator()
        result = mediator.query_stream("select x.name from x in person")
        assert result.sources_contacted() == 2  # both execs already dispatched
        result.rows()
        assert result.sources_contacted() == 2
        mediator.close()

    def test_abandoned_iteration_is_resumable_not_cancelled(self):
        """Pausing is not closing: the stream stays consumable."""
        scan = ScanCounter(100)
        mediator = build_generator_mediator(scan)
        result = mediator.query_stream("select x.name from x in person")
        iterator = result.iter_rows()
        next(iterator)
        del iterator  # abandon without close()
        assert not result.stream.finished
        assert len(result.rows()) == 100
        mediator.close()


class TestDeadlineDuringDrain:
    def test_slow_cursor_is_written_off_at_the_deadline(self):
        """The designated time period bounds lazy drains, not just exec opens."""

        def dripping_scan():
            for i in range(100):
                time.sleep(0.05)
                yield {"id": i, "name": f"p{i}", "salary": i}

        mediator = build_generator_mediator(dripping_scan)
        started = time.monotonic()
        result = mediator.query_stream("select x.name from x in person", timeout=0.3)
        rows = list(result.iter_rows())
        elapsed = time.monotonic() - started
        assert 0 < len(rows) < 100  # some rows arrived, the drain was cut off
        assert elapsed < 2.0
        assert result.is_partial
        assert "timed out" in result.errors()["person0"]
        mediator.close()

    def test_one_call_records_exactly_one_history_observation(self):
        """A drained lazy cursor: one success record, availability stays 1.0."""
        mediator = build_generator_mediator(ScanCounter(20))
        before = mediator.history.recorded_calls()
        result = mediator.query_stream("select x.name from x in person")
        assert len(result.rows()) == 20
        assert mediator.history.recorded_calls() == before + 1
        assert mediator.history.failures == 0
        assert mediator.history.availability("person0") == 1.0
        mediator.close()


class TestChunkedDrain:
    """The drain's bookkeeping is per chunk, not per row: counts, never timings."""

    def test_a_drain_reads_the_clock_per_chunk_not_per_row(self, monkeypatch):
        """10 000 rows in chunks of up to 256: some 45 chunks, two clock reads
        each (one per row, three per row before chunking: ~30 000)."""
        reads = []

        def monotonic():
            reads.append(None)
            return time.monotonic()

        monkeypatch.setattr(streaming, "CHUNK_SECONDS", math.inf)  # every chunk doubles
        monkeypatch.setattr(streaming, "time", SimpleNamespace(monotonic=monotonic, sleep=time.sleep))
        mediator = build_generator_mediator(ScanCounter(10_000))
        try:
            result = mediator.query_stream("select x.name from x in person")
            assert len(result.rows()) == 10_000
        finally:
            mediator.close()
        assert len(reads) < 200


class TestLimitSoftKeyword:
    def test_attribute_named_limit_stays_queryable(self):
        def scan():
            yield {"id": 1, "name": "a", "salary": 9, "limit": 5}

        mediator = Mediator(name="soft")
        mediator.define_interface(
            "Quota",
            [("id", "Long"), ("name", "String"), ("salary", "Short"), ("limit", "Long")],
            extent_name="quota",
        )
        mediator.register_wrapper("w0", GeneratorWrapper("w0", {"quota0": scan}))
        mediator.create_repository("r0")
        mediator.add_extent("quota0", "Quota", "w0", "r0")
        result = mediator.query("select x.limit from x in quota where x.limit > 3")
        assert result.rows() == [5]
        both = mediator.query("select x.limit from x in quota limit 1")
        assert both.rows() == [5]
        mediator.close()
