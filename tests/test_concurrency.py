"""Concurrency safety of the mediator core, plus the fair queue and backpressure.

The serving-layer contract (ISSUE 6): one mediator shared by many threads
must produce, per query, exactly the answer a single-threaded run produces --
no cross-query row leakage, no corrupted plan cache, no history races -- and
close() must never leak pool threads or raise into an unrelated query.

The stress tests run real thread fleets; the unit tests pin the fairness
(stride scheduling) and bounded-queue semantics directly; the admission
verdicts are the serving layer's (``tests/test_serving.py``).
"""

from __future__ import annotations

import threading
import time
from collections import Counter

import pytest

from repro import Mediator, RelationalWrapper
from repro.errors import AdmissionError
from repro.runtime.admission import REJECTED, FairQueue, QueueClosed
from repro.runtime.backpressure import BoundedRowQueue, StreamClosed
from repro.sources import RelationalEngine, SimulatedServer

ROWS = [{"id": i, "name": f"p{i}", "salary": i * 10} for i in range(40)]

QUERIES = [
    "select x.name from x in person0",
    "select x.name from x in person0 where x.salary > 100",
    "select x from x in person0 where x.salary < 50",
    "select x.salary from x in person0 where x.name = \"p7\"",
]


def build_mediator(**mediator_kwargs):
    engine = RelationalEngine(name="db0")
    engine.create_table("person0", rows=[dict(row) for row in ROWS])
    server = SimulatedServer(name="h0", store=engine)
    mediator = Mediator(name="stress", **mediator_kwargs)
    mediator.register_wrapper("w0", RelationalWrapper("w0", server))
    mediator.create_repository("r0")
    mediator.define_interface(
        "Person",
        [("id", "Long"), ("name", "String"), ("salary", "Short")],
        extent_name="person",
    )
    mediator.add_extent("person0", "Person", "w0", "r0")
    return mediator, server


def run_fleet(worker, n_threads):
    """Run ``worker(index)`` on N threads; re-raise the first failure."""
    errors: list[BaseException] = []

    def wrapped(index: int) -> None:
        try:
            worker(index)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=wrapped, args=(i,)) for i in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(30)
    assert not any(thread.is_alive() for thread in threads), "worker thread hung"
    if errors:
        raise errors[0]


class TestConcurrentQueries:
    def test_results_match_single_threaded_runs(self):
        mediator, _ = build_mediator()
        expected = {text: sorted(map(repr, mediator.query(text).rows())) for text in QUERIES}
        mismatches: list[str] = []
        lock = threading.Lock()

        def worker(index: int) -> None:
            for round_number in range(6):
                text = QUERIES[(index + round_number) % len(QUERIES)]
                result = mediator.query(text)
                assert not result.is_partial
                got = sorted(map(repr, result.rows()))
                if got != expected[text]:
                    with lock:
                        mismatches.append(text)

        run_fleet(worker, 8)
        assert mismatches == []
        # Shared state stayed consistent: one cache entry per distinct query,
        # every signature intact.
        stats = mediator.statistics()
        assert stats["plan_cache_entries"] == len(QUERIES)
        assert stats["plan_cache_hits"] + stats["plan_cache_misses"] == 8 * 6 + len(QUERIES)
        mediator.close()

    def test_streaming_queries_interleave_without_corruption(self):
        mediator, _ = build_mediator()
        expected = sorted(f"p{i}" for i in range(40))

        def worker(index: int) -> None:
            for _ in range(4):
                result = mediator.query_stream("select x.name from x in person0")
                assert sorted(result.iter_rows()) == expected

        run_fleet(worker, 6)
        mediator.close()

    @pytest.mark.parametrize("answer_cache", [False, True], ids=["plan_cache", "answer_cache"])
    def test_queries_race_schema_mutations_safely(self, answer_cache):
        # A DBA thread adds/drops an extent while query threads run: queries
        # either see the old or the new schema, never a torn one, and neither
        # cache serves a plan or an answer across the version bump.
        mediator, _ = build_mediator(answer_cache=answer_cache)
        stop = threading.Event()

        def dba() -> None:
            flip = 0
            while not stop.is_set():
                name = f"extra{flip % 2}"
                try:
                    mediator.add_extent(name, "Person", "w0", "r0", source_collection="person0")
                    mediator.drop_extent(name)
                except Exception:  # noqa: BLE001 - schema races surface in queries
                    raise
                flip += 1

        dba_thread = threading.Thread(target=dba)
        dba_thread.start()
        try:
            def worker(index: int) -> None:
                for _ in range(10):
                    result = mediator.query("select x.name from x in person0")
                    assert sorted(result.rows()) == sorted(f"p{i}" for i in range(40))

            run_fleet(worker, 4)
        finally:
            stop.set()
            dba_thread.join(10)
        assert not dba_thread.is_alive()
        if answer_cache:
            # Every entry is the one text's 40-row answer: a lost update to
            # the row budget shows here.
            stats = mediator.statistics()
            assert stats["answer_cache_rows"] == 40 * stats["answer_cache_entries"]
        mediator.close()

    def test_history_estimates_race_recording(self):
        # estimate() iterates deques that workers append to; under the lock
        # this must never raise "deque mutated during iteration".
        mediator, _ = build_mediator()
        mediator.query(QUERIES[0])  # seed the history
        stop = threading.Event()
        failures: list[BaseException] = []

        def estimator() -> None:
            from repro.oql.parser import parse_query

            while not stop.is_set():
                try:
                    mediator.planner.plan(QUERIES[0], use_cache=False)
                except BaseException as exc:  # noqa: BLE001
                    failures.append(exc)
                    return

        estimator_thread = threading.Thread(target=estimator)
        estimator_thread.start()
        try:
            def worker(index: int) -> None:
                for _ in range(8):
                    mediator.query(QUERIES[index % len(QUERIES)])

            run_fleet(worker, 4)
        finally:
            stop.set()
            estimator_thread.join(10)
        assert failures == []
        mediator.close()


class TestCloseRaces:
    def test_cancel_close_degrades_inflight_queries_without_raising(self):
        from repro.sources import NetworkProfile

        engine = RelationalEngine(name="db0")
        engine.create_table("person0", rows=[dict(row) for row in ROWS])
        server = SimulatedServer(
            name="h0", store=engine, network=NetworkProfile(base_latency=0.5), real_sleep=True
        )
        mediator = Mediator(name="closing")
        mediator.register_wrapper("w0", RelationalWrapper("w0", server))
        mediator.create_repository("r0")
        mediator.define_interface(
            "Person",
            [("id", "Long"), ("name", "String"), ("salary", "Short")],
            extent_name="person",
        )
        mediator.add_extent("person0", "Person", "w0", "r0")
        results: list = []
        errors: list[BaseException] = []

        def worker() -> None:
            try:
                results.append(mediator.query("select x.name from x in person0", timeout=30))
            except BaseException as exc:  # noqa: BLE001 - the contract: never raises
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(3)]
        for thread in threads:
            thread.start()
        time.sleep(0.05)  # let the calls reach the simulated latency sleep
        started = time.monotonic()
        mediator.close()
        close_took = time.monotonic() - started
        for thread in threads:
            thread.join(10)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []  # cancelled queries degrade, they never raise
        assert len(results) == 3 and all(result.is_partial for result in results)
        assert close_took < 5.0  # cancellation, not a drain of the 0.5s latency
        # wait=True in the shutdown: the pool threads are gone, not leaked.
        time.sleep(0.05)
        assert not [
            thread for thread in threading.enumerate() if thread.name.startswith("disco-exec")
        ]

    def test_close_under_a_query_reports_mediator_closed_with_true_attempts(self):
        """The write-off text and the attempt count come from the one engine:
        the first attempt fails fast, the retry is asleep in the source's
        latency when the mediator closes."""
        from repro.sources import NetworkProfile

        mediator, server = build_mediator(max_retries=2)
        server.network = NetworkProfile(base_latency=5.0)
        server.real_sleep = True
        server.availability.fail_next(1)
        results: list = []
        thread = threading.Thread(
            target=lambda: results.append(
                mediator.query("select x.name from x in person0", timeout=30)
            )
        )
        thread.start()
        deadline = time.monotonic() + 5
        while server.statistics.requests < 2 and time.monotonic() < deadline:
            time.sleep(0.01)  # until the retry has reached the source
        started = time.monotonic()
        mediator.close()
        thread.join(10)
        assert not thread.is_alive() and time.monotonic() - started < 4.0
        (result,) = results
        assert result.is_partial and result.unavailable_sources == ("person0",)
        (report,) = result.reports
        assert report.error == "mediator closed" and not report.available
        assert report.attempts == 2 and not report.cancelled
        assert result.errors() == {"person0": "mediator closed"}

    def test_drain_close_waits_for_completion(self):
        mediator, _ = build_mediator()
        results: list = []
        thread = threading.Thread(
            target=lambda: results.append(mediator.query("select x.name from x in person0"))
        )
        thread.start()
        mediator.close(drain=True, timeout=10)
        thread.join(10)
        assert len(results) == 1 and not results[0].is_partial

    def test_mediator_usable_again_after_close(self):
        mediator, _ = build_mediator()
        mediator.close()
        assert len(mediator.query("select x.name from x in person0").rows()) == 40
        mediator.close()


NESTED = (
    "select struct(name: x.name, total: sum(select z.salary from z in person1 "
    "where z.name = x.name)) from x in person0 where x.salary > 250"
)


def build_nested_mediator(**mediator_kwargs):
    """person0 for the outer query, person1 (own server) for the subquery."""
    mediator, _ = build_mediator(**mediator_kwargs)
    engine = RelationalEngine(name="db1")
    engine.create_table("person1", rows=[dict(row) for row in ROWS])
    inner = SimulatedServer(name="h1", store=engine)
    mediator.register_wrapper("w1", RelationalWrapper("w1", inner))
    mediator.create_repository("r1")
    mediator.add_extent("person1", "Person", "w1", "r1")
    return mediator, inner


class TestNestedSubqueries:
    """A correlated subquery is part of the enclosing query: it runs on its clock."""

    def test_subquery_runs_on_the_enclosing_remaining_deadline(self):
        from repro.errors import UnavailableSourceError
        from repro.sources import NetworkProfile

        # config.timeout is 60 s: before the fix every subquery got a fresh
        # one, whatever the caller's per-query timeout said.
        mediator, inner = build_nested_mediator(timeout=60.0)
        inner.network = NetworkProfile(base_latency=5.0)
        inner.real_sleep = True
        started = time.monotonic()
        with pytest.raises(UnavailableSourceError):
            mediator.query(NESTED, timeout=0.3)
        assert time.monotonic() - started < 1.5
        mediator.close()


class TestFairQueue:
    def test_weighted_interleaving_is_proportional(self):
        queue = FairQueue()
        for i in range(30):
            queue.push(("lo", i), priority=1.0)
            queue.push(("hi", i), priority=3.0)
        first_twenty = [queue.pop(timeout=0)[0] for _ in range(20)]
        counts = Counter(first_twenty)
        # Stride scheduling: the weight-3 class is served ~3x as often.
        assert counts["hi"] == 15 and counts["lo"] == 5

    def test_within_class_order_is_fifo(self):
        queue = FairQueue()
        for i in range(5):
            queue.push(i, priority=2.0)
        assert [queue.pop(timeout=0) for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_idle_class_does_not_bank_credit(self):
        queue = FairQueue()
        # The high class drains 9 items, advancing its pass value.
        for i in range(9):
            queue.push(("hi", i), priority=3.0)
        for _ in range(9):
            queue.pop(timeout=0)
        # A newcomer class enters at the current virtual time, not at 0:
        # it must not monopolize the queue to "catch up" on credit it never
        # earned while idle.
        for i in range(6):
            queue.push(("hi", i), priority=3.0)
            queue.push(("lo", i), priority=1.0)
        first_four = [queue.pop(timeout=0)[0] for _ in range(4)]
        assert first_four.count("lo") <= 2

    def test_capacity_bound_rejects(self):
        queue = FairQueue(capacity=2)
        queue.push(1)
        queue.push(2)
        with pytest.raises(AdmissionError) as excinfo:
            queue.push(3)
        assert excinfo.value.verdict == REJECTED

    def test_close_drains_and_raises(self):
        queue = FairQueue()
        queue.push("a")
        queue.push("b", priority=2.0)
        assert sorted(queue.close()) == ["a", "b"]
        with pytest.raises(QueueClosed):
            queue.pop(timeout=0)
        with pytest.raises(QueueClosed):
            queue.push("c")


class TestBoundedRowQueue:
    def test_producer_stalls_at_capacity(self):
        queue = BoundedRowQueue(capacity=2)
        produced: list[int] = []

        def producer() -> None:
            for i in range(6):
                queue.put(i)
                produced.append(i)
            queue.finish()

        thread = threading.Thread(target=producer)
        thread.start()
        time.sleep(0.1)
        # Backpressure: the producer is stalled at the bound, not 6 ahead.
        assert len(produced) <= 3 and queue.stalls >= 1
        assert list(queue) == [0, 1, 2, 3, 4, 5]
        thread.join(5)
        assert queue.delivered == 6

    def test_consumer_close_wakes_and_cancels_the_producer(self):
        queue = BoundedRowQueue(capacity=1)
        outcome: list[str] = []

        def producer() -> None:
            try:
                for i in range(100):
                    queue.put(i)
            except StreamClosed:
                outcome.append("cancelled")

        thread = threading.Thread(target=producer)
        thread.start()
        time.sleep(0.05)
        queue.close()
        thread.join(5)
        assert not thread.is_alive()
        assert outcome == ["cancelled"]

    def test_producer_error_reraises_at_the_consumer(self):
        queue = BoundedRowQueue(capacity=4)
        queue.put(1)
        queue.finish(error=RuntimeError("source died"))
        iterator = iter(queue)
        assert next(iterator) == 1
        with pytest.raises(RuntimeError, match="source died"):
            next(iterator)
