"""Tests for the fault-isolating exec engine.

Any exception escaping a wrapper -- not just a clean
``UnavailableSourceError`` -- must degrade the query into a partial answer
(paper Section 4's availability claim), the failure must be visible on the
reports, retried when configured, recorded in the cost-model history with its
true elapsed time, and recoverable through ``resubmit()``.
"""

import time

import pytest

from repro import Bag
from repro.errors import TypeConflictError
from repro.sources.network import NetworkProfile
from tests.conftest import build_paper_mediator

QUERY = "select x.name from x in person"


class TestGenericCrashIsolation:
    def test_wrapper_crash_yields_partial_answer(self):
        """A generic exception mid-flight is unavailability, not a query failure."""
        mediator, servers = build_paper_mediator()
        servers[0].availability.crash_next(RuntimeError("connection reset by peer"))
        result = mediator.query(QUERY)
        assert result.is_partial
        assert result.unavailable_sources == ("person0",)
        # the healthy source's data is folded into the partial answer
        assert "Sam" in result.partial_query

    def test_error_is_surfaced_on_result_and_reports(self):
        mediator, servers = build_paper_mediator()
        servers[0].availability.crash_next(RuntimeError("connection reset by peer"))
        result = mediator.query(QUERY)
        assert result.errors() == {"person0": "RuntimeError: connection reset by peer"}
        failed = next(r for r in result.reports if not r.available)
        assert failed.extent_name == "person0"
        assert "connection reset" in failed.error
        healthy = next(r for r in result.reports if r.available)
        assert healthy.error is None

    def test_crash_next_accepts_exception_classes(self):
        mediator, servers = build_paper_mediator()
        servers[1].availability.crash_next(ValueError, count=1)
        result = mediator.query(QUERY)
        assert result.is_partial
        assert result.unavailable_sources == ("person1",)
        assert result.errors()["person1"].startswith("ValueError")

    def test_failed_calls_enter_history_with_true_elapsed(self):
        mediator, servers = build_paper_mediator()
        assert mediator.history.failures == 0
        servers[0].availability.crash_next(RuntimeError("boom"))
        mediator.query(QUERY)
        assert mediator.history.failures == 1

    def test_resubmit_after_source_recovers(self):
        """The partial answer is a query; re-running it after recovery completes it."""
        mediator, servers = build_paper_mediator()
        servers[0].availability.crash_next(RuntimeError("boom"))
        partial = mediator.query(QUERY)
        assert partial.is_partial
        recovered = mediator.resubmit(partial)
        assert not recovered.is_partial
        assert recovered.data == Bag(["Mary", "Sam"])

    def test_result_stream_crashing_mid_iteration_is_isolated_too(self):
        """A lazy wrapper result that dies halfway through is a source failure."""
        mediator, _ = build_paper_mediator()
        wrapper = mediator.registry.wrapper_object("w0")

        def broken_stream(expression):
            yield {"id": 1, "name": "Mary", "salary": 200}
            raise RuntimeError("stream broke mid-flight")

        wrapper.submit = broken_stream
        result = mediator.query(QUERY)
        assert result.is_partial
        assert result.unavailable_sources == ("person0",)
        assert "stream broke mid-flight" in result.errors()["person0"]

    def test_errors_aggregates_multiple_failures_per_extent(self):
        from repro.core.result import QueryResult
        from repro.runtime.executor import ExecReport

        def report(error):
            return ExecReport(
                extent_name="person0", source="r0", expression="get(person0)",
                elapsed=0.0, rows=0, available=False, error=error,
            )

        result = QueryResult(
            query_text="q", reports=(report("timed out after 0.1s"), report("RuntimeError: x"))
        )
        assert result.errors() == {"person0": "timed out after 0.1s; RuntimeError: x"}

    def test_mediator_side_type_conflict_still_raises(self):
        """Planning errors are DBA bugs, not source failures: they must not be masked."""
        mediator, _ = build_paper_mediator()
        mediator.define_interface(
            "PersonPrime", [("n", "String"), ("s", "Short")], extent_name="personprime"
        )
        mediator.add_extent(
            "personprime0", "PersonPrime", "w0", "r0", source_collection="person0"
        )
        with pytest.raises(TypeConflictError):
            mediator.query("select x.n from x in personprime0")


class TestQueryAbort:
    def test_abort_writes_off_inflight_retries(self):
        """A mediator-side error aborts the query AND stops sibling retry loops."""
        mediator, servers = build_paper_mediator(max_retries=5)
        mediator.executor.config.retry_backoff = 0.05
        wrapper0 = mediator.registry.wrapper_object("w0")
        wrapper0.source_attributes = lambda collection: ["id"]  # person0 type-conflicts
        servers[1].availability.crash_next(RuntimeError("flaky"), count=10)
        with pytest.raises(TypeConflictError):
            mediator.query(QUERY)
        # person1's worker was written off: at most its first attempt or two
        # landed in history; without the write-off it would retry 6 times
        # (~1.5s of backoff) and record 6 failures after the query returned.
        time.sleep(0.3)
        failures = mediator.history.failures
        assert failures <= 2
        time.sleep(0.2)
        assert mediator.history.failures == failures


class TestRetries:
    def test_retry_recovers_from_a_transient_crash(self):
        mediator, servers = build_paper_mediator(max_retries=2)
        mediator.executor.config.retry_backoff = 0.001
        servers[0].availability.crash_next(RuntimeError("transient"))
        result = mediator.query(QUERY)
        assert not result.is_partial
        report = next(r for r in result.reports if r.extent_name == "person0")
        assert report.attempts == 2
        assert mediator.history.failures == 1

    def test_exhausted_retries_degrade_to_partial(self):
        mediator, servers = build_paper_mediator(max_retries=1)
        mediator.executor.config.retry_backoff = 0.001
        servers[0].availability.crash_next(RuntimeError("persistent"), count=5)
        result = mediator.query(QUERY)
        assert result.is_partial
        report = next(r for r in result.reports if r.extent_name == "person0")
        assert report.attempts == 2
        assert mediator.history.failures == 2

    def test_retries_are_off_by_default(self):
        mediator, servers = build_paper_mediator()
        servers[0].availability.crash_next(RuntimeError("boom"), count=5)
        result = mediator.query(QUERY)
        assert result.is_partial
        report = next(r for r in result.reports if r.extent_name == "person0")
        assert report.attempts == 1


class TestGlobalDeadline:
    def test_deadline_bounds_wall_clock_not_sum_of_latencies(self):
        """Two sources slower than the deadline cost one deadline, not two."""
        mediator, servers = build_paper_mediator()
        for server in servers:
            server.network = NetworkProfile(base_latency=0.4)
            server.real_sleep = True
        started = time.monotonic()
        result = mediator.query(QUERY, timeout=0.15)
        elapsed = time.monotonic() - started
        assert result.is_partial
        assert set(result.unavailable_sources) == {"person0", "person1"}
        assert elapsed < 0.4  # well under the 0.8s the two sleeps sum to

    def test_timed_out_report_carries_true_elapsed_and_reason(self):
        mediator, servers = build_paper_mediator()
        servers[0].network = NetworkProfile(base_latency=0.5)
        servers[0].real_sleep = True
        result = mediator.query(QUERY, timeout=0.1)
        report = next(r for r in result.reports if r.extent_name == "person0")
        assert not report.available
        assert "timed out" in report.error
        assert report.elapsed >= 0.08  # the true time spent, not 0.0
        assert mediator.history.failures == 1

    def test_zombie_worker_does_not_record_a_second_observation(self):
        """A call that outlives the deadline is recorded once, at the deadline."""
        mediator, servers = build_paper_mediator()
        servers[0].network = NetworkProfile(base_latency=0.2)
        servers[0].real_sleep = True
        result = mediator.query(QUERY, timeout=0.05)
        assert result.unavailable_sources == ("person0",)
        assert mediator.history.failures == 1
        time.sleep(0.3)  # let the zombie worker finish its 0.2s sleep
        assert mediator.history.failures == 1
        person0_queues = [
            queue
            for key, queue in mediator.history._exact.items()
            if key.startswith("person0|")
        ]
        assert person0_queues and all(len(queue) == 1 for queue in person0_queues)

    def test_reports_stay_in_submission_order(self):
        """Collection is completion-order but reports stay deterministic."""
        mediator, servers = build_paper_mediator()
        # person0 answers *after* person1 despite being submitted first
        servers[0].network = NetworkProfile(base_latency=0.05)
        servers[0].real_sleep = True
        result = mediator.query(QUERY)
        assert [r.extent_name for r in result.reports] == ["person0", "person1"]


class TestSharedPool:
    def test_pool_is_shared_across_queries(self):
        mediator, _ = build_paper_mediator()
        mediator.query(QUERY)
        pool = mediator.executor._pool
        assert pool is not None
        mediator.query(QUERY)
        assert mediator.executor._pool is pool

    def test_close_releases_the_pool_and_queries_recreate_it(self):
        mediator, _ = build_paper_mediator()
        mediator.query(QUERY)
        mediator.close()
        assert mediator.executor._pool is None
        result = mediator.query(QUERY)  # transparently recreates the pool
        assert result.data == Bag(["Mary", "Sam"])
        mediator.close()

    def test_mediator_is_a_context_manager(self):
        mediator, _ = build_paper_mediator()
        with mediator:
            assert mediator.query(QUERY).data == Bag(["Mary", "Sam"])
        assert mediator.executor._pool is None


class TestPublicSubqueryApi:
    def test_scalar_queries_use_the_public_entry_point(self):
        mediator, _ = build_paper_mediator()
        result = mediator.query("count(select x.name from x in person)")
        assert result.data == 2
