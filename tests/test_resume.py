"""Mid-stream retries via source-side resume tokens (exactly-once delivery).

The streaming engine's last structural failure-matrix gap: a source that dies
*after delivering rows*.  These tests pin the recovery contract:

* ``token`` wrappers resume source-side -- only the remaining rows are
  shipped (``ServerStatistics.rows_skipped`` counts the seek), delivery is
  exactly-once (no duplicates, no gaps), and the reopen consumes one
  ``max_retries`` attempt;
* ``replay`` wrappers reopen from scratch and the mediator skips the
  already-delivered prefix (``ExecReport.replayed_rows`` counts the re-ship);
* wrappers declaring no resume support -- and configurations without retry
  budget -- keep the documented write-off;
* a persistent mid-stream fault exhausts the budget instead of looping;
* fresh-call retries, degrading retries and reopens share that one budget;
* a degraded (compensated) call recovers through the replay path, because
  token positions no longer line up with mediator-compensated rows.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import islice

import pytest

from repro import Mediator, RelationalWrapper
from repro.errors import UnavailableSourceError, WrapperError
from repro.runtime import streaming
from repro.sources import RelationalEngine, SimulatedServer
from repro.wrappers.base import ResumableStream
from repro.wrappers.generator import GeneratorWrapper

ROWS = [{"id": i, "name": f"p{i}", "salary": i} for i in range(30)]
QUERY = "select x.name from x in person0"
EXPECTED = [f"p{i}" for i in range(30)]


def build_relational_mediator(resume="token", capabilities=None, rows=ROWS, **mediator_kwargs):
    engine = RelationalEngine(name="db0")
    engine.create_table("person0", rows=[dict(row) for row in rows])
    server = SimulatedServer(name="h0", store=engine)
    wrapper = RelationalWrapper("w0", server, capabilities=capabilities, resume=resume)
    mediator = Mediator(name="resume", **mediator_kwargs)
    mediator.register_wrapper("w0", wrapper)
    mediator.create_repository("r0")
    mediator.define_interface(
        "Person",
        [("id", "Long"), ("name", "String"), ("salary", "Short")],
        extent_name="person",
    )
    mediator.add_extent("person0", "Person", "w0", "r0")
    return mediator, server


class TestTokenResume:
    def test_killed_call_completes_exactly_once(self):
        mediator, server = build_relational_mediator(max_retries=1)
        server.availability.kill_after(10)
        result = mediator.query_stream(QUERY)
        assert list(result.iter_rows()) == EXPECTED  # no dupes, no gaps
        assert not result.is_partial and result.errors() == {}
        report = result.reports[0]
        assert report.available
        assert report.resumed_calls == 1
        assert report.replayed_rows == 0  # the source skipped, nothing re-shipped
        assert report.attempts == 2  # the reopen consumed one retry
        assert report.rows == 30
        # The server's resume capability seeked past the delivered rows.
        assert server.statistics.rows_skipped == 10
        # Shipped: 10 before the death + the 20 remaining. Never 30 again.
        assert server.statistics.rows_returned == 30
        mediator.close()

    def test_two_consecutive_deaths_need_two_retries(self):
        mediator, server = build_relational_mediator(max_retries=2)
        server.availability.kill_after(5)
        server.availability.kill_after(7)  # dies again 7 rows into the resume
        result = mediator.query_stream(QUERY)
        assert list(result.iter_rows()) == EXPECTED
        report = result.reports[0]
        assert report.resumed_calls == 2
        assert report.attempts == 3
        assert server.statistics.rows_skipped == 5 + 12
        mediator.close()

    def test_death_consumes_budget_with_open_retries(self):
        """Open failure + mid-stream death share one max_retries budget."""
        mediator, server = build_relational_mediator(max_retries=2)
        server.availability.fail_next(1)  # open fails once first
        server.availability.kill_after(4)
        result = mediator.query_stream(QUERY)
        assert list(result.iter_rows()) == EXPECTED
        report = result.reports[0]
        assert report.attempts == 3  # failed open + killed open + resume
        assert report.resumed_calls == 1
        mediator.close()

    def test_persistent_death_exhausts_the_budget(self):
        mediator, server = build_relational_mediator(max_retries=2)
        for _ in range(3):
            server.availability.kill_after(6)
        result = mediator.query_stream(QUERY)
        rows = list(result.iter_rows())
        # Three segments of 6 delivered before the budget ran out.
        assert rows == [f"p{i}" for i in range(18)]
        assert result.is_partial
        assert "person0" in result.errors()
        report = result.reports[0]
        assert not report.available
        assert report.resumed_calls == 2  # two successful recoveries, then out
        assert report.attempts == 3
        mediator.close()

    def test_failure_history_still_learns_from_recovered_deaths(self):
        mediator, server = build_relational_mediator(max_retries=1)
        server.availability.kill_after(10)
        result = mediator.query_stream(QUERY)
        assert len(list(result.iter_rows())) == 30
        # The death was recorded as a failure observation even though the
        # call recovered: availability drops below the optimistic 1.0.
        assert mediator.history.failures == 1
        assert mediator.history.availability("person0") < 1.0
        mediator.close()


class TestReplayResume:
    def test_replay_wrapper_reopens_and_skips(self):
        mediator, server = build_relational_mediator(resume="replay", max_retries=1)
        server.availability.kill_after(10)
        result = mediator.query_stream(QUERY)
        assert list(result.iter_rows()) == EXPECTED
        report = result.reports[0]
        assert report.available
        assert report.resumed_calls == 1
        assert report.replayed_rows == 10  # delivered prefix re-shipped, dropped
        assert server.statistics.rows_skipped == 0
        # Shipped: 10 before the death, then the full 30 again.
        assert server.statistics.rows_returned == 40
        mediator.close()


class TestWriteOffPreserved:
    def test_no_resume_support_keeps_the_write_off(self):
        mediator, server = build_relational_mediator(resume=None, max_retries=3)
        server.availability.kill_after(10)
        result = mediator.query_stream(QUERY)
        assert list(result.iter_rows()) == [f"p{i}" for i in range(10)]
        assert result.is_partial
        assert "person0" in result.errors()
        assert result.reports[0].resumed_calls == 0
        mediator.close()

    def test_no_retry_budget_keeps_the_write_off(self):
        """max_retries=0 (the default): behavior is unchanged from before."""
        mediator, server = build_relational_mediator()
        server.availability.kill_after(10)
        result = mediator.query_stream(QUERY)
        assert list(result.iter_rows()) == [f"p{i}" for i in range(10)]
        assert result.is_partial
        assert result.reports[0].resumed_calls == 0
        assert result.reports[0].attempts == 1
        mediator.close()

    @pytest.mark.parametrize("source", ["killed server", "lazy cursor, no resume support"])
    def test_barrier_engine_retries_whole_calls_and_never_resumes(self, source):
        """``query()`` materializes calls on their workers: a death before
        hand-off is an ordinary failed attempt, so the whole call is retried
        -- also for a wrapper that could never be resumed mid-stream."""
        if source == "killed server":
            mediator, server = build_relational_mediator(max_retries=1)
            server.availability.kill_after(10)
        else:
            scan = FlakyScan(len(EXPECTED), fail_at=10)
            mediator = build_generator_mediator(scan, resume=None, max_retries=1)
        result = mediator.query(QUERY)
        assert not result.is_partial
        assert sorted(result.rows()) == sorted(EXPECTED)
        report = result.reports[0]
        assert report.attempts == 2
        assert report.resumed_calls == 0 and report.replayed_rows == 0
        # Once-only recording: the death and the retry's success, no more.
        observations = [o for queue in mediator.history._exact.values() for o in queue]
        assert mediator.history.failures == 1
        assert [o.rows for o in observations if o.rows] == [len(EXPECTED)]
        mediator.close()


class FlakyScan:
    """A deterministic cursor factory whose first ``failures`` opens die at
    ``fail_at`` rows; later opens stream clean.  Counts rows actually pulled."""

    def __init__(self, total, fail_at, failures=1):
        self.total = total
        self.fail_at = fail_at
        self.failures = failures
        self.opens = 0

    def __call__(self):
        self.opens += 1
        dying = self.opens <= self.failures

        def rows():
            for i in range(self.total):
                if dying and i >= self.fail_at:
                    raise RuntimeError("cursor lost mid-stream")
                yield {"id": i, "name": f"p{i}", "salary": i}

        return rows()


def build_generator_mediator(scan, resume=None, **mediator_kwargs):
    mediator = Mediator(name="genresume", **mediator_kwargs)
    mediator.define_interface(
        "Person",
        [("id", "Long"), ("name", "String"), ("salary", "Short")],
        extent_name="person",
    )
    mediator.register_wrapper(
        "w0",
        GeneratorWrapper(
            "w0",
            {"person0": scan},
            attributes={"person0": ["id", "name", "salary"]},
            resume=resume,
        ),
    )
    mediator.create_repository("r0")
    mediator.add_extent("person0", "Person", "w0", "r0")
    return mediator


class TestGeneratorCursorResume:
    def test_token_resume_on_a_cursor_source(self):
        scan = FlakyScan(50, fail_at=20)
        mediator = build_generator_mediator(scan, resume="token", max_retries=1)
        result = mediator.query_stream(QUERY)
        assert list(result.iter_rows()) == [f"p{i}" for i in range(50)]
        report = result.reports[0]
        assert report.resumed_calls == 1 and report.replayed_rows == 0
        assert scan.opens == 2
        mediator.close()

    def test_deterministically_dying_cursor_gives_up(self):
        """Every reopen dies at the same row: the budget bounds the attempts."""
        scan = FlakyScan(50, fail_at=20, failures=99)
        mediator = build_generator_mediator(scan, resume="token", max_retries=2)
        result = mediator.query_stream(QUERY)
        rows = list(result.iter_rows())
        assert rows == [f"p{i}" for i in range(20)]  # still exactly-once
        assert result.is_partial
        assert scan.opens == 3
        mediator.close()

    def test_undeclared_generator_is_never_replayed(self):
        """No resume declaration on an arbitrary generator: write-off, even
        though retries remain -- replaying an undeclared source is unsound."""
        scan = FlakyScan(50, fail_at=20)
        mediator = build_generator_mediator(scan, resume=None, max_retries=3)
        result = mediator.query_stream(QUERY)
        assert list(result.iter_rows()) == [f"p{i}" for i in range(20)]
        assert result.is_partial
        assert scan.opens == 1
        mediator.close()


class LyingRelationalWrapper(RelationalWrapper):
    """Declares select but its translator rejects it (forces degradation)."""

    def _execute(self, expression):
        from repro.algebra.logical import Select, walk

        if any(isinstance(node, Select) for node in walk(expression)):
            raise WrapperError("translator cannot handle select")
        return super()._execute(expression)


class TestDegradedCallResume:
    def test_degraded_call_recovers_via_replay(self):
        """A compensated call cannot use token positions; replay must kick in
        and re-apply the stripped operators over the reopened stream."""
        engine = RelationalEngine(name="db0")
        engine.create_table("person0", rows=[dict(row) for row in ROWS])
        server = SimulatedServer(name="h0", store=engine)
        wrapper = LyingRelationalWrapper("w0", server)
        mediator = Mediator(name="degres", max_retries=3)
        mediator.register_wrapper("w0", wrapper)
        mediator.create_repository("r0")
        mediator.define_interface(
            "Person",
            [("id", "Long"), ("name", "String"), ("salary", "Short")],
            extent_name="person",
        )
        mediator.add_extent("person0", "Person", "w0", "r0")
        # Attempt 1 submits select(...) -> rejected; attempt 2 submits the
        # degraded bare get, which the kill then murders after 10 rows.
        server.availability.kill_after(10, count=1)
        result = mediator.query_stream(
            "select x.name from x in person0 where x.salary >= 0"
        )
        assert list(result.iter_rows()) == EXPECTED
        report = result.reports[0]
        assert report.available
        assert report.degraded_to is not None
        assert report.resumed_calls == 1
        # The mediator skipped the already-delivered compensated prefix.
        assert report.replayed_rows == 10
        mediator.close()


class DriftingRelationalWrapper(RelationalWrapper):
    """Accepts ``select`` on the first call, rejects it afterwards -- a source
    whose capabilities drift mid-query, forcing a *reopen* to degrade."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = 0

    def _drift(self, expression):
        from repro.algebra.logical import Select, walk

        self.calls += 1
        if self.calls > 1 and any(isinstance(n, Select) for n in walk(expression)):
            raise WrapperError("translator no longer handles select")

    def _execute(self, expression):
        self._drift(expression)
        return super()._execute(expression)

    def _resume_stream(self, expression, token):
        self._drift(expression)
        return super()._resume_stream(expression, token)


class TestReopenEdgeCases:
    QUERY = "select x.name from x in person0 where x.salary >= 0"

    def build_drifting(self, **mediator_kwargs):
        engine = RelationalEngine(name="db0")
        engine.create_table("person0", rows=[dict(row) for row in ROWS])
        server = SimulatedServer(name="h0", store=engine)
        wrapper = DriftingRelationalWrapper("w0", server)
        mediator = Mediator(name="drift", **mediator_kwargs)
        mediator.register_wrapper("w0", wrapper)
        mediator.create_repository("r0")
        mediator.define_interface(
            "Person",
            [("id", "Long"), ("name", "String"), ("salary", "Short")],
            extent_name="person",
        )
        mediator.add_extent("person0", "Person", "w0", "r0")
        return mediator, server

    def test_token_reopen_that_degrades_falls_back_to_replay(self):
        """Capability drift during recovery: the token no longer matches the
        degraded stream, so the reopen replays and skips the delivered rows."""
        mediator, server = self.build_drifting(max_retries=3)
        server.availability.kill_after(10)
        result = mediator.query_stream(self.QUERY)
        assert list(result.iter_rows()) == EXPECTED
        report = result.reports[0]
        assert report.resumed_calls == 1
        assert report.replayed_rows == 10  # re-shipped, deduped at the mediator
        assert report.degraded_to is not None
        mediator.close()

    def test_reopen_backoff_is_bounded_by_the_deadline(self):
        """Reopens run on the consumer thread: a huge retry backoff must not
        block iter_rows() past the query's designated time period."""
        import time

        mediator, server = build_relational_mediator(max_retries=2)
        mediator.executor.config.retry_backoff = 30.0
        server.availability.kill_after(10)
        started = time.monotonic()
        result = mediator.query_stream(QUERY, timeout=0.3)
        rows = list(result.iter_rows())
        elapsed = time.monotonic() - started
        assert elapsed < 5.0  # nowhere near the 30s backoff
        assert rows == [f"p{i}" for i in range(10)]  # still exactly-once
        assert result.is_partial
        mediator.close()


class TestResumableStreamProtocol:
    def test_token_tracks_ordinal_position(self):
        stream = ResumableStream(iter([{"a": 1}, {"a": 2}, {"a": 3}]))
        assert stream.token == 0
        next(stream)
        assert stream.token == 1
        assert [row["a"] for row in stream] == [2, 3]
        assert stream.token == 3

    def test_sized_answers_keep_the_open_time_history_fast_path(self):
        """A ResumableStream over a materialized reply is still a sized
        answer: a streaming call cancelled before full drain must record its
        open-time success observation exactly as it did pre-resume-tokens."""
        from repro.algebra.capabilities import CapabilitySet

        # No limit capability: the mklimit stays at the mediator and cancels
        # the call mid-drain once satisfied -- the open-time record is all
        # the history ever gets for this call.
        mediator, _server = build_relational_mediator(
            capabilities=CapabilitySet.of("get", "project", "select")
        )
        result = mediator.query_stream("select x.name from x in person0 limit 5")
        assert len(list(result.iter_rows())) == 5
        mediator.close()  # reap the cancelled remainder
        assert mediator.history.recorded_calls() == 1
        assert mediator.history.availability("person0") == 1.0

    def test_base_wrapper_rejects_resume_tokens(self):
        from repro.algebra.capabilities import CapabilitySet
        from repro.algebra.logical import Get
        from repro.errors import CapabilityError
        from repro.wrappers.base import Wrapper

        class Plain(Wrapper):
            def _execute(self, expression):
                return []

        wrapper = Plain("plain", CapabilitySet.get_only())
        with pytest.raises(CapabilityError):
            wrapper.submit_stream(Get("c"), resume_from=3)

    def test_kill_after_validates_and_arms(self):
        from repro.sources.network import AvailabilityModel

        model = AvailabilityModel()
        with pytest.raises(ValueError):
            model.kill_after(-1)
        model.kill_after(2, count=2)
        assert model.take_kill() == (2, None)
        assert model.take_kill() == (2, None)
        assert model.take_kill() is None

    def test_kill_after_with_custom_exception_class(self):
        mediator, server = build_relational_mediator(resume=None)
        server.availability.kill_after(3, exception=UnavailableSourceError)
        result = mediator.query_stream(QUERY)
        assert list(result.iter_rows()) == [f"p{i}" for i in range(3)]
        assert "UnavailableSourceError" in result.errors()["person0"]
        mediator.close()


class TestOneRetryBudget:
    """Fresh-call retries, degrading retries and mid-stream reopens draw from
    the one ``max_retries`` budget: whatever one of them spends, the others
    no longer have."""

    def test_a_failed_open_spends_the_retry_a_reopen_would_need(self):
        mediator, server = build_relational_mediator(max_retries=1)
        server.availability.fail_next(1)  # the open fails once first
        server.availability.kill_after(10)  # the retried open dies mid-stream
        result = mediator.query_stream(QUERY)
        assert list(result.iter_rows()) == [f"p{i}" for i in range(10)]
        assert result.is_partial
        report = result.reports[0]
        assert report.resumed_calls == 0
        assert report.attempts == 2
        mediator.close()

    def test_a_second_death_past_a_one_retry_budget_writes_off(self):
        mediator, server = build_relational_mediator(max_retries=1)
        server.availability.kill_after(5)
        server.availability.kill_after(5)  # dies again 5 rows into the resume
        result = mediator.query_stream(QUERY)
        assert list(result.iter_rows()) == [f"p{i}" for i in range(10)]
        assert result.is_partial
        report = result.reports[0]
        assert report.resumed_calls == 1
        assert report.attempts == 2
        mediator.close()

    def test_replay_reopens_draw_from_the_same_budget(self):
        mediator, server = build_relational_mediator(resume="replay", max_retries=2)
        server.availability.kill_after(5)
        server.availability.kill_after(20)  # the replay re-ships 5, delivers 15
        result = mediator.query_stream(QUERY)
        assert list(result.iter_rows()) == EXPECTED
        report = result.reports[0]
        assert report.resumed_calls == 2
        assert report.attempts == 3
        mediator.close()

    def test_a_degraded_call_needs_a_retry_left_to_reopen(self):
        """The two degrading retries (strip ``project``, then ``select``)
        spend the budget: the later death of the degraded stream is written
        off, not replayed."""
        engine = RelationalEngine(name="db0")
        engine.create_table("person0", rows=[dict(row) for row in ROWS])
        server = SimulatedServer(name="h0", store=engine)
        mediator = Mediator(name="degres", max_retries=2)
        mediator.register_wrapper("w0", LyingRelationalWrapper("w0", server))
        mediator.create_repository("r0")
        mediator.define_interface(
            "Person",
            [("id", "Long"), ("name", "String"), ("salary", "Short")],
            extent_name="person",
        )
        mediator.add_extent("person0", "Person", "w0", "r0")
        server.availability.kill_after(10, count=1)
        result = mediator.query_stream("select x.name from x in person0 where x.salary >= 0")
        assert list(result.iter_rows()) == [f"p{i}" for i in range(10)]
        assert result.is_partial
        report = result.reports[0]
        assert report.degraded_to == "get(person0)"
        assert report.resumed_calls == 0
        assert report.attempts == 3
        mediator.close()

    def test_a_reopen_that_must_degrade_needs_two_retries(self):
        """The token reopen is refused (one retry) and its degraded replay is
        a second: with one retry the stream is written off after its prefix."""
        mediator, server = TestReopenEdgeCases().build_drifting(max_retries=1)
        server.availability.kill_after(10)
        result = mediator.query_stream(TestReopenEdgeCases.QUERY)
        assert list(result.iter_rows()) == [f"p{i}" for i in range(10)]
        assert result.is_partial
        assert result.reports[0].resumed_calls == 0
        mediator.close()


class SlowScan:
    """A lazy cursor that takes ``pause`` seconds per row (a slow transfer)."""

    def __init__(self, total, pause):
        self.total = total
        self.pause = pause

    def __call__(self):
        import time

        def rows():
            for i in range(self.total):
                time.sleep(self.pause)
                yield {"id": i, "name": f"p{i}", "salary": i}

        return rows()


def _sized_success():
    mediator, _server = build_relational_mediator()
    return mediator, mediator.query_stream(QUERY)


def _lazy_cursor_success():
    mediator = build_generator_mediator(FlakyScan(30, fail_at=30, failures=0))
    return mediator, mediator.query_stream(QUERY)


def _success_after_retry():
    mediator, server = build_relational_mediator(max_retries=1, retry_backoff=0.001)
    server.availability.fail_next(1)
    return mediator, mediator.query_stream(QUERY)


def _terminal_failure():
    mediator, server = build_relational_mediator()
    server.take_down()
    return mediator, mediator.query_stream(QUERY)


def _deadline_write_off_at_open():
    from repro.sources.network import NetworkProfile

    mediator, server = build_relational_mediator()
    server.network = NetworkProfile(base_latency=0.5)
    server.real_sleep = True
    return mediator, mediator.query_stream(QUERY, timeout=0.05)


def _deadline_hit_mid_drain():
    mediator = build_generator_mediator(SlowScan(30, pause=0.01))
    return mediator, mediator.query_stream(QUERY, timeout=0.1)


def _death_recovered_by_token():
    mediator, server = build_relational_mediator(max_retries=1, retry_backoff=0.001)
    server.availability.kill_after(10)
    return mediator, mediator.query_stream(QUERY)


def _death_recovered_by_replay():
    mediator, server = build_relational_mediator(
        resume="replay", max_retries=1, retry_backoff=0.001
    )
    server.availability.kill_after(10)
    return mediator, mediator.query_stream(QUERY)


def _death_without_resume_support():
    mediator, server = build_relational_mediator(resume=None, max_retries=1)
    server.availability.kill_after(10)
    return mediator, mediator.query_stream(QUERY)


def _close_before_the_drain():
    mediator = build_generator_mediator(FlakyScan(30, fail_at=30, failures=0))
    result = mediator.query_stream(QUERY)
    result.close()
    return mediator, result


#: outcome -> (failure observations, all observations, attempts, resumed_calls,
#: replayed_rows, available, cancelled)
OUTCOMES = {
    "sized success": (_sized_success, (0, 1, 1, 0, 0, True, False)),
    "lazy-cursor success": (_lazy_cursor_success, (0, 1, 1, 0, 0, True, False)),
    "success after retry": (_success_after_retry, (1, 2, 2, 0, 0, True, False)),
    "terminal failure": (_terminal_failure, (1, 1, 1, 0, 0, False, False)),
    "deadline write-off at open": (_deadline_write_off_at_open, (1, 1, 1, 0, 0, False, False)),
    "deadline hit mid-drain": (_deadline_hit_mid_drain, (1, 1, 1, 0, 0, False, False)),
    "death recovered by token": (_death_recovered_by_token, (1, 2, 2, 1, 0, True, False)),
    "death recovered by replay": (_death_recovered_by_replay, (1, 2, 2, 1, 10, True, False)),
    "death with no resume support": (_death_without_resume_support, (1, 1, 1, 0, 0, False, False)),
    "close() before the drain": (_close_before_the_drain, (0, 0, 1, 0, 0, True, True)),
}


@pytest.mark.parametrize("outcome", list(OUTCOMES))
def test_one_terminal_history_observation_per_call(outcome):
    """Every way an exec call can end leaves the history exactly one terminal
    observation (a failure or a success), plus one failure per earlier
    failed attempt or mid-stream death, and a report that counts them."""
    run, expected = OUTCOMES[outcome]
    mediator, result = run()
    try:
        list(result.iter_rows())
    finally:
        mediator.close()  # reap whatever a write-off left running
    history = mediator.history
    observations = sum(len(queue) for queue in history._exact.values())
    [report] = result.reports
    assert (
        history.failures,
        observations,
        report.attempts,
        report.resumed_calls,
        report.replayed_rows,
        report.available,
        report.cancelled,
    ) == expected


#: a 2 000-row extent: the drain's chunks reach their largest size inside it
LONG_ROWS = [{"id": i, "name": f"p{i}", "salary": i % 100} for i in range(2000)]


@pytest.fixture
def growing_chunks(monkeypatch):
    """Every chunk pulls fast enough to double: 1, 2, 4, ... 256 rows, so the
    drain's chunk boundaries fall after rows 1, 3, 7, ... 63, 127, 255, 511, 767."""
    monkeypatch.setattr(streaming, "CHUNK_SECONDS", math.inf)


@pytest.mark.parametrize("resume", ["token", "replay"])
@pytest.mark.parametrize("kill", [1, 63, 64, 255, 256, 257, 1500])
def test_a_death_anywhere_in_a_chunk_delivers_exactly_once(growing_chunks, resume, kill):
    """A source dying before, on or after a chunk boundary: the rows already
    pulled in the dying chunk are delivered, the reopen resumes right after
    them, and the call leaves one failure and one success in the history."""
    mediator, server = build_relational_mediator(
        resume=resume, rows=LONG_ROWS, max_retries=1, retry_backoff=0.001
    )
    server.availability.kill_after(kill)
    result = mediator.query_stream(QUERY)
    try:
        rows = list(result.iter_rows())
    finally:
        mediator.close()
    assert Counter(rows) == Counter(row["name"] for row in LONG_ROWS)
    [report] = result.reports
    assert (report.available, report.rows, report.attempts, report.resumed_calls) == (True, 2000, 2, 1)
    assert report.replayed_rows == (kill if resume == "replay" else 0)
    assert server.statistics.rows_skipped == (kill if resume == "token" else 0)
    history = mediator.history
    assert (history.failures, sum(len(queue) for queue in history._exact.values())) == (1, 2)


def test_a_close_inside_a_chunk_reports_the_rows_delivered(growing_chunks):
    """Rows 64-127 are one chunk: closing after row 100 leaves 27 of its rows
    pulled but never delivered, and the report counts only the delivered."""
    mediator, _server = build_relational_mediator(rows=LONG_ROWS)
    result = mediator.query_stream(QUERY)
    try:
        assert len(list(islice(result.iter_rows(), 100))) == 100
        result.close()
    finally:
        mediator.close()
    [report] = result.reports
    assert (report.rows, report.cancelled, report.available) == (100, True, True)
