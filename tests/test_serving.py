"""The MediatorServer serving layer: admission verdicts, fairness, deadlines,
backpressure, and clean shutdown.

Most tests drive a single-worker server and park that worker deterministically
by submitting a *streamed* query whose client does not read: the worker fills
the bounded row queue and stalls (backpressure), with no sleeps or simulated
latency involved.  Reading the blocker's rows releases the worker.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from collections import Counter

import pytest

from repro import Mediator, MediatorServer, RelationalWrapper, ServerConfig
from repro.errors import AdmissionError, ParseError
from repro.runtime.admission import ADMITTED, CLOSED, QUEUE_TIMEOUT, REJECTED, QueueClosed
from repro.serving import server as server_module
from repro.sources import NetworkProfile, RelationalEngine, SimulatedServer
from tests.conftest import build_person_federation

#: client counts per wave; the nightly CI job raises this to 64,1024.
WAVE_CLIENTS = [int(c) for c in os.environ.get("DISCO_E13_CLIENTS", "64,256").split(",")]

ROWS = [{"id": i, "name": f"p{i}", "salary": i * 10} for i in range(40)]
QUERY = "select x.name from x in person0"

#: the streamed submissions' row-queue capacity under test: small, so one
#: unread stream parks its worker after a few rows.
PARKED_ROWS = 4


@pytest.fixture(autouse=True)
def small_stream_buffer(monkeypatch):
    monkeypatch.setattr(server_module, "STREAM_BUFFER_ROWS", PARKED_ROWS)


def build_mediator(**mediator_kwargs):
    engine = RelationalEngine(name="db0")
    engine.create_table("person0", rows=[dict(row) for row in ROWS])
    server = SimulatedServer(name="h0", store=engine)
    mediator = Mediator(name="serving", **mediator_kwargs)
    mediator.register_wrapper("w0", RelationalWrapper("w0", server))
    mediator.create_repository("r0")
    mediator.define_interface(
        "Person",
        [("id", "Long"), ("name", "String"), ("salary", "Short")],
        extent_name="person",
    )
    mediator.add_extent("person0", "Person", "w0", "r0")
    return mediator, server


def park_worker(server):
    """Occupy one worker with a stream nobody reads; returns the blocker future.

    The worker stalls once the client-side row queue holds ``PARKED_ROWS``
    rows.  Release it with ``list(blocker.rows())`` or ``blocker.close()``.
    """
    blocker = server.submit(QUERY, stream=True)
    deadline = time.monotonic() + 5
    while blocker.stream_depth < PARKED_ROWS:
        assert time.monotonic() < deadline, "worker never stalled on the stream"
        time.sleep(0.002)
    return blocker


class TestSubmitAndResult:
    def test_barrier_submission_round_trip(self):
        mediator, _ = build_mediator()
        with MediatorServer(mediator) as server:
            future = server.submit(QUERY)
            result = future.result(timeout=10)
            assert sorted(result.rows()) == sorted(f"p{i}" for i in range(40))
            assert future.done()
            report = future.report
            assert report.verdict == ADMITTED
            assert report.query == QUERY
            assert report.rows == 40
            assert not report.streamed and not report.is_partial
            assert report.queue_wait >= 0.0 and report.execution_time > 0.0
            assert report.error is None
        mediator.close()

    def test_results_match_direct_queries(self):
        mediator, _ = build_mediator()
        expected = sorted(map(repr, mediator.query(QUERY).rows()))
        with MediatorServer(mediator, ServerConfig(workers=3)) as server:
            futures = [server.submit(QUERY) for _ in range(12)]
            for future in futures:
                assert sorted(map(repr, future.result(timeout=10).rows())) == expected
        mediator.close()

    def test_mediator_error_settles_only_its_own_future(self):
        mediator, _ = build_mediator()
        with MediatorServer(mediator, ServerConfig(workers=1)) as server:
            bad = server.submit("select x.name from x in no_such_extent")
            good = server.submit(QUERY)
            with pytest.raises(Exception):
                bad.result(timeout=10)
            assert bad.report.error is not None
            # The worker survived the failure and served the next submission.
            assert len(good.result(timeout=10).rows()) == 40
        mediator.close()

    def test_malformed_number_reaches_the_client_as_a_parse_error(self):
        """``1.2.3`` is a positioned ParseError (a DiscoError), not a bare
        ValueError from ``float()`` escaping the front end."""
        mediator, _ = build_mediator()
        with MediatorServer(mediator, ServerConfig(workers=1)) as server:
            bad = server.submit("select x.name from x in person0 where x.salary > 1.2.3")
            with pytest.raises(ParseError, match="line 1, column 53"):
                bad.result(timeout=10)
            assert "ParseError" in bad.report.error
            assert len(server.submit(QUERY).result(timeout=10).rows()) == 40
        mediator.close()

    def test_result_times_out_while_pending(self):
        mediator, _ = build_mediator()
        server = MediatorServer(mediator, ServerConfig(workers=1))
        blocker = park_worker(server)
        queued = server.submit(QUERY)
        with pytest.raises(TimeoutError):
            queued.result(timeout=0.05)
        assert list(blocker.rows()) and len(queued.result(timeout=10).rows()) == 40
        server.close()
        mediator.close()

    def test_mediator_serve_entry_point(self):
        mediator, _ = build_mediator()
        with mediator.serve(workers=2) as server:
            assert isinstance(server, MediatorServer)
            assert len(server.submit(QUERY).result(timeout=10).rows()) == 40
        mediator.close()


class TestStreaming:
    def test_streamed_rows_with_backpressure(self):
        mediator, _ = build_mediator()
        with MediatorServer(
            mediator, ServerConfig(workers=1)
        ) as server:
            future = server.submit(QUERY, stream=True)
            rows = []
            for row in future.rows():
                rows.append(row)
                time.sleep(0.001)  # a slow client: the worker must stall
            assert sorted(rows) == sorted(f"p{i}" for i in range(40))
            report = future.report
            assert report.streamed and report.rows == 40
            assert report.stalls >= 1  # backpressure engaged
            assert report.verdict == ADMITTED
        mediator.close()

    def test_client_close_cancels_a_stalled_worker(self):
        mediator, _ = build_mediator()
        server = MediatorServer(mediator, ServerConfig(workers=1))
        blocker = park_worker(server)
        blocker.close()  # give up without reading
        # The worker is released and serves the next submission.
        assert len(server.submit(QUERY).result(timeout=10).rows()) == 40
        assert blocker.done() and blocker.report.streamed
        server.close()
        mediator.close()


class TestAdmission:
    def test_full_queue_rejects_synchronously(self):
        mediator, _ = build_mediator()
        server = MediatorServer(
            mediator, ServerConfig(workers=1, max_queue_depth=1)
        )
        blocker = park_worker(server)
        server.submit(QUERY)  # fills the queue
        with pytest.raises(AdmissionError) as excinfo:
            server.submit(QUERY)
        assert excinfo.value.verdict == REJECTED
        assert server.stats()["rejected"] == 1
        list(blocker.rows())
        server.close()
        mediator.close()

    def test_deadline_expiring_in_queue_refuses_with_verdict(self):
        mediator, _ = build_mediator()
        server = MediatorServer(mediator, ServerConfig(workers=1))
        blocker = park_worker(server)
        doomed = server.submit(QUERY, timeout=0.05)
        time.sleep(0.15)  # let the deadline lapse while queued
        list(blocker.rows())  # release the worker; it must now refuse `doomed`
        with pytest.raises(AdmissionError) as excinfo:
            doomed.result(timeout=10)
        assert excinfo.value.verdict == QUEUE_TIMEOUT
        assert doomed.report.verdict == QUEUE_TIMEOUT
        assert doomed.report.queue_wait >= 0.05
        assert server.stats()["timed_out"] == 1
        server.close()
        mediator.close()

    def test_priority_classes_are_scheduled_fairly(self):
        # One worker, parked; queue five priority-1 submissions and then one
        # priority-3: stride scheduling serves the high class second, not
        # last, despite it arriving after every low submission.
        mediator, _ = build_mediator()
        server = MediatorServer(mediator, ServerConfig(workers=1))
        blocker = park_worker(server)
        low = [server.submit(QUERY, priority=1.0) for _ in range(5)]
        high = server.submit(QUERY, priority=3.0)
        list(blocker.rows())
        high.result(timeout=10)
        for future in low:
            future.result(timeout=10)
        assert high.report.priority == 3.0
        # Served before at least four of the five earlier low submissions
        # (queue_wait orders the single worker's serial pickups).
        beaten = sum(high.report.queue_wait < f.report.queue_wait for f in low)
        assert beaten >= 4
        server.close()
        mediator.close()


    def test_queue_wait_is_deducted_from_the_execution_budget(self):
        # A submission picked up after waiting w seconds executes with
        # timeout - w: the first holds the only worker for the source's 0.3 s,
        # so the second has ~0.15 s of its 0.4 s left -- admitted, but too
        # little for the source: partial, not refused and not complete.
        mediator, source = build_mediator()
        source.network = NetworkProfile(base_latency=0.3)
        source.real_sleep = True
        with MediatorServer(mediator, ServerConfig(workers=1)) as server:
            first = server.submit(QUERY, timeout=5.0)
            time.sleep(0.05)  # first is in its 0.3 s latency
            second = server.submit(QUERY, timeout=0.4)
            assert not first.result(timeout=10).is_partial
            assert second.result(timeout=10).is_partial
            assert second.report.verdict == ADMITTED
            assert 0.1 < second.report.queue_wait < 0.4
        mediator.close()

    def test_worker_count_is_the_inflight_budget(self):
        class ProbeWrapper(RelationalWrapper):
            """Records how many submits are inside the wrapper at once."""

            def __init__(self, name, server):
                super().__init__(name, server)
                self.live = self.peak = 0
                self.lock = threading.Lock()

            def submit(self, expression):
                with self.lock:
                    self.live += 1
                    self.peak = max(self.peak, self.live)
                try:
                    time.sleep(0.002)  # long enough for clients to overlap
                    return super().submit(expression)
                finally:
                    with self.lock:
                        self.live -= 1

        mediator, source = build_mediator()
        probe = ProbeWrapper("probe", source)
        mediator.register_wrapper("probe", probe)
        mediator.add_extent("probed", "Person", "probe", "r0", source_collection="person0")
        probed = "select x.name from x in probed"
        failures: list[BaseException] = []
        with MediatorServer(mediator, ServerConfig(workers=2)) as server:

            def client() -> None:
                try:
                    for _ in range(5):
                        assert len(server.submit(probed).result(timeout=30).rows()) == 40
                except BaseException as exc:  # noqa: BLE001 - surfaced below
                    failures.append(exc)

            clients = [threading.Thread(target=client) for _ in range(6)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(30)
            assert not any(thread.is_alive() for thread in clients)
            assert not failures
            assert 1 <= probe.peak <= 2
            stats = server.stats()
            assert stats["completed"] == 6 * 5
            assert stats["inflight"] == 0 and stats["queued"] == 0
        mediator.close()

    def test_nested_subquery_never_reenters_the_queue(self):
        # One worker: a subquery that had to be admitted again would wait
        # behind the very submission it belongs to.
        nested = (
            "select struct(name: x.name, total: sum(select z.salary from z in person0 "
            "where z.name = x.name)) from x in person0 where x.salary > 250"
        )
        mediator, _ = build_mediator(timeout=3.0)
        expected = Counter(map(repr, mediator.query(nested).rows()))
        assert sum(expected.values()) == 14
        with MediatorServer(mediator, ServerConfig(workers=1)) as server:
            result = server.submit(nested).result(timeout=10)
            assert not result.is_partial
            assert Counter(map(repr, result.rows())) == expected
        mediator.close()

    def test_every_refusal_is_logged_once_and_admissions_never(self, caplog):
        caplog.set_level(logging.WARNING, logger="repro.serving")
        mediator, _ = build_mediator()
        server = MediatorServer(
            mediator, ServerConfig(workers=1, max_queue_depth=1)
        )
        server.submit(QUERY).result(timeout=10)
        blocker = park_worker(server)
        doomed = server.submit(QUERY, timeout=0.05)  # fills the queue
        assert not caplog.records  # three admissions so far, no line
        with pytest.raises(AdmissionError):
            server.submit(QUERY, priority=3.0)
        time.sleep(0.15)  # doomed's deadline lapses while queued
        list(blocker.rows())
        with pytest.raises(AdmissionError):
            doomed.result(timeout=10)
        server.close()
        with pytest.raises(QueueClosed):
            server.submit(QUERY)
        records = [r for r in caplog.records if r.name == "repro.serving"]
        assert [r.levelno for r in records] == [logging.WARNING] * 3
        assert [r.args[0] for r in records] == [REJECTED, QUEUE_TIMEOUT, CLOSED]
        assert "priority 3" in records[0].getMessage()
        assert all(QUERY in r.getMessage() for r in records)
        mediator.close()


class TestClose:
    def test_graceful_drain_completes_queued_work(self):
        mediator, _ = build_mediator()
        server = MediatorServer(mediator, ServerConfig(workers=2))
        futures = [server.submit(QUERY) for _ in range(10)]
        server.close(drain=True, timeout=30)
        for future in futures:
            assert future.done()
            assert len(future.result(timeout=0).rows()) == 40
        stats = server.stats()
        assert stats["completed"] == 10 and stats["inflight"] == 0
        mediator.close()

    def test_immediate_close_refuses_queued_work_with_verdict(self):
        mediator, _ = build_mediator()
        server = MediatorServer(mediator, ServerConfig(workers=1))
        blocker = park_worker(server)
        queued = [server.submit(QUERY) for _ in range(3)]
        blocker.close()  # release the worker so close() can join it
        server.close(drain=False, timeout=30)
        for future in queued:
            with pytest.raises(AdmissionError) as excinfo:
                future.result(timeout=0)
            assert excinfo.value.verdict == CLOSED
            assert future.report.verdict == CLOSED
        mediator.close()

    def test_submit_after_close_raises_closed(self):
        mediator, _ = build_mediator()
        server = MediatorServer(mediator)
        server.close()
        with pytest.raises(QueueClosed):
            server.submit(QUERY)
        mediator.close()

    def test_close_joins_every_worker_thread(self):
        mediator, _ = build_mediator()
        server = MediatorServer(mediator, ServerConfig(workers=3))
        server.submit(QUERY).result(timeout=10)
        server.close()
        assert not [
            thread for thread in threading.enumerate() if thread.name.startswith("disco-serve")
        ]
        # The mediator itself stays usable after its server closes.
        assert len(mediator.query(QUERY).rows()) == 40
        mediator.close()


class TestWaveUnderFaults:
    @pytest.mark.parametrize("stream", [False, True], ids=["barrier", "streamed"])
    @pytest.mark.parametrize("clients", WAVE_CLIENTS)
    def test_faults_degrade_answers_but_never_cross_them(self, clients, stream, monkeypatch):
        """One wave of clients over four sources whose every call fails one
        time in twenty (two retries): four distinguishable queries, two
        priority classes.  A leaked, duplicated or torn row would put an answer
        outside its own query's fault-free reference."""
        queries = [
            f"select x.name from x in person where x.salary > {threshold}"
            for threshold in (50, 150, 250, 350)
        ]
        healthy, _ = build_person_federation(4, rows_per_source=60)
        references = {query: Counter(healthy.query(query).rows()) for query in queries}
        healthy.close()
        mediator, servers = build_person_federation(
            4, rows_per_source=60, failure_probability=0.05, max_retries=2, retry_backoff=0.0
        )
        # Unbounded queue: the wave is the arrival bound; streams settle unread.
        monkeypatch.setattr(server_module, "STREAM_BUFFER_ROWS", 4 * 60 + 16)
        config = ServerConfig(workers=8, max_queue_depth=None)
        with MediatorServer(mediator, config) as server:
            futures = [
                server.submit(
                    queries[client % 4], stream=stream, priority=3.0 if client % 8 < 2 else 1.0
                )
                for client in range(clients)
            ]
            incomplete = 0
            for client, future in enumerate(futures):
                rows = list(future.rows()) if stream else future.result(timeout=120).rows()
                future.result(timeout=120)
                assert future.report.verdict == ADMITTED
                reference = references[queries[client % 4]]
                assert not Counter(rows) - reference
                incomplete += Counter(rows) != reference
            stats = server.stats()
            assert stats["submitted"] == stats["completed"] == clients
            assert incomplete * 4 <= clients  # two retries recover most answers
        assert all(source.statistics.failures for source in servers)  # the faults did strike
        mediator.close()


class TestStats:
    def test_counters_reflect_traffic(self):
        mediator, _ = build_mediator()
        with MediatorServer(mediator, ServerConfig(workers=2)) as server:
            futures = [server.submit(QUERY) for _ in range(6)]
            for future in futures:
                future.result(timeout=10)
            stats = server.stats()
            assert stats["submitted"] == 6
            assert stats["completed"] == 6
            assert stats["rejected"] == 0 and stats["timed_out"] == 0
            assert stats["workers"] == 2
            assert stats["queue_wait_total"] >= 0.0
        mediator.close()
