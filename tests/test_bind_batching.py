"""Batched bind-join probes: the ``in``-list terminal end to end.

Pins the E14 behaviours on both engines: batch-boundary flushes, key
deduplication against the per-query probe cache, the degrade ladder
(``in`` -> per-key ``=`` -> full ship), the ski-rental flip to a ship, failure
semantics (partial answers whose probe side stays a submit; retries and
call-time refusals through the exec calls' one attempt loop), and the
telemetry surfaced through ``ExecReport`` and ``Mediator.statistics()``.
"""

from __future__ import annotations

import os
import threading
import time
from collections import Counter

import pytest

from repro import CapabilityError, Mediator, RelationalWrapper
from repro.algebra import physical as phys
from repro.algebra.capabilities import CapabilitySet
from repro.algebra.expressions import Arithmetic, BooleanExpr, Comparison, Const, InList, Path, Var, walk_expr
from repro.algebra.logical import Select, walk
from repro.datamodel.values import Struct
from repro.runtime import operators
from repro.oql.parser import parse_query
from repro.sources import RelationalEngine, SimulatedServer

QUERY = (
    "select struct(name: x.name, value: y.value) "
    "from x in left0, y in right0 where x.id = y.id"
)

#: outer rows of the headline probe join; the nightly CI job sets 100000.
FANOUT = int(os.environ.get("DISCO_E14_FANOUT", "10000"))

#: no set-membership terminal: probes degrade to per-key.
NO_IN_CAPS = CapabilitySet.of("get", "project", "select", "limit")
#: a source that cannot evaluate selections at all: probes degrade to a ship.
GET_ONLY_CAPS = CapabilitySet.of("get")


class InListCrashingCapabilities(CapabilitySet):
    """Every terminal, but the grammar check itself crashes on an ``in``-list."""

    def accepts(self, expr):
        if isinstance(expr, Select) and any(isinstance(node, InList) for node in walk_expr(expr.predicate)):
            raise RuntimeError("grammar check crashed")
        return super().accepts(expr)


class InRefusingWrapper(RelationalWrapper):
    """Declares the ``in`` terminal but rejects an ``in``-list at call time."""

    def submit(self, expression):
        for node in walk(expression):
            if isinstance(node, Select) and isinstance(node.predicate, InList):
                raise CapabilityError("in-list refused at call time")
        return super().submit(expression)


def build_probe_mediator(
    left_ids,
    right_rows: int = 50,
    batch_size: int = 4,
    right_capabilities: CapabilitySet | None = None,
    right_wrapper=RelationalWrapper,
    right_ids=None,
    **config,
):
    """An outer extent with the given join keys probing a ``right_rows`` inner
    (keyed ``0 .. right_rows - 1``, or by ``right_ids``; row i's value is 3i)."""
    left_engine = RelationalEngine(name="ldb")
    left_engine.create_table(
        "left0", rows=[{"id": key, "name": f"p{i}"} for i, key in enumerate(left_ids)]
    )
    right_engine = RelationalEngine(name="rdb")
    right_engine.create_table(
        "right0",
        rows=[
            {"id": key, "value": i * 3}
            for i, key in enumerate(range(right_rows) if right_ids is None else right_ids)
        ],
    )
    left_server = SimulatedServer(name="lhost", store=left_engine)
    right_server = SimulatedServer(name="rhost", store=right_engine)
    mediator = Mediator(name="batch", bind_batch_size=batch_size, **config)
    mediator.register_wrapper("wl", RelationalWrapper("wl", left_server))
    mediator.register_wrapper(
        "wr", right_wrapper("wr", right_server, capabilities=right_capabilities)
    )
    mediator.create_repository("rl", host=left_server.name)
    mediator.create_repository("rr", host=right_server.name)
    mediator.define_interface(
        "Outer", [("id", "Long"), ("name", "String")], extent_name="left"
    )
    mediator.define_interface(
        "Inner", [("id", "Long"), ("value", "Long")], extent_name="right"
    )
    mediator.add_extent("left0", "Outer", "wl", "rl")
    mediator.add_extent("right0", "Inner", "wr", "rr")
    return mediator, left_server, right_server


def probed_exec(mediator) -> phys.Exec:
    """The right side ``QUERY``'s (cached) plan probes."""
    [join] = [
        node
        for node in walk(mediator.planner.plan(QUERY).optimized.physical)
        if isinstance(node, phys.ProbeJoin)
    ]
    return join.probe


def learn_right_rows(mediator, rows: int) -> None:
    """Teach the history that one full ship of the probed expression returns
    ``rows`` rows: the learned cardinality R the probe runner weighs its
    round trips against (it ships once keys sent + rows fetched reach R)."""
    probed = probed_exec(mediator)
    mediator.history.record(probed.extent_name, probed.expression, 0.001, rows)


#: a learned cardinality past anything the batching tests probe (as if the
#: extent had shrunk since the history saw it): probing never costs a ship.
UNREACHED_ROWS = 10**9


def run_barrier(mediator, query=QUERY):
    result = mediator.query(query)
    return result.rows(), result


def run_streaming(mediator, query=QUERY):
    result = mediator.query_stream(query)
    rows = list(result.iter_rows())
    return rows, result


ENGINES = [pytest.param(run_barrier, id="barrier"), pytest.param(run_streaming, id="streaming")]


def probe_report(result):
    [report] = [r for r in result.reports if r.extent_name == "right0"]
    return report


def values_of(rows):
    return sorted(dict(row)["value"] for row in rows)


# -- batching -------------------------------------------------------------------------------------
@pytest.mark.parametrize("run", ENGINES)
def test_probe_calls_flush_at_batch_boundaries(run):
    """10 distinct keys at batch 4 -> ceil(10/4) = 3 set-valued submits: with
    the right side's 50 rows learned, the third trip starts at 8 keys + 8
    rows, still short of a ship."""
    mediator, _left, right = build_probe_mediator(range(10), batch_size=4)
    try:
        learn_right_rows(mediator, 50)
        rows, result = run(mediator)
        assert values_of(rows) == [i * 3 for i in range(10)]
        assert right.statistics.requests == 3
        report = probe_report(result)
        assert report.attempts == 3
        assert report.available and not report.replanned
        assert report.degraded_to is None
    finally:
        mediator.close()


@pytest.mark.parametrize("run", ENGINES)
def test_probe_calls_track_batches_not_bindings(run):
    """The communication claim as call counts: one round trip per binding
    without batching, ceil(fanout / 256) with the default batch -- 50x fewer
    at the headline fanout."""

    def probe_calls(fanout, batch_size):
        mediator, _left, right = build_probe_mediator(
            range(fanout), right_rows=1_000, batch_size=batch_size
        )
        try:
            learn_right_rows(mediator, UNREACHED_ROWS)
            rows, _result = run(mediator)
            assert len(rows) == min(fanout, 1_000)
            return right.statistics.requests
        finally:
            mediator.close()

    assert probe_calls(1_000, batch_size=1) == 1_000
    assert probe_calls(1_000, batch_size=256) == 4
    batched = probe_calls(FANOUT, batch_size=256)
    assert batched == -(-FANOUT // 256)
    # Per binding the count is the fanout itself (first line), so:
    assert batched * 50 <= FANOUT


@pytest.mark.parametrize("run", ENGINES)
def test_repeated_keys_probe_once(run):
    """Dedup within a batch, per-query cache across batches."""
    mediator, _left, right = build_probe_mediator(
        [0, 1, 2, 0, 1, 2], batch_size=3
    )
    try:
        rows, _result = run(mediator)
        # Every binding still fans out: 6 left rows, each matching one right row.
        assert values_of(rows) == [0, 0, 3, 3, 6, 6]
        # Batch 1 probes {0,1,2}; batch 2 finds all three in the cache.
        assert right.statistics.requests == 1
        statistics = mediator.statistics()
        assert statistics["probe_cache_hits"] == 3
        assert statistics["probe_cache_misses"] == 3
    finally:
        mediator.close()


@pytest.mark.parametrize("run", ENGINES)
def test_none_keys_are_never_probed(run):
    """``=`` is None-rejecting, so None keys skip the source entirely."""
    mediator, _left, right = build_probe_mediator(
        [None, 1, None, 2], batch_size=10
    )
    try:
        rows, _result = run(mediator)
        assert values_of(rows) == [3, 6]
        assert right.statistics.requests == 1  # one batch: keys {1, 2}
    finally:
        mediator.close()


# -- the degrade ladder ---------------------------------------------------------------------------
@pytest.mark.parametrize("run", ENGINES)
def test_wrapper_without_in_degrades_to_per_key_probes(run):
    """No ``in`` terminal: one ``=`` submit per distinct key, flagged degraded
    (the learned 50-row side outweighs the 5 keys + 5 rows before the last)."""
    mediator, _left, right = build_probe_mediator(
        range(6), batch_size=4, right_capabilities=NO_IN_CAPS
    )
    try:
        learn_right_rows(mediator, 50)
        rows, result = run(mediator)
        assert values_of(rows) == [i * 3 for i in range(6)]
        assert right.statistics.requests == 6
        report = probe_report(result)
        assert report.attempts == 6
        assert report.degraded_to is not None
    finally:
        mediator.close()


@pytest.mark.parametrize("run", ENGINES)
def test_a_grammar_check_crashing_on_an_in_list_probes_per_key(run):
    """Planning never builds an ``in``-list; probe-shape selection is the
    first to ask the grammar about one (``namespace._wrapper_accepts``).
    A check that crashes there counts as a refusal: the join still answers,
    one ``=`` probe per distinct key."""
    capabilities = InListCrashingCapabilities(CapabilitySet.full().operators)
    mediator, _left, right = build_probe_mediator(
        range(6), batch_size=4, right_capabilities=capabilities
    )
    try:
        learn_right_rows(mediator, 50)
        rows, result = run(mediator)
        assert values_of(rows) == [i * 3 for i in range(6)]
        assert not result.is_partial
        assert right.statistics.requests == 6
        assert probe_report(result).attempts == 6
    finally:
        mediator.close()


@pytest.mark.parametrize("run", ENGINES)
def test_wrapper_without_select_ships_the_extent_once(run):
    """A get-only source cannot be probed at all: one full ship, joined here."""
    mediator, _left, right = build_probe_mediator(
        range(6), batch_size=4, right_capabilities=GET_ONLY_CAPS
    )
    try:
        rows, result = run(mediator)
        assert values_of(rows) == [i * 3 for i in range(6)]
        assert right.statistics.requests == 1
        report = probe_report(result)
        assert report.attempts == 1
        assert report.degraded_to is not None
    finally:
        mediator.close()


# -- adaptive re-planning: the ski-rental flip ---------------------------------------------------
@pytest.mark.parametrize("run", ENGINES)
def test_blowup_past_the_estimate_flips_to_ship(run):
    """With no history a ship is estimated at 1 row: the first batch's 4 keys
    and 4 rows already cost more, so the second round trip is the ship, and
    every later batch joins locally."""
    mediator, _left, right = build_probe_mediator(range(20), batch_size=4)
    try:
        rows, result = run(mediator)
        assert values_of(rows) == [i * 3 for i in range(20)]
        # Call 1: the in-list batch.  Call 2: the re-planned ship.
        assert right.statistics.requests == 2
        report = probe_report(result)
        assert report.replanned
        assert report.attempts == 2
    finally:
        mediator.close()


@pytest.mark.parametrize("run", ENGINES)
def test_no_replan_while_probing_costs_less_than_a_ship(run):
    """With the right side's 50 rows learned, batches that have sent 4 keys
    and fetched 4 rows keep probing: no flip to a ship."""
    mediator, _left, right = build_probe_mediator(range(8), batch_size=4)
    try:
        learn_right_rows(mediator, 50)
        rows, result = run(mediator)
        assert values_of(rows) == [i * 3 for i in range(8)]
        assert right.statistics.requests == 2  # ceil(8/4), no ship
        report = probe_report(result)
        assert not report.replanned
        assert report.attempts == 2
    finally:
        mediator.close()


@pytest.mark.parametrize("learned, probes", [(16, 2), (17, 3)])
@pytest.mark.parametrize("run", ENGINES)
def test_the_flip_comes_before_the_trip_that_would_cross_the_estimate(run, learned, probes):
    """Before trip k+1 the runner has sent 4k keys and fetched 4k rows: at a
    learned 16 the third trip (8 + 8 = 16) is the ship, at 17 the fourth."""
    mediator, _left, right = build_probe_mediator(range(20), batch_size=4)
    try:
        learn_right_rows(mediator, learned)
        rows, result = run(mediator)
        assert values_of(rows) == [i * 3 for i in range(20)]
        assert right.statistics.requests == probes + 1
        report = probe_report(result)
        assert report.replanned and report.attempts == probes + 1
    finally:
        mediator.close()


@pytest.mark.parametrize("run", ENGINES)
def test_no_ship_follows_the_last_batch(run):
    """The last batch crosses a learned 9 (8 keys + 8 rows after it), but
    nothing is left to probe: no ship that nothing would read."""
    mediator, _left, right = build_probe_mediator(range(8), batch_size=4)
    try:
        learn_right_rows(mediator, 9)
        rows, result = run(mediator)
        assert values_of(rows) == [i * 3 for i in range(8)]
        assert right.statistics.requests == 2
        assert not probe_report(result).replanned
    finally:
        mediator.close()


@pytest.mark.parametrize("run", ENGINES)
def test_a_learned_cardinality_bounds_the_trips_whatever_the_fanout(run):
    """A 500-row right side probed by ``FANOUT`` keys.  The first run has no
    history: one batch, then the ship, which teaches the history R = 500.
    The second run reads it: one batch of 256 keys fetches 256 rows
    (256 + 256 >= 500), so the next trip is the ship -- at most 2 probe
    trips plus 1 ship, not one trip per 256 keys."""
    mediator, _left, right = build_probe_mediator(
        range(FANOUT), right_rows=500, batch_size=256
    )
    try:
        for _ in range(2):
            before = right.statistics.requests
            rows, result = run(mediator)
            assert len(rows) == 500
            assert right.statistics.requests - before == 2
            report = probe_report(result)
            assert report.replanned and report.attempts == 2
        probed = probed_exec(mediator)
        estimate = mediator.history.estimate(probed.extent_name, probed.expression)
        assert estimate.rows == pytest.approx(500)
    finally:
        mediator.close()


@pytest.mark.parametrize("run", ENGINES)
def test_per_key_probes_flip_to_a_ship_too(run):
    """No ``in`` terminal, 20 keys against a learned 10-row side: each ``=``
    trip sends 1 key, the first 5 fetch 1 row each, so the sixth trip
    (5 + 5 = 10) is the ship."""
    mediator, _left, right = build_probe_mediator(
        range(20), right_rows=10, batch_size=4, right_capabilities=NO_IN_CAPS
    )
    try:
        learn_right_rows(mediator, 10)
        rows, result = run(mediator)
        assert values_of(rows) == [i * 3 for i in range(10)]
        assert right.statistics.requests == 6
        report = probe_report(result)
        assert report.replanned and report.attempts == 6
        assert report.degraded_to is not None
    finally:
        mediator.close()


@pytest.mark.parametrize(
    "route, capabilities, replanned",
    [
        pytest.param("flip", None, True, id="ski-rental-flip"),
        pytest.param("ship", GET_ONLY_CAPS, False, id="get-only-ship"),
    ],
)
@pytest.mark.parametrize("run", ENGINES)
def test_a_shipped_probe_join_answers_as_the_hash_join(run, route, capabilities, replanned):
    """Once the right side is shipped -- by the flip (no history: the second
    trip is the ship) or because the wrapper cannot select -- the probe join
    hash-joins the rest of ``FANOUT`` left rows against it, and answers the
    multiset ``mkbindjoin`` answers over the same two sides: nil, NaN and
    repeated keys, a nil-keyed right row, and a residual conjunct beyond the
    equi key.  No wrapper call follows the ship."""
    odd = [None, float("nan"), 0, 0]
    left_ids = [*odd, *(i % 1000 for i in range(FANOUT)), *odd]
    mediator, left, right = build_probe_mediator(
        left_ids, batch_size=256, right_capabilities=capabilities, right_ids=[None, *range(500)]
    )
    # Right row k has value 3(k + 1): the residual keeps keys 98 .. 499.
    query = QUERY + " and y.value > x.id * 2 + 100"
    x_id, y_id = Path(Var("x"), "id"), Path(Var("y"), "id")
    residual = Comparison(">", Path(Var("y"), "value"), Arithmetic("+", Arithmetic("*", x_id, Const(2)), Const(100)))
    condition = BooleanExpr("and", (Comparison("=", x_id, y_id), residual))
    hash_joined = operators.bind_join_rows(
        left.store.scan("left0"), right.store.scan("right0"), "x", "y", condition
    )
    expected = Counter((env["x"]["name"], env["y"]["value"]) for env in hash_joined)
    assert 0 < sum(expected.values()) < FANOUT // 2
    try:
        rows, result = run(mediator, query)
        assert "probejoin" in result.physical_plan
        assert Counter((row["name"], row["value"]) for row in rows) == expected
        assert right.statistics.requests == (2 if route == "flip" else 1)
        report = probe_report(result)
        assert report.replanned == replanned and report.attempts == right.statistics.requests
        assert not result.is_partial
    finally:
        mediator.close()


# -- failure semantics ----------------------------------------------------------------------------
def test_probed_source_down_degrades_to_a_partial_answer():
    """Barrier: the probe side stays the submit it implements -- the partial
    answer is a query that, resubmitted after recovery, yields the full one."""
    mediator, _left, right = build_probe_mediator(range(6), batch_size=4)
    try:
        reference = values_of(mediator.query(QUERY).rows())
        right.take_down()
        partial = mediator.query(QUERY)
        assert partial.is_partial and partial.rows() == []
        assert partial.unavailable_sources == ("right0",)
        parse_query(partial.partial_query)  # the answer *is* a query
        right.bring_up()
        resubmitted = mediator.resubmit(partial)
        assert values_of(resubmitted.rows()) == reference
    finally:
        mediator.close()


def test_outage_elsewhere_sends_no_probe():
    """A ``query()`` that is already partial is never composed: the probed
    source is not contacted, and stays the submit it implements."""
    mediator, left, right = build_probe_mediator(range(6), batch_size=4)
    try:
        reference = values_of(mediator.query(QUERY).rows())
        assert "probejoin" in mediator.query(QUERY).physical_plan
        left.take_down()
        before = right.statistics.requests
        partial = mediator.query(QUERY)
        assert partial.is_partial and partial.unavailable_sources == ("left0",)
        assert right.statistics.requests == before
        assert [report.extent_name for report in partial.reports] == ["left0"]
        left.bring_up()
        assert values_of(mediator.resubmit(partial).rows()) == reference
    finally:
        mediator.close()


def test_streaming_probe_failure_reports_without_raising():
    """Streaming: the probed source contributes no rows; the failure surfaces
    on the aggregated report, not as an exception into the consumer."""
    mediator, _left, right = build_probe_mediator(range(6), batch_size=4)
    try:
        right.take_down()
        result = mediator.query_stream(QUERY)
        assert list(result.iter_rows()) == []
        assert result.is_partial
        assert "right0" in result.unavailable_sources
        report = probe_report(result)
        assert not report.available and report.error is not None
    finally:
        mediator.close()


def test_closing_the_mediator_under_a_probe_round_trip_reports_mediator_closed():
    """A ``query()`` is written off only by the mediator closing, so a probe
    round trip woken by ``close()`` is a failure, not a cancellation: the
    answer is partial and names the probe side."""
    from repro.sources import NetworkProfile

    mediator, _left, right = build_probe_mediator(range(6), batch_size=1)
    try:
        learn_right_rows(mediator, UNREACHED_ROWS)
        right.network = NetworkProfile(base_latency=5.0)
        right.real_sleep = True
        results: list = []
        thread = threading.Thread(target=lambda: results.append(mediator.query(QUERY, timeout=30)))
        thread.start()
        deadline = time.monotonic() + 5
        while right.statistics.requests < 1 and time.monotonic() < deadline:
            time.sleep(0.01)  # until the first round trip is asleep at the source
        started = time.monotonic()
        mediator.close()
        thread.join(10)
        assert not thread.is_alive() and time.monotonic() - started < 4.0
        (result,) = results
        assert result.is_partial and result.unavailable_sources == ("right0",)
        assert right.statistics.requests == 1  # the left input drained, nothing more sent
        report = probe_report(result)
        assert report.error == "mediator closed"
        assert not report.available and not report.cancelled
    finally:
        mediator.close()


@pytest.mark.parametrize("run", ENGINES)
def test_a_failed_probe_call_is_retried_within_max_retries(run):
    """A probe round trip is an exec call of the one attempt loop: a transient
    failure is retried on the ``max_retries`` budget, the aggregated report
    counts both wrapper calls, and the history learns one failure and one
    success for the probed extent."""
    mediator, _left, right = build_probe_mediator(range(6), batch_size=8, max_retries=1)
    try:
        right.availability.fail_next(1)
        rows, result = run(mediator)
        assert values_of(rows) == [i * 3 for i in range(6)]
        assert not result.is_partial
        report = probe_report(result)
        assert report.available and report.attempts == 2
        assert mediator.history.failures == 1
        # Availability is an EWMA (alpha 0.3) from 1.0: a failure, then a success.
        assert mediator.history.availability("right0") == pytest.approx(0.3 + 0.7 * 0.7)
    finally:
        mediator.close()


@pytest.mark.parametrize("run", ENGINES)
def test_an_in_list_refused_at_call_time_goes_down_the_ladder(run):
    """The wrapper declares ``in`` but rejects it when called: the degrading
    retry strips the probe's ``select``, ships the bare expression and
    replays the in-list at the mediator -- the full answer, not a partial."""
    mediator, _left, right = build_probe_mediator(
        range(6), batch_size=8, right_wrapper=InRefusingWrapper, max_retries=1
    )
    try:
        rows, result = run(mediator)
        assert values_of(rows) == [i * 3 for i in range(6)]
        assert not result.is_partial
        assert right.statistics.requests == 1  # the refusal never reached it
        report = probe_report(result)
        assert report.available and report.attempts == 2
        assert report.degraded_to == "get(right0)"
    finally:
        mediator.close()


@pytest.mark.parametrize("batch_size", [8, 1], ids=["one-batch", "six-batches"])
@pytest.mark.parametrize("run", ENGINES)
def test_a_probe_source_that_stays_down_spends_max_retries(run, batch_size):
    """A dead probed source is retried like any exec call -- ``max_retries``
    extra calls, each a failure observation -- and then written off into a
    partial answer on both engines.  The failure is recorded, never raised:
    the join drains its left input, and later batches send nothing."""
    mediator, _left, right = build_probe_mediator(
        range(6), batch_size=batch_size, max_retries=2, retry_backoff=0.001
    )
    try:
        right.take_down()
        rows, result = run(mediator)
        assert rows == []
        assert result.is_partial and result.unavailable_sources == ("right0",)
        report = probe_report(result)
        assert not report.available and report.attempts == 3
        assert right.statistics.requests == 3
        assert mediator.history.failures == 3
        assert mediator.history.availability("right0") == pytest.approx(0.7**3)
    finally:
        mediator.close()


def test_probe_calls_honor_the_global_deadline():
    """The query's one designated time period bounds probe calls too: a slow
    probed source times the query out into a partial answer (at most one
    wrapper round trip past the deadline), on both engines."""
    from repro.sources import NetworkProfile

    mediator, _left, right = build_probe_mediator(range(12), batch_size=4)
    try:
        right.network = NetworkProfile(base_latency=0.3)
        right.real_sleep = True
        result = mediator.query(QUERY, timeout=0.05)
        assert result.is_partial
        assert "right0" in result.unavailable_sources
        assert "timed out" in probe_report(result).error
        stream = mediator.query_stream(QUERY, timeout=0.05)
        rows = list(stream.iter_rows())
        assert stream.is_partial
        assert len(rows) <= 4  # at most the one batch in flight at expiry
    finally:
        mediator.close()


# -- telemetry ------------------------------------------------------------------------------------
def test_probe_calls_are_recorded_in_history():
    """Satellite: probes are first-class history observations under the probed
    extent, so the cost model's estimate of the probe expression improves."""
    mediator, _left, _right = build_probe_mediator(range(8), batch_size=4)
    try:
        before = mediator.history.recorded_calls()
        mediator.query(QUERY).rows()
        assert mediator.history.recorded_calls() > before
        # The in-list close signature collapses batch sizes: both batches
        # landed on one signature whose estimate now reflects real fan-in.
        availability = mediator.history.availability("right0")
        assert availability == pytest.approx(1.0)
    finally:
        mediator.close()


def test_in_predicate_pushes_to_the_source():
    """A user-written ``in`` list rides the same terminal: the source filters."""
    mediator, _left, right = build_probe_mediator([0], right_rows=50)
    try:
        rows = mediator.query(
            "select y.value from y in right0 where y.id in (1, 3, 5)"
        ).rows()
        assert sorted(rows) == [3, 9, 15]
        assert right.statistics.rows_returned == 3  # filtered source-side
    finally:
        mediator.close()


def test_in_predicate_round_trips_through_a_partial_answer():
    """Set literals survive the unparse/reparse cycle partial answers rely on."""
    mediator, _left, right = build_probe_mediator([0], right_rows=50)
    try:
        query = "select y.value from y in right0 where y.id in (1, 3, 5)"
        right.take_down()
        partial = mediator.query(query)
        assert partial.is_partial
        assert " in (" in partial.partial_query
        parse_query(partial.partial_query)
        right.bring_up()
        resubmitted = mediator.resubmit(partial)
        assert sorted(resubmitted.rows()) == [3, 9, 15]
    finally:
        mediator.close()


# -- the empty-batch edge --------------------------------------------------------------------------
@pytest.mark.parametrize("run", ENGINES)
def test_all_none_keys_issue_no_probe_calls(run):
    """A batch whose keys are all None deduplicates to nothing: the source
    must never see it (an empty ``in ()`` renders as invalid SQL there)."""
    mediator, _left, right = build_probe_mediator([None, None, None], batch_size=2)
    try:
        rows, result = run(mediator)
        assert rows == []
        assert right.statistics.requests == 0
        assert not result.is_partial
    finally:
        mediator.close()


@pytest.mark.parametrize("run", ENGINES)
def test_an_idle_probe_join_reports_no_call(run):
    """An empty left side sends no probe: neither entry point reports a call
    to the probed source or counts it as contacted."""
    mediator, _left, right = build_probe_mediator([], right_rows=5)
    try:
        rows, result = run(mediator)
        assert rows == []
        assert "probejoin" in result.physical_plan
        assert right.statistics.requests == 0
        assert [report.extent_name for report in result.reports] == ["left0"]
        assert result.sources_contacted() == 1
    finally:
        mediator.close()


def test_sql_wrapper_refuses_an_empty_in_list():
    """Defense in depth below the probe runner's guard: an empty ``in`` list
    has no SQL spelling (``IN ()`` is a syntax error), so the wrapper raises
    instead of shipping an unparsable statement."""
    from repro.algebra.expressions import InList, Path, Var
    from repro.algebra.logical import Get, Select
    from repro.errors import WrapperError
    from repro.sources.sql.engine import SqlEngine
    from repro.wrappers import SqlWrapper

    engine = SqlEngine(name="pg")
    engine.create_table("right0", rows=[{"id": 1, "value": 3}])
    wrapper = SqlWrapper("pg", SimulatedServer("pg-host", engine))
    with pytest.raises(WrapperError):
        wrapper.to_sql(Select("y", InList(Path(Var("y"), "id"), ()), Get("right0")))


# -- the hash probe against the per-key probe it batches ------------------------------------------
@pytest.mark.parametrize(
    "odd_keys",
    [
        pytest.param([None, float("nan"), 900], id="nil-and-nan-hashed"),
        pytest.param([None, float("nan"), [7]], id="one-unhashable-key-goes-linear"),
    ],
)
def test_a_256_key_batch_buckets_like_256_per_key_probes(odd_keys):
    """One ``in``-list submit returns, key for key, what ``=`` returns per key:
    nil and NaN keys match nothing (not even the source's own nil and NaN
    rows), and an unhashable key still matches by ``==``."""
    from repro.algebra.expressions import Comparison, Const, InList, Path, Var
    from repro.algebra.logical import Get, Select

    nan = odd_keys[1]
    engine = RelationalEngine(name="rdb")
    engine.create_table(
        "right0",
        rows=[{"id": i, "value": i * 3} for i in range(400)]
        + [{"id": None, "value": -1}, {"id": nan, "value": -2}, {"id": [7], "value": -3}],
    )
    wrapper = RelationalWrapper("wr", SimulatedServer(name="rhost", store=engine))
    keys = list(range(0, 506, 2)) + odd_keys
    assert len(keys) == 256
    y_id = Path(Var("y"), "id")

    def buckets(rows):
        found: dict = {}
        for row in rows:
            found.setdefault(repr(row["id"]), []).append(row["value"])
        return found

    batched = wrapper.submit(
        Select("y", InList(y_id, tuple(Const(key) for key in keys)), Get("right0"))
    )
    per_key = [
        row
        for key in keys
        for row in wrapper.submit(Select("y", Comparison("=", y_id, Const(key)), Get("right0")))
    ]
    assert buckets(batched) == buckets(per_key)
    assert len(batched) == 200 + (odd_keys[2] == [7])


def test_only_a_matched_left_row_gets_an_environment(monkeypatch):
    """1 000 left rows, 10 of them matched: the keys are read off the rows in
    place and the environment is built for the 10 matches alone (one per
    left row, 1 000, before the key functions)."""
    built = []

    def counting_bindings(element, variable):
        built.append(element)
        return bindings(element, variable)

    bindings = operators.env_bindings
    monkeypatch.setattr(operators, "env_bindings", counting_bindings)
    left = [Struct({"id": i}) for i in range(1000)]
    matched = set(range(0, 1000, 100))

    def prober(keys):  # as the probe runner answers: every key, most with no rows
        return {key: [Struct({"id": key, "value": -key})] if key in matched else [] for key in keys}, False

    condition = Comparison("=", Path(Var("x"), "id"), Path(Var("y"), "id"))
    joined = list(operators.probe_join_rows(left, "x", "y", condition, prober, batch_size=256))
    assert sorted(env["x"]["id"] for env in joined) == sorted(matched)
    assert len(built) <= 10
