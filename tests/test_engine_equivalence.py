"""Differential testing: ``query()`` and ``query_stream()`` must agree.

There is one exec engine with two entry points -- a materialising run (the
"barrier engine" below) and a streaming run (the "streaming engine") -- that
differ in where rows are handed off, and this harness is what keeps that
difference from leaking into answers: ~100 seeded random OQL queries (joins, multi-variable bind
joins with batched probes, unions, distinct, limit, injected faults) are run
through both ``Mediator.query()`` and ``Mediator.query_stream()`` and
compared on row multisets, error reporting, and partial-answer shape.  The
mediator's ``bind_batch_size`` is itself swept per seed, so probe joins are
pinned at every batch-boundary shape.

The agreed semantics being pinned:

* complete answers are identical *multisets* (order is never promised);
* a ``limit n`` answer is any sub-multiset of size ``min(n, |full answer|)``
  of the unlimited answer -- which ``n`` rows arrive is completion-order
  dependent by design;
* when a referenced source is down, both engines report the same unavailable
  extents and error keys; the barrier engine returns a resubmittable partial
  answer (no rows), the streaming engine delivers the available sources' rows;
* a streaming ``limit`` satisfied by healthy sources may *cancel* the failing
  branch before observing its failure, in which case the stream legitimately
  completes -- the one sanctioned shape difference;
* a source killed *mid-stream* (after delivering rows) with retries remaining
  recovers in both engines to the identical complete multiset -- the barrier
  engine by retrying the whole materialization, the streaming engine by
  resuming past the delivered rows (exactly-once: no duplicates, no gaps).
  Per-call attempt shapes are *not* compared under a kill: which concurrent
  call to the server consumes the armed kill is scheduling-dependent.

When a new operator lands, extend the query generator below so both engines
see it -- and note that the *static* half of that coverage contract is
machine-checked: the dispatch-completeness checker in ``repro.analysis``
(``PYTHONPATH=src python -m repro.analysis``) fails the build if the new
operator is missing an arm at any dispatch ladder (unparser, cost model,
implementation, composer, ...), so only the generator extension here needs
remembering by hand.
"""

from __future__ import annotations

import os
import random
import tempfile
from collections import Counter
from collections.abc import Mapping

import pytest

from repro import Mediator, RelationalWrapper
from repro.algebra.capabilities import PUSHABLE_OPERATORS, CapabilitySet
from repro.algebra.logical import BagLiteral, Submit, submits_in
from repro.algebra.unparser import logical_to_oql
from repro.datamodel.mapping import LocalTransformationMap
from repro.datamodel.values import Bag, Struct
from repro.sources import RelationalEngine, SimulatedServer, TableSchema
from repro.sources.csv_store import CsvStore
from repro.sources.sql import SqlEngine
from repro.sources.text_store import Document, TextStore
from repro.wrappers import CsvWrapper, SqlWrapper, TextSearchWrapper

NAMES = ["ann", "bob", "cleo", "dan", "eve"]
#: the nightly CI job raises this to 1000 via DISCO_EQUIV_SEEDS.
SEEDS = range(int(os.environ.get("DISCO_EQUIV_SEEDS", "104")))
#: set DISCO_EQUIV_SERVER=1 to additionally run every seed's query through a
#: MediatorServer (both barrier and streamed submissions) and hold the served
#: answers to the same multiset contract -- the serving layer must be
#: answer-transparent.  Off by default: it roughly doubles the sweep's cost.
RUN_THROUGH_SERVER = os.environ.get("DISCO_EQUIV_SERVER", "") not in ("", "0")
#: set DISCO_EQUIV_CACHE=1 to run the answer-cache transparency axis over
#: *every* seed (the nightly sweep); by default a quarter of the seeds run
#: it, which keeps the tier-1 suite fast while still exercising the cache
#: against repeats, subsumed variants, schema mutations and faults.
RUN_FULL_CACHE_AXIS = os.environ.get("DISCO_EQUIV_CACHE", "") not in ("", "0")
CACHE_SEEDS = SEEDS if RUN_FULL_CACHE_AXIS else range(0, len(SEEDS), 4)

#: shared on-disk home for the CSV source's files; one directory per test run.
_CSV_DIR = tempfile.mkdtemp(prefix="disco-equiv-csv-")


#: the colliding pair's source tables: both call their second column ``nm``
CAT_ROWS = [{"id": i, "nm": f"cat{i % 4}"} for i in range(9)]
FLAG_ROWS = [{"id": i, "nm": f"flag{i % 2}"} for i in range(7)]


def build_mediator(
    bind_batch_size: int = 256, no_groupby: bool = False, answer_cache=None, sql: bool = False
):
    """Two Person sources (members of the implicit ``person`` extent) plus a
    ``dept0`` collection co-hosted with person0 for join queries, plus a pair
    of *colliding* extents (``cat0``/``flag0`` both call their source column
    ``nm`` but map it to different mediator attributes) so the generator can
    produce queries whose submits each need their own extent's map.

    Also on board: a file-backed CSV source (``note0``, get/project only) and
    a WAIS-like keyword-search source (``report0``, non-composing get/select),
    so the sweep covers the weakest wrappers' compensation paths.

    ``bind_batch_size`` is swept by the seeds (1/2/3/256) so the nightly run
    exercises batched probe joins at every batch-boundary shape: per-binding
    degeneration, mid-batch flushes, and one-call whole-side batches.
    ``no_groupby`` strips the ``groupby`` terminal from both relational
    wrappers, so grouped queries degrade and are compensated by mediator-side
    (partial) aggregation instead of pushing ``GROUP BY`` to the source.

    ``sql`` puts ``w0``'s four tables in a :class:`SqlEngine` behind a
    :class:`SqlWrapper`, so what ``w0`` is pushed crosses the boundary as SQL
    text (``no_groupby`` then strips ``groupby`` from the SQL wrapper's own
    terminals)."""
    engine0 = (SqlEngine if sql else RelationalEngine)(name="db0")
    engine0.create_table(
        "person0",
        schema=TableSchema.of(("id", int), ("name", str), ("salary", int)),
        rows=[
            {"id": i, "name": NAMES[i % len(NAMES)], "salary": i % 7} for i in range(12)
        ]
        # Literal syntax on every seed: a partial answer embeds delivered rows
        # as OQL text, and the harness re-parses it (a negative number, and a
        # name holding both a backslash and a double quote).
        + [{"id": 12, "name": 'o\\"neil', "salary": -3}]
        # One nil join key per side on every seed: ``=`` is nil-rejecting, so
        # the pair must not join whether the join runs at the source (pushed),
        # as a probe, or at the mediator (bind / hash / nested loop).
        + [{"id": None, "name": "nobody", "salary": 2}],
    )
    engine0.create_table(
        "dept0",
        schema=TableSchema.of(("id", int), ("dname", str)),
        rows=[{"id": i, "dname": f"d{i % 3}"} for i in range(8)]
        + [{"id": None, "dname": "dnil"}],
    )
    engine0.create_table(
        "t_cat",
        schema=TableSchema.of(("id", int), ("nm", str)),
        rows=[dict(row) for row in CAT_ROWS],
    )
    engine0.create_table(
        "t_flag",
        schema=TableSchema.of(("id", int), ("nm", str)),
        rows=[dict(row) for row in FLAG_ROWS],
    )
    engine1 = RelationalEngine(name="db1")
    engine1.create_table(
        "person1",
        schema=TableSchema.of(("id", int), ("name", str), ("salary", int)),
        rows=[
            {"id": i, "name": NAMES[(i + 2) % len(NAMES)], "salary": (i + 3) % 9}
            for i in range(10)
        ],
    )
    csv_store = CsvStore(_CSV_DIR)
    csv_store.write_collection(
        "note0",
        [{"id": i, "tag": f"t{i % 3}"} for i in range(6)],
        overwrite=True,
    )
    text_store = TextStore("wais")
    text_store.create_collection("report0")
    text_store.add_documents(
        "report0",
        [
            Document(f"d{i}", f"reading {i}", {"site": f"s{i % 3}", "value": i})
            for i in range(7)
        ],
    )
    server0 = SimulatedServer(name="host0", store=engine0)
    server1 = SimulatedServer(name="host1", store=engine1)
    server2 = SimulatedServer(name="host2", store=csv_store)
    server3 = SimulatedServer(name="host3", store=text_store)
    capabilities = (
        CapabilitySet.of(*(op for op in PUSHABLE_OPERATORS if op != "groupby"))
        if no_groupby
        else None
    )
    mediator = Mediator(
        name="diff", bind_batch_size=bind_batch_size, answer_cache=answer_cache
    )
    if sql:
        wrapper0 = SqlWrapper("w0", server0, capabilities=capabilities)
    else:
        wrapper0 = RelationalWrapper("w0", server0, capabilities=capabilities)
    mediator.register_wrapper("w0", wrapper0)
    mediator.register_wrapper(
        "w1", RelationalWrapper("w1", server1, capabilities=capabilities)
    )
    mediator.register_wrapper("w2", CsvWrapper("w2", server2))
    mediator.register_wrapper("w3", TextSearchWrapper("w3", server3))
    mediator.create_repository("r0")
    mediator.create_repository("r1")
    mediator.define_interface(
        "Person",
        [("id", "Long"), ("name", "String"), ("salary", "Short")],
        extent_name="person",
    )
    mediator.define_interface(
        "Dept", [("id", "Long"), ("dname", "String")], extent_name="dept"
    )
    mediator.add_extent("person0", "Person", "w0", "r0")
    mediator.add_extent("person1", "Person", "w1", "r1")
    mediator.add_extent("dept0", "Dept", "w0", "r0")
    mediator.define_interface(
        "Cat", [("id", "Long"), ("cat", "String")], extent_name="cats"
    )
    mediator.define_interface(
        "Flag", [("id", "Long"), ("flag", "String")], extent_name="flags"
    )
    mediator.add_extent(
        "cat0",
        "Cat",
        "w0",
        "r0",
        map=LocalTransformationMap.from_pairs([("t_cat", "cat0"), ("nm", "cat")]),
    )
    mediator.add_extent(
        "flag0",
        "Flag",
        "w0",
        "r0",
        map=LocalTransformationMap.from_pairs([("t_flag", "flag0"), ("nm", "flag")]),
    )
    mediator.create_repository("r2")
    mediator.create_repository("r3")
    mediator.define_interface(
        "Note", [("id", "Long"), ("tag", "String")], extent_name="note"
    )
    mediator.define_interface(
        "Report",
        [("doc_id", "String"), ("body", "String"), ("site", "String"), ("value", "Long")],
        extent_name="report",
    )
    mediator.add_extent("note0", "Note", "w2", "r2")
    mediator.add_extent("report0", "Report", "w3", "r3")
    return mediator, [server0, server1, server2, server3]


def random_query(rng: random.Random) -> tuple[str, int | None]:
    """One random OQL query; returns (text-without-limit, limit-or-None)."""
    roll = rng.random()
    if roll < 0.12:  # colliding schema: both extents' source column is "nm"
        item = rng.choice(
            ["struct(c: x.cat, f: y.flag)", "x.cat", "struct(i: x.id, f: y.flag)"]
        )
        text = f"select {item} from x in cat0 and y in flag0 where x.id = y.id"
        if rng.random() < 0.4:
            text += f" and x.id > {rng.randint(0, 5)}"
    elif roll < 0.28:  # bind-join over co-hosted and cross-source extents
        # With the equi condition pushed into the bind join these plan as
        # batched probe joins, so the sweep covers in-list probing (and its
        # per-binding degeneration when the mediator's batch size is 1).
        right = rng.choice(["dept0", "person1"])
        if right == "dept0":
            item = rng.choice(["x.name", "struct(n: x.name, d: y.dname)", "y.dname"])
        else:
            item = rng.choice(["x.name", "struct(a: x.name, b: y.name)"])
        text = f"select {item} from x in person0 and y in {right} where x.id = y.id"
        if rng.random() < 0.5:
            text += f" and x.salary > {rng.randint(0, 6)}"
    elif roll < 0.36:  # three bindings: probe chains threading environments
        item = rng.choice(
            [
                "struct(n: x.name, d: y.dname, b: z.name)",
                "x.name",
                "struct(d: y.dname, b: z.name)",
            ]
        )
        text = (
            f"select {item} from x in person0 and y in dept0 and z in person1 "
            "where x.id = y.id and y.id = z.id"
        )
        if rng.random() < 0.4:
            text += f" and x.salary > {rng.randint(0, 6)}"
    elif roll < 0.58:  # grouping & aggregation: pushdown, union combine, degrade
        collection = rng.choice(["person0", "person1", "person", "person"])
        aggregate = rng.choice(
            [
                "count(x)",
                "count(x.salary)",
                "sum(x.salary)",
                "min(x.id)",
                "max(x.id)",
                "avg(x.salary)",
            ]
        )
        where = ""
        if rng.random() < 0.4:
            where = f" where x.id {rng.choice(['>', '<='])} {rng.randint(0, 8)}"
        if rng.random() < 0.7:
            key_name, key_expr = rng.choice([("s", "x.salary"), ("n", "x.name")])
            text = (
                f"select struct({key_name}: {key_expr}, a: {aggregate}) "
                f"from x in {collection}{where} group by {key_name}: {key_expr}"
            )
        else:  # keyless: one summary row, even over empty input
            text = f"select {aggregate} from x in {collection}{where}"
    elif roll < 0.70:  # weakest wrappers: csv (get/project), non-composing textsearch
        if rng.random() < 0.5:
            item = rng.choice(["x", "x.tag", "struct(i: x.id, t: x.tag)"])
            text = f"select {item} from x in note0"
            if rng.random() < 0.4:
                # csv has no ``select``: the predicate is compensated above.
                text += f" where x.id > {rng.randint(0, 4)}"
        else:
            item = rng.choice(["x.doc_id", "struct(d: x.doc_id, s: x.site)"])
            text = f"select {item} from x in report0"
            if rng.random() < 0.5:
                text += rng.choice(
                    [' where x.site = "s1"', f" where x.value > {rng.randint(0, 4)}"]
                )
    else:
        collection = rng.choice(["person0", "person1", "person", "person"])
        item = rng.choice(
            ["x", "x.name", "x.salary", "struct(n: x.name, s: x.salary)"]
        )
        distinct = "distinct " if rng.random() < 0.3 else ""
        text = f"select {distinct}{item} from x in {collection}"
        if rng.random() < 0.6:
            # ``salary + 1``: a computed operand, which SQL cannot write, so a
            # SQL source must leave the select to the mediator.
            attribute = rng.choice(["salary", "id", "salary + 1"])
            op = rng.choice([">", "<", ">=", "="])
            text += f" where x.{attribute} {op} {rng.randint(0, 8)}"
    limit = rng.randint(0, 12) if rng.random() < 0.4 else None
    return text, limit


def canon(value):
    """Hashable, order-insensitive canonical form of one answer element."""
    if isinstance(value, (Struct, Mapping)):
        return (
            "struct",
            tuple(sorted((key, canon(item)) for key, item in dict(value).items())),
        )
    if isinstance(value, (Bag, list, tuple)):
        return ("bag", tuple(sorted((canon(item) for item in value), key=repr)))
    return ("value", repr(value))


def multiset(rows) -> Counter:
    return Counter(canon(row) for row in rows)


def assert_collapsed(plan) -> None:
    """Each maximal submit-free subtree of a partial plan is one ``Bag``."""
    if not submits_in(plan):
        assert isinstance(plan, BagLiteral), plan.to_text()
    elif not isinstance(plan, Submit):
        for child in plan.children():
            assert_collapsed(child)


def report_shape(reports) -> dict:
    """Per-call attempt accounting, comparable across the two engines.

    Cancelled calls are excluded (a satisfied streaming limit may write off
    a call the barrier engine ran to completion); everything else must agree
    on how many wrapper attempts were made.
    """
    shape: dict = {}
    for report in reports:
        if report.cancelled:
            continue
        shape[report.extent_name, report.expression] = report.attempts
    return shape


#: per seed of ``test_engines_agree``: its fault scenario ("clean", "outage"
#: or "kill") and whether either engine re-planned a probe join into a ship.
SWEPT: dict[int, tuple[str, bool]] = {}


@pytest.mark.parametrize("seed", SEEDS)
def test_engines_agree(seed):
    rng = random.Random(seed)
    mediator, servers = build_mediator(
        bind_batch_size=rng.choice([1, 2, 3, 256]),
        # A quarter of the sweep strips the relational wrappers' ``groupby``
        # terminal: grouped queries then degrade and the mediator compensates
        # with (partial) aggregation, which must be answer-identical.
        no_groupby=rng.random() < 0.25,
        # Odd seeds serve ``w0`` from a SQL source (chosen by parity, not by
        # a draw, so every seed keeps its queries and faults).
        sql=seed % 2 == 1,
    )
    try:
        base_text, limit = random_query(rng)
        text = base_text if limit is None else f"{base_text} limit {limit}"
        fault_index = rng.choice([0, 1]) if rng.random() < 0.3 else None
        # Mid-stream fault injection: kill one server's row stream after K
        # rows, with enough retry budget for both engines to recover -- the
        # barrier engine by retrying the whole call, the streaming engine by
        # resuming past the delivered rows.  Kept disjoint from the
        # hard-down scenario so each failure mode is pinned separately.
        kill = None
        if rng.random() < 0.3:
            kill = (rng.choice([0, 1]), rng.randint(0, 8))
            fault_index = None
            mediator.executor.config.max_retries = 2
            mediator.executor.config.retry_backoff = 0.001

        # The fault-free, unlimited answer is the reference every comparison
        # is anchored to (computed before any server goes down).
        reference = multiset(mediator.query(base_text).rows())
        if " and y in dept0" in base_text:
            # Whichever join the optimizer chose for this seed, the two
            # nil-keyed rows did not pair up.
            assert "dnil" not in repr(reference)

        if RUN_THROUGH_SERVER:
            # Serving-layer transparency: the same query submitted through a
            # MediatorServer -- once barrier, once streamed -- must satisfy
            # the same multiset contract as a direct call.  Run before any
            # fault is armed so the injection choreography below is untouched.
            with mediator.serve(workers=2) as query_server:
                served = query_server.submit(text).result(timeout=30)
                served_stream_rows = list(
                    query_server.submit(text, stream=True).rows()
                )
            assert not served.is_partial
            if limit is None:
                assert multiset(served.rows()) == reference
                assert multiset(served_stream_rows) == reference
            else:
                expected = min(limit, sum(reference.values()))
                assert len(served.rows()) == expected
                assert len(served_stream_rows) == expected
                assert not multiset(served.rows()) - reference
                assert not multiset(served_stream_rows) - reference

        if fault_index is not None:
            servers[fault_index].take_down()

        if kill is not None:
            servers[kill[0]].availability.kill_after(kill[1])
        barrier = mediator.query(text)
        barrier_rows = barrier.rows()
        if kill is not None:
            servers[kill[0]].availability.kill_after(kill[1])
        streamed = mediator.query_stream(text)
        streamed_rows = list(streamed.iter_rows())

        faulted = bool(barrier.unavailable_sources)
        if not faulted:
            assert not barrier.is_partial and not streamed.is_partial
            assert streamed.errors() == {} and barrier.errors() == {}
            if limit is None:
                # The headline exactly-once property: a killed-and-recovered
                # stream is indistinguishable from a clean one -- identical
                # complete multiset, no duplicated and no dropped rows.
                assert multiset(barrier_rows) == reference
                assert multiset(streamed_rows) == reference
                if kill is None:
                    # Attempt accounting agrees call for call.  (With a kill
                    # armed, *which* concurrent call to the server consumes it
                    # is scheduling-dependent, so per-call shapes may differ.)
                    assert report_shape(streamed.reports) == report_shape(
                        barrier.reports
                    )
                else:
                    # A streaming recovery never re-delivers: any replayed
                    # rows were dropped at the mediator, and a resumed call
                    # reports the recovery.
                    for report in streamed.reports:
                        if report.resumed_calls:
                            assert report.available and not report.cancelled
            else:
                expected = min(limit, sum(reference.values()))
                assert len(barrier_rows) == expected
                assert len(streamed_rows) == expected
                # Any n rows of the full answer are a correct limited answer.
                assert not multiset(barrier_rows) - reference
                assert not multiset(streamed_rows) - reference
        else:
            # Barrier shape: a resubmittable partial answer, no rows.
            assert barrier.is_partial and barrier_rows == []
            assert barrier.partial_query is not None
            from repro.oql.parser import parse_query

            parse_query(barrier.partial_query)  # the answer *is* a query
            assert_collapsed(barrier.partial_plan)
            assert barrier.partial_query == logical_to_oql(barrier.partial_plan)
            if limit is None:
                # Once the source recovers, resubmitting the partial answer
                # yields exactly the full answer.
                for server in servers:
                    server.bring_up()
                resubmitted = mediator.resubmit(barrier)
                assert multiset(resubmitted.rows()) == reference
                if fault_index is not None:
                    servers[fault_index].take_down()
            if limit is None:
                # Streaming shape: available sources' rows plus the same
                # failure report.
                assert streamed.is_partial
                assert set(streamed.unavailable_sources) == set(
                    barrier.unavailable_sources
                )
                assert set(streamed.errors()) == set(barrier.errors())
                assert report_shape(streamed.reports) == report_shape(barrier.reports)
                assert not multiset(streamed_rows) - reference
            else:
                # A satisfied limit may cancel the failing branch first, in
                # which case the stream completes; otherwise it must report
                # the same failures the barrier engine saw.
                assert len(streamed_rows) <= limit
                assert not multiset(streamed_rows) - reference
                if streamed.is_partial:
                    assert set(streamed.unavailable_sources) <= set(
                        barrier.unavailable_sources
                    )
                else:
                    assert len(streamed_rows) == min(limit, len(streamed_rows))
        scenario = "outage" if fault_index is not None else "clean" if kill is None else "kill"
        replanned = any(report.replanned for report in (*barrier.reports, *streamed.reports))
        SWEPT[seed] = (scenario, replanned)
    finally:
        mediator.close()


#: the seeds the sweep check needs whatever ``SEEDS`` holds: the first seed
#: that re-plans a probe join under an outage is seed 36
REPLAN_SEEDS = range(64)


def test_the_sweep_compares_replanned_probe_joins():
    """The seeds keep the probe join's flip to a ship under comparison: at
    least one seed re-plans on the happy path and one under an outage.  Seeds
    this pytest run skipped (a selected subset, or a sweep narrower than
    :data:`REPLAN_SEEDS`) are run here."""
    for seed in (*SEEDS, *REPLAN_SEEDS):
        if seed not in SWEPT:
            test_engines_agree(seed)
    flipped = {scenario for scenario, replanned in SWEPT.values() if replanned}
    assert {"clean", "outage"} <= flipped


def test_resubmitted_distinct_deduplicates_across_union_branches():
    """Regression (found by the 1000-seed sweep): ``distinct`` must stay
    *above* the union in a partial answer.  Distributing it per branch let a
    name present in both the embedded data and the recovered source survive
    resubmission twice."""
    mediator, servers = build_mediator()
    try:
        query = "select distinct x.name from x in person where x.id >= 3"
        reference = multiset(mediator.query(query).rows())
        servers[1].take_down()
        partial = mediator.query(query)
        assert partial.is_partial
        servers[1].bring_up()
        resubmitted = mediator.resubmit(partial)
        assert multiset(resubmitted.rows()) == reference
        # The text round trip deduplicates too: the answer *is* a query.
        assert multiset(mediator.query(partial.partial_query).rows()) == reference
    finally:
        mediator.close()


#: per wrapper kind of the harness federation: the extent, the attributes a
#: projecting view over it keeps, the one it projects away, and a selection
#: over the view (``y`` ranges over the view)
VIEWED_EXTENTS = {
    "relational": ("person0", ("id", "name"), "salary", "y.id > 3"),
    "sql": ("person0", ("id", "name"), "salary", "y.id > 3"),
    "csv": ("note0", ("id",), "tag", "y.id > 2"),
    "text-search": ("report0", ("doc_id", "site"), "value", 'y.site = "s1"'),
}


@pytest.mark.parametrize("entry", ["query", "query_stream"])
@pytest.mark.parametrize("read", ["projection", "selection"])
@pytest.mark.parametrize("kind", sorted(VIEWED_EXTENTS))
def test_a_projecting_view_answers_as_over_a_get_only_extent(kind, read, entry):
    """Whatever a wrapper is pushed of a projecting view read through a
    projection or a selection, the answer is whole and equals the same query
    over a get-only extent that holds the same data (where every operator
    runs at the mediator).  The projection also reads back the attribute the
    view projected away, which is nil in every row."""
    from repro.baselines.no_pushdown import GetOnlyWrapper

    mediator, _servers = build_mediator(sql=kind == "sql")
    extent, kept, dropped, predicate = VIEWED_EXTENTS[kind]
    try:
        meta = mediator.registry.extent(extent)
        mediator.register_wrapper("wg", GetOnlyWrapper(mediator.registry.wrapper_object(meta.wrapper)))
        mediator.add_extent(
            f"{extent}g", meta.interface, "wg", meta.repository.name, source_collection=meta.source_name()
        )
        answers = []
        for over in (extent, f"{extent}g"):
            fields = ", ".join(f"{name}: x.{name}" for name in kept)
            mediator.define_view(f"v_{over}", f"select struct({fields}) from x in {over}")
            if read == "projection":
                fields = ", ".join(f"{name}: y.{name}" for name in (*kept, dropped))
                text = f"select struct({fields}) from y in v_{over}"
            else:
                text = f"select y from y in v_{over} where {predicate}"
            result = getattr(mediator, entry)(text)
            rows = list(result.iter_rows()) if entry == "query_stream" else result.rows()
            assert not result.is_partial, (over, result.errors())
            if read == "projection":
                assert all(row[dropped] is None for row in rows)
            answers.append(multiset(rows))
        assert answers[0] == answers[1]
        assert sum(answers[0].values()) > 0
    finally:
        mediator.close()


# -- the answer-cache axis -------------------------------------------------------------------
@pytest.mark.parametrize("seed", CACHE_SEEDS)
def test_cache_on_answers_match_cache_off(seed):
    """Cache transparency: a mediator with the answer cache on must answer
    exactly like one with it off, across warm repeats, subsumed variants,
    DBA schema mutations, and injected faults.  The one sanctioned
    asymmetry: when a source is down, the cached mediator may serve the
    complete answer it already has (serve-during-outage, the point of the
    cache) where the uncached one degrades to a partial answer -- in which
    case the cached rows must equal the fault-free reference.  One query in
    three goes through ``query_stream`` on the cached side: a streamed
    execution delivers rows as sources answer, so it is held to the
    streaming contract (a subset of the reference, all of it when complete)."""
    from repro import AnswerCache

    rng = random.Random(31_000 + seed)
    stream_rng = random.Random(47_000 + seed)  # leaves rng's draws as they were
    down: set[str] = set()  #: the extents of the server the fault phase takes down
    params = dict(
        bind_batch_size=rng.choice([1, 2, 3, 256]),
        no_groupby=rng.random() < 0.25,
        sql=seed % 2 == 1,
    )
    plain, plain_servers = build_mediator(**params)
    cached, cached_servers = build_mediator(**params, answer_cache=AnswerCache())

    def check(text, limit, reference):
        full = text if limit is None else f"{text} limit {limit}"
        off = plain.query(full)
        streamed = stream_rng.random() < 1 / 3
        on = (cached.query_stream if streamed else cached.query)(full)
        off_rows, on_rows = off.rows(), on.rows()
        if streamed and not on.from_answer_cache:
            assert not multiset(on_rows) - reference
            if on.is_partial:
                assert set(on.unavailable_sources) <= set(off.unavailable_sources)
            elif limit is None:
                assert multiset(on_rows) == reference
            else:
                assert len(on_rows) == min(limit, sum(reference.values()))
        elif off.is_partial and on.is_partial:
            # Identical partial-answer shape: same missing extents, no rows.
            # A patched answer may name more, never fewer: a patch runs the
            # stored partial plan, whose bind join calls a probe side that
            # the uncached probe join, its left input failed, never opens.
            # Either way each side names only extents that are down.
            assert off_rows == [] and on_rows == []
            assert set(off.unavailable_sources) <= set(on.unavailable_sources)
            if not on.from_answer_cache:
                assert set(on.unavailable_sources) == set(off.unavailable_sources)
            assert off.unavailable_sources
            assert set(on.unavailable_sources) | set(off.unavailable_sources) <= down
        elif not off.is_partial and not on.is_partial:
            if limit is None:
                assert multiset(on_rows) == multiset(off_rows)
            else:
                assert len(on_rows) == len(off_rows)
                assert not multiset(on_rows) - reference
                assert not multiset(off_rows) - reference
        else:
            # Serve-during-outage: only the cached side may stay complete.
            assert off.is_partial and not on.is_partial
            assert on.from_answer_cache
            if limit is None:
                assert multiset(on_rows) == reference
            else:
                assert len(on_rows) == min(limit, sum(reference.values()))
                assert not multiset(on_rows) - reference

    try:
        queries = []
        for _ in range(3):
            text, limit = random_query(rng)
            queries.append((text, limit, multiset(plain.query(text).rows())))

        # Warm, then repeat (exact hits) and a subsumed limit variant.
        for text, limit, reference in queries:
            check(text, limit, reference)
        for text, limit, reference in queries:
            check(text, limit, reference)
            check(text, rng.randint(0, 12), reference)

        # DBA mutation on both sides: answers unchanged, cache invalidated.
        plain.define_interface("Mut", [("id", "Long")], extent_name="muts")
        cached.define_interface("Mut", [("id", "Long")], extent_name="muts")
        for text, limit, reference in queries:
            check(text, limit, reference)

        # Fault injection, mirrored: repeats under the fault, then recovery
        # (the cached side patches partial entries; answers must still agree).
        fault_index = rng.choice([0, 1])
        plain_servers[fault_index].take_down()
        cached_servers[fault_index].take_down()
        down.update(
            meta.name for meta in plain.registry.extents() if meta.wrapper == f"w{fault_index}"
        )
        for text, limit, reference in queries:
            check(text, limit, reference)
            check(text, limit, reference)
        plain_servers[fault_index].bring_up()
        cached_servers[fault_index].bring_up()
        down.clear()
        for text, limit, reference in queries:
            check(text, limit, reference)

        stats = cached.statistics()
        assert stats["answer_cache_hits"] + stats["answer_cache_subsumption_hits"] > 0
    finally:
        plain.close()
        cached.close()


# -- colliding source attributes (answers checked against the tables) -------------------------
#: the nightly sweep widens this with ``SEEDS``
COLLIDING_SEEDS = range(max(13, len(SEEDS) // 8))


def colliding_query(rng: random.Random) -> tuple[str, list]:
    """One query over ``cat0``/``flag0`` and its answer, computed from the
    source tables rather than by the mediator."""
    cats = {row["id"]: row["nm"] for row in CAT_ROWS}
    flags = {row["id"]: row["nm"] for row in FLAG_ROWS}
    floor = rng.randint(0, 5)
    shape = rng.choice(["join", "cat", "flag"])
    if shape == "join":
        text = (
            "select struct(c: x.cat, f: y.flag) from x in cat0 and y in flag0 "
            f"where x.id = y.id and x.id > {floor}"
        )
        expected = [Struct({"c": cats[i], "f": flags[i]}) for i in cats if i in flags and i > floor]
    elif shape == "cat":
        wanted = f"cat{floor % 4}"
        text = f'select x.id from x in cat0 where x.cat = "{wanted}"'
        expected = [i for i, name in cats.items() if name == wanted]
    else:
        text = f"select struct(i: y.id, f: y.flag) from y in flag0 where y.id < {floor}"
        expected = [Struct({"i": i, "f": name}) for i, name in flags.items() if i < floor]
    return text, expected


@pytest.mark.parametrize("sql", [False, True], ids=["relational", "sql"])
@pytest.mark.parametrize("seed", COLLIDING_SEEDS)
def test_colliding_source_attributes_keep_each_extents_vocabulary(seed, sql):
    """``cat0`` and ``flag0`` share a host and both call a source column
    ``nm``.  Each submit is written with its own extent's map, so both engines
    answer in mediator names with exactly the rows the tables hold; an outage
    of the shared host is reported alike, and resubmitting the partial answer
    once the host is back gives the full answer."""
    rng = random.Random(91_000 + seed)
    mediator, servers = build_mediator(bind_batch_size=rng.choice([1, 2, 3, 256]), sql=sql)
    try:
        text, expected = colliding_query(rng)
        reference = multiset(expected)
        # The first run teaches the planner the cardinalities that both
        # engines then plan with, as ``test_engines_agree``'s reference does.
        assert multiset(mediator.query(text).rows()) == reference
        if rng.random() < 0.25:
            servers[0].take_down()
            barrier = mediator.query(text)
            streamed = mediator.query_stream(text)
            assert list(streamed.iter_rows()) == []
            assert barrier.is_partial and streamed.is_partial
            assert set(barrier.unavailable_sources) <= {"cat0", "flag0"}
            assert set(streamed.unavailable_sources) == set(barrier.unavailable_sources) != set()
            assert report_shape(streamed.reports) == report_shape(barrier.reports)
            servers[0].bring_up()
            assert multiset(mediator.resubmit(barrier).rows()) == reference
        else:
            barrier = mediator.query(text)
            streamed = mediator.query_stream(text)
            assert multiset(barrier.rows()) == reference
            assert multiset(streamed.iter_rows()) == reference
            assert not barrier.is_partial and not streamed.is_partial
            assert report_shape(streamed.reports) == report_shape(barrier.reports)
    finally:
        mediator.close()
