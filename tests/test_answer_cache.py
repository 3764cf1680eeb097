"""The semantic answer cache: hits, subsumption, staleness, repair, safety.

Covers the cache's whole contract surface: exact hits with zero wrapper
calls, subsumption hits for every supported delta (limit / select /
project / distinct / appended conjunct), the refusal cases (aggregates,
environment items, foreign-variable and subquery predicates),
``schema_version`` invalidation (lazy and eager), LRU eviction under the
row budget, partial-answer patch-on-recovery (the DISCO twist), the
mutate-before- and mutate-during-patch staleness races, thread safety under a client
fleet, and the statistics counters.  The dynamic cross-check -- cache-on
answers multiset-equal to cache-off over random workloads -- lives in the
differential harness (``tests/test_engine_equivalence.py``).
"""

from __future__ import annotations

import random
import threading
from types import SimpleNamespace

import pytest

from repro import AnswerCache, Mediator, RelationalWrapper
from repro.algebra import logical as log
from repro.algebra.expressions import Comparison, Const, FunctionCall, Path, Var
from repro.errors import SchemaError
from repro.runtime import answercache
from repro.sources import RelationalEngine, SimulatedServer, TableSchema

from benchmarks.spine.workloads import templates, zipfian_ops
from tests.conftest import CountedKey, build_person_federation
from tests.test_engine_equivalence import build_mediator, multiset


def make_mediator(answer_cache=None, rows: int = 12):
    """One relational Person source under a cache-carrying mediator."""
    engine = RelationalEngine(name="db0")
    engine.create_table(
        "person0",
        schema=TableSchema.of(("id", int), ("name", str), ("salary", int)),
        rows=[
            {"id": i, "name": f"p{i % 5}", "salary": i % 7} for i in range(rows)
        ],
    )
    server = SimulatedServer(name="host0", store=engine)
    mediator = Mediator(name="cache-test", answer_cache=answer_cache)
    mediator.register_wrapper("w0", RelationalWrapper("w0", server))
    mediator.create_repository("r0")
    mediator.define_interface(
        "Person",
        [("id", "Long"), ("name", "String"), ("salary", "Short")],
        extent_name="person",
    )
    mediator.add_extent("person0", "Person", "w0", "r0")
    return mediator, server


# -- exact hits -----------------------------------------------------------------------
def test_exact_hit_serves_without_touching_the_source():
    mediator, server = make_mediator(answer_cache=True)
    try:
        query = "select x.name from x in person0 where x.salary > 2"
        first = mediator.query(query)
        assert not first.from_answer_cache
        calls = server.statistics.requests
        # Formatting variants share the canonical key, like the plan cache.
        second = mediator.query("select   x.name from x in person0 where x.salary > 2")
        assert second.from_answer_cache
        assert server.statistics.requests == calls  # zero wrapper calls
        assert multiset(second.rows()) == multiset(first.rows())
        stats = mediator.statistics()
        assert stats["answer_cache_hits"] == 1
        assert stats["answer_cache_misses"] == 1
    finally:
        mediator.close()


def test_query_stream_serves_exact_hits_materialized():
    mediator, server = make_mediator(answer_cache=True)
    try:
        query = "select x from x in person0"
        reference = multiset(mediator.query(query).rows())
        calls = server.statistics.requests
        streamed = mediator.query_stream(query)
        assert streamed.from_answer_cache
        assert multiset(list(streamed.iter_rows())) == reference
        assert server.statistics.requests == calls
    finally:
        mediator.close()


# -- subsumption hits ------------------------------------------------------------------
@pytest.mark.parametrize(
    "narrower",
    [
        "select x from x in person0 limit 4",
        "select x from x in person0 where x.salary > 3",
        "select x.name from x in person0",
        "select distinct x.name from x in person0",
        "select struct(n: x.name, s: x.salary) from x in person0",
    ],
)
def test_subsumption_serves_deltas_from_a_cached_broad_query(narrower):
    cached_mediator, cached_server = make_mediator(answer_cache=True)
    plain_mediator, _plain_server = make_mediator(answer_cache=None)
    try:
        cached_mediator.query("select x from x in person0")  # the superset
        calls = cached_server.statistics.requests
        served = cached_mediator.query(narrower)
        assert served.from_answer_cache
        assert cached_server.statistics.requests == calls  # replayed locally
        reference = plain_mediator.query(narrower)
        if "limit" in narrower:
            full = multiset(plain_mediator.query("select x from x in person0").rows())
            assert len(served.rows()) == len(reference.rows())
            assert not multiset(served.rows()) - full
        else:
            assert multiset(served.rows()) == multiset(reference.rows())
        assert cached_mediator.statistics()["answer_cache_subsumption_hits"] == 1
    finally:
        cached_mediator.close()
        plain_mediator.close()


def test_subsumption_serves_an_appended_conjunct_from_a_cached_selection():
    mediator, server = make_mediator(answer_cache=True)
    try:
        mediator.query("select x from x in person0 where x.salary > 2")
        calls = server.statistics.requests
        served = mediator.query(
            "select x from x in person0 where x.salary > 2 and x.id > 5"
        )
        assert served.from_answer_cache
        assert server.statistics.requests == calls
        expected = [
            row
            for row in mediator.query("select x from x in person0").rows()
            if dict(row)["salary"] > 2 and dict(row)["id"] > 5
        ]
        assert multiset(served.rows()) == multiset(expected)
    finally:
        mediator.close()


def test_a_subsumption_hit_promotes_itself_to_an_exact_entry():
    mediator, _server = make_mediator(answer_cache=True)
    try:
        mediator.query("select x from x in person0")
        mediator.query("select x from x in person0 limit 3")  # subsumption
        mediator.query("select x from x in person0 limit 3")  # now exact
        stats = mediator.statistics()
        assert stats["answer_cache_subsumption_hits"] == 1
        assert stats["answer_cache_hits"] == 1
    finally:
        mediator.close()


# -- refusals --------------------------------------------------------------------------
BASE = log.Submit("r0", log.Get("person0"), extent_name="person0")


def seeded_cache() -> AnswerCache:
    cache = AnswerCache()
    cache.hold(SimpleNamespace(schema_version=3))
    cache.store_complete(
        "select x from x in person0", BASE, 3, ({"id": 1, "salary": 2},)
    )
    return cache


def test_refuses_aggregates_as_deltas():
    cache = seeded_cache()
    grouped = log.GroupBy("x", (), (("a", "count", Var("x")),), BASE)
    assert cache.find_subsumer(grouped, 3) is None
    aggregated_item = log.Apply(
        "x", FunctionCall("count", (Path(Var("x"), "id"),)), BASE
    )
    assert cache.find_subsumer(aggregated_item, 3) is None


def test_refuses_non_subsumable_predicates_and_items():
    cache = seeded_cache()
    foreign = log.Select("x", Comparison(">", Path(Var("y"), "id"), Const(1)), BASE)
    assert cache.find_subsumer(foreign, 3) is None
    env_item = log.Apply("_env", Path(Var("x"), "name"), BASE)
    assert cache.find_subsumer(env_item, 3) is None


def test_a_limit_delta_stops_the_replay_instead_of_filtering_the_whole_superset():
    """The deltas run as one pipeline over the cached rows: a ``limit`` above
    a ``select`` ends it after three matches, not after 10 000 predicates."""
    engine = RelationalEngine(name="db0")
    engine.create_table("person0", rows=[{"id": i, "k": CountedKey(i)} for i in range(10_000)])
    mediator = Mediator(name="lazy-replay", answer_cache=True)
    mediator.register_wrapper("w0", RelationalWrapper("w0", SimulatedServer(name="h0", store=engine)))
    mediator.create_repository("r0")
    mediator.define_interface("Person", [("id", "Long"), ("k", "Long")], extent_name="person")
    mediator.add_extent("person0", "Person", "w0", "r0")
    try:
        assert len(mediator.query("select x from x in person0").rows()) == 10_000
        CountedKey.comparisons = 0
        narrower = mediator.query("select x from x in person0 where x.id != 1 and x.k != 1 limit 3")
        assert narrower.from_answer_cache
        assert mediator.statistics()["answer_cache_subsumption_hits"] == 1
        assert [row["id"] for row in narrower.rows()] == [0, 2, 3]
        assert CountedKey.comparisons <= 4  # not one per cached row
    finally:
        mediator.close()


def test_aggregate_queries_still_get_exact_hits():
    mediator, server = make_mediator(answer_cache=True)
    try:
        query = "select sum(x.salary) from x in person0"
        first = mediator.query(query)
        calls = server.statistics.requests
        second = mediator.query(query)
        assert second.from_answer_cache
        assert server.statistics.requests == calls
        assert multiset(second.rows()) == multiset(first.rows())
    finally:
        mediator.close()


# -- invalidation ----------------------------------------------------------------------
def test_schema_version_change_invalidates_entries():
    mediator, server = make_mediator(answer_cache=True)
    try:
        query = "select x from x in person0"
        mediator.query(query)
        mediator.define_interface("Other", [("id", "Long")], extent_name="others")
        calls = server.statistics.requests
        refreshed = mediator.query(query)
        assert not refreshed.from_answer_cache
        assert server.statistics.requests > calls
        assert mediator.statistics()["answer_cache_invalidations"] >= 1
    finally:
        mediator.close()


def test_a_lookup_under_an_older_version_keeps_a_newer_entry():
    """A query that read the version before a concurrent DBA change looks up
    under the old one: it misses, and the entry another client stored under
    the new version stays for the lookups that read it.  A store built under
    a version that moved is refused, whichever entry point made it."""
    registry = SimpleNamespace(schema_version=2)
    cache = AnswerCache()
    cache.hold(registry)
    rows = [{"id": 1}]
    assert not cache.store_complete("k", None, 1, rows)  # built before the change
    assert cache.store_complete("k", None, 2, rows)
    assert cache.get_exact("k", 1) is None
    entry = cache.get_exact("k", 2)
    assert entry is not None and list(entry.rows) == rows
    assert cache.invalidations == 0
    registry.schema_version = 3
    assert cache.get_exact("k", 3) is None
    assert len(cache) == 0 and cache.invalidations == 1
    assert not cache.store_complete("k", None, 2, rows)
    assert not cache.store_partial("k", 2, BASE)
    assert not cache.store("k", None, 2, SimpleNamespace(is_partial=False, rows=lambda: rows))
    assert len(cache) == 0 and cache.stores == 1

def test_extent_reregistration_evicts_eagerly():
    """Not only the entry looked up: the first lookup after the change drops
    every stale one."""
    mediator, _server = make_mediator(answer_cache=True)
    try:
        mediator.query("select x from x in person0")
        assert len(mediator.answer_cache) == 1
        mediator.drop_extent("person0")
        mediator.answer_cache.get_exact("another key", mediator.registry.schema_version)
        assert len(mediator.answer_cache) == 0
        assert mediator.statistics()["answer_cache_invalidations"] >= 1
    finally:
        mediator.close()


def test_lru_eviction_under_the_row_budget(monkeypatch):
    monkeypatch.setattr(answercache, "MAX_CACHED_ROWS", 30)
    cache = AnswerCache(max_entries=128)
    mediator, _server = make_mediator(answer_cache=cache, rows=12)
    try:
        mediator.query("select x from x in person0")  # 12 rows
        mediator.query("select x.name from x in person0")  # 12 rows
        mediator.query("select x.id from x in person0")  # 12 rows -> evicts
        stats = cache.stats()
        assert stats["evictions"] >= 1
        assert stats["rows"] <= 30
        # The coldest entry went; the newest survives as an exact hit.
        served = mediator.query("select x.id from x in person0")
        assert served.from_answer_cache
    finally:
        mediator.close()


def test_oversized_answers_are_never_stored(monkeypatch):
    monkeypatch.setattr(answercache, "MAX_CACHED_ROWS", 5)
    cache = AnswerCache()
    mediator, _server = make_mediator(answer_cache=cache, rows=12)
    try:
        mediator.query("select x from x in person0")
        assert len(cache) == 0
        assert not mediator.query("select x from x in person0").from_answer_cache
    finally:
        mediator.close()


# -- partial answers: patch-on-recovery ------------------------------------------------
def test_partial_answer_patch_recontacts_only_the_missing_extent():
    mediator, servers = build_mediator(answer_cache=True)
    try:
        query = "select x.name from x in person"
        reference = multiset(mediator.query(query).rows())
        mediator.define_interface("Bump", [("id", "Long")], extent_name="bumps")
        servers[1].take_down()
        partial = mediator.query(query)
        assert partial.is_partial
        servers[1].bring_up()
        healthy_calls = servers[0].statistics.requests
        patched = mediator.query(query)
        assert patched.from_answer_cache
        assert not patched.is_partial
        assert servers[0].statistics.requests == healthy_calls  # only person1 ran
        assert multiset(patched.rows()) == reference
        assert mediator.statistics()["answer_cache_patches"] == 1
        # The repaired answer is now a complete entry: next query is a hit.
        again = mediator.query(query)
        assert again.from_answer_cache
        assert multiset(again.rows()) == reference
    finally:
        mediator.close()


def test_partial_entry_still_partial_when_the_source_stays_down():
    mediator, servers = build_mediator(answer_cache=True)
    try:
        query = "select x.name from x in person"
        servers[1].take_down()
        first = mediator.query(query)
        assert first.is_partial
        second = mediator.query(query)
        assert second.is_partial
        assert set(second.unavailable_sources) == set(first.unavailable_sources)
    finally:
        mediator.close()


def test_partial_patch_is_pinned_to_the_entry_schema_version():
    """Regression: the mutate-between-miss-and-patch race.

    A cached partial answer embeds rows resolved under the schema it was
    built with.  If a DBA mutates the registry before the patch runs, the
    pin must refuse the patch (dropping the entry) and fall back to a full
    run -- never weld old embedded rows onto a new schema's answer.
    """
    mediator, servers = build_mediator(answer_cache=True)
    try:
        query = "select x.name from x in person"
        reference = multiset(mediator.query(query).rows())
        mediator.define_interface("Bump0", [("id", "Long")], extent_name="b0")
        servers[1].take_down()
        partial = mediator.query(query)
        assert partial.is_partial
        # The DBA mutates between the miss and the later patch attempt.
        mediator.define_interface("Bump1", [("id", "Long")], extent_name="b1")
        servers[1].bring_up()
        healthy_calls = servers[0].statistics.requests
        repaired = mediator.query(query)
        assert not repaired.is_partial
        assert multiset(repaired.rows()) == reference
        # Refused patch means a *full* run: the healthy source was re-contacted.
        assert servers[0].statistics.requests > healthy_calls
        assert mediator.statistics()["answer_cache_patches"] == 0
        assert mediator.statistics()["answer_cache_invalidations"] >= 1
    finally:
        mediator.close()


def test_a_schema_change_during_a_patch_falls_back_to_a_full_run():
    """The version rule's other half: the DBA mutates while the patch's own
    call is running.  The patched rows straddle two schemas, so the patch is
    dropped, never counted or stored, and the query runs in full."""
    mediator, servers = build_mediator(answer_cache=True)
    try:
        query = "select x.name from x in person"
        reference = multiset(mediator.query(query).rows())
        mediator.define_interface("Bump0", [("id", "Long")], extent_name="b0")
        servers[1].take_down()
        assert mediator.query(query).is_partial
        servers[1].bring_up()
        call = servers[1].call
        mutations = []

        def call_mutating_once(operation):
            if not mutations:
                mutations.append("Bump1")
                mediator.define_interface("Bump1", [("id", "Long")], extent_name="b1")
            return call(operation)

        servers[1].call = call_mutating_once
        healthy_calls = servers[0].statistics.requests
        repaired = mediator.query(query)
        assert mutations == ["Bump1"]
        assert not repaired.is_partial
        assert multiset(repaired.rows()) == reference
        assert not repaired.from_answer_cache
        # Fallen back to a full run: the healthy source was contacted again.
        assert servers[0].statistics.requests > healthy_calls
        assert mediator.statistics()["answer_cache_patches"] == 0
    finally:
        mediator.close()


# -- a skewed session -------------------------------------------------------------------
def test_zipfian_session_is_mostly_served_without_a_source_call():
    """400 draws at Zipfian(1.1) frequencies over the spine's 64 templates (a
    dashboard: a few queries dominate): four answers in five come from the
    cache, exactly or by subsumption, and none of those moves a source's
    request counter."""
    sequence = [op.text for op in zipfian_ops(templates(), 400, random.Random(1996))]
    mediator, servers = build_person_federation(
        4, rows_per_source=60, answer_cache=AnswerCache(max_entries=256)
    )
    try:
        served = 0
        for text in sequence:
            before = sum(server.statistics.requests for server in servers)
            if mediator.query(text).from_answer_cache:
                served += 1
                assert sum(server.statistics.requests for server in servers) == before
        stats = mediator.statistics()
        assert served == stats["answer_cache_hits"] + stats["answer_cache_subsumption_hits"]
        assert stats["answer_cache_subsumption_hits"] > 0
        assert served >= 0.80 * len(sequence)
    finally:
        mediator.close()


# -- concurrency -----------------------------------------------------------------------
def test_cache_is_safe_and_transparent_under_a_client_fleet():
    mediator, _servers = build_mediator(answer_cache=True)
    try:
        queries = [
            "select x.name from x in person0",
            "select x from x in person0 where x.salary > 2",
            "select distinct x.name from x in person0",
            "select x.name from x in person0 limit 4",
        ]
        references = {q: multiset(mediator.query(q).rows()) for q in queries}
        errors: list[BaseException] = []

        def client(index: int) -> None:
            try:
                for turn in range(8):
                    query = queries[(index + turn) % len(queries)]
                    result = mediator.query(query)
                    rows = multiset(result.rows())
                    if "limit" in query:
                        assert not rows - references[
                            "select x.name from x in person0"
                        ]
                    else:
                        assert rows == references[query]
            except BaseException as exc:  # surfaced to the main thread
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(12)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        stats = mediator.statistics()
        assert stats["answer_cache_hits"] + stats["answer_cache_subsumption_hits"] > 0
    finally:
        mediator.close()


def test_server_workers_share_the_mediators_cache():
    mediator, server0_and_rest = build_mediator(answer_cache=True)
    try:
        query = "select x.name from x in person0"
        reference = multiset(mediator.query(query).rows())
        with mediator.serve(workers=4) as server:
            futures = [server.submit(query) for _ in range(16)]
            for future in futures:
                assert multiset(future.result(timeout=30).rows()) == reference
            stats = server.stats()
        assert stats["answer_cache"]["hits"] >= 16
    finally:
        mediator.close()


# -- statistics ------------------------------------------------------------------------
def test_statistics_expose_every_counter():
    mediator, _server = make_mediator(answer_cache=True)
    try:
        stats = mediator.statistics()
        for counter in (
            "answer_cache_entries",
            "answer_cache_rows",
            "answer_cache_hits",
            "answer_cache_subsumption_hits",
            "answer_cache_misses",
            "answer_cache_patches",
            "answer_cache_stores",
            "answer_cache_invalidations",
            "answer_cache_evictions",
        ):
            assert counter in stats
        plain = Mediator(name="no-cache")
        assert "answer_cache_hits" not in plain.statistics()
        plain.close()
    finally:
        mediator.close()


# -- one cache discipline ----------------------------------------------------------------
def test_a_cache_serves_one_mediator():
    """Schema versions of two registries cannot be compared: a second
    mediator over other data must not be handed the first one's answers,
    and a cache no mediator holds has no versions to store under."""
    cache = AnswerCache()
    with pytest.raises(ValueError, match="holds it"):
        cache.store_complete("k", None, 0, [])
    mediator, _server = make_mediator(answer_cache=cache, rows=12)
    try:
        with pytest.raises(ValueError):
            make_mediator(answer_cache=cache, rows=3)
        assert not mediator.query("select x.name from x in person0").from_answer_cache
        assert len(mediator.query("select x.name from x in person0").rows()) == 12
    finally:
        mediator.close()


def test_streamed_executions_count_as_misses():
    mediator, _server = make_mediator(answer_cache=True)
    try:
        for bound in range(5):
            streamed = mediator.query_stream(f"select x.name from x in person0 where x.salary > {bound}")
            list(streamed.iter_rows())
        assert mediator.statistics()["answer_cache_misses"] == 5
    finally:
        mediator.close()


@pytest.mark.parametrize("entry_point", ["query", "query_stream"])
def test_a_never_seen_text_is_parsed_once_with_the_cache_on(monkeypatch, entry_point):
    """The planner's key is the cache's key: the parse that finds it is the
    parse that plans the query."""
    import repro.core.planner as planner_module
    import repro.oql.parser as parser_module

    parses = []
    original = parser_module.parse_query

    def counted(text):
        parses.append(text)
        return original(text)

    monkeypatch.setattr(parser_module, "parse_query", counted)
    monkeypatch.setattr(planner_module, "parse_query", counted)
    mediator, _server = make_mediator(answer_cache=True)
    try:
        result = getattr(mediator, entry_point)("select x.id from x in person0 where x.salary < 4")
        assert len(result.rows()) > 0
        assert len(parses) == 1
    finally:
        mediator.close()


def lookup_another_text(mediator) -> None:
    """One lookup under the current version, of a text nothing cached."""
    mediator.answer_cache.get_exact("a never-seen key", mediator.registry.schema_version)


def test_an_extent_change_sweeps_every_stale_answer():
    """Every ``add_extent`` bumps the schema version, so even the answers
    over other extents are unreachable: their rows leave the budget by the
    next lookup, whatever it looks up."""
    mediator, _server = make_mediator(answer_cache=True)
    try:
        mediator.query("select x from x in person0")
        mediator.query("select x.name from x in person0")
        assert mediator.statistics()["answer_cache_rows"] == 24
        mediator.add_extent("audit0", "Person", "w0", "r0", source_collection="person0")
        lookup_another_text(mediator)
        stats = mediator.statistics()
        assert stats["answer_cache_rows"] == 0
        assert stats["answer_cache_entries"] == 0
        assert stats["answer_cache_invalidations"] == 2
    finally:
        mediator.close()


def test_every_schema_change_sweeps_every_stale_answer():
    """Not only an extent change: every DBA action that bumps the schema
    version returns the stale answers' rows to the budget by the next
    lookup."""
    changes = (
        lambda m: m.load_odl("extent person1 of Person wrapper w0 repository r0;"),
        lambda m: m.define_view("rich", "select x from x in person0 where x.salary > 3"),
        lambda m: m.execute_statement("define poor as select x from x in person0"),
        lambda m: m.define_interface("Other", [("id", "Long")]),
    )
    mediator, _server = make_mediator(answer_cache=True)
    try:
        for sweeps, change in enumerate(changes, start=1):
            mediator.query("select x from x in person0")
            assert mediator.statistics()["answer_cache_entries"] == 1
            change(mediator)
            lookup_another_text(mediator)
            stats = mediator.statistics()
            assert stats["answer_cache_entries"] == 0
            assert stats["answer_cache_rows"] == 0
            assert stats["answer_cache_invalidations"] == sweeps
    finally:
        mediator.close()


def test_a_schema_change_through_the_registry_leaves_nothing_stale():
    """A change made on ``mediator.registry`` tells the mediator nothing; the
    first query after it still sweeps every stale answer and plan."""
    mediator, _server = make_mediator(answer_cache=True)
    try:
        mediator.query("select x from x in person0")  # 12 rows, one plan
        mediator.registry.add_extent("audit0", "Person", "w0", "r0", source_collection="person0")
        fresh = mediator.query("select x.id from x in audit0 where x.salary > 5")
        stats = mediator.statistics()
        assert stats["answer_cache_entries"] == 1
        assert stats["answer_cache_rows"] == len(fresh.rows()) == 1
        assert stats["plan_cache_entries"] == 1
        assert stats["answer_cache_invalidations"] == stats["plan_cache_invalidations"] == 1
    finally:
        mediator.close()


def test_an_extent_may_not_shadow_a_view():
    """Extents resolve before views, so an extent named like a view would
    silently change what the view's name answers: the add is refused."""
    mediator, _server = make_mediator(answer_cache=True)
    try:
        mediator.define_view("rich", "select x from x in person0 where x.salary > 5")
        query = "select y from y in rich"
        assert len(mediator.query(query).rows()) == 1
        version = mediator.registry.schema_version
        with pytest.raises(SchemaError, match="extent 'rich' collides with a view name"):
            mediator.add_extent("rich", "Person", "w0", "r0", source_collection="person0")
        assert mediator.registry.schema_version == version
        assert [meta.name for meta in mediator.registry.extents()] == ["person0"]
        assert len(mediator.query(query).rows()) == 1
    finally:
        mediator.close()
