"""Per-layer metrics: wrap points, program counters, span arithmetic.

Layers are this repo's packages.  Every time metric is a per-op mean in ms
over the main op list of one traced round; every count is the total of that
round (same seed, same count on the single-client workloads); rates are
useful outcomes over attempts.  ``datamodel`` has no boundary callable from
outside: its cost sits inside ``runtime.execute_self_ms`` until in-program
tracing exists.
"""

from __future__ import annotations

import statistics
import time
from typing import Any

import repro.core.planner as planner_module
from repro.algebra.expressions import InList
from repro.algebra.unparser import logical_to_oql

from benchmarks.spine import trace
from benchmarks.spine.trace import Span, Tracer

#: span names by the time bucket (a per-layer metric) their self time feeds
SELF_BUCKETS = {
    "oql.parse_query": "oql.parse_ms",
    "oql.bind": "oql.bind_ms",
    "oql.translate": "oql.translate_ms",
    "algebra.alternatives": "algebra.rewrite_ms",
    "algebra.rewrite_greedy": "algebra.rewrite_ms",
    "optimizer.optimize": "optimizer.optimize_self_ms",
    "optimizer.estimate": "optimizer.cost_ms",
    "optimizer.plancache_get": "optimizer.plancache_ms",
    "optimizer.plancache_put": "optimizer.plancache_ms",
    "core.plan": "core.plan_self_ms",
    "core.query": "core.query_self_ms",
    "core.query_stream": "core.query_self_ms",
    "core.resubmit": "core.query_self_ms",
    "core.add_extent": "core.dba_ms",
    "core.drop_extent": "core.dba_ms",
    "runtime.execute": "runtime.execute_self_ms",
    "runtime.execute_stream": "runtime.execute_self_ms",
    "spine.drain": "runtime.execute_self_ms",
    "runtime.answercache_get_exact": "runtime.answercache_lookup_ms",
    "runtime.answercache_find_subsumer": "runtime.answercache_lookup_ms",
    "runtime.answercache_store_complete": "runtime.answercache_lookup_ms",
    "runtime.answercache_store_partial": "runtime.answercache_lookup_ms",
}
#: spans that run on pool threads and overlap: busy time is a union
WRAPPER_SPANS = ("wrappers.submit", "wrappers.submit_stream")
SOURCE_SPAN = "sources.call"
#: the mediator calls that are "the query" where no client span contains them
QUERY_ROOTS = ("core.query", "core.query_stream", "core.resubmit")
#: client-thread spans that block while pool threads run wrapper calls
POOL_WAITERS = ("runtime.execute", "runtime.execute_stream", "spine.drain")


def _probe_tag(expression: Any, *args: Any, **kwargs: Any) -> str | None:
    """Mark the batched bind-join probes: ``select(v: key in (...), expr)``."""
    return "probe" if isinstance(getattr(expression, "predicate", None), InList) else None


def install(live: Any) -> Tracer:
    """Shim every layer boundary reachable from the live mediator.

    A wrap point that no longer exists lands in ``tracer.absent`` and its
    metric reads 0: the spine has to survive the engine merge.
    """
    tracer = Tracer()
    mediator = live.mediator
    planner = getattr(mediator, "planner", None)
    executor = getattr(mediator, "executor", None)
    cache = getattr(mediator, "answer_cache", None)
    wrap = tracer.wrap
    wrap(planner_module, "parse_query", "oql.parse_query")
    wrap(getattr(planner, "binder", None), "bind", "oql.bind")
    wrap(getattr(planner, "translator", None), "translate", "oql.translate")
    wrap(getattr(planner, "rewriter", None), "alternatives", "algebra.alternatives")
    wrap(getattr(planner, "rewriter", None), "rewrite_greedy", "algebra.rewrite_greedy")
    wrap(getattr(planner, "cost_model", None), "estimate", "optimizer.estimate")
    wrap(getattr(planner, "optimizer", None), "optimize", "optimizer.optimize")
    wrap(getattr(planner, "plan_cache", None), "get", "optimizer.plancache_get")
    wrap(getattr(planner, "plan_cache", None), "put", "optimizer.plancache_put")
    wrap(planner, "plan", "core.plan")
    wrap(mediator, "query", "core.query", root=True)
    wrap(mediator, "query_stream", "core.query_stream", root=True)
    wrap(mediator, "resubmit", "core.resubmit", root=True)
    wrap(mediator, "add_extent", "core.add_extent", root=True)
    wrap(mediator, "drop_extent", "core.drop_extent", root=True)
    wrap(executor, "execute", "runtime.execute")
    wrap(executor, "execute_stream", "runtime.execute_stream")
    if cache is not None:  # only serve_mixed configures one
        for method in ("get_exact", "find_subsumer", "store_complete", "store_partial"):
            wrap(cache, method, f"runtime.answercache_{method}")
    for wrapper in live.fed.wrappers.values():
        wrap(wrapper, "submit", "wrappers.submit", tag=_probe_tag)
        wrap(wrapper, "submit_stream", "wrappers.submit_stream", tag=_probe_tag)
    for server in live.fed.servers:
        wrap(server, "call", "sources.call")
    if live.server is not None:
        wrap(live.server, "submit", "serving.submit", root=True)
    return tracer


# -- counters the program keeps itself (free: read in untraced rounds too) -----------------


def counters(live: Any) -> dict[str, float]:
    """Snapshot of the program's own counters."""
    stats = live.mediator.statistics()
    servers = [server.statistics for server in live.fed.servers]
    snapshot = {
        "sources.requests": sum(s.requests for s in servers),
        "sources.rows_returned": sum(s.rows_returned for s in servers),
        "sources.failures": sum(s.failures for s in servers),
        "optimizer.plancache_hits": stats.get("plan_cache_hits", 0),
        "optimizer.plancache_misses": stats.get("plan_cache_misses", 0),
        "optimizer.plancache_evictions": stats.get("plan_cache_evictions", 0),
        "optimizer.plancache_invalidations": stats.get("plan_cache_invalidations", 0),
        "core.schema_bumps": stats.get("schema_version", 0),
    }
    for key in ("hits", "subsumption_hits", "misses", "invalidations", "evictions"):
        snapshot[f"runtime.answercache_{key}"] = stats.get(f"answer_cache_{key}", 0)
    snapshot["serving.rejected"] = live.server.stats().get("rejected", 0) if live.server is not None else 0
    return snapshot


def counter_delta(before: dict[str, float], after: dict[str, float], samples: list[Any]) -> dict[str, float]:
    """Counters of one phase: program counters moved, plus what the ops saw."""
    delta = {name: after[name] - before.get(name, 0) for name in after}
    delta["runtime.exec_calls"] = sum(s.exec_calls for s in samples)
    delta["runtime.partial_answers"] = sum(1 for s in samples if s.partial)
    return delta


#: counters that repeat exactly, same seed, on the single-client workloads
DETERMINISTIC = (
    "sources.requests",
    "sources.failures",
    "runtime.exec_calls",
    "runtime.partial_answers",
    "optimizer.plancache_hits",
    "optimizer.plancache_misses",
)
#: counters that follow the plans chosen, which follow measured exec latencies
PLAN_DEPENDENT = ("sources.rows_returned",)
#: counters reported as per-layer metrics under their own name
REPORTED_AS_IS = (
    "optimizer.plancache_evictions",
    "optimizer.plancache_invalidations",
    "core.schema_bumps",
    "runtime.exec_calls",
    "runtime.partial_answers",
    "runtime.answercache_invalidations",
    "runtime.answercache_evictions",
    "sources.requests",
    "sources.rows_returned",
    "sources.failures",
    "serving.rejected",
)


# -- span arithmetic ---------------------------------------------------------------------------


def _rate(useful: float, attempts: float) -> float:
    return useful / attempts if attempts else 0.0


def _ms(summary: Any, values: list[float]) -> float:
    """``summary`` (a mean, a median) of ``values`` in ms; 0 when there are none."""
    return 1000.0 * summary(values) if values else 0.0


def metrics(live: Any, tracer: Tracer, main: Any, counted: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric of one traced round."""
    spans = tracer.spans
    samples = main.flat
    ops = len(samples)
    single_client = len(main.samples) == 1
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    children = trace.children_of(spans)  # same-thread callees only, so far

    def per_op_ms(seconds: float) -> float:
        return 1000.0 * seconds / ops

    # Pool-thread layers: busy time as a union; sources sit inside wrappers.
    wrapper_spans = [s for name in WRAPPER_SPANS for s in by_name.get(name, ())]
    wrapper_busy = trace.merge((s.start, s.end) for s in wrapper_spans)
    source_time = trace.union_length((s.start, s.end) for s in by_name.get(SOURCE_SPAN, ()))
    wrapper_time = sum(end - start for start, end in wrapper_busy)
    # Client-thread layers: self time, callees subtracted as a union.  With
    # one client the pool works only for the executor span that waits on it,
    # so that span's self time also leaves out the wrappers' busy time.
    buckets: dict[str, float] = dict.fromkeys(SELF_BUCKETS.values(), 0.0)
    for name, bucket in SELF_BUCKETS.items():
        waits_on_pool = single_client and name in POOL_WAITERS
        for span in by_name.get(name, ()):
            buckets[bucket] += trace.self_time(
                span, children.get(id(span), ()), wrapper_busy if waits_on_pool else ()
            )
    buckets["wrappers.submit_ms"] = max(wrapper_time - source_time, 0.0)
    buckets["sources.call_ms"] = source_time
    if not single_client:
        # Concurrent queries: which executor span a wrapper call worked for is
        # not knowable from outside, so the busy time comes off as a whole.
        buckets["runtime.execute_self_ms"] = max(buckets["runtime.execute_self_ms"] - wrapper_time, 0.0)
    else:
        trace.attach_orphans(spans, {s.thread for s in by_name.get("spine.op", ())})

    # Coverage: the share of the clients' op time the layer buckets explain.
    # What is left is the benchmark's own glue and whatever no shim covers.
    if single_client:
        op_time = sum(s.duration for s in by_name.get("spine.op", ()))
    else:
        op_time = sum(s.duration for name in QUERY_ROOTS for s in by_name.get(name, ()))
    covered = sum(seconds for bucket, seconds in buckets.items() if bucket != "core.dba_ms")

    out = {name: per_op_ms(seconds) for name, seconds in buckets.items()}
    out["core.plan_ms"] = per_op_ms(sum(s.duration for s in by_name.get("core.plan", ())))
    executes = by_name.get("runtime.execute", []) + by_name.get("runtime.execute_stream", [])
    drains = by_name.get("spine.drain", [])
    out["runtime.execute_ms"] = per_op_ms(sum(s.duration for s in executes + drains))
    out["runtime.stream_open_ms"] = per_op_ms(sum(s.duration for s in by_name.get("runtime.execute_stream", ())))
    out["runtime.stream_drain_ms"] = per_op_ms(sum(s.duration for s in drains))
    partial_queries = {s.query for s in by_name.get("core.resubmit", ())}
    out["runtime.partial_ms"] = per_op_ms(
        sum(s.duration for s in by_name.get("runtime.execute", ()) if s.query in partial_queries and s.parent is not None and s.parent.name == "core.query")
    )
    out["runtime.resubmit_ms"] = per_op_ms(sum(s.duration for s in by_name.get("core.resubmit", ())))
    # Replica timing: the public unparser re-run on each partial plan after the op.
    started = time.perf_counter()
    for sample in samples:
        if sample.partial_plan is not None:
            logical_to_oql(sample.partial_plan)
    out["algebra.unparse_ms"] = per_op_ms(time.perf_counter() - started)

    # Counts at the same boundaries.
    out.update({name: float(counted[name]) for name in REPORTED_AS_IS})
    out["algebra.logical_alternatives"] = float(sum(s.rows or 0 for s in by_name.get("algebra.alternatives", ())))
    estimates = by_name.get("optimizer.estimate", [])
    out["optimizer.cost_calls"] = float(sum(s.calls for s in estimates))
    out["optimizer.physical_alternatives"] = float(
        sum(1 for s in estimates if s.parent is not None and s.parent.name == "optimizer.optimize")
    )
    lookups = counted["optimizer.plancache_hits"] + counted["optimizer.plancache_misses"]
    out["optimizer.plancache_hit_rate"] = _rate(counted["optimizer.plancache_hits"], lookups)
    out["runtime.probe_batches"] = float(sum(1 for s in wrapper_spans if s.tag == "probe"))
    out["runtime.retries"] = float(sum(s.retries for s in samples))
    out["runtime.replanned"] = float(sum(s.replanned for s in samples))
    cache_lookups = (
        counted["runtime.answercache_hits"]
        + counted["runtime.answercache_subsumption_hits"]
        + counted["runtime.answercache_misses"]
    )
    out["runtime.answercache_hit_rate"] = _rate(counted["runtime.answercache_hits"], cache_lookups)
    out["runtime.answercache_subsumption_rate"] = _rate(counted["runtime.answercache_subsumption_hits"], cache_lookups)
    out["wrappers.submit_calls"] = float(len(wrapper_spans))
    out["wrappers.rows_shipped"] = float(sum(s.rows or 0 for s in wrapper_spans))
    out["wrappers.capability_refusals"] = float(sum(1 for s in wrapper_spans if s.error == "CapabilityError"))

    # Serving: what the ServerReports and the clients saw (0 when not served).
    served = [s for s in samples if s.queue_wait is not None]
    out["serving.queue_wait_ms"] = _ms(statistics.fmean, [s.queue_wait for s in served])
    out["serving.overhead_ms"] = _ms(
        statistics.fmean, [max(s.latency - s.queue_wait - s.execution_time, 0.0) for s in served]
    )
    out["serving.max_queue_depth"] = float(live.server.stats()["max_queue_depth"]) if live.server is not None else 0.0
    out["serving.stalls"] = float(sum(s.stalls for s in samples))
    for label in ("hot", "stream", "adhoc"):
        out[f"serving.{label}_p50_ms"] = _ms(statistics.median, [s.latency for s in served if s.op.label == label])

    out["spine.coverage_share"] = _rate(covered, op_time)
    return out
