"""Smoke tests of the measurement spine (collected by the tier-1 command).

Every workload runs one round on 2% of its ops, untraced and traced: each
declared metric must come out under its declared name with its unit, no op may
fail, and ``BENCHMARK.json`` and the runner must agree on the names.  Plus the
tracer's own arithmetic.
"""

from __future__ import annotations

import json
import types

import pytest

from benchmarks.spine import cli, compare, trace, workloads
from benchmarks.spine.trace import Span, Tracer

DECLARED = cli.declaration()
SCALE = 0.02


def test_declaration_names_the_five_workloads_and_ten_metrics():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.NAMES)
    assert len(DECLARED["end_to_end"]) == 10
    setup = next(m for m in DECLARED["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert DECLARED["paths"] == ["benchmarks/spine"]


def test_every_cell_bound_sits_between_the_issues_and_the_declared_one():
    declared = {m["name"]: m["bound"] for m in DECLARED["end_to_end"]}
    assert set(compare.TIGHT) == set(declared)
    assert all(compare.TIGHT[name] <= bound <= 0.25 for name, bound in declared.items())
    assert declared["setup_s"] == max(declared.values())
    for (workload, metric), wider in compare.WIDER.items():
        assert workload in workloads.NAMES
        assert compare.TIGHT[metric] < wider <= declared[metric]
    assert compare.bound("repeat_warm", "cpu_ms_per_query", declared["cpu_ms_per_query"]) == 0.07


@pytest.mark.parametrize("name", workloads.NAMES)
def test_a_95th_percentile_has_ten_samples_beyond_it(name):
    workload = workloads.build(name, seed=1)
    queries = sum(1 for client in workload.main for op in client if op.kind != workloads.WRITE)
    assert queries >= 200 or workload.p95_label is not None


@pytest.mark.parametrize("name", workloads.NAMES)
@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_workload_emits_every_declared_metric(name, traced, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "OUT", tmp_path)
    report = cli.run_workload(name, seed=3, seconds=60.0, traced=traced, rounds=1, scale=SCALE)
    declared = DECLARED["per_layer" if traced else "end_to_end"]
    assert set(report["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        entry = report["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], float)
    assert report["failed"] == 0, report["first_failure"]
    assert report["correct"], report["determinism"]["summary"]
    line = json.loads(cli.contract_line(report))
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    if traced:
        assert report["absent_wrap_points"] == []
        assert (tmp_path / f"trace-{name}.json").exists()
    else:
        assert all(entry["value"] > 0 for entry in report["metrics"].values())
        assert report["metrics"]["answered_share"]["value"] == 1.0


def test_same_seed_same_ops_and_another_seed_other_ops():
    first = workloads.build("serve_mixed", seed=5, scale=0.1)
    again = workloads.build("serve_mixed", seed=5, scale=0.1)
    other = workloads.build("serve_mixed", seed=6, scale=0.1)
    assert first.main == again.main
    assert first.main != other.main
    # The mix does not depend on the seed, only the order does.
    assert sorted(op.label for op in first.main[0]) == sorted(op.label for op in other.main[0])


def test_zipfian_counts_are_exact_and_skewed():
    counts = workloads.zipfian_counts(64, 700)
    assert sum(counts) == 700
    assert counts == sorted(counts, reverse=True)
    assert counts[0] > 10 * counts[-1]


# -- the tracer -------------------------------------------------------------------------------


def _span(name, start, end, parent=None):
    span = Span(name, parent, None, thread=0)
    span.start, span.end = start, end
    return span


def test_self_time_subtracts_the_union_of_overlapping_children():
    parent = _span("execute", 0.0, 10.0)
    children = [_span("submit", 1.0, 5.0, parent), _span("submit", 3.0, 7.0, parent), _span("submit", 8.0, 12.0, parent)]
    # [1,7] and [8,10] are covered: 6 + 2, not 4 + 4 + 4.
    assert trace.self_time(parent, children) == pytest.approx(2.0)
    assert trace.union_length([(1.0, 5.0), (3.0, 7.0), (8.0, 9.0)]) == pytest.approx(7.0)


def test_reentrant_call_opens_one_span_and_counts_entries():
    class Model:
        def estimate(self, depth):
            return 1 if depth == 0 else 1 + self.estimate(depth - 1)

    model, tracer = Model(), Tracer()
    assert tracer.wrap(model, "estimate", "optimizer.estimate")
    assert model.estimate(4) == 5
    assert [(s.name, s.calls) for s in tracer.spans] == [("optimizer.estimate", 5)]
    tracer.restore()
    assert "estimate" not in vars(model)
    assert model.estimate(1) == 2 and len(tracer.spans) == 1


def test_absent_wrap_point_is_reported_not_raised():
    tracer = Tracer()
    assert not tracer.wrap(types.SimpleNamespace(), "execute", "runtime.execute")
    assert not tracer.wrap(None, "submit", "wrappers.submit")
    assert tracer.absent == ["runtime.execute", "wrappers.submit"]


def test_same_thread_calls_nest_and_share_the_query_id():
    class Planner:
        def plan(self):
            return self.bind()

        def bind(self):
            return 7

    planner, tracer = Planner(), Tracer()
    tracer.wrap(planner, "plan", "core.plan", root=True)
    tracer.wrap(planner, "bind", "oql.bind")
    planner.plan()
    planner.plan()
    bind, plan = tracer.spans[0], tracer.spans[1]
    assert bind.parent is plan and bind.query == plan.query == 1
    assert tracer.spans[3].query == 2


def test_orphans_attach_to_the_innermost_containing_client_span():
    op = _span("spine.op", 0.0, 10.0)
    execute = _span("runtime.execute", 2.0, 9.0, op)
    op.query = execute.query = 4
    pooled = _span("wrappers.submit", 3.0, 4.0)
    pooled.thread = 1
    late = _span("wrappers.submit", 9.5, 11.0)
    late.thread = 1
    spans = [op, execute, pooled, late]
    assert trace.attach_orphans(spans, client_threads={0}) == 1
    assert pooled.parent is execute and pooled.query == 4
    assert late.parent is None


# -- compare ----------------------------------------------------------------------------------


def test_compare_verdicts():
    def verdict(a, b):
        return compare.verdict(a, b, "query_p50_ms", "lower", 0.10)[1]

    def run(value, quartiles):
        return {"metrics": {"query_p50_ms": {"value": value}}, "round_quartiles": {"query_p50_ms": quartiles}}

    steady = [0.99, 1.0, 1.01]
    assert verdict(run(1.0, steady), run(1.05, steady)) == "same"
    assert verdict(run(1.0, steady), run(0.5, steady)) == "same"
    assert verdict(run(1.0, steady), run(1.2, steady)) == "regressed"
    assert verdict(run(1.0, steady), run(1.2, [0.9, 1.0, 1.2])) == "unresolved"
    assert compare.worse_by(100.0, 80.0, "higher") == pytest.approx(0.2)
