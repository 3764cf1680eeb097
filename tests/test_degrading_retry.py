"""Degrading pushdown retries (the capability-failure recovery ladder).

A wrapper whose declared grammar is wider than what it really evaluates --
the mis-declared wrapper -- rejects pushed expressions at run time.  The
adaptive retry policy must then re-submit a *strictly smaller* pushdown on
every attempt (ultimately a bare ``get``), replay the stripped operators at
the mediator, and leave transient-failure retry semantics untouched.  Both
engines are covered.
"""

import time

import pytest

from repro import Mediator
from repro.algebra.capabilities import CapabilitySet
from repro.algebra.logical import BindJoin, Get, GroupBy, Limit, Project, Select, Submit, Union
from repro.algebra.expressions import Comparison, Const, Path, Var
from repro.errors import UnavailableSourceError, WrapperError
from repro.optimizer.implementation import implement
from repro.runtime.degrade import (
    _STRIPPABLE,
    compensate_rows,
    degradation_ladder,
    degrade_pushdown,
    is_capability_failure,
)
from repro.runtime.operators import as_struct
from repro.wrappers.base import AlgebraEvaluator, Wrapper

ROWS = [{"id": i, "name": f"p{i}", "salary": i * 10} for i in range(10)]
QUERY = "select x.name from x in person0 where x.salary > 40 limit 2"
EXPECTED = ["p5", "p6"]


class LyingWrapper(Wrapper):
    """Declares select/project/limit but its translator only handles ``get``."""

    def __init__(self, name, rows, fail_transiently: int = 0):
        super().__init__(name, CapabilitySet.of("get", "project", "select", "limit"))
        self.rows = rows
        self.submitted: list[str] = []
        self._transient_failures = fail_transiently

    def _execute(self, expression):
        self.submitted.append(expression.to_text())
        if self._transient_failures > 0:
            self._transient_failures -= 1
            raise UnavailableSourceError(self.name, "transient outage")
        if not isinstance(expression, Get):
            raise WrapperError(f"translator cannot handle {expression.to_text()}")
        return [dict(row) for row in self.rows]

    def source_attributes(self, collection):
        return ["id", "name", "salary"]


def build_mediator(wrapper, **mediator_kwargs):
    mediator = Mediator(name="degrade", **mediator_kwargs)
    mediator.register_wrapper("w0", wrapper)
    mediator.create_repository("r0")
    mediator.define_interface(
        "Person",
        [("id", "Long"), ("name", "String"), ("salary", "Short")],
        extent_name="person",
    )
    mediator.add_extent("person0", "Person", "w0", "r0")
    return mediator


def _node_count(text: str) -> int:
    return text.count("(")


class TestLadder:
    def test_ladder_strips_outermost_operator_down_to_bare_get(self):
        predicate = Comparison(">", Path(Var("x"), "salary"), Const(40))
        expr = Limit(2, Project(("name",), Select("x", predicate, Get("person0"))))
        ladder = [step.to_text() for step in degradation_ladder(expr)]
        assert ladder == [
            "project(name, select(x: x.salary > 40, get(person0)))",
            "select(x: x.salary > 40, get(person0))",
            "get(person0)",
        ]
        assert degrade_pushdown(Get("person0")) is None

    def test_multi_leaf_expressions_are_not_degradable(self):
        assert degrade_pushdown(BindJoin(Get("a"), Get("b"), "x", "y")) is None
        assert degrade_pushdown(Union((Get("a"), Get("b")))) is None

    def test_classification(self):
        from repro.errors import CapabilityError

        assert is_capability_failure(WrapperError("nope"))
        assert is_capability_failure(CapabilityError("nope"))
        assert not is_capability_failure(UnavailableSourceError("s0"))
        assert not is_capability_failure(RuntimeError("connection reset"))

    def test_compensation_replays_stripped_operators(self):
        predicate = Comparison(">", Path(Var("x"), "salary"), Const(40))
        expr = Limit(2, Select("x", predicate, Get("person0")))
        stripped = []
        step = degrade_pushdown(expr)
        while step is not None:
            expr, removed = step
            stripped.append(removed)
            step = degrade_pushdown(expr)
        compensated = list(compensate_rows(stripped, [dict(r) for r in ROWS]))
        assert [row["name"] for row in compensated] == EXPECTED


ABOVE_40 = Comparison(">", Path(Var("x"), "salary"), Const(40))
#: every strippable operator over the leaf the source's evaluator scans, and
#: the stacked ladder of ``TestLadder``
STRIPPED = {
    Limit: Limit(3, Get("person0")),
    Project: Project(("name", "missing"), Get("person0")),
    Select: Select("x", ABOVE_40, Get("person0")),
    GroupBy: GroupBy(
        "x",
        (("band", Path(Var("x"), "band")),),
        (("n", "count", Var("x")), ("top", "max", Path(Var("x"), "salary"))),
        Get("person0"),
    ),
    "stacked": Limit(2, Project(("name",), Select("x", ABOVE_40, Get("person0")))),
}


class TestCompensationAgainstTheSourceEvaluator:
    """What the mediator replays is what the source would have computed:
    ``AlgebraEvaluator`` over a ``get`` leaf is the reference."""

    ROWS = [{"id": i, "name": f"p{i}", "salary": i * 10, "band": i % 3} for i in range(10)]

    def test_every_strippable_operator_has_a_case(self):
        assert {key for key in STRIPPED if key != "stacked"} == set(_STRIPPABLE)

    @pytest.mark.parametrize("case", STRIPPED, ids=lambda key: getattr(key, "op_name", key))
    def test_compensated_rows_equal_the_source_side_evaluation(self, case):
        expression = STRIPPED[case]
        rows = self.ROWS
        at_source = AlgebraEvaluator(scan=lambda _name: rows).evaluate(expression)
        stripped = []
        step = degrade_pushdown(expression)
        while step is not None:
            expression, removed = step
            stripped.append(removed)
            step = degrade_pushdown(expression)
        assert expression == Get("person0")
        compensated = list(compensate_rows(stripped, rows))
        assert compensated == [as_struct(row) for row in at_source]
        assert compensated, "the case compares two empty answers"

    def test_a_stripped_limit_stops_the_scan_and_closes_it(self):
        pulled = []
        closed = []

        def endless():
            try:
                number = 0
                while True:
                    pulled.append(number)
                    yield {"id": number}
                    number += 1
            finally:
                closed.append(True)

        compensated = compensate_rows([Limit(3, Get("person0"))], endless())
        assert pulled == []  # nothing is read before the consumer pulls
        assert [row["id"] for row in compensated] == [0, 1, 2]
        assert len(pulled) <= 4 and closed == [True]


@pytest.mark.parametrize("engine", ["query", "query_stream"])
class TestDegradingRetryEndToEnd:
    def run(self, mediator, engine):
        result = getattr(mediator, engine)(QUERY)
        rows = list(result.iter_rows()) if engine == "query_stream" else result.rows()
        return result, rows

    def test_each_retry_submits_a_strictly_smaller_pushdown(self, engine):
        wrapper = LyingWrapper("w0", ROWS)
        mediator = build_mediator(wrapper, max_retries=3)
        result, rows = self.run(mediator, engine)
        assert rows == EXPECTED
        assert not result.is_partial
        # Every re-submission is strictly smaller, ending at a bare get.
        sizes = [_node_count(text) for text in wrapper.submitted]
        assert sizes == sorted(sizes, reverse=True)
        assert len(set(wrapper.submitted)) == len(wrapper.submitted)
        assert wrapper.submitted[-1] == "get(person0)"
        report = result.reports[0]
        assert report.attempts == len(wrapper.submitted)
        assert report.degraded_to == "get(person0)"
        mediator.close()

    @pytest.mark.parametrize("max_retries", [0, 1])
    def test_the_ladder_is_walked_whatever_the_retry_budget(self, engine, max_retries):
        # Three rungs are refused (limit, then project, then select) before
        # the bare get answers: a rung is deterministic, not load, so it
        # charges nothing to ``max_retries`` -- the default fail-fast
        # mediator gives the full answer too.
        wrapper = LyingWrapper("w0", ROWS)
        mediator = build_mediator(wrapper) if max_retries == 0 else build_mediator(wrapper, max_retries=1)
        result, rows = self.run(mediator, engine)
        assert rows == EXPECTED
        assert not result.is_partial
        assert len(wrapper.submitted) == 4
        assert result.reports[0].attempts == 4
        assert result.reports[0].degraded_to == "get(person0)"
        mediator.close()

    def test_transient_failures_retry_the_same_expression(self, engine):
        wrapper = LyingWrapper("w0", ROWS, fail_transiently=2)
        # Capabilities narrowed to get so the pushed expression is minimal
        # and the failures are genuinely transient.
        wrapper.capabilities = CapabilitySet.get_only()
        mediator = build_mediator(wrapper, max_retries=2)
        mediator.executor.config.retry_backoff = 0.001
        result, rows = self.run(mediator, engine)
        assert rows == EXPECTED  # mediator-side select/limit still apply
        assert wrapper.submitted == ["get(person0)"] * 3
        assert result.reports[0].attempts == 3
        assert result.reports[0].degraded_to is None
        mediator.close()

    def test_capability_failure_with_no_rung_left_fails_fast(self, engine):
        class GetRejectingWrapper(LyingWrapper):
            def _execute(self, expression):
                self.submitted.append(expression.to_text())
                raise WrapperError("even get is broken")

        wrapper = GetRejectingWrapper("w0", ROWS)
        mediator = build_mediator(wrapper, max_retries=5)
        result, rows = self.run(mediator, engine)
        assert result.is_partial
        # The ladder has 3 rungs below the original; once the bare get is
        # rejected there is nothing smaller to try, so no further attempts.
        assert wrapper.submitted[-1] == "get(person0)"
        assert len(wrapper.submitted) == 4
        mediator.close()

    def test_degraded_rows_are_renamed_before_compensation(self, engine):
        """With a non-identity map, compensation must see mediator vocabulary
        (regression: the streaming path once emptied the rename map before
        the lazy renamer ran, filtering every row out silently)."""
        from repro.datamodel.mapping import LocalTransformationMap

        source_rows = [{"pid": i, "nm": f"p{i}", "sal": i * 10} for i in range(10)]
        wrapper = LyingWrapper("w0", source_rows)
        wrapper.source_attributes = lambda collection: ["pid", "nm", "sal"]
        mediator = Mediator(name="renamed", max_retries=3)
        mediator.register_wrapper("w0", wrapper)
        mediator.create_repository("r0")
        mediator.define_interface(
            "Person",
            [("id", "Long"), ("name", "String"), ("salary", "Short")],
            extent_name="person",
        )
        mediator.add_extent(
            "person0",
            "Person",
            "w0",
            "r0",
            map=LocalTransformationMap.from_pairs(
                [("t0", "person0"), ("pid", "id"), ("nm", "name"), ("sal", "salary")]
            ),
        )
        result, rows = self.run(mediator, engine)
        assert rows == EXPECTED
        assert not result.is_partial
        # The degraded bare get was translated to the source's collection name.
        assert wrapper.submitted[-1] == "get(t0)"
        mediator.close()

    @pytest.mark.parametrize("max_retries", [0, 1])
    def test_only_transient_failures_draw_on_the_retry_budget(self, engine, max_retries):
        # One transient outage, then three refused rungs before the bare get:
        # the outage needs one retry of ``max_retries``; the rungs need none.
        wrapper = LyingWrapper("w0", ROWS, fail_transiently=1)
        mediator = build_mediator(wrapper, max_retries=max_retries)
        mediator.executor.config.retry_backoff = 0.001
        result, rows = self.run(mediator, engine)
        if max_retries == 1:
            assert wrapper.submitted[0] == wrapper.submitted[1]  # transient: same expression
            assert len(wrapper.submitted) == 5
            assert rows == EXPECTED and not result.is_partial
            assert wrapper.submitted[-1] == "get(person0)"
        else:
            assert len(wrapper.submitted) == 1
            assert rows == [] and result.is_partial
            assert result.unavailable_sources == ("person0",)
        assert result.reports[0].attempts == len(wrapper.submitted)
        mediator.close()


# -- attempt accounting is aligned across engines ---------------------------------------------


class _AlwaysFailing(Wrapper):
    def __init__(self, name: str):
        super().__init__(name, CapabilitySet.full())
        self.calls = 0

    def _execute(self, expression):
        self.calls += 1
        raise RuntimeError("transient boom")


class TestAttemptAccounting:
    def _build(self):
        mediator = Mediator(name="attempts", timeout=0.5, max_retries=8)
        mediator.executor.config.retry_backoff = 0.2
        mediator.register_wrapper("w0", _AlwaysFailing("w0"))
        mediator.create_repository("r0")
        mediator.define_interface("Thing", [("id", "Long")], extent_name="things")
        mediator.add_extent("thing0", "Thing", "w0", "r0")
        return mediator

    def test_write_off_during_backoff_reports_true_attempts_in_both_engines(self):
        # Attempts fail instantly at t=0 and t=0.2; the third would start at
        # t=0.6, but the 0.5s deadline writes the call off mid-backoff.  Both
        # engines must report the two attempts actually made -- the abandoned
        # backoff is not an attempt.
        plan = implement(Submit("r0", Get("thing0"), extent_name="thing0"))
        mediator = self._build()
        try:
            barrier = mediator.executor.execute(plan, timeout=0.5)
            assert barrier.is_partial
            (barrier_report,) = barrier.reports
            stream = mediator.executor.execute_stream(plan, timeout=0.5)
            stream.to_list()
            (stream_report,) = stream.reports
            assert not barrier_report.available and not stream_report.available
            assert barrier_report.attempts == 2
            assert stream_report.attempts == barrier_report.attempts
            # Give the zombie workers time to observe the write-off and stop.
            time.sleep(0.3)
        finally:
            mediator.close()
