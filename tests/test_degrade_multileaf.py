"""The degradation ladder's multi-leaf rung: a refused join is split.

The ladder (``runtime/degrade.py``) strips *unary* mediator-compensable
operators off a failing pushdown, one rung per retry.  A pushdown whose top
is **multi-leaf** -- a pushed ``join`` or ``union`` -- cannot be degraded by
stripping: recovering from a source-side capability failure there means
*splitting* the one exec call into per-leaf calls plus a mediator-side
recombine.  That split is the ladder's last rung: a call-time refusal takes
the same refuse-to-push path planning uses for alias collisions
(``namespace.split_plan`` -> ``Executor._split_pushdown``), and draws on the
call's ``max_retries`` budget like any other degrading retry.

The first test pins the recovery; the second keeps the promise for a split
that cannot finish -- a partial answer, never a wrong one.
"""

from __future__ import annotations

from repro import CapabilityError, Mediator, RelationalWrapper
from repro.algebra.logical import Get, Join, Submit, walk
from repro.optimizer.implementation import implement
from repro.sources import RelationalEngine, SimulatedServer, TableSchema


class JoinRefusingWrapper(RelationalWrapper):
    """Declares ``join`` in its grammar but rejects it at call time.

    The stale-capability shape the degradation ladder exists for: the
    declared grammar is wider than what the translator actually handles.
    """

    def submit(self, expression):
        if any(isinstance(node, Join) for node in walk(expression)):
            raise CapabilityError("join refused at call time")
        return super().submit(expression)

    def submit_stream(self, expression, resume_from=None):
        if any(isinstance(node, Join) for node in walk(expression)):
            raise CapabilityError("join refused at call time")
        return super().submit_stream(expression, resume_from=resume_from)


def build_join_refusing_mediator():
    engine = RelationalEngine(name="dbj")
    engine.create_table(
        "t_a",
        schema=TableSchema.of(("id", int), ("name", str)),
        rows=[{"id": i, "name": f"a{i}"} for i in range(6)],
    )
    engine.create_table(
        "t_b",
        schema=TableSchema.of(("id", int), ("tag", str)),
        rows=[{"id": i, "tag": f"b{i % 2}"} for i in range(4)],
    )
    server = SimulatedServer(name="hj", store=engine)
    mediator = Mediator(name="multileaf", max_retries=3)
    mediator.register_wrapper("w0", JoinRefusingWrapper("w0", server))
    mediator.create_repository("r0")
    mediator.define_interface("A", [("id", "Long"), ("name", "String")], extent_name="aa")
    mediator.define_interface("B", [("id", "Long"), ("tag", "String")], extent_name="bb")
    mediator.add_extent("t_a", "A", "w0", "r0")
    mediator.add_extent("t_b", "B", "w0", "r0")
    return mediator, server


PUSHED_JOIN = Submit("r0", Join(Get("t_a"), Get("t_b"), "id"), extent_name="t_a")


def test_calltime_join_refusal_splits_per_leaf_and_recombines():
    mediator, _server = build_join_refusing_mediator()
    try:
        result = mediator.executor.execute(implement(PUSHED_JOIN))
        # Per-leaf gets succeed, the mediator joins.
        assert not result.is_partial
        rows = result.data.to_list()
        assert len(rows) == 4  # ids 0..3 match
        assert {dict(row)["id"] for row in rows} == {0, 1, 2, 3}
    finally:
        mediator.close()


def test_a_split_whose_leaves_fail_is_partial_never_wrong():
    """The source is down under the split: the answer is partial, never a
    join computed over whatever a leaf managed to return."""
    mediator, server = build_join_refusing_mediator()
    try:
        mediator.executor.config.retry_backoff = 0.001
        server.take_down()
        result = mediator.executor.execute(implement(PUSHED_JOIN))
        assert result.is_partial
        assert result.data.to_list() == []
        assert "t_a" in result.unavailable_sources
        # Control: back up, the same split answers in full.
        server.bring_up()
        recovered = mediator.executor.execute(implement(PUSHED_JOIN))
        assert not recovered.is_partial
        assert len(recovered.data.to_list()) == 4
    finally:
        mediator.close()


def test_multileaf_is_minimal_for_the_ladder():
    """``degrade_pushdown`` strips nothing off a multi-leaf top (the split is
    the attempt loop's rung) -- matching the spec exemptions for Join/Union."""
    from repro.runtime.degrade import degrade_pushdown

    assert degrade_pushdown(Join(Get("t_a"), Get("t_b"), "id")) is None
