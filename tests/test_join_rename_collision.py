"""Regression tests for the multi-extent reverse-rename collision.

When a join is pushed down to one source, the executor used to merge the
local transformation maps of *every* extent the expression references into a
single flat reverse (source -> mediator) rename dictionary.  If two extents
map the *same* source attribute name to *different* mediator attributes --
here both source tables call the column ``nm`` but one extent maps it to
``name`` and the other to ``label`` -- the merged dictionary could keep only
one entry, and the joined rows came back with one of the mediator attributes
missing or mis-valued.

The namespace planner (:func:`repro.runtime.namespace.namespace_plan`) detects the
collision and injects a per-branch ``rename`` alias into the submitted
expression, so rows cross the submit boundary already uniquely named and the
reverse map is collision-free by construction.  These tests pin the fixed
behaviour (they were a strict xfail while the bug was open).
"""

from repro import Mediator, RelationalWrapper
from repro.algebra.logical import Get, Join, Submit
from repro.datamodel.mapping import LocalTransformationMap
from repro.optimizer.implementation import implement
from repro.sources import RelationalEngine, SimulatedServer, TableSchema


def build_colliding_mediator():
    """One wrapper hosting two tables whose columns collide on ``nm``."""
    engine = RelationalEngine(name="db0")
    engine.create_table(
        "t_emp",
        schema=TableSchema.of(("id", int), ("nm", str)),
        rows=[{"id": 1, "nm": "mary"}, {"id": 2, "nm": "sam"}],
    )
    engine.create_table(
        "t_dept",
        schema=TableSchema.of(("id", int), ("nm", str)),
        rows=[{"id": 1, "nm": "engineering"}, {"id": 2, "nm": "sales"}],
    )
    server = SimulatedServer(name="h0", store=engine)
    mediator = Mediator(name="collide")
    mediator.register_wrapper("w0", RelationalWrapper("w0", server))
    mediator.create_repository("r0")
    mediator.define_interface(
        "Emp", [("id", "Long"), ("name", "String")], extent_name="emps"
    )
    mediator.define_interface(
        "Dept", [("id", "Long"), ("label", "String")], extent_name="depts"
    )
    mediator.add_extent(
        "emp0",
        "Emp",
        "w0",
        "r0",
        map=LocalTransformationMap.from_pairs([("t_emp", "emp0"), ("nm", "name")]),
    )
    mediator.add_extent(
        "dept0",
        "Dept",
        "w0",
        "r0",
        map=LocalTransformationMap.from_pairs([("t_dept", "dept0"), ("nm", "label")]),
    )
    return mediator


def test_pushed_join_disambiguates_colliding_source_attributes():
    mediator = build_colliding_mediator()
    try:
        # A join pushed to the shared source: both sides live at w0, so the
        # whole join(get(emp0), get(dept0), id) crosses the submit boundary.
        plan = implement(
            Submit("r0", Join(Get("emp0"), Get("dept0"), "id"), extent_name="emp0")
        )
        result = mediator.executor.execute(plan)
        rows = sorted(result.data.to_list(), key=lambda row: row["id"])
        # The mediator vocabulary keeps the extents' attributes apart ...
        assert rows[0]["name"] == "mary"
        assert rows[0]["label"] == "engineering"  # both came from "nm"
        assert rows[1]["name"] == "sam"
        assert rows[1]["label"] == "sales"
        # ... because the submitted expression aliased each branch.
        (report,) = result.reports
        assert report.available and report.split_calls == 0
    finally:
        mediator.close()


def test_non_colliding_multi_extent_join_still_renames_both_sides():
    """The fixed (PR 1) happy path: distinct source names rename correctly."""
    engine = RelationalEngine(name="db0")
    engine.create_table(
        "t_emp",
        schema=TableSchema.of(("id", int), ("enm", str)),
        rows=[{"id": 1, "enm": "mary"}],
    )
    engine.create_table(
        "t_dept",
        schema=TableSchema.of(("id", int), ("dnm", str)),
        rows=[{"id": 1, "dnm": "engineering"}],
    )
    server = SimulatedServer(name="h0", store=engine)
    mediator = Mediator(name="ok")
    mediator.register_wrapper("w0", RelationalWrapper("w0", server))
    mediator.create_repository("r0")
    mediator.define_interface(
        "Emp", [("id", "Long"), ("name", "String")], extent_name="emps"
    )
    mediator.define_interface(
        "Dept", [("id", "Long"), ("label", "String")], extent_name="depts"
    )
    mediator.add_extent(
        "emp0",
        "Emp",
        "w0",
        "r0",
        map=LocalTransformationMap.from_pairs([("t_emp", "emp0"), ("enm", "name")]),
    )
    mediator.add_extent(
        "dept0",
        "Dept",
        "w0",
        "r0",
        map=LocalTransformationMap.from_pairs([("t_dept", "dept0"), ("dnm", "label")]),
    )
    try:
        plan = implement(
            Submit("r0", Join(Get("emp0"), Get("dept0"), "id"), extent_name="emp0")
        )
        result = mediator.executor.execute(plan)
        (row,) = result.data.to_list()
        assert row["name"] == "mary" and row["label"] == "engineering"
    finally:
        mediator.close()
