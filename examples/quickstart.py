"""Quickstart: the paper's running example, end to end.

Builds the two-source Person mediator of Sections 1.2-1.3, runs the
introductory query, shows the optimizer's plan, takes one source down to
demonstrate partial-answer semantics and re-submission, then kills a source
*mid-stream* to show `query_stream()`'s recovery: the call is reopened and
the rows already delivered are skipped.

Execution knobs are the fields of `ExecutorConfig` (the README table is the
list): `Mediator(name, **config)` forwards its keywords to it, and everything
stays settable on `mediator.executor.config`.  A bounded concurrency budget
is not a knob here but the serving layer: `mediator.serve(workers=...)`.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import Mediator, RelationalWrapper
from repro.sources import RelationalEngine, SimulatedServer


def build_sources() -> tuple[SimulatedServer, SimulatedServer]:
    """Two autonomous 'remote' relational databases."""
    rodin = RelationalEngine("rodin-db")
    rodin.create_table("person0", rows=[{"id": 1, "name": "Mary", "salary": 200}])
    umiacs = RelationalEngine("umiacs-db")
    umiacs.create_table("person1", rows=[{"id": 2, "name": "Sam", "salary": 50}])
    return (
        SimulatedServer(name="rodin", store=rodin),
        SimulatedServer(name="umiacs", store=umiacs),
    )


def build_mediator(server0: SimulatedServer, server1: SimulatedServer) -> Mediator:
    """Everything the DBA declares: wrappers, repositories, one type, two extents."""
    mediator = Mediator(name="quickstart")
    mediator.register_wrapper("w0", RelationalWrapper("w0", server0))
    mediator.register_wrapper("w1", RelationalWrapper("w1", server1))
    mediator.create_repository("r0", host="rodin", address="123.45.6.7")
    mediator.create_repository("r1", host="umiacs")
    mediator.load_odl(
        """
        interface Person (extent person) {
            attribute Long id;
            attribute String name;
            attribute Short salary;
        }
        extent person0 of Person wrapper w0 repository r0;
        extent person1 of Person wrapper w1 repository r1;
        """
    )
    return mediator


def main() -> None:
    server0, server1 = build_sources()
    mediator = build_mediator(server0, server1)

    query = "select x.name from x in person where x.salary > 10"
    print(f"query:   {query}")

    result = mediator.query(query)
    print(f"answer:  {result.data}")
    print(f"logical plan:  {result.logical_plan}")
    print(f"physical plan: {result.physical_plan}")

    print("\n-- taking the rodin source down --")
    server0.take_down()
    partial = mediator.query(query)
    print(f"partial answer (a query!): {partial.partial_query}")
    print(f"unavailable sources:       {list(partial.unavailable_sources)}")

    print("\n-- rodin comes back; re-submitting the partial answer --")
    server0.bring_up()
    recovered = mediator.resubmit(partial)
    print(f"answer:  {recovered.data}")

    print("\n-- adding a third source requires one extent declaration, no query change --")
    extra = RelationalEngine("inria-db")
    extra.create_table("person2", rows=[{"id": 3, "name": "Olga", "salary": 120}])
    server2 = SimulatedServer(name="inria", store=extra)
    mediator.register_wrapper("w2", RelationalWrapper("w2", server2))
    mediator.create_repository("r2", host="inria")
    mediator.add_extent("person2", "Person", "w2", "r2")
    print(f"answer:  {mediator.query(query).data}")

    print("\n-- streaming: rodin's connection drops mid-stream; a replay recovers it --")
    # Grow rodin's extent so there is a mid-stream to die in, then kill the
    # connection after two rows.  One retry of budget is all the recovery
    # needs; the relational wrapper declares `replay` resume support, so the
    # mediator reopens the call and skips the two rows it already delivered
    # -- every row reaches the caller exactly once.
    server0.store.table("person0").insert_many(
        {"id": 10 + i, "name": f"Colleague{i}", "salary": 80 + i} for i in range(5)
    )
    mediator.executor.config.max_retries = 1
    server0.availability.kill_after(2)
    streamed = mediator.query_stream("select x.name from x in person")
    rows = sorted(streamed.iter_rows())
    report = next(r for r in streamed.reports if r.extent_name == "person0")
    print(f"rows:    {rows}")
    print(f"person0: resumed_calls={report.resumed_calls}, "
          f"replayed_rows={report.replayed_rows}, attempts={report.attempts}")

    mediator.close()


if __name__ == "__main__":
    main()
