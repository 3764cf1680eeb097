"""The ``limit`` capability terminal: fetch-size pushdown across ``submit``.

Covers the whole boundary crossing: the grammar accepts limited expressions
only when the wrapper declares the terminal, the rewriter folds ``MkLimit``
into the submitted expression for capable wrappers (asserted via submit-level
introspection), the SQL wrapper renders/refuses ``LIMIT`` correctly, the cost
model charges transferred rows rather than scanned rows, and the simulated
server really ships fewer rows.
"""

import pytest

from repro import Mediator, RelationalWrapper
from repro.algebra.capabilities import CapabilitySet, grammar_for
from repro.algebra.logical import Get, Limit, Project, Select, Submit
from repro.algebra.expressions import Comparison, Const, Path, Var
from repro.errors import CapabilityError, WrapperError
from repro.optimizer.cost import CostModel, pushed_limit
from repro.optimizer.history import ExecCallHistory
from repro.optimizer.implementation import implement
from repro.sources import RelationalEngine, SimulatedServer, TableSchema
from repro.sources.sql.engine import SqlEngine
from repro.sources.sql.parser import SqlParser
from repro.wrappers.sqlwrapper import SqlWrapper
from tests.conftest import build_paper_mediator


def _predicate(variable: str, attribute: str, value: int) -> Comparison:
    return Comparison(">", Path(Var(variable), attribute), Const(value))


class TestLimitGrammar:
    def test_declared_limit_accepts_limited_expressions(self):
        grammar = grammar_for({"get", "select", "limit"})
        expr = Limit(5, Select("x", _predicate("x", "salary", 10), Get("person0")))
        assert grammar.accepts(expr)
        assert grammar.supports("limit")
        assert "limit OPEN COUNT COMMA" in grammar.render()

    def test_undeclared_limit_rejects_limited_expressions(self):
        grammar = grammar_for({"get", "select"})
        assert not grammar.accepts(Limit(5, Get("person0")))
        assert not grammar.supports("limit")

    def test_non_composing_limit_applies_only_to_sources(self):
        grammar = grammar_for({"get", "select", "limit"}, compose=False)
        assert grammar.accepts(Limit(5, Get("person0")))
        assert not grammar.accepts(
            Limit(5, Select("x", _predicate("x", "salary", 10), Get("person0")))
        )

    def test_capability_set_full_includes_limit(self):
        assert CapabilitySet.full().supports("limit")
        assert CapabilitySet.of("get", "limit").supports("limit")


class RecordingWrapper(RelationalWrapper):
    """A relational wrapper that records every submitted expression."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.submitted: list[str] = []

    def _execute(self, expression):
        self.submitted.append(expression.to_text())
        return super()._execute(expression)


def build_recording_mediator(capabilities=None, rows=200):
    engine = RelationalEngine(name="db0")
    engine.create_table(
        "person0",
        schema=TableSchema.of(("id", int), ("name", str), ("salary", int)),
        rows=[{"id": i, "name": f"p{i}", "salary": i} for i in range(rows)],
    )
    server = SimulatedServer(name="h0", store=engine)
    wrapper = RecordingWrapper("w0", server, capabilities=capabilities)
    mediator = Mediator(name="rec")
    mediator.register_wrapper("w0", wrapper)
    mediator.create_repository("r0")
    mediator.define_interface(
        "Person",
        [("id", "Long"), ("name", "String"), ("salary", "Short")],
        extent_name="person",
    )
    mediator.add_extent("person0", "Person", "w0", "r0")
    return mediator, wrapper, server


class TestSubmitBoundary:
    QUERY = "select x.name from x in person0 limit 7"

    def test_capable_wrapper_receives_the_row_cap_inside_submit(self):
        mediator, wrapper, server = build_recording_mediator()
        result = mediator.query(self.QUERY)
        assert len(result.rows()) == 7
        assert len(wrapper.submitted) == 1
        assert "limit(7" in wrapper.submitted[0]
        # The source shipped only the capped rows.
        assert server.statistics.rows_returned == 7
        mediator.close()

    def test_incapable_wrapper_keeps_the_limit_at_the_mediator(self):
        mediator, wrapper, server = build_recording_mediator(
            capabilities=CapabilitySet.of("get", "project", "select")
        )
        result = mediator.query(self.QUERY)
        assert len(result.rows()) == 7
        assert all("limit(" not in text for text in wrapper.submitted)
        # Without the capability the full extent crosses the wire.
        assert server.statistics.rows_returned == 200
        mediator.close()

    def test_streaming_engine_pushes_the_same_cap(self):
        mediator, wrapper, server = build_recording_mediator()
        result = mediator.query_stream(self.QUERY)
        assert len(list(result.iter_rows())) == 7
        assert any("limit(7" in text for text in wrapper.submitted)
        assert server.statistics.rows_returned <= 7  # a lazy cursor may ship fewer
        mediator.close()

    def test_submit_rechecks_the_grammar(self):
        """A hand-built limited plan against a limit-less wrapper fails loudly."""
        mediator, wrapper, _server = build_recording_mediator(
            capabilities=CapabilitySet.of("get")
        )
        with pytest.raises(CapabilityError):
            wrapper.submit(Limit(3, Get("person0")))
        mediator.close()

    def test_union_branches_carry_their_own_caps(self):
        mediator, _servers = build_paper_mediator()
        planned = mediator.explain("select x.name from x in person limit 1")
        greedy = mediator.planner.rewriter.rewrite_greedy(planned.logical)
        from repro.algebra.logical import submits_in

        # Both member-extent submits contain the pushed cap.
        submits = submits_in(greedy)
        assert {submit.source for submit in submits} == {"r0", "r1"}
        assert all("limit(1" in submit.expression.to_text() for submit in submits)
        mediator.close()


class TestSqlLimit:
    def build_sql_wrapper(self):
        engine = SqlEngine(name="sqldb")
        engine.create_table(
            "person0",
            rows=[{"id": i, "name": f"p{i}", "salary": i} for i in range(50)],
        )
        server = SimulatedServer(name="sqlhost", store=engine)
        return SqlWrapper("wsql", server)

    def test_limit_renders_as_sql(self):
        wrapper = self.build_sql_wrapper()
        expr = Limit(3, Select("x", _predicate("x", "salary", 10), Get("person0")))
        assert wrapper.to_sql(expr) == "SELECT * FROM person0 WHERE salary > 10 LIMIT 3"
        rows = wrapper.submit(expr)
        assert len(rows) == 3
        assert all(row["salary"] > 10 for row in rows)

    def test_projection_above_limit_renders(self):
        wrapper = self.build_sql_wrapper()
        expr = Project(("name",), Limit(2, Get("person0")))
        assert wrapper.to_sql(expr) == "SELECT name FROM person0 LIMIT 2"
        assert wrapper.submit(expr) == [{"name": "p0"}, {"name": "p1"}]

    def test_nested_limits_take_the_minimum(self):
        wrapper = self.build_sql_wrapper()
        assert wrapper.to_sql(Limit(5, Limit(2, Get("person0")))).endswith("LIMIT 2")

    def test_selection_above_a_limit_is_untranslatable(self):
        """Filter-then-limit is SQL's order; limit-then-filter has no rendering."""
        wrapper = self.build_sql_wrapper()
        expr = Select("x", _predicate("x", "salary", 10), Limit(3, Get("person0")))
        with pytest.raises(WrapperError):
            wrapper.to_sql(expr)

    def test_sql_parser_round_trips_limit(self):
        statement = SqlParser("SELECT name FROM person0 WHERE salary > 5 LIMIT 4").parse()
        assert isinstance(statement, Limit) and statement.count == 4
        engine = SqlEngine(name="sqldb")
        engine.create_table(
            "person0", rows=[{"id": i, "name": f"p{i}", "salary": i} for i in range(20)]
        )
        assert len(engine.execute("SELECT * FROM person0 WHERE salary > 5 LIMIT 4")) == 4


class TestCostModel:
    def test_pushed_limit_detected_through_projections(self):
        assert pushed_limit(Limit(9, Get("person0"))) == 9
        assert pushed_limit(Project(("name",), Limit(9, Get("person0")))) == 9
        assert pushed_limit(Get("person0")) is None
        # A limit below a select does not bound the output.
        assert (
            pushed_limit(Select("x", _predicate("x", "salary", 1), Limit(9, Get("p"))))
            is None
        )

    def test_exec_cost_charges_transferred_rows_when_limit_is_pushed(self):
        history = ExecCallHistory()
        # The source historically ships 10_000 rows for a bare get.
        history.record("person0", Get("person0"), 0.01, 10_000)
        model = CostModel(history=history)
        full = implement(Submit("r0", Get("person0"), extent_name="person0"))
        capped = implement(
            Submit("r0", Limit(10, Get("person0")), extent_name="person0")
        )
        full_cost = model.estimate(full)
        capped_cost = model.estimate(capped)
        assert capped_cost.rows <= 10
        # close-match history carries the 10k estimate over to the limited
        # signature; the cap is what keeps the transfer charge down.
        assert capped_cost.total() < full_cost.total()
