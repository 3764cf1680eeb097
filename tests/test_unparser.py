"""Tests for rendering logical plans back to OQL (needed for partial answers)."""

import ast
import inspect
import math
import textwrap
from collections.abc import Mapping

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.algebra import expressions, unparser
from repro.algebra.expressions import (
    Arithmetic,
    BagExpr,
    Comparison,
    Const,
    Path,
    StructExpr,
    Var,
    literal_to_oql,
)
from repro.algebra.logical import (
    Apply,
    BagLiteral,
    Flatten,
    Get,
    Join,
    LogicalOp,
    Project,
    Rename,
    Select,
    Submit,
    Union,
)
from repro.algebra.unparser import OQLText, logical_to_oql
from repro.algebra.physical import MkBag
from repro.datamodel.values import Bag, Struct
from repro.errors import QueryExecutionError
from repro.lexing import OQL
from repro.oql.parser import parse_query
from repro.optimizer.implementation import implement
from tests.conftest import build_paper_mediator


def salary_predicate(var="x"):
    return Comparison(">", Path(Var(var), "salary"), Const(10))


class TestUnparser:
    def test_get_renders_as_trivial_select(self):
        assert logical_to_oql(Get("person0")) == "select x0 from x0 in person0"

    def test_submit_is_transparent(self):
        text = logical_to_oql(Submit("r0", Get("person0"), extent_name="person0"))
        assert text == "select x0 from x0 in person0"

    def test_project_single_attribute(self):
        text = logical_to_oql(Project(("name",), Get("person0")))
        assert text == "select x0.name from x0 in person0"

    def test_project_multiple_attributes_uses_struct(self):
        text = logical_to_oql(Project(("name", "salary"), Get("person0")))
        assert "struct(name: x0.name, salary: x0.salary)" in text

    def test_select_becomes_where_clause(self):
        text = logical_to_oql(Select("x", salary_predicate(), Get("person0")))
        assert text == "select x0 from x0 in person0 where x0.salary > 10"

    def test_paper_partial_answer_shape(self):
        """union(select ..., Bag("Sam")) -- the paper's Section 1.3 answer."""
        plan = Union(
            (
                Project(
                    ("name",),
                    Select("y", salary_predicate("y"), Submit("r0", Get("person0"))),
                ),
                BagLiteral(("Sam",)),
            )
        )
        text = logical_to_oql(plan)
        assert text == (
            'union(select x0.name from x0 in person0 where x0.salary > 10, Bag("Sam"))'
        )

    def test_partial_answer_text_is_parseable(self):
        plan = Union(
            (
                Project(("name",), Select("y", salary_predicate("y"), Submit("r0", Get("person0")))),
                BagLiteral(("Sam",)),
            )
        )
        parse_query(logical_to_oql(plan))

    def test_bag_literal_with_structs_is_parseable(self):
        plan = BagLiteral((Struct({"name": "Sam", "salary": 50}),))
        text = logical_to_oql(plan)
        assert text == 'Bag(struct(name: "Sam", salary: 50))'
        parse_query(text)

    def test_apply_renders_expression(self):
        plan = Apply("x", Path(Var("x"), "name"), Get("person0"))
        assert logical_to_oql(plan) == "select x0.name from x0 in person0"

    def test_join_renders_two_sources_and_condition(self):
        plan = Join(Get("employee0"), Get("manager0"), "dept")
        text = logical_to_oql(plan)
        assert "from x0 in employee0, x1 in manager0" in text
        assert "x0.dept = x1.dept" in text

    def test_flatten_and_nested_union(self):
        plan = Flatten(Union((Get("a"), Get("b"))))
        text = logical_to_oql(plan)
        assert text.startswith("flatten(union(")

    def test_union_as_from_source(self):
        plan = Project(("name",), Union((Get("a"), BagLiteral(("Sam",)))))
        text = logical_to_oql(plan)
        assert "in (union(" in text
        parse_query(text)

    def test_distinct_renders_as_select_distinct(self):
        from repro.algebra.logical import Distinct

        text = logical_to_oql(Distinct(Get("person0")))
        assert text == "select distinct x0 from x0 in person0"

    def test_bindjoin_renders_as_multi_variable_from(self):
        from repro.algebra.logical import BindJoin
        from repro.oql.parser import parse_query

        text = logical_to_oql(BindJoin(Get("a"), Get("b"), "x", "y"))
        assert text == "select struct(x: x, y: y) from x in a, y in b"
        parse_query(text)

    def test_unsupported_operator_raises(self):
        class Mystery(LogicalOp):
            op_name = "mystery"

            def to_text(self):
                return "mystery()"

        with pytest.raises(QueryExecutionError):
            logical_to_oql(Mystery())


# -- the literal writer against the one it replaced -----------------------------------------------
def reference_render_value(value) -> str:
    """The parent's ``_render_value`` (and the ``Const.to_oql`` it ended in), verbatim.

    Two imports per value, every struct copied through ``dict(value)``, a
    ``Const`` per scalar: slow and obviously right.  ``literal_to_oql`` must
    write the same bytes for every value.
    """
    from collections.abc import Mapping

    from repro.datamodel.values import Bag, Struct

    if isinstance(value, (Struct, Mapping)):
        inner = ", ".join(
            f"{name}: {reference_render_value(field)}" for name, field in dict(value).items()
        )
        return f"struct({inner})"
    if isinstance(value, (Bag, list, tuple)):
        return "bag(" + ", ".join(reference_render_value(item) for item in value) + ")"
    if isinstance(value, str):
        return OQL.quote(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "nil"
    return str(value)


class ForeignMapping(Mapping):
    """A mapping that is neither ``dict`` nor ``Struct`` (a wrapper's own row type)."""

    def __init__(self, fields):
        self._fields = dict(fields)

    def __getitem__(self, key):
        return self._fields[key]

    def __iter__(self):
        return iter(self._fields)

    def __len__(self):
        return len(self._fields)


class Label(str):
    """A ``str`` subclass: off the exact-type arms, same text as a ``str``."""


#: quotes and backslashes, densely: what ``OQL.quote`` has to escape
ESCAPED_TEXT = st.text(alphabet="\"\\'a \n")

SCALARS = st.one_of(
    st.text(),
    ESCAPED_TEXT,
    ESCAPED_TEXT.map(Label),
    st.booleans(),
    st.none(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    # exponent forms, both signs of mantissa and exponent
    st.sampled_from([1e16, 1e22, -2.5e300, 1e-07, -3e-05, 5e-324, 1.7976931348623157e308]),
)

FIELD_NAMES = st.sampled_from(["a", "b", "name", "salary", "k1"])


def _containers(children):
    fields = st.dictionaries(FIELD_NAMES, children, max_size=4)
    items = st.lists(children, max_size=4)
    return st.one_of(
        fields.map(Struct),
        fields,
        fields.map(ForeignMapping),
        items.map(Bag),
        items,
        items.map(tuple),
    )


VALUES = st.recursive(SCALARS, _containers, max_leaves=12)

#: the values the writer spells differently from the one it replaced: an
#: infinity is the overflowing exponent the number scanner reads back, not the
#: name ``inf``, and ``nan``, which has no literal, is ``(1e999 - 1e999)``.
READABLE_VALUES = st.recursive(
    st.one_of(SCALARS, st.floats(allow_nan=True, allow_infinity=True)),
    _containers,
    max_leaves=12,
)


def shape(value):
    """``value`` with every collection and scalar tagged by kind: ``1``, ``1.0``
    and ``true`` are different literals although Python calls them equal."""
    if isinstance(value, Mapping):
        return ("struct", tuple((name, shape(field)) for name, field in dict(value).items()))
    if isinstance(value, (Bag, list, tuple)):
        return ("bag", tuple(shape(item) for item in value))
    if isinstance(value, str):
        return ("str", str(value))
    if isinstance(value, float) and math.isnan(value):
        return ("float", "nan")  # nan equals nothing, itself included
    return (type(value).__name__, value)


def parsed_shape(expression):
    """:func:`shape` of the value a parsed literal denotes (``bag(...)`` evaluation
    flattens nested bags, so the comparison is on the constructor tree)."""
    if isinstance(expression, StructExpr):
        return ("struct", tuple((name, parsed_shape(field)) for name, field in expression.fields))
    if isinstance(expression, BagExpr):
        return ("bag", tuple(parsed_shape(item) for item in expression.items))
    if isinstance(expression, Arithmetic):  # nan: infinity minus itself
        return shape(expression.compile()({}))
    assert isinstance(expression, Const)
    return shape(expression.value)


class TestLiteralWriter:
    """One writer for every literal: same bytes as before, and the reader reads them."""

    @settings(derandomize=True, max_examples=300)
    @given(VALUES)
    def test_writes_what_the_replaced_writer_wrote(self, value):
        assert literal_to_oql(value) == reference_render_value(value)

    @settings(derandomize=True, max_examples=300)
    @given(READABLE_VALUES)
    def test_text_parses_back_to_the_same_value(self, value):
        parsed = parse_query(f"struct(v: {literal_to_oql(value)})").expression
        ((_name, expression),) = parsed.fields
        assert parsed_shape(expression) == shape(value)

    @settings(derandomize=True)
    @given(st.lists(VALUES, max_size=4))
    def test_bag_literal_rows_and_constants_share_the_writer(self, rows):
        text = logical_to_oql(BagLiteral(tuple(rows)))
        assert text == "Bag(" + ", ".join(reference_render_value(row) for row in rows) + ")"
        assert [Const(row).to_oql() for row in rows] == [literal_to_oql(row) for row in rows]

    def test_infinities_are_written_as_numbers_not_as_a_name(self):
        assert literal_to_oql(float("inf")) == "1e999"
        assert literal_to_oql(Struct({"lo": float("-inf")})) == "struct(lo: -1e999)"
        text = "select x from x in bag(1e999, -1e999)"
        assert parse_query(text).to_oql() == text

    def test_nan_is_written_as_infinity_minus_itself(self):
        assert literal_to_oql(float("nan")) == "(1e999 - 1e999)"
        bag = parse_query(f"bag({literal_to_oql(float('nan'))}, 1)")
        assert math.isnan(bag.items[0].compile()({}))
        where = parse_query(f"select x from x in p where x.a = {literal_to_oql(float('nan'))}")
        assert math.isnan(where.where.right.compile()({}))

    def test_bool_is_written_as_a_keyword_not_as_a_number(self):
        assert literal_to_oql(True) == "true"
        assert literal_to_oql(Struct({"flag": False, "n": 0})) == "struct(flag: false, n: 0)"

    def test_rendering_a_partial_answer_constructs_no_const(self, monkeypatch):
        """The deterministic stand-in for a timing: the replaced writer built
        one ``Const`` per scalar, 1800 of them here."""
        rows = tuple(
            Struct({"id": i, "name": f"person {i}", "salary": 10.5 * i}) for i in range(600)
        )
        plan = Union((Submit("r0", Get("person0"), "person0"), BagLiteral(rows)))
        built = []
        original = Const.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(Const, "__init__", counting)
        Const(1)
        assert len(built) == 1  # the spy sees constructions
        text = logical_to_oql(plan)
        assert len(built) == 1
        assert text.count("struct(") == 600

    def test_writer_imports_nothing_per_value(self):
        tree = ast.parse(textwrap.dedent(inspect.getsource(literal_to_oql)))
        assert not [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]


class TestPlanTextOnRead:
    """``QueryResult.logical_plan`` / ``physical_plan`` render when read, not before."""

    QUERY = "select x.name from x in person where x.salary > 10"

    @pytest.fixture
    def literal_renders(self, monkeypatch):
        """Every ``to_text`` rendering of literal rows, logical or physical."""
        rendered = []
        for kind in (BagLiteral, MkBag):
            original = kind._render

            def spy(self, original=original):
                rendered.append(type(self).__name__)
                return original(self)

            monkeypatch.setattr(kind, "_render", spy)
        return rendered

    def test_query_and_resubmit_render_no_embedded_rows(self, literal_renders):
        mediator, servers = build_paper_mediator()
        with mediator:
            servers[0].take_down()
            partial = mediator.query(self.QUERY)
            assert partial.is_partial and 'Bag("Sam")' in partial.partial_query
            servers[0].bring_up()
            full = mediator.resubmit(partial)
            assert full.data == Bag(["Mary", "Sam"])
            assert literal_renders == []
            # ... and the views still say what ran, once somebody looks.
            assert "mkbag('Sam')" in full.physical_plan
            assert "Bag('Sam')" in full.logical_plan
            assert set(literal_renders) == {"BagLiteral", "MkBag"}

    def test_views_are_read_only_and_none_without_a_plan(self):
        mediator, _servers = build_paper_mediator()
        with mediator:
            result = mediator.query(self.QUERY)
            assert result.logical_plan == result.logical.to_text()
            assert result.physical_plan == result.physical.to_text()
            with pytest.raises(AttributeError):
                result.physical_plan = "something else"
            scalar = mediator.query("1 + 1")
            assert scalar.logical_plan is None and scalar.physical_plan is None

    def test_physical_plan_read_after_a_dba_change_is_the_plan_that_ran(self):
        mediator, _servers = build_paper_mediator()
        with mediator:
            expected = mediator.explain(self.QUERY).optimized.physical.to_text()
            result = mediator.query(self.QUERY)
            mediator.drop_extent("person1")
            assert "person1" in expected
            assert result.physical_plan == expected
            assert "person1" not in mediator.query(self.QUERY).physical_plan


class TestPartialTextOnRead:
    """A partial answer's rows are written into its OQL text when it is read."""

    QUERY = "select struct(n: x.name, s: x.salary) from x in person where x.salary > 10"

    @pytest.fixture
    def row_writes(self, monkeypatch):
        """Every row a literal writer is asked to write (the rows are structs;
        the constants in the plan's predicates are not)."""
        written = []
        original = expressions.literal_to_oql

        def spy(value):
            if isinstance(value, Struct):
                written.append(value)
            return original(value)

        monkeypatch.setattr(expressions, "literal_to_oql", spy)
        monkeypatch.setattr(unparser, "literal_to_oql", spy)
        return written

    def test_query_and_resubmit_write_no_embedded_row(self, row_writes):
        mediator, servers = build_paper_mediator()
        with mediator:
            servers[0].take_down()
            partial = mediator.query(self.QUERY)
            assert partial.is_partial
            servers[0].bring_up()
            full = mediator.resubmit(partial)
            assert len(full.data) == 2
            assert row_writes == []
            # The resubmitted answer's text is the partial answer; reading
            # it writes the one embedded row, and the partial answer shares
            # that writing.
            assert full.query_text == 'union(select struct(n: x0.name, s: x0.salary) ' \
                'from x0 in person0 where x0.salary > 10, Bag(struct(n: "Sam", s: 50)))'
            assert partial.partial_query == full.query_text
            assert row_writes == [Struct({"n": "Sam", "s": 50})]

    def test_reading_twice_writes_each_row_once(self, row_writes):
        mediator, servers = build_paper_mediator()
        with mediator:
            servers[0].take_down()
            partial = mediator.query(self.QUERY)
            first = partial.partial_query
            assert partial.partial_query is first
            assert len(row_writes) == 1
            assert first == logical_to_oql(partial.partial_plan)

    def test_a_plan_with_no_rendering_fails_the_run_that_built_it(self):
        """Only the rows wait for a reader: the shape is written with the
        answer, so a rename over a two-source join fails the query itself."""
        mediator, servers = build_paper_mediator()
        with mediator:
            plan = implement(
                Rename(
                    (("name", "n"), ("id", "id")),
                    Join(
                        Submit("r0", Get("person0"), extent_name="person0"),
                        Submit("r1", Get("person1"), extent_name="person1"),
                        "id",
                    ),
                )
            )
            assert mediator.executor.execute(plan).data == Bag([Struct({"n": "Mary", "id": 1})])
            servers[0].take_down()
            with pytest.raises(QueryExecutionError, match="multi-source"):
                mediator.executor.execute(plan)

    def test_a_plan_holding_the_hole_character_is_written_at_once(self):
        plan = Union(
            (
                Submit(
                    "r0",
                    Select("x", Comparison("=", Path(Var("x"), "name"), Const("\x000\x00")), Get("p")),
                    extent_name="p",
                ),
                BagLiteral((Struct({"name": "Sam"}),)),
            )
        )
        assert str(OQLText(plan)) == logical_to_oql(plan)
