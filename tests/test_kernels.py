"""Kernel differential: a per-element chain through its generated row loop
against the generator operators ``compose_rows`` used to stack for it.

The reference is those four operators as they stood, kept here (as
``tests/test_expressions.py`` keeps ``reference_evaluate``): one Volcano
generator per operator, one environment dict per expression-evaluating
operator and element, the expressions' ``compile()`` closures.  Every chain
must give the same rows, or fail with the same exception type and message.
"""

from __future__ import annotations

import os
from collections.abc import Mapping
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.capabilities import CapabilitySet
from repro.algebra.expressions import BooleanExpr, Comparison, Const, Path, StructExpr, Var
from repro.algebra.logical import Get
from repro.algebra.physical import Exec, Field, Filter, MkApply, MkLimit, MkProj, MkRename
from repro.datamodel.values import Struct
from repro.errors import QueryExecutionError
from repro.runtime import kernels
from repro.runtime.operators import Env, compose_rows, environment_builder
from tests.test_expressions import EXPRESSIONS, SCALARS, VALUES, canon, echo_subquery
from tests.test_streaming import ScanCounter, build_generator_mediator

#: the nightly CI job raises this tenfold via DISCO_KERNEL_EXAMPLES
EXAMPLES = int(os.environ.get("DISCO_KERNEL_EXAMPLES", "600"))

#: a placeholder exec: the chain's input, its rows the test's
ROWS_IN = Exec(Field("r"), Get("rows"), "rows")


# -- the reference: the generator operators the kernels replaced ------------------------------
def project_rows(elements, attributes):
    for element in elements:
        row = element
        if isinstance(row, Env):
            row = next(iter(row.values())) if row else row
        if isinstance(row, Mapping):
            yield Struct._adopt({attr: row.get(attr) for attr in attributes})
        else:
            yield Struct({attr: getattr(row, attr, None) for attr in attributes})


def rename_rows(elements, pairs):
    for element in elements:
        row = element
        if isinstance(row, Env):
            row = next(iter(row.values())) if row else row
        if isinstance(row, Mapping):
            yield Struct._adopt({new: row.get(old) for old, new in pairs})
        else:
            yield Struct({new: getattr(row, old, None) for old, new in pairs})


def filter_rows(elements, variable, predicate, base_env=None, subquery_evaluator=None):
    environment = environment_builder(variable, base_env)
    holds = predicate.compile(subquery_evaluator)
    for element in elements:
        if holds(environment(element)):
            yield element


def apply_rows(elements, variable, expression, base_env=None, subquery_evaluator=None):
    environment = environment_builder(variable, base_env)
    compute = expression.compile(subquery_evaluator)
    for element in elements:
        yield compute(environment(element))


def reference_chain(top, rows, base_env=None, subquery=None):
    """``rows`` through the chain headed by ``top``, one generator per operator."""
    if top is ROWS_IN:
        return iter(rows)
    rows = reference_chain(top.child, rows, base_env, subquery)
    if isinstance(top, MkProj):
        return project_rows(rows, top.attributes)
    if isinstance(top, MkRename):
        return rename_rows(rows, top.pairs)
    if isinstance(top, Filter):
        return filter_rows(rows, top.variable, top.predicate, base_env, subquery)
    return apply_rows(rows, top.variable, top.expression, base_env, subquery)


def outcome(run):
    """Every row a pipeline gave, canonical, or the exception that stopped it."""
    try:
        return ("rows", [canon(row) for row in run()])
    except Exception as exc:  # the two pipelines must also fail alike
        return ("raised", type(exc).__name__, str(exc))


def agree(top, rows, base_env=None, subquery=None):
    expected = outcome(lambda: reference_chain(top, rows, base_env, subquery))
    kernel = outcome(lambda: compose_rows(top, lambda _exec: rows, base_env, subquery=subquery))
    assert kernel == expected
    return kernel


# -- the generated differential ----------------------------------------------------------------
class Foreign(Mapping):
    """A mapping that is neither a dict nor a Struct."""

    def __init__(self, fields):
        self._data = dict(fields)

    def __getitem__(self, key):
        return self._data[key]

    def __iter__(self):
        return iter(self._data)

    def __len__(self):
        return len(self._data)

    def __repr__(self):
        return f"Foreign({self._data!r})"


ROW_FIELDS = st.fixed_dictionaries({"v": VALUES, "w": VALUES, "k": SCALARS})
ELEMENT_KINDS = (
    ROW_FIELDS.map(Struct),
    ROW_FIELDS,
    ROW_FIELDS.map(Foreign),
    ROW_FIELDS.map(lambda fields: SimpleNamespace(**fields)),
    st.fixed_dictionaries({"x": ROW_FIELDS.map(Struct), "y": VALUES}).map(Env),
    st.builds(Env),
    SCALARS,
)
#: one kind of element per input as often as a mix: a mix mostly stops at
#: the first element some other kind fails on
ELEMENTS = st.one_of(
    *(st.lists(kind, min_size=1, max_size=4) for kind in ELEMENT_KINDS),
    st.lists(st.one_of(ELEMENT_KINDS), max_size=4),
)
#: ``_env`` splats a mapping's fields into variables; ``z`` binds nothing
OPERATOR_VARIABLES = st.sampled_from(["x", "x", "x", "y", "_env"])
NAMES = st.sampled_from(["v", "w", "k", "missing"])
OPERATORS = st.one_of(
    st.builds(lambda v, e: lambda child: Filter(v, e, child), OPERATOR_VARIABLES, EXPRESSIONS),
    st.builds(lambda v, e: lambda child: MkApply(v, e, child), OPERATOR_VARIABLES, EXPRESSIONS),
    st.builds(lambda a: lambda child: MkProj(a, child), st.lists(NAMES, max_size=3).map(tuple)),
    st.builds(
        lambda p: lambda child: MkRename(p, child),
        st.lists(st.tuples(NAMES, st.sampled_from(["n", "m", "v"])), max_size=3).map(tuple),
    ),
)
BASE_ENVS = st.one_of(st.none(), st.just({}), st.fixed_dictionaries({"y": VALUES}), st.fixed_dictionaries({"z": VALUES}))


@settings(derandomize=True, max_examples=EXAMPLES, deadline=None)
@given(
    st.lists(OPERATORS, min_size=1, max_size=4),
    ELEMENTS,
    BASE_ENVS,
    st.sampled_from([echo_subquery, echo_subquery, None]),
)
def test_every_chain_gives_the_reference_rows(operators, rows, base_env, subquery):
    top = ROWS_IN
    for make in operators:
        top = make(top)
    agree(top, rows, base_env, subquery)


# -- named cases -------------------------------------------------------------------------------
def test_a_later_operand_runs_only_when_the_first_does_not_decide():
    """``x.a > 1 or x.missing = 2`` raises only for rows whose ``x.a > 1`` is false."""
    predicate = BooleanExpr(
        "or",
        (
            Comparison(">", Path(Var("x"), "a"), Const(1)),
            Comparison("=", Path(Var("x"), "missing"), Const(2)),
        ),
    )
    top = Filter("x", predicate, ROWS_IN)
    assert agree(top, [Struct({"a": 5}), {"a": 3}]) == ("rows", [canon(Struct({"a": 5})), canon({"a": 3})])
    failed = agree(top, [Struct({"a": 5}), Struct({"a": 0})])
    assert failed == ("raised", "QueryExecutionError", "object struct(a: 0) has no attribute 'missing'")
    with pytest.raises(QueryExecutionError):
        list(compose_rows(top, lambda _exec: [{"a": 0}]))


@pytest.mark.parametrize("op", ["=", "!=", "<", "<=", ">", ">="])
def test_nil_nan_and_mixed_type_comparisons(op):
    """Nil and incomparable operands are false; NaN compares as Python has it."""
    nan = float("nan")
    values = [None, nan, 0, 1, 1.0, True, "1", "a", [1], Struct({"v": 1})]
    rows = [Struct({"a": a, "b": b}) for a in values for b in values]
    test = Comparison(op, Path(Var("x"), "a"), Path(Var("x"), "b"))
    kept = agree(Filter("x", test, ROWS_IN), rows)
    computed = agree(MkApply("x", test, ROWS_IN), rows)
    assert kept[0] == "rows" and computed[0] == "rows"
    assert computed[1][: len(values)] == [canon(False)] * len(values)  # a nil left operand
    if op == "=":
        assert canon(Struct({"a": nan, "b": nan})) not in kept[1]
        assert canon(Struct({"a": 1, "b": 1.0})) in kept[1]
        assert canon(Struct({"a": 1, "b": "1"})) not in kept[1]


@pytest.mark.parametrize("variable", ["x", "_env"])
def test_an_env_element_binds_over_the_outer_environment(variable):
    """An environment element's own bindings win; the outer ones fill in."""
    rows = [Env({"x": Struct({"v": 1})}), Env({"x": Struct({"v": 3}), "z": 5}), Env({"x": Struct({"v": 3})})]
    top = Filter(variable, Comparison("<", Path(Var("x"), "v"), Var("z")), ROWS_IN)
    assert agree(top, rows, {"z": 2}) == ("rows", [canon(rows[0]), canon(rows[1])])
    assert agree(top, rows) == ("raised", "QueryExecutionError", "unbound variable 'z'")


def test_a_limit_above_a_kernel_closes_its_input():
    closed = []

    def rows():
        try:
            for i in range(100):
                yield Struct({"a": i})
        finally:
            closed.append(True)

    top = MkLimit(2, MkApply("x", Path(Var("x"), "a"), Filter("x", Comparison(">", Path(Var("x"), "a"), Const(5)), ROWS_IN)))
    assert list(compose_rows(top, lambda _exec: rows())) == [6, 7]
    assert closed == [True]


def test_a_limit_above_a_kernel_cancels_the_in_flight_call_of_a_stream():
    scan = ScanCounter(100_000)
    mediator = build_generator_mediator(scan, capabilities=CapabilitySet.of("get"))
    try:
        result = mediator.query_stream("select x.name from x in person where x.salary > 10 limit 5")
        assert "filter(" in result.physical.to_text().split("mklimit(", 1)[1]
        assert list(result.iter_rows()) == [f"p{i}" for i in range(11, 16)]
        assert scan.yielded < 100
        (report,) = result.reports
        assert report.cancelled and report.available and not result.is_partial
    finally:
        mediator.close()


# -- generated code carries no query or source text --------------------------------------------
HOSTILE = "a'\"\n__import__('os').system('exit 1')#"


def named_chain(attribute, field, variable="x"):
    """filter, apply, project and rename, every name of them ``attribute``/``field``."""
    test = Comparison("=", Path(Var(variable), attribute), Const(attribute))
    item = StructExpr(((field, Path(Var(variable), attribute)),))
    chain = MkApply(variable, item, Filter(variable, test, ROWS_IN))
    return MkRename(((field, attribute),), MkProj((field,), chain))


def test_names_reach_the_loop_as_values_never_as_source():
    plain, _ = kernels._shape(named_chain("v", "f", "x"))
    hostile, values = kernels._shape(named_chain(HOSTILE, HOSTILE + "!", HOSTILE + "?"))
    assert hostile == plain and HOSTILE in values
    assert kernels.emit(hostile) == kernels.emit(plain)
    assert "__import__" not in kernels.emit(hostile)
    rows = [Struct({HOSTILE: HOSTILE}), Struct({HOSTILE: "other"}), {HOSTILE: HOSTILE}]
    expected = ("rows", [canon(Struct({HOSTILE: HOSTILE}))] * 2)
    assert agree(named_chain(HOSTILE, HOSTILE + "!", HOSTILE + "?"), rows) == expected
