"""Kernel differential: a per-element chain, and a grouping, through its
generated row loop against the interpreted operators it replaced.

A kernel has two loop bodies, picked per element: one reads a ``Struct``
element in place, the other builds the environment the references build.
The drawn inputs mix the element kinds in one input, so one input runs
through both bodies, with and without an outer environment.

The references are those operators as they stood, kept here (as
``tests/test_expressions.py`` keeps ``reference_evaluate``): one Volcano
generator per chain operator, one environment dict per expression-evaluating
operator and element, the expressions' ``compile()`` closures; and the
grouping loop with one accumulator object per aggregate and group.  Every
chain and grouping must give the same rows, or fail with the same exception
type and message.
"""

from __future__ import annotations

import gc
import inspect
import os
import time
from collections.abc import Mapping
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GeneratorWrapper, Mediator
from repro.algebra.capabilities import CapabilitySet
from repro.algebra.expressions import BooleanExpr, Comparison, Const, Path, StructExpr, Var
from repro.algebra.logical import Get
from repro.algebra.physical import Exec, Field, Filter, MkApply, MkGroupBy, MkLimit, MkProj
from repro.datamodel.values import Struct
from repro.errors import QueryExecutionError
from repro.runtime import kernels
from repro.runtime.operators import Env, compose_rows, env_bindings, environment_builder, group_rows
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
            yield Struct({attr: row.get(attr) for attr in attributes})
        else:
            yield Struct({attr: getattr(row, attr, None) for attr in attributes})


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
#: a stream's input: mostly Structs, which a kernel's Struct body reads, with
#: every other kind in among them, which its general body reads
STRUCT_LED = st.lists(st.one_of(ELEMENT_KINDS[0], ELEMENT_KINDS[0], *ELEMENT_KINDS[1:]), min_size=2, max_size=6)
#: one kind of element per input as often as a mix: a mix mostly stops at
#: the first element some other kind fails on
ELEMENTS = st.one_of(
    *(st.lists(kind, min_size=1, max_size=4) for kind in ELEMENT_KINDS),
    st.lists(st.one_of(ELEMENT_KINDS), max_size=4),
    STRUCT_LED,
    STRUCT_LED,
)
#: ``_env`` splats a mapping's fields into variables; ``z`` binds nothing
OPERATOR_VARIABLES = st.sampled_from(["x", "x", "x", "y", "_env"])
NAMES = st.sampled_from(["v", "w", "k", "missing"])
FILTERS = st.builds(lambda v, e: lambda child: Filter(v, e, child), OPERATOR_VARIABLES, EXPRESSIONS)
APPLIES = st.builds(lambda v, e: lambda child: MkApply(v, e, child), OPERATOR_VARIABLES, EXPRESSIONS)
OPERATORS = st.one_of(
    FILTERS, APPLIES, st.builds(lambda a: lambda child: MkProj(a, child), st.lists(NAMES, max_size=3).map(tuple))
)
#: any chain, or an ``mkapply`` between two filters: the Struct body reads the
#: first filter in place and the second as the general body does
CHAINS = st.one_of(st.lists(OPERATORS, min_size=1, max_size=4), st.tuples(FILTERS, APPLIES, FILTERS).map(list))
BASE_ENVS = st.one_of(st.none(), st.just({}), st.fixed_dictionaries({"y": VALUES}), st.fixed_dictionaries({"z": VALUES}))


@settings(derandomize=True, max_examples=EXAMPLES, deadline=None)
@given(
    CHAINS,
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


def test_a_struct_without_the_attribute_fails_as_the_reference_does():
    """The Struct body's subscript misses: ``read()`` gives the reference's
    error, in a chain, a grouping and a join key alike."""
    rows = [Struct({"a": 1}), {"a": 2}, Struct({"b": 3})]
    missing = Path(Var("x"), "a")
    message = "object struct(b: 3) has no attribute 'a'"
    assert agree(Filter("x", Comparison(">", missing, Const(0)), ROWS_IN), rows) == ("raised", "QueryExecutionError", message)
    assert agree(MkApply("x", missing, ROWS_IN), rows) == ("raised", "QueryExecutionError", message)
    grouped = group_agree("x", (("k", missing),), (("n", "count", Var("x")),), rows)
    assert grouped == ("raised", "QueryExecutionError", message)
    with pytest.raises(QueryExecutionError) as raised:
        kernels.key_function("x", missing)(rows[2])
    assert str(raised.value) == message


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


class CursorScan(ScanCounter):
    """A lazy source that keeps every cursor it opened."""

    def __init__(self, total):
        super().__init__(total)
        self.cursors = []

    def __call__(self):
        cursor = super().__call__()
        self.cursors.append(cursor)
        return cursor


def test_a_limit_over_a_union_closes_its_leaves_without_the_garbage_collector():
    """The limit is met inside one branch: every call is reported cancelled
    and every cursor opened is closed -- the one read from and the ones never
    read -- with the collector off and the result still held."""
    scans = {f"person{i}": CursorScan(100_000) for i in range(3)}
    mediator = Mediator(name="gen")
    mediator.define_interface("Person", [("id", "Long"), ("name", "String"), ("salary", "Short")], extent_name="person")
    attributes = {extent: ["id", "name", "salary"] for extent in scans}
    mediator.register_wrapper("w0", GeneratorWrapper("w0", scans, attributes, CapabilitySet.of("get")))
    mediator.create_repository("r0")
    for extent in scans:
        mediator.add_extent(extent, "Person", "w0", "r0")
    gc.disable()
    try:
        result = mediator.query_stream("select x.name from x in person where x.salary > 10 limit 5")
        stream = result.stream  # the result lets go of it once drained
        assert "mkunion(" in result.physical.to_text().split("mklimit(", 1)[1]
        assert len(list(result.iter_rows())) == 5
        assert stream.finished and sum(scan.yielded for scan in scans.values()) < 100
        reports = stream.reports
        assert len(reports) == 3 and all(report.cancelled and report.available for report in reports)
        # Each call opened its cursor in the pool; one still opening closes it once it has it.
        deadline = time.monotonic() + 5
        while sum(len(scan.cursors) for scan in scans.values()) < 3 and time.monotonic() < deadline:
            time.sleep(0.001)
        cursors = [cursor for scan in scans.values() for cursor in scan.cursors]
        while any(inspect.getgeneratorstate(c) != inspect.GEN_CLOSED for c in cursors) and time.monotonic() < deadline:
            time.sleep(0.001)
        assert [inspect.getgeneratorstate(cursor) for cursor in cursors] == [inspect.GEN_CLOSED] * 3
    finally:
        gc.enable()
        mediator.close()


# -- generated code carries no query or source text --------------------------------------------
HOSTILE = "a'\"\n__import__('os').system('exit 1')#"


def named_chain(attribute, field, variable="x"):
    """filter, apply and project, every name of them ``attribute``/``field``."""
    test = Comparison("=", Path(Var(variable), attribute), Const(attribute))
    item = StructExpr(((field, Path(Var(variable), attribute)),))
    chain = MkApply(variable, item, Filter(variable, test, ROWS_IN))
    return MkProj((field,), chain)


def test_names_reach_the_loop_as_values_never_as_source():
    plain, _ = kernels._shape(named_chain("v", "f", "x"))
    hostile, values = kernels._shape(named_chain(HOSTILE, HOSTILE + "!", HOSTILE + "?"))
    assert hostile == plain and HOSTILE in values
    assert kernels.emit(hostile) == kernels.emit(plain)
    assert "__import__" not in kernels.emit(hostile)
    rows = [Struct({HOSTILE: HOSTILE}), Struct({HOSTILE: "other"}), {HOSTILE: HOSTILE}]
    expected = ("rows", [canon(Struct({HOSTILE + "!": HOSTILE}))] * 2)
    assert agree(named_chain(HOSTILE, HOSTILE + "!", HOSTILE + "?"), rows) == expected


# -- groupings: the reference is the interpreted loop and accumulators they replaced ------------
def reference_group_hash_key(values):
    parts = []
    for value in values:
        try:
            hash(value)
            parts.append(value)
        except TypeError:
            parts.append(("__unhashable__", repr(value)))
    return tuple(parts)


class ReferenceCount:
    __slots__ = ("count", "total")

    def __init__(self):
        self.count = 0
        self.total = None

    def add(self, value):
        if value is not None:
            self.count += 1

    def result(self):
        return self.count


class ReferenceSum(ReferenceCount):
    __slots__ = ()

    def add(self, value):
        if value is not None:
            self.count += 1
            self.total = value if self.total is None else self.total + value

    def result(self):
        return self.total


class ReferenceAvg(ReferenceSum):
    __slots__ = ()

    def result(self):
        return None if self.count == 0 else self.total / self.count


class ReferenceMin(ReferenceSum):
    __slots__ = ()

    def add(self, value):
        if value is not None:
            self.count += 1
            if self.count == 1 or value < self.total:
                self.total = value


class ReferenceMax(ReferenceSum):
    __slots__ = ()

    def add(self, value):
        if value is not None:
            self.count += 1
            if self.count == 1 or value > self.total:
                self.total = value


REFERENCE_ACCUMULATORS = {
    "count": ReferenceCount, "sum": ReferenceSum, "avg": ReferenceAvg, "min": ReferenceMin, "max": ReferenceMax
}


def reference_group_rows(elements, variable, keys, aggregates, base_env=None, subquery_evaluator=None):
    groups = {}
    order = []
    environment = environment_builder(variable, base_env)
    key_functions = [expr.compile(subquery_evaluator) for _, expr in keys]
    arguments = [arg.compile(subquery_evaluator) for _, _, arg in aggregates]
    kinds = [REFERENCE_ACCUMULATORS.get(func, ReferenceMax) for _, func, _ in aggregates]
    for element in elements:
        env = environment(element)
        key_values = tuple(key(env) for key in key_functions)
        hash_key = reference_group_hash_key(key_values)
        state = groups.get(hash_key)
        if state is None:
            key_struct = Struct({name: value for (name, _), value in zip(keys, key_values)})
            state = (key_struct, [kind() for kind in kinds])
            groups[hash_key] = state
            order.append(hash_key)
        accumulators = state[1]
        for accumulator, argument in zip(accumulators, arguments):
            accumulator.add(argument(env))
    if not keys and not groups:
        groups[()] = (Struct({}), [kind() for kind in kinds])
        order.append(())
    for hash_key in order:
        key_struct, accumulators = groups[hash_key]
        row = dict(key_struct)
        for accumulator, (name, _, _) in zip(accumulators, aggregates):
            row[name] = accumulator.result()
        yield Struct(row)


def group_agree(variable, keys, aggregates, rows, base_env=None, subquery=None):
    """The kernel -- through ``group_rows`` and through ``compose_rows`` -- gives the reference's outcome."""
    expected = outcome(lambda: reference_group_rows(rows, variable, keys, aggregates, base_env, subquery))
    assert outcome(lambda: group_rows(rows, variable, keys, aggregates, base_env, subquery)) == expected
    top = MkGroupBy(variable, keys, aggregates, ROWS_IN)
    assert outcome(lambda: compose_rows(top, lambda _exec: rows, base_env, subquery=subquery)) == expected
    return expected


#: mostly ``x``, and mostly plain reads, so that rows share groups and the
#: accumulators see values; ``_env`` splats, ``y`` is bound only by the outer
#: environment or an ``Env`` element
GROUP_VARIABLES = st.sampled_from(["x"] * 4 + ["y", "_env"])
GROUP_PATHS = st.builds(Path, st.sampled_from([Var("x")] * 5 + [Var("y")]), st.sampled_from(["v", "k", "k", "w"]))
GROUP_OPERANDS = st.one_of(
    GROUP_PATHS, GROUP_PATHS, GROUP_PATHS, st.sampled_from([Var("x"), Var("x"), Var("y"), Var("_env")]), EXPRESSIONS
)
GROUP_KEYS = st.lists(st.tuples(st.sampled_from(["s", "t", "n"]), GROUP_OPERANDS), max_size=3).map(tuple)
GROUP_AGGREGATES = st.lists(
    st.tuples(
        st.sampled_from(["n", "m", "s"]),
        st.sampled_from(["count", "sum", "avg", "min", "max", "median"]),
        GROUP_OPERANDS,
    ),
    max_size=3,
).map(tuple)
#: numbers often enough that sum/avg/min/max see a run of comparable values
#: and keys repeat; an ``Env`` element binds ``y`` to such a row too
GROUP_FIELDS = st.fixed_dictionaries(
    {
        "v": st.one_of(st.integers(-2, 2), st.integers(-2, 2), st.none(), VALUES),
        "w": VALUES,
        "k": st.one_of(st.integers(0, 2), st.integers(0, 2), SCALARS),
    }
)
GROUP_ELEMENT_KINDS = (
    GROUP_FIELDS.map(Struct),
    GROUP_FIELDS,
    GROUP_FIELDS.map(Foreign),
    GROUP_FIELDS.map(lambda fields: SimpleNamespace(**fields)),
    st.fixed_dictionaries({"x": GROUP_FIELDS.map(Struct), "y": GROUP_FIELDS}).map(Env),
    SCALARS,
)
GROUP_STRUCT_LED = st.lists(
    st.one_of(*[GROUP_ELEMENT_KINDS[0]] * 3, *GROUP_ELEMENT_KINDS[1:]), min_size=2, max_size=8
)
GROUP_ELEMENTS = st.one_of(
    *(st.lists(kind, min_size=2, max_size=8) for kind in GROUP_ELEMENT_KINDS),
    st.lists(st.one_of(GROUP_ELEMENT_KINDS), max_size=8),
    GROUP_STRUCT_LED,
    GROUP_STRUCT_LED,
)


@settings(derandomize=True, max_examples=EXAMPLES, deadline=None)
@given(
    GROUP_VARIABLES,
    GROUP_KEYS,
    GROUP_AGGREGATES,
    GROUP_ELEMENTS,
    BASE_ENVS,
    st.sampled_from([echo_subquery, None]),
)
def test_every_grouping_gives_the_reference_rows(variable, keys, aggregates, rows, base_env, subquery):
    group_agree(variable, keys, aggregates, rows, base_env, subquery)


X_K, X_V = Path(Var("x"), "k"), Path(Var("x"), "v")
ALL_FIVE = (("n", "count", X_V), ("t", "sum", X_V), ("a", "avg", X_V), ("lo", "min", X_V), ("hi", "max", X_V))


def test_groups_come_out_in_first_seen_order():
    rows = [Struct({"k": k, "v": v}) for k, v in [("b", 1), ("a", 2), ("b", 3), ("c", 4), ("a", 5)]]
    got = group_agree("x", (("k", X_K),), (("n", "count", Var("x")), ("t", "sum", X_V)), rows)
    assert got == outcome(lambda: [Struct({"k": k, "n": n, "t": t}) for k, n, t in [("b", 2, 4), ("a", 2, 7), ("c", 1, 4)]])


@pytest.mark.parametrize("variable", ["x", "_env"])
def test_a_scalar_aggregate_over_no_rows_is_one_row_with_count_zero(variable):
    got = group_agree(variable, (), ALL_FIVE, [])
    assert got == outcome(lambda: [Struct({"n": 0, "t": None, "a": None, "lo": None, "hi": None})])
    assert group_agree("x", (("k", X_K),), ALL_FIVE, []) == ("rows", [])


def test_none_arguments_are_skipped():
    rows = [Struct({"k": 1, "v": v}) for v in (None, 4, None, 2, 6)] + [Struct({"k": 2, "v": None})]
    got = group_agree("x", (("k", X_K),), ALL_FIVE + (("all", "count", Var("x")),), rows)
    assert got == outcome(
        lambda: [
            Struct({"k": 1, "n": 3, "t": 12, "a": 4.0, "lo": 2, "hi": 6, "all": 5}),
            Struct({"k": 2, "n": 0, "t": None, "a": None, "lo": None, "hi": None, "all": 1}),
        ]
    )


def test_unhashable_keys_group_by_their_text():
    rows = [{"k": [1, 2], "v": 1}, {"k": [1, 2], "v": 2}, {"k": [2], "v": 3}, {"k": ("__unhashable__", "[2]"), "v": 4}]
    got = group_agree("x", (("k", X_K), ("s", Const(0))), (("t", "sum", X_V),), rows)
    assert [row[1][0] for row in got[1]] == [("k", canon([1, 2])), ("k", canon([2]))]
    assert got[1][1][1][-1] == ("t", canon(7))  # the stand-in and the tuple that equals it share a group


def test_nan_keys_group_by_identity():
    nan, other = float("nan"), float("nan")
    rows = [{"k": nan, "v": 1}, {"k": nan, "v": 2}, {"k": other, "v": 3}]
    got = group_agree("x", (("k", X_K),), (("n", "count", Var("x")),), rows)
    assert [row[1][-1] for row in got[1]] == [("n", canon(2)), ("n", canon(1))]


def test_true_and_one_share_a_group_under_the_first_seen_key():
    rows = [{"k": True, "v": 1}, {"k": 1, "v": 2}, {"k": 1.0, "v": 3}, {"k": 0, "v": 4}, {"k": False, "v": 5}]
    got = group_agree("x", (("k", X_K),), (("t", "sum", X_V),), rows)
    assert got == outcome(lambda: [Struct({"k": True, "t": 6}), Struct({"k": 0, "t": 9})])


@pytest.mark.parametrize("func", ["max", "min", "sum", "avg", "median"])
def test_a_mixed_type_aggregate_raises_type_error(func):
    rows = [{"k": 1, "v": 1}, {"k": 1, "v": "a"}]
    got = group_agree("x", (("k", X_K),), (("r", func, X_V),), rows)
    assert got[:2] == ("raised", "TypeError")


def test_an_argument_is_added_in_before_the_next_is_read():
    """The second row's ``max`` fails before its ``x.w`` is read: a TypeError, not a missing attribute."""
    rows = [{"k": 1, "v": 1, "w": 1}, {"k": 1, "v": "a"}]
    got = group_agree("x", (("k", X_K),), (("hi", "max", X_V), ("t", "sum", Path(Var("x"), "w"))), rows)
    assert got[:2] == ("raised", "TypeError")


def test_group_names_reach_the_loop_as_values_never_as_source():
    keys, aggregates = ((HOSTILE, X_K),), ((HOSTILE + "!", "count", Var("x")), (HOSTILE + "?", HOSTILE, X_V))
    plain, _ = kernels._group_shape("x", (("k", X_K),), (("n", "count", Var("x")), ("m", "max", X_V)))
    hostile, values = kernels._group_shape("x", keys, aggregates)
    assert hostile == plain and HOSTILE in values
    assert "__import__" not in kernels.emit(hostile)
    group_agree("x", keys, aggregates, [{"k": 1, "v": 2}, {"k": 1, "v": 3}])


# -- join keys: the reference is the closure over the environment the joins built per row -------
#: mostly one attribute of a variable, as equi-join keys are; any expression reads the same way
KEY_EXPRESSIONS = st.one_of(
    st.builds(Path, st.builds(Var, st.sampled_from(["x", "x", "y", "_env", "z"])), NAMES),
    EXPRESSIONS,
)


@settings(derandomize=True, max_examples=EXAMPLES, deadline=None)
@given(
    OPERATOR_VARIABLES,
    KEY_EXPRESSIONS,
    st.one_of(*ELEMENT_KINDS),
    BASE_ENVS,
    st.sampled_from([echo_subquery, None]),
)
def test_a_key_function_reads_what_the_closure_reads(variable, expression, element, base_env, subquery):
    """Struct, dict, foreign, ``Env``, nil and nil-valued elements, missing
    attributes, with and without an outer environment: the generated key
    function gives the closure's value, or fails with its error."""
    environment = environment_builder(variable, base_env)
    expected = outcome(lambda: [expression.compile(subquery)(environment(element))])
    key = kernels.key_function(variable, expression, base_env, subquery)
    assert outcome(lambda: [key(element)]) == expected


def test_a_plain_row_key_builds_no_environment(monkeypatch):
    """A Struct or dict row is read in place; an outer environment, and only
    that, builds the environment dict per row."""
    built = []
    monkeypatch.setitem(kernels._HELPERS, "bindings", lambda el, name: built.append(el) or env_bindings(el, name))
    rows = [Struct({"id": 1}), {"id": None}, Struct({"id": 3})]
    key = kernels.key_function("x", Path(Var("x"), "id"))
    assert [key(row) for row in rows] == [1, None, 3] and built == []
    with pytest.raises(QueryExecutionError, match="object struct\\(other: 1\\) has no attribute 'id'"):
        key(Struct({"other": 1}))
    key = kernels.key_function("x", Path(Var("x"), "id"), base_env={"z": 0})
    assert [key(row) for row in rows] == [1, None, 3] and built == rows
