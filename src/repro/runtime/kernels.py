"""Per-element operator chains and groupings, compiled into one generated row loop.

A maximal chain of ``filter``, ``mkapply`` and ``mkproj`` runs as one
generator written for it (data-centric pipeline compilation, Neumann,
VLDB 2011): one loop over its input, the element in a local, and ``Const``/
``Var``/``Path``/``Comparison``/``BooleanExpr``/``StructExpr`` written out as
statements with their ``compile()`` closures' semantics; any other expression
calls its own closure.  A grouping (``mkgroupby`` at the mediator, the
``groupby`` terminal at a source) is one such loop too: its keys and arguments
read the same way, one list of accumulator slots per group, the aggregates
written inline.  A join's key (:func:`key_function`) is the same reading with
no loop around it: ``element -> key``, called once per row by the joins and
the probe runner's bucketing.  The source holds only names the emitter
invents, so it is a function of the operator's *shape* (:func:`_shape`,
:func:`_group_shape`, :func:`_key_shape`), compiled once per process.  A
cached plan keeps its kernels in its compiled-call slot, under the identity
of each chain's top node and each grouping's node; a kernel binds nothing of
a run.

A kernel whose operators read their variable has two loop bodies over the
one setup (closures compiled, ``groups`` made, once per call).  The general
body builds the environment an element needs: an :class:`Env`, an outer
environment or the ``_env`` splat.  The ``Struct`` body is for the element a
stream almost always carries, a :class:`Struct` under no outer environment
and no splat: the operator's variable is the element itself and a path off
it is one subscript, with no environment and no type test per read (up to
an ``mkapply``, whose value is not known to be a ``Struct``).  The body is
picked per element, by ``type(el) is fast``, because one input may mix the
kinds -- an ``Env`` among rows, a foreign mapping off a wrapper -- and the
rare kind must not cost the common one; ``fast`` is None where an outer
environment or a splat rules the ``Struct`` body out for the whole call.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from typing import Any, Callable, Iterable, Iterator

from repro.algebra import physical as phys
from repro.algebra.expressions import BooleanExpr, Comparison, Const, Expr, Path, StructExpr, Var, read_attribute
from repro.datamodel.values import Struct
from repro.errors import QueryExecutionError

CODE_CAPACITY = 256  #: distinct shapes whose compiled factories the process keeps
CHAIN = (phys.Filter, phys.MkApply, phys.MkProj)  #: what a chain kernel runs
#: ``kernel(rows, base_env, subquery_evaluator) -> rows``
Kernel = Callable[[Iterable[Any], "Mapping[str, Any] | None", Any], Iterator[Any]]
#: The OQL translator folds multi-variable ``from`` clauses into bind joins
#: whose elements are environments bound to this reserved variable name.
ENV_VARIABLE = "_env"
_MAX_DEPTH = 60  # nested and/or deeper than this call their closure: Python stops at 100
_COMPARISONS = {"=": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
#: aggregate -> (its slots' first values, how an argument ``v`` not None adds in, its result),
#: over its slot ``n`` (and an avg's running sum ``t``); any other name keeps the largest value
_AGGREGATE_CODE = {
    "count": ("0", "{n} += 1", "{n}"),
    "sum": ("None", "{n} = {v} if {n} is None else {n} + {v}", "{n}"),
    "avg": ("0, None", "{n} += 1\n{t} = {v} if {t} is None else {t} + {v}", "None if {n} == 0 else {t} / {n}"),
    "min": ("None", "if {n} is None or {v} < {n}:\n    {n} = {v}", "{n}"),
    "max": ("None", "if {n} is None or {v} > {n}:\n    {n} = {v}", "{n}"),
}


class Env(dict):
    """A variable environment element: maps variable names to their rows."""


def env_bindings(element: Any, variable: str) -> dict[str, Any]:
    """The variable bindings one element contributes to an environment.

    An :class:`Env` contributes its entries.  A *mapping* bound to the
    reserved environment variable is an environment that lost its type --
    partial answers embed half-joined environments as ``struct`` literals,
    and the text round trip reparses them as structs -- so its fields splat
    back into variables.  Anything else binds ``variable`` alone.
    """
    if isinstance(element, Env):
        return dict(element)
    if variable == ENV_VARIABLE and isinstance(element, Mapping):
        return {variable: element, **dict(element)}
    return {variable: element}


def _variable(env: Mapping[str, Any] | None, name: str) -> Any:
    """A variable read off an element's environment (``None``: only the operator's own)."""
    if env is not None and name in env:
        return env[name]
    raise QueryExecutionError(f"unbound variable {name!r}")


def _getter(row: Any) -> Callable[[str], Any]:
    """``name -> value`` of a projected element that is neither a :class:`Struct` nor a plain dict."""
    if isinstance(row, Env):
        # Projection over an environment is ambiguous; it never occurs in
        # translated plans, but fall back to the first binding for safety.
        row = next(iter(row.values())) if row else row
    if isinstance(row, Mapping):
        return row.get
    return lambda name: getattr(row, name, None)


def _hashable(value: Any) -> Any:
    """A group key value, or a hashable stand-in for it (rows may nest lists)."""
    try:
        hash(value)
        return value
    except TypeError:
        return ("__unhashable__", repr(value))


_HELPERS = {"Struct": Struct, "Env": Env, "read": read_attribute, "var": _variable}
_HELPERS.update(bindings=env_bindings, getter=_getter, hashable=_hashable)


# -- shapes: the nodes with each value replaced by its argument's index ---------------------------
def _value(values: list[Any], value: Any) -> int:
    values.append(value)
    return len(values) - 1


def _shape(top: phys.PhysicalOp) -> tuple[tuple, list[Any]]:
    """The shape of the chain headed by ``top`` (operators input first), and its values."""
    values: list[Any] = []
    ops = []
    while isinstance(top, CHAIN):
        if isinstance(top, phys.MkProj):
            ops.append(("row", tuple([_value(values, attribute) for attribute in top.attributes])))
        else:
            expr = top.predicate if isinstance(top, phys.Filter) else top.expression
            name, splat = _value(values, top.variable), _value(values, top.variable == ENV_VARIABLE)
            kind = "apply" if isinstance(top, phys.MkApply) else "filter"
            ops.append((kind, name, splat, _expr_shape(expr, top.variable, values, 0)))
        top = top.child
    ops.reverse()
    return (len(values), tuple(ops)), values


def _group_shape(variable: str, keys: tuple, aggregates: tuple) -> tuple[tuple, list[Any]]:
    """The shape of a grouping over ``variable`` (one ``group`` operator), and its values."""
    values: list[Any] = []
    name, splat = _value(values, variable), _value(values, variable == ENV_VARIABLE)
    keys = tuple([(_value(values, k), _expr_shape(e, variable, values, 0)) for k, e in keys])
    aggregates = tuple(
        [
            (_value(values, a), f if f in _AGGREGATE_CODE else "max", _expr_shape(e, variable, values, 0))
            for a, f, e in aggregates
        ]
    )
    return (len(values), (("group", name, splat, keys, aggregates),)), values


def _key_shape(variable: str, expression: Expr) -> tuple[tuple, list[Any]]:
    """The shape of ``expression`` read off one element bound to ``variable``, and its values."""
    values: list[Any] = []
    name, splat = _value(values, variable), _value(values, variable == ENV_VARIABLE)
    key = ("key", name, splat, _expr_shape(expression, variable, values, 0))
    return (len(values), (key,)), values


def _expr_shape(node: Expr, variable: str, values: list[Any], depth: int) -> tuple:
    if depth > _MAX_DEPTH:
        return ("call", _value(values, node))
    if isinstance(node, Path):
        return ("path", _expr_shape(node.base, variable, values, depth), _value(values, node.attribute))
    if isinstance(node, Var):
        return ("var", None if node.name == variable else _value(values, node.name))
    if isinstance(node, Const):
        return ("const", _value(values, node.value))
    if isinstance(node, Comparison) and node.op in _COMPARISONS:
        left = _expr_shape(node.left, variable, values, depth)
        return ("compare", _COMPARISONS[node.op], left, _expr_shape(node.right, variable, values, depth))
    if isinstance(node, BooleanExpr) and (node.op in ("and", "or") or node.op == "not" and node.operands):
        operands = node.operands[:1] if node.op == "not" else node.operands
        return (node.op, *[_expr_shape(o, variable, values, depth + 1) for o in operands])
    if isinstance(node, StructExpr):
        return ("struct", *[(_value(values, n), _expr_shape(e, variable, values, depth)) for n, e in node.fields])
    return ("call", _value(values, node))


# -- the emitter: a shape's source --------------------------------------------------------------
class _Emitter:
    """The row loop of one shape: its general body, and its ``Struct`` body (:meth:`struct_body`)."""

    temps, depth, outer, known = 0, 3, False, False

    def __init__(self) -> None:
        self.setup: list[str] = []
        self.body: list[str] = []
        self.tail = ["            yield el"]  # the loop body's last line, and what follows the loop
        #: the environment switches of the operators the ``Struct`` body reads in place
        self.guards: list[str] = []

    def line(self, text: str) -> None:
        pad = "    " * self.depth
        self.body.append(pad + text.replace("\n", "\n" + pad))

    def operator(self, op: tuple, k: int) -> list[str]:
        """Append operator ``k`` (counted from the chain's input); return its setup lines."""
        self.setup = []
        if op[0] == "row":
            fields = ", ".join([f"a{name}: g(a{name})" for name in op[1]])
            get = "el.get" if self.known else "el.get if type(el) is Struct or type(el) is dict else getter(el)"
            self.line(f"g = {get}\nel = Struct({{{fields}}})")
            return self.setup
        kind, name, splat, *exprs = op
        in_place = self.known
        self.env, self.name, self.used, start = "None" if in_place else f"e{k}", f"a{name}", False, len(self.body)
        if kind == "apply":
            self.line(f"el = {self.expr(exprs[0])}")
            self.known = False  # what an expression gives is not known to be a Struct
        elif kind == "key":
            self.line(f"return {self.expr(exprs[0])}")
        elif kind == "group":
            self.group(*exprs)
        else:  # a conjunction drops the element at its first false operand
            for conjunct in exprs[0][1:] if exprs[0][0] == "and" else exprs:
                self.line(f"if not {self.expr(conjunct)}:\n    continue")
        if self.used and in_place:
            self.guards.append(f"s{k}")
        elif self.used:
            # An Env element is its own environment unless an outer one lies
            # under it; an outer environment or the reserved variable needs a
            # dict built; any other element is simply its variable.
            self.outer = True
            self.setup.append(f"s{k} = a{splat} or bool(outer)")
            merged = f"{{**outer, **bindings(el, {self.name})}}"
            bind = f"el if not outer and isinstance(el, Env) else {merged} if s{k} else None"
            self.body.insert(start, "    " * self.depth + f"e{k} = {bind}")
        return self.setup

    def struct_body(self, ops: tuple) -> list[str]:
        """The loop body for a :class:`Struct` element where no outer environment
        and no ``_env`` splat lies under the operators that read it
        (:attr:`guards`): up to the first ``mkapply`` (and again after an
        ``mkproj``), the operator's variable is the element itself, a path off
        it one subscript.  Empty when no operator reads its variable."""
        general, self.body, self.known = self.body, [], True
        for k, op in enumerate(ops):
            self.operator(op, k)
            self.known = self.known or op[0] == "row"  # a projection makes a Struct
        self.body, body, self.known = general, self.body, False
        return body if self.guards else []

    def group(self, keys: tuple, aggregates: tuple) -> None:
        """Fold the element into its group, ``[key fields, accumulator slots...]``.

        Groups stay in first-seen order, and an unhashable key value stands in
        as its ``repr``.  Each argument is read and added in before the next
        one is read; a None argument adds nothing (:data:`_AGGREGATE_CODE`).
        """
        values = [self.expr(key) for _, key in keys]
        self.line(f"h = ({''.join([v + ', ' for v in values])})\ntry:\n    g = groups.get(h)\nexcept TypeError:\n"
                  "    h = tuple([hashable(v) for v in h])\n    g = groups.get(h)")
        slots = "".join([", " + _AGGREGATE_CODE[kind][0] for _, kind, _ in aggregates])
        fields = ", ".join([f"a{name}: {value}" for (name, _), value in zip(keys, values)])
        self.line(f"if g is None:\n    g = groups[h] = [{{{fields}}}{slots}]")
        results, n = [], 1
        for name, kind, argument in aggregates:
            _, add, result = _AGGREGATE_CODE[kind]
            names = {"v": self.expr(argument), "n": f"g[{n}]", "t": f"g[{n + 1}]"}
            self.line(f"if {names['v']} is not None:\n    " + add.format(**names).replace("\n", "\n    "))
            results.append(f"a{name}: {result.format(**names)}")
            n += 2 if kind == "avg" else 1
        self.setup.append("groups = {}")
        # The scalar-aggregate convention: an empty input still has a count.
        empty = [f"        if not groups:\n            groups[()] = [{{}}{slots}]"] if not keys else []
        rows = ["        for g in groups.values():", f"            yield Struct({{**g[0], {', '.join(results)}}})"]
        self.tail = empty + rows

    def expr(self, e: tuple) -> str:
        """Emit ``e``'s statements; return the name that holds its value."""
        self.temps += 1
        kind, env, t = e[0], self.env, f"t{self.temps}"
        if kind == "const":
            return f"a{e[1]}"
        if kind == "var":
            self.used = True
            own = e[1] is None
            if own and self.known:
                return "el"
            self.line(f"{t} = el if {env} is None else var({env}, {self.name})" if own else f"{t} = var({env}, a{e[1]})")
        elif kind == "path":
            b, a = self.expr(e[1]), f"a{e[2]}"
            # A Struct and a plain dict are read by subscript in place; anything
            # else, and a missing key, goes through read() for its message.
            subscript = f"try:\n    {t} = {b}[{a}]\nexcept KeyError:\n    {t} = read({b}, {a})"
            if b == "el":  # the Struct body's element
                self.line(subscript)
                return t
            self.line(f"if type({b}) is Struct or type({b}) is dict:")
            self.depth += 1
            self.line(subscript)
            self.depth -= 1
            self.line(f"else:\n    {t} = read({b}, {a})")
        elif kind == "compare":
            left, right = self.expr(e[2]), self.expr(e[3])
            self.line(f"if {left} is None or {right} is None:\n    {t} = False\nelse:\n    try:\n"
                      f"        {t} = {left} {e[1]} {right}\n    except TypeError:\n        {t} = False")
        elif kind == "not":
            self.line(f"{t} = not {self.expr(e[1])}")
        elif kind in ("and", "or"):
            # ``or`` ends at its first true operand, ``and`` at its first
            # false: each later operand runs only while the result is open.
            stop = kind == "or"
            self.line(f"{t} = {not stop}")
            for i, operand in enumerate(e[1:]):
                if i:
                    self.line(f"if {'not ' if stop else ''}{t}:")
                    self.depth += 1
                self.line(f"if {'' if stop else 'not '}{self.expr(operand)}:\n    {t} = {stop}")
                self.depth -= 1 if i else 0
        elif kind == "struct":
            fields = ", ".join([f"a{name}: {self.expr(field)}" for name, field in e[1:]])
            self.line(f"{t} = Struct({{{fields}}})")
        else:  # any other kind runs its own closure, over a real environment
            # named by its node's value, so that both bodies call the one closure
            self.used = True
            self.setup.append(f"d{e[1]} = a{e[1]}.compile(subquery)")
            alone = f"{{{self.name}: el}}"  # the operator's variable alone
            self.line(f"{t} = d{e[1]}({alone if self.known else f'{env} if {env} is not None else {alone}'})")
        return t


def emit(shape: tuple) -> str:
    """The source of a shape: ``make(helpers..., a0, a1, ...) -> kernel``."""
    count, ops = shape
    emitter = _Emitter()
    setups = [emitter.operator(op, k) for k, op in enumerate(ops)]
    # Set up the top operator first, as the generator stack it replaces did.
    setup = ["outer = dict(base_env) if base_env else {}"] if emitter.outer else []
    setup += [line for lines in reversed(setups) for line in lines]
    body = emitter.body
    in_place = emitter.struct_body(ops) if emitter.outer else []
    if in_place:  # the element picks its body; the setup is shared
        setup.append(f"fast = None if {' or '.join(emitter.guards)} else Struct")
        body = ["            if type(el) is fast:", *_indented(in_place), "            else:", *_indented(body)]
    head = [f"def make({', '.join([*_HELPERS, *(f'a{i}' for i in range(count))])}):"]
    if ops[0][0] == "key":  # one element in, its key out: a function, not a loop
        head += ["    def kernel(base_env, subquery):", *("        " + line for line in setup)]
        return "\n".join(head + ["        def key(el):", *body, "        return key", "    return kernel"])
    head += ["    def kernel(src, base_env, subquery):", *("        " + line for line in setup)]
    return "\n".join(head + ["        for el in src:", *body, *emitter.tail, "    return kernel"])


def _indented(lines: list[str]) -> list[str]:
    return ["    " + line.replace("\n", "\n    ") for line in lines]


@lru_cache(maxsize=CODE_CAPACITY)
def _factory(shape: tuple) -> Callable[..., Kernel]:
    """Emit and compile one shape into its kernel factory."""
    namespace: dict[str, Any] = {}
    exec(compile(emit(shape), "<row kernel>", "exec"), namespace)
    return namespace["make"]


def chain_kernel(top: phys.PhysicalOp) -> Kernel:
    """The kernel of the chain headed by ``top`` (see the module docstring)."""
    shape, values = _shape(top)
    return _factory(shape)(*_HELPERS.values(), *values)


def group_kernel(variable: str, keys: tuple, aggregates: tuple) -> Kernel:
    """The kernel of a grouping: one output struct per distinct key combination."""
    shape, values = _group_shape(variable, keys, aggregates)
    return _factory(shape)(*_HELPERS.values(), *values)


def key_function(
    variable: str, expression: Expr, base_env: Mapping[str, Any] | None = None, subquery: Any = None
) -> Callable[[Any], Any]:
    """``element -> key``: ``expression.compile(subquery)``'s value or error in the
    environment ``operators.environment_builder(variable, base_env)`` builds for
    the element, which is built only where an outer environment, an :class:`Env`
    element or the reserved variable needs it: a plain row is read in place."""
    shape, values = _key_shape(variable, expression)
    return _factory(shape)(*_HELPERS.values(), *values)(base_env, subquery)
