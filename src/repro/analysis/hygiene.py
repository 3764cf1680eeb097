"""Cancellation / generator hygiene checker.

The runtime cancels cooperatively: `CancelledError` unwinds barrier worker
threads, `StreamClosed` unwinds streaming producers, and waits go through
`repro.runtime.cancellation` so `Mediator.close()` can interrupt them.  Two
things silently break that machinery:

* **broad-except** -- an ``except Exception`` / ``except BaseException`` /
  bare ``except`` in runtime scope can swallow ``StreamClosed`` (and, for
  ``BaseException``, ``CancelledError``) and keep a cancelled worker
  running.  Two shapes are fine: a handler whose body immediately
  re-raises, and a ``try`` whose *earlier* handlers name a cancellation
  exception explicitly (``except StreamClosed: ...`` before the broad
  catch) -- the idiomatic fault-isolation boundary.  Everything else is a
  finding: fixed, or baselined with the reason the broad catch is
  load-bearing.
* **raw-sleep** -- ``time.sleep`` in runtime scope ignores the cancellation
  event; use ``cancellation.sleep`` (or an event wait) so a close() does
  not have to out-wait a backoff.

Scope is ``Spec.hygiene_scan`` path prefixes.  (The third hygiene rule from
the issue -- generators holding a lock across ``yield`` -- is enforced by
the lock checker's ``lock-across-yield`` rule, which has the lock-tracking
machinery.)

* **dynamic-code** -- in every module: builtin ``exec``/``eval``/``compile``
  outside :data:`DYNAMIC_CODE_HOME` (the row-kernel emitter).  Never baselined.
"""

from __future__ import annotations

import ast

from repro.analysis.core import Finding, SourceModule, Spec, dotted_name, iter_functions

#: exception names that make an ``except`` clause "broad"
BROAD = frozenset({"Exception", "BaseException"})

#: cancellation signals; a try that handles one of these *before* its broad
#: handler has already routed cancellation explicitly
CANCELLATION = frozenset({"StreamClosed", "CancelledError", "QueueClosed"})

#: the one module that may turn text into code, and the builtins that do
DYNAMIC_CODE_HOME = "src/repro/runtime/kernels.py"
DYNAMIC = frozenset({"exec", "eval", "compile", "builtins.exec", "builtins.eval", "builtins.compile"})


def _is_broad(handler: ast.ExceptHandler) -> str | None:
    """The broad name caught by this handler, or None."""
    if handler.type is None:
        return "bare except"
    types = (
        handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    )
    for t in types:
        name = t.attr if isinstance(t, ast.Attribute) else (
            t.id if isinstance(t, ast.Name) else None
        )
        if name in BROAD:
            return name
    return None


def _handler_names(handler: ast.ExceptHandler) -> set[str]:
    if handler.type is None:
        return set()
    types = (
        handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    )
    names = set()
    for t in types:
        name = t.attr if isinstance(t, ast.Attribute) else (
            t.id if isinstance(t, ast.Name) else None
        )
        if name:
            names.add(name)
    return names


def _reraises(handler: ast.ExceptHandler) -> bool:
    """True when the handler's body re-raises the caught exception at top
    level (``raise`` / ``raise exc``) -- possibly after bookkeeping."""
    caught = handler.name
    for stmt in handler.body:
        if isinstance(stmt, ast.Raise):
            if stmt.exc is None:
                return True
            if (
                caught
                and isinstance(stmt.exc, ast.Name)
                and stmt.exc.id == caught
            ):
                return True
    return False


def check_hygiene(spec: Spec, modules: list[SourceModule]) -> list[Finding]:
    findings: list[Finding] = []
    for module in modules:
        scoped = any(module.path.startswith(p) for p in spec.hygiene_scan)
        # map every node to its enclosing function qualname for scopes
        scope_of: dict[ast.AST, str] = {}
        for cls, qual, func in iter_functions(module.tree):
            name = f"{cls}.{qual}" if cls else qual
            for sub in ast.walk(func):
                scope_of.setdefault(sub, name)
        counters: dict[tuple[str, str], int] = {}

        def scope(node: ast.AST) -> str:
            return scope_of.get(node, "<module>")

        def ordinal(rule: str, where: str) -> int:
            counters[(rule, where)] = counters.get((rule, where), 0) + 1
            return counters[(rule, where)]

        for node in ast.walk(module.tree):
            if scoped and isinstance(node, ast.Try):
                earlier: set[str] = set()
                for handler in node.handlers:
                    broad = _is_broad(handler)
                    if (
                        broad is not None
                        and not _reraises(handler)
                        and not (earlier & CANCELLATION)
                    ):
                        where = scope(handler)
                        findings.append(
                            Finding(
                                checker="hygiene",
                                rule="broad-except",
                                path=module.path,
                                line=handler.lineno,
                                scope=where,
                                message=f"`except {broad}` without re-raise can "
                                "swallow StreamClosed"
                                + (
                                    " and CancelledError"
                                    if broad != "Exception"
                                    else " (CancelledError escapes, StreamClosed does not)"
                                ),
                                detail=f"{broad}#{ordinal('broad-except', where)}",
                            )
                        )
                    earlier |= _handler_names(handler)
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name in DYNAMIC and module.path != DYNAMIC_CODE_HOME:
                    message = f"builtin `{name}` outside {DYNAMIC_CODE_HOME}: build code from values, not text"
                    where = scope(node)
                    findings.append(Finding("hygiene", "dynamic-code", module.path, node.lineno, where, message, name))
                if scoped and name == "time.sleep":
                    where = scope(node)
                    findings.append(
                        Finding(
                            checker="hygiene",
                            rule="raw-sleep",
                            path=module.path,
                            line=node.lineno,
                            scope=where,
                            message="raw time.sleep ignores the cancellation "
                            "event; use cancellation.sleep or an event wait",
                            detail=f"time.sleep#{ordinal('raw-sleep', where)}",
                        )
                    )
    return findings
