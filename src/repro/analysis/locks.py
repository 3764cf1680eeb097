"""Lock-discipline checker.

Enforces the machine-readable lock spec (:mod:`repro.analysis.lockspec`)
against the code:

* **unguarded-write** -- an assignment/augmented assignment/mutating method
  call on a guarded ``self`` attribute outside a ``with self.<lock>`` block
  for the lock the spec says guards it (constructors are exempt, as are
  methods the spec marks as running with the lock already held);
* **lock-order** -- acquiring a spec lock while holding one of equal or
  greater rank (the acquisition hierarchy is part of the spec);
* **lock-across-yield** -- a generator yielding while holding a lock (spec
  locks inside component classes, plus a name-based heuristic --
  ``*lock*``, ``_condition``, ``_state``, ``_active`` -- in hygiene scope);
* **blocking-under-lock** -- ``time.sleep``, thread/future ``join()``,
  ``result()``, wrapper ``submit``/``submit_stream``, timed queue
  ``get``/``pop`` and foreign-condition ``wait`` calls made while holding a
  lock.  ``wait``/``wait_for`` on the held condition itself is the correct
  pattern and exempt, as are ``get``/``pop`` with ``timeout=0``.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.core import (
    Finding,
    SourceModule,
    Spec,
    dotted_name,
    find_class,
    self_attr,
    tail_name,
)
from repro.analysis.lockspec import LockComponent, LockDecl

#: method names that mutate their receiver in place
MUTATORS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "clear",
        "discard",
        "extend",
        "insert",
        "move_to_end",
        "pop",
        "popleft",
        "popitem",
        "remove",
        "setdefault",
        "sort",
        "update",
    }
)

#: lock-ish attribute names for the heuristic (spec-less) rules
HEURISTIC_LOCK_NAMES = frozenset({"_condition", "_state", "_active"})

CONSTRUCTORS = frozenset({"__init__", "__post_init__", "__new__"})


def _looks_like_lock(name: str | None) -> bool:
    return name is not None and ("lock" in name.lower() or name in HEURISTIC_LOCK_NAMES)


def _with_lock_attr(item: ast.withitem) -> str | None:
    """The ``attr`` of a ``with self.attr:`` item, else None."""
    return self_attr(item.context_expr)


def _assign_roots(node: ast.stmt) -> list[ast.expr]:
    """Targets whose mutation a lock rule should inspect."""
    if isinstance(node, ast.Assign):
        return list(node.targets)
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return [node.target]
    if isinstance(node, ast.Delete):
        return list(node.targets)
    return []


def _self_root(node: ast.expr) -> str | None:
    """First attribute of a ``self.a...`` chain, seen through subscripts."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
        node = node.value
    return None


class _FunctionChecker(ast.NodeVisitor):
    """Walks one function body tracking the stack of held locks."""

    def __init__(
        self,
        module: SourceModule,
        qualname: str,
        component: LockComponent | None,
        heuristic: bool,
        findings: list[Finding],
        seen: set[tuple[str, str, int, str]],
    ):
        self.module = module
        self.qualname = qualname
        self.component = component
        self.heuristic = heuristic
        self.findings = findings
        self.seen = seen
        #: stack of (lock_name, LockDecl | None) currently held
        self.held: list[tuple[str, LockDecl | None]] = []
        self.in_constructor = qualname.rpartition(".")[2] in CONSTRUCTORS

    # -- helpers ---------------------------------------------------------------------
    def _emit(self, rule: str, node: ast.AST, message: str, detail: str) -> None:
        line = getattr(node, "lineno", 0)
        dedup = (rule, self.module.path, line, detail)
        if dedup in self.seen:
            return
        self.seen.add(dedup)
        self.findings.append(
            Finding(
                checker="locks",
                rule=rule,
                path=self.module.path,
                line=line,
                scope=self.qualname,
                message=message,
                detail=detail,
            )
        )

    def _held_decl_attrs(self) -> set[str]:
        return {name for name, _ in self.held}

    def _spec_lock(self, attr: str | None) -> LockDecl | None:
        if attr is None or self.component is None:
            return None
        return self.component.lock_for(attr)

    def _held_rank(self) -> tuple[int, str] | None:
        """Highest rank currently held among spec locks (rank, name)."""
        best: tuple[int, str] | None = None
        for name, decl in self.held:
            if decl is None or decl.rank is None:
                continue
            if best is None or decl.rank > best[0]:
                best = (decl.rank, name)
        return best

    def _unguarded_ok(self, attr: str) -> bool:
        if self.component is None:
            return False
        method = self.qualname.rpartition(".")[2]
        return any(
            m == method and a == attr for m, a, _ in self.component.unguarded_ok
        )

    # -- with / locks ----------------------------------------------------------------
    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:  # pragma: no cover
        self._visit_with(node)

    def _visit_with(self, node: ast.With | ast.AsyncWith) -> None:
        pushed = 0
        for item in node.items:
            attr = _with_lock_attr(item)
            decl = self._spec_lock(attr)
            is_lock = decl is not None or (
                self.heuristic and _looks_like_lock(tail_name(item.context_expr))
            )
            if attr is None and self.heuristic and _looks_like_lock(tail_name(item.context_expr)):
                attr = tail_name(item.context_expr)
            if not is_lock or attr is None:
                self.visit(item.context_expr)
                continue
            held = self._held_rank()
            ranked = decl is not None and decl.rank is not None
            if ranked and held is not None and decl.rank <= held[0] and not (
                decl.kind == "RLock" and held[1] == attr
            ):
                self._emit(
                    "lock-order",
                    node,
                    f"acquires `{attr}` (rank {decl.rank}) while holding "
                    f"`{held[1]}` (rank {held[0]}); locks must be acquired in "
                    "increasing rank order",
                    f"{held[1]}->{attr}@{self.qualname}",
                )
            self.held.append((attr, decl))
            pushed += 1
        for stmt in node.body:
            self.visit(stmt)
        for _ in range(pushed):
            self.held.pop()

    # -- yields ----------------------------------------------------------------------
    def visit_Yield(self, node: ast.Yield) -> None:
        self._check_yield(node)
        self.generic_visit(node)

    def visit_YieldFrom(self, node: ast.YieldFrom) -> None:
        self._check_yield(node)
        self.generic_visit(node)

    def _check_yield(self, node: ast.AST) -> None:
        if self.held:
            lock = self.held[-1][0]
            self._emit(
                "lock-across-yield",
                node,
                f"generator yields while holding `{lock}`; a stalled consumer "
                "would hold the lock indefinitely",
                f"{lock}@{self.qualname}",
            )

    # -- nested defs get a fresh stack (they run later, not under this lock) ----------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass

    # -- writes ----------------------------------------------------------------------
    def _check_write(self, stmt: ast.stmt) -> None:
        if self.component is None or self.in_constructor:
            return
        for target in _assign_roots(stmt):
            attr = _self_root(target)
            if attr is None:
                continue
            decl = self.component.guard_of(attr)
            if decl is None:
                continue
            if decl.attr in self._held_decl_attrs():
                continue
            if self._unguarded_ok(attr):
                continue
            self._emit(
                "unguarded-write",
                stmt,
                f"writes `self.{attr}` (guarded by `{decl.attr}`) without "
                f"holding `{decl.attr}`",
                f"{attr}@{self.qualname}",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        self._check_write(node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_write(node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_write(node)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        self._check_write(node)
        self.generic_visit(node)

    # -- calls: mutators on guarded state, blocking calls under a lock ---------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            method = func.attr
            # mutating call on guarded state outside the lock
            if (
                self.component is not None
                and not self.in_constructor
                and method in MUTATORS
            ):
                attr = _self_root(func.value)
                if attr is not None:
                    decl = self.component.guard_of(attr)
                    if (
                        decl is not None
                        and decl.attr not in self._held_decl_attrs()
                        and not self._unguarded_ok(attr)
                    ):
                        self._emit(
                            "unguarded-write",
                            node,
                            f"calls `self.{attr}.{method}(...)` (guarded by "
                            f"`{decl.attr}`) without holding `{decl.attr}`",
                            f"{attr}.{method}@{self.qualname}",
                        )
            if self.held:
                self._check_blocking_attr_call(node, func)
        elif isinstance(func, ast.Name) and self.held and func.id == "sleep":
            self._blocking(node, "sleep(...)", "sleep")
        dn = dotted_name(func)
        if self.held and dn in {"time.sleep", "cancellation.sleep"}:
            self._blocking(node, f"{dn}(...)", dn or "sleep")
        self.generic_visit(node)

    def _blocking(self, node: ast.AST, call: str, detail_call: str) -> None:
        lock = self.held[-1][0]
        self._emit(
            "blocking-under-lock",
            node,
            f"blocking call {call} while holding `{lock}`",
            f"{detail_call}@{self.qualname}",
        )

    def _check_blocking_attr_call(self, node: ast.Call, func: ast.Attribute) -> None:
        method = func.attr
        base_attr = self_attr(func.value)
        held_attrs = self._held_decl_attrs()
        if method in {"wait", "wait_for"}:
            # waiting on the condition you hold is the correct pattern
            if base_attr is not None and base_attr in held_attrs:
                return
            if _looks_like_lock(tail_name(func.value)) or base_attr is not None:
                self._blocking(node, f".{method}(...) on `{tail_name(func.value)}`", f".{method}")
            return
        if method == "join":
            # str.join takes exactly one positional (the iterable); thread/pool
            # joins take none, or a timeout keyword
            if len(node.args) == 1 and not node.keywords:
                return
            self._blocking(node, ".join(...)", ".join")
            return
        if method in {"result", "submit", "submit_stream"}:
            self._blocking(node, f".{method}(...)", f".{method}")
            return
        if method in {"get", "pop"}:
            timeout = next((k.value for k in node.keywords if k.arg == "timeout"), None)
            if timeout is None:
                return  # plain dict/list get/pop: not blocking
            if isinstance(timeout, ast.Constant) and timeout.value == 0:
                return  # explicit non-blocking poll
            self._blocking(node, f".{method}(timeout=...)", f".{method}")


def _iter_class_functions(
    cls: ast.ClassDef,
) -> Iterable[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef]]:
    def walk(node: ast.AST, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                yield qual, child
                yield from walk(child, f"{qual}.")

    yield from walk(cls, "")


def check_locks(spec: Spec, modules: list[SourceModule]) -> list[Finding]:
    findings: list[Finding] = []
    seen: set[tuple[str, str, int, str]] = set()
    by_path = {m.path: m for m in modules}
    by_cls = {c.cls: c for c in spec.lock_components}

    # spec-driven pass: component classes
    for comp in spec.lock_components:
        module = by_path.get(comp.module)
        if module is None:
            findings.append(
                Finding(
                    checker="locks",
                    rule="spec-error",
                    path=comp.module,
                    line=1,
                    scope=comp.cls,
                    message="lock spec names a module that was not scanned",
                    detail=f"missing-module@{comp.cls}",
                )
            )
            continue
        cls_node = find_class(module.tree, comp.cls)
        if cls_node is None:
            findings.append(
                Finding(
                    checker="locks",
                    rule="spec-error",
                    path=comp.module,
                    line=1,
                    scope=comp.cls,
                    message=f"lock spec names class `{comp.cls}` not found in module",
                    detail=f"missing-class@{comp.cls}",
                )
            )
            continue
        for base in cls_node.bases:
            if tail_name(base) in by_cls:
                comp = comp.inherit(by_cls[tail_name(base)])
        heuristic = any(comp.module.startswith(p) for p in spec.hygiene_scan)
        for qual, func in _iter_class_functions(cls_node):
            checker = _FunctionChecker(
                module, f"{comp.cls}.{qual}", comp, heuristic, findings, seen
            )
            held = dict(comp.held_in).get(qual.rpartition(".")[2])
            if held is not None:
                checker.held.append((held, comp.lock_for(held)))
            for stmt in func.body:
                checker.visit(stmt)

    # heuristic pass: every function in hygiene scope (fixture code and
    # non-component runtime helpers still get yield/blocking checks)
    spec_classes = {(c.module, c.cls) for c in spec.lock_components}
    for module in modules:
        if not any(module.path.startswith(p) for p in spec.hygiene_scan):
            continue
        from repro.analysis.core import iter_functions

        for cls, qual, func in iter_functions(module.tree):
            if (module.path, cls) in spec_classes:
                continue  # already covered by the spec pass
            name = f"{cls}.{qual}" if cls else qual
            checker = _FunctionChecker(module, name, None, True, findings, seen)
            for stmt in func.body:
                checker.visit(stmt)
    return findings
