"""Dispatch-completeness checker.

The algebra is dispatched by ``isinstance`` ladders in several places
(unparser, the row composer, the kernel emitter, the wrapper-side evaluator,
the SQL renderer).  Each :class:`DispatchSite`
names the functions making up one ladder, which class
:class:`Hierarchy` it dispatches over, and which subclasses it
**deliberately** does not handle -- with a justification.  The checker
enumerates the hierarchy from the AST (transitively, across every scanned
module, so a subclass added anywhere is seen) and reports:

* **missing-arm** -- a subclass neither handled nor exempted;
* **stale-exemption** -- an exempted subclass the site now handles (the
  exemption list must shrink as coverage grows);
* **unknown-class** -- spec drift: an exemption naming a class that no
  longer exists;
* **mutable-node** -- a member of a hierarchy the spec declares ``frozen``
  that is not a ``@dataclass(frozen=True)``.  The algebra nodes keep their
  rendered text (``to_text()`` is built once per node), which is only sound
  while no node is ever edited in place.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.core import (
    Finding,
    SourceModule,
    Spec,
    isinstance_classes,
    tail_name,
)


@dataclass(frozen=True)
class Hierarchy:
    """A dispatchable class hierarchy, rooted at one base class."""

    name: str  #: e.g. "logical"
    module: str  #: repo-relative path of the module defining the root
    root: str  #: root class name, e.g. "LogicalOp"
    #: abstract intermediate bases that are not concrete dispatch targets
    abstract: tuple[str, ...] = ()
    #: every member must be a ``@dataclass(frozen=True)`` (immutable nodes)
    frozen: bool = False


@dataclass(frozen=True)
class DispatchSite:
    """One isinstance ladder to hold complete."""

    name: str  #: display name, e.g. "unparser.unparse"
    module: str  #: repo-relative path containing the ladder
    hierarchy: str  #: Hierarchy.name this site dispatches over
    #: function qualnames ("Class.method" or "function") forming the ladder;
    #: empty means "scan the whole module"
    functions: tuple[str, ...] = ()
    #: deliberately unhandled subclasses: ((class, justification), ...)
    exempt: tuple[tuple[str, str], ...] = ()


def collect_hierarchy(
    hierarchy: Hierarchy, modules: list[SourceModule]
) -> dict[str, int]:
    """All transitive subclasses of the root across every scanned module.

    Returns ``{class_name: lineno}``.  Matching is by simple name: base
    clauses like ``log.LogicalOp`` resolve through their attribute tail, so
    a subclass defined in another module still counts.
    """
    bases_of: dict[str, tuple[list[str], int]] = {}
    for module in modules:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                names = [n for n in (tail_name(b) for b in node.bases) if n]
                bases_of[node.name] = (names, node.lineno)
    members: dict[str, int] = {}
    changed = True
    known = {hierarchy.root}
    while changed:
        changed = False
        for cls, (bases, lineno) in bases_of.items():
            if cls in known:
                continue
            if any(b in known for b in bases):
                known.add(cls)
                members[cls] = lineno
                changed = True
    for abstract in hierarchy.abstract:
        members.pop(abstract, None)
    return members


def _is_frozen_dataclass(cls: ast.ClassDef) -> bool:
    for decorator in cls.decorator_list:
        if isinstance(decorator, ast.Call) and tail_name(decorator.func) == "dataclass":
            for keyword in decorator.keywords:
                if keyword.arg == "frozen":
                    return isinstance(keyword.value, ast.Constant) and keyword.value.value is True
    return False


def _check_frozen(
    hierarchy: Hierarchy, members: dict[str, int], modules: list[SourceModule]
) -> list[Finding]:
    findings: list[Finding] = []
    for module in modules:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.ClassDef)
                and members.get(node.name) == node.lineno
                and not _is_frozen_dataclass(node)
            ):
                findings.append(
                    Finding(
                        checker="dispatch",
                        rule="mutable-node",
                        path=module.path,
                        line=node.lineno,
                        scope=node.name,
                        message=f"`{node.name}` ({hierarchy.name} hierarchy) is not a "
                        "`@dataclass(frozen=True)`: nodes keep their rendered text "
                        "and must never be edited in place",
                        detail=f"{node.name}@{hierarchy.name}",
                    )
                )
    return findings


def _functions_in(module: SourceModule, qualnames: tuple[str, ...]) -> list[ast.AST]:
    """The AST nodes to scan: named functions, or the whole module."""
    if not qualnames:
        return [module.tree]
    wanted = set(qualnames)
    found: list[ast.AST] = []

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                if qual in wanted:
                    found.append(child)
                    wanted.discard(qual)
                walk(child, f"{qual}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{child.name}.")

    walk(module.tree, "")
    if wanted:
        found.append(ast.Module(body=[], type_ignores=[]))  # sentinel: missing fn
        found[-1]._missing = sorted(wanted)  # type: ignore[attr-defined]
    return found


def _handled_in_functions(
    module: SourceModule, qualnames: tuple[str, ...], universe: set[str]
) -> tuple[set[str], list[str], int]:
    """Classes from ``universe`` named in isinstance ladders (or raised as
    handled) inside the given functions.  Returns (handled, missing_fns,
    first_lineno)."""
    handled: set[str] = set()
    missing_fns: list[str] = []
    first_line = 1
    for node in _functions_in(module, qualnames):
        if hasattr(node, "_missing"):
            missing_fns.extend(node._missing)  # type: ignore[attr-defined]
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and first_line == 1:
            first_line = node.lineno
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id == "isinstance"
            ):
                handled.update(c for c in isinstance_classes(sub) if c in universe)
            elif isinstance(sub, ast.Call):
                # constructor mentions count too: a ladder arm that builds
                # `Project(...)` clearly knows about Project
                name = tail_name(sub.func)
                if name in universe:
                    handled.add(name)
    return handled, missing_fns, first_line


def check_dispatch(spec: Spec, modules: list[SourceModule]) -> list[Finding]:
    findings: list[Finding] = []
    by_path = {m.path: m for m in modules}
    hierarchies = {h.name: h for h in spec.hierarchies}
    members_cache: dict[str, dict[str, int]] = {
        name: collect_hierarchy(h, modules) for name, h in hierarchies.items()
    }

    for name, hierarchy in hierarchies.items():
        if hierarchy.frozen:
            findings.extend(_check_frozen(hierarchy, members_cache[name], modules))

    for site in spec.dispatch_sites:
        module = by_path.get(site.module)
        hierarchy = hierarchies.get(site.hierarchy)
        if module is None or hierarchy is None:
            findings.append(
                Finding(
                    checker="dispatch",
                    rule="spec-error",
                    path=site.module,
                    line=1,
                    scope=site.name,
                    message="dispatch spec names a module or hierarchy that does not exist",
                    detail=f"bad-site@{site.name}",
                )
            )
            continue
        members = members_cache[site.hierarchy]
        universe = set(members)
        handled, missing_fns, line = _handled_in_functions(module, site.functions, universe)
        for fn in missing_fns:
            findings.append(
                Finding(
                    checker="dispatch",
                    rule="spec-error",
                    path=site.module,
                    line=1,
                    scope=site.name,
                    message=f"dispatch spec names function `{fn}` not found in module",
                    detail=f"missing-function@{site.name}:{fn}",
                )
            )
        exempt = {cls for cls, _ in site.exempt}
        for cls in sorted(exempt - universe):
            findings.append(
                Finding(
                    checker="dispatch",
                    rule="unknown-class",
                    path=site.module,
                    line=line,
                    scope=site.name,
                    message=f"exemption names `{cls}`, which is not a member of "
                    f"the `{site.hierarchy}` hierarchy",
                    detail=f"{cls}@{site.name}",
                )
            )
        for cls in sorted(exempt & handled):
            findings.append(
                Finding(
                    checker="dispatch",
                    rule="stale-exemption",
                    path=site.module,
                    line=line,
                    scope=site.name,
                    message=f"`{cls}` is exempted but the site handles it; drop "
                    "the exemption",
                    detail=f"{cls}@{site.name}",
                )
            )
        for cls in sorted(universe - handled - exempt):
            findings.append(
                Finding(
                    checker="dispatch",
                    rule="missing-arm",
                    path=site.module,
                    line=line,
                    scope=site.name,
                    message=f"`{cls}` ({site.hierarchy} hierarchy, defined at "
                    f"line {members[cls]}) has no arm at this dispatch site and "
                    "no exemption",
                    detail=f"{cls}@{site.name}",
                )
            )
    return findings
