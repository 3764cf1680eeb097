"""Shared plumbing for the static-analysis checkers.

Everything here is plain-stdlib: findings, parsed source modules, the spec
container the checkers consume, and the handful of AST helpers (dotted-name
resolution, qualname tracking) every checker needs.
"""

from __future__ import annotations

import ast
import importlib.util
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.analysis.dispatch import DispatchSite, Hierarchy
    from repro.analysis.drift import DriftSpec
    from repro.analysis.lockspec import LockComponent


# --------------------------------------------------------------------------- findings
@dataclass(frozen=True)
class Finding:
    """One violation reported by a checker.

    ``key()`` is the stable identity used by the baseline file: it contains
    the checker, rule, path, enclosing scope and a discriminator ``detail``
    -- but **not** the line number, so unrelated edits above a baselined
    finding don't invalidate the baseline.
    """

    checker: str  #: "locks" | "dispatch" | "hygiene" | "drift"
    rule: str  #: short rule id, e.g. "unguarded-write"
    path: str  #: repo-relative posix path
    line: int  #: 1-based line of the offending node
    scope: str  #: enclosing qualname ("Class.method") or "<module>"
    message: str  #: human-readable description
    detail: str = ""  #: stable discriminator for the baseline key

    def key(self) -> str:
        return "|".join((self.checker, self.rule, self.path, self.scope, self.detail))

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.checker}:{self.rule}] {self.scope}: {self.message}"


# --------------------------------------------------------------------------- sources
@dataclass(frozen=True)
class SourceModule:
    """A parsed source file: path (repo-relative posix), text and AST."""

    path: str
    text: str
    tree: ast.Module

    @property
    def lines(self) -> list[str]:
        return self.text.splitlines()


def load_modules(root: Path, scan: Iterable[str]) -> list[SourceModule]:
    """Parse every ``.py`` file under the given scan roots (files or dirs)."""
    modules: list[SourceModule] = []
    seen: set[str] = set()
    for entry in scan:
        base = root / entry
        files: Iterable[Path]
        if base.is_dir():
            files = sorted(base.rglob("*.py"))
        elif base.is_file():
            files = [base]
        else:
            continue
        for file in files:
            rel = file.relative_to(root).as_posix()
            if rel in seen:
                continue
            seen.add(rel)
            text = file.read_text(encoding="utf-8")
            modules.append(SourceModule(path=rel, text=text, tree=ast.parse(text, filename=rel)))
    return modules


# --------------------------------------------------------------------------- spec
@dataclass(frozen=True)
class Spec:
    """Everything the checkers need to know about one codebase.

    The repo's own spec is built by :func:`repro.analysis.spec.repo_spec`;
    fixture directories ship an ``analysis_spec.py`` defining ``SPEC``.
    """

    scan: tuple[str, ...]  #: dirs/files (relative to root) to parse
    lock_components: tuple["LockComponent", ...] = ()
    hierarchies: tuple["Hierarchy", ...] = ()
    dispatch_sites: tuple["DispatchSite", ...] = ()
    #: path prefixes (relative posix) where the hygiene rules apply
    hygiene_scan: tuple[str, ...] = ()
    drift: "DriftSpec | None" = None
    #: default baseline file, relative to root ("" = no baseline)
    baseline: str = ""


def load_spec_file(path: Path) -> Spec:
    """Load ``SPEC`` from a fixture's ``analysis_spec.py``."""
    module_spec = importlib.util.spec_from_file_location(f"_analysis_spec_{path.stem}", path)
    if module_spec is None or module_spec.loader is None:  # pragma: no cover
        raise RuntimeError(f"cannot load spec file {path}")
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    spec = getattr(module, "SPEC", None)
    if not isinstance(spec, Spec):
        raise RuntimeError(f"{path} does not define SPEC = Spec(...)")
    return spec


# --------------------------------------------------------------------------- AST helpers
def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def tail_name(node: ast.expr) -> str | None:
    """The final identifier of a Name/Attribute chain (``a.b.c`` -> ``c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def self_attr(node: ast.expr) -> str | None:
    """``attr`` when node is exactly ``self.attr``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def iter_functions(
    tree: ast.Module,
) -> Iterator[tuple[str | None, str, ast.FunctionDef | ast.AsyncFunctionDef]]:
    """Yield ``(class_name, func_qualname, node)`` for every function.

    ``func_qualname`` chains nested functions (``outer.inner``) but not the
    class; ``class_name`` is the innermost enclosing class (or None).
    """

    def walk(node: ast.AST, cls: str | None, prefix: str) -> Iterator[
        tuple[str | None, str, ast.FunctionDef | ast.AsyncFunctionDef]
    ]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                yield cls, qual, child
                yield from walk(child, cls, f"{qual}.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, child.name, "")

    yield from walk(tree, None, "")


def find_class(tree: ast.Module, name: str) -> ast.ClassDef | None:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def class_field_names(cls: ast.ClassDef) -> list[str]:
    """Dataclass-style annotated field names declared in a class body."""
    fields: list[str] = []
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            fields.append(stmt.target.id)
    return fields


def isinstance_classes(node: ast.Call) -> list[str]:
    """Class simple names named by an ``isinstance(x, ...)`` call."""
    names: list[str] = []
    if len(node.args) == 2:
        target = node.args[1]
        candidates = target.elts if isinstance(target, ast.Tuple) else [target]
        for cand in candidates:
            name = tail_name(cand)
            if name:
                names.append(name)
    return names
