"""Documentation reference check: links and file mentions must not rot.

Scans every markdown file in the repository root and ``docs/`` for

* relative markdown links (``[text](path)``) -- the target must exist;
* backtick-quoted repository paths (``src/...``, ``tests/...``,
  ``benchmarks/...``, ``examples/...``, ``docs/...``) -- the file must
  exist;
* backtick-quoted ``repro.*`` module dotted paths -- the module must exist
  under ``src/``;
* backtick-quoted ``path.py::Name`` and ``path.py::Class.member``
  references -- the path resolves against the repository root, then
  ``src/repro/``, then as the unique suffix of a repository file, and that
  file must define the name.

This is the documented-entry-points-can't-rot counterpart of the CI
examples-smoke job: renaming a module or benchmark without updating the
docs fails the build.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DOC_FILES = sorted(
    [*REPO.glob("*.md"), *(REPO / "docs").glob("*.md")],
    key=lambda path: path.name,
)
#: ISSUE/CHANGES describe work (files may not exist yet); SNIPPETS/PAPERS
#: are generated corpora whose code blocks pattern-match as links.
EXCLUDED = {"ISSUE.md", "CHANGES.md", "SNIPPETS.md", "PAPERS.md", "PAPER.md"}

MARKDOWN_LINK = re.compile(r"\[[^\]]+\]\(([^)#\s]+)(#[^)\s]*)?\)")
REPO_PATH = re.compile(
    r"`((?:src|tests|benchmarks|examples|docs)/[A-Za-z0-9_./-]+\.(?:py|md))`"
)
MODULE_PATH = re.compile(r"`(repro(?:\.[a-z_][a-z0-9_]*)+)`")
DEFINITION = re.compile(r"`([A-Za-z0-9_./-]+\.py)::\s*([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)?)`")
PYTHON_FILES = sorted(
    path.relative_to(REPO).as_posix()
    for top in ("src", "tests", "benchmarks", "examples")
    for path in (REPO / top).rglob("*.py")
)


def doc_files():
    files = [path for path in DOC_FILES if path.name not in EXCLUDED]
    assert files, "no markdown files found -- is the repository layout intact?"
    return files


@pytest.mark.parametrize("doc", doc_files(), ids=lambda path: path.name)
def test_relative_links_resolve(doc):
    text = doc.read_text(encoding="utf-8")
    broken = []
    for match in MARKDOWN_LINK.finditer(text):
        target = match.group(1)
        if "://" in target or target.startswith("mailto:"):
            continue
        resolved = (doc.parent / target).resolve()
        if not resolved.exists():
            broken.append(target)
    assert not broken, f"{doc.name}: broken relative link(s): {broken}"


@pytest.mark.parametrize("doc", doc_files(), ids=lambda path: path.name)
def test_mentioned_repository_files_exist(doc):
    text = doc.read_text(encoding="utf-8")
    missing = sorted(
        {
            mention
            for mention in REPO_PATH.findall(text)
            if not (REPO / mention).exists()
        }
    )
    assert not missing, f"{doc.name}: references missing file(s): {missing}"


@pytest.mark.parametrize("doc", doc_files(), ids=lambda path: path.name)
def test_mentioned_modules_exist(doc):
    text = doc.read_text(encoding="utf-8")
    missing = []
    for dotted in sorted(set(MODULE_PATH.findall(text))):
        relative = Path("src", *dotted.split("."))
        if not (
            (REPO / relative).with_suffix(".py").exists()
            or (REPO / relative / "__init__.py").exists()
        ):
            missing.append(dotted)
    assert not missing, f"{doc.name}: references missing module(s): {missing}"


def resolve(mention):
    """The repository file a ``path.py`` mention names, or ``None``."""
    for base in (REPO, REPO / "src" / "repro"):
        if (base / mention).is_file():
            return base / mention
    matches = [path for path in PYTHON_FILES if path.endswith("/" + mention)]
    return REPO / matches[0] if len(matches) == 1 else None


def defined_names(body):
    """Names a module or class body binds: functions, classes, assignments."""
    names = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets if isinstance(target, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def defines(path, dotted):
    """Whether ``path`` defines ``Name`` or ``Class.member``."""
    body = ast.parse(path.read_text(encoding="utf-8")).body
    name, _, member = dotted.partition(".")
    if not member:
        return name in defined_names(body)
    classes = [node for node in body if isinstance(node, ast.ClassDef) and node.name == name]
    return any(member in defined_names(cls.body) for cls in classes)


@pytest.mark.parametrize("doc", doc_files(), ids=lambda path: path.name)
def test_mentioned_definitions_exist(doc):
    text = doc.read_text(encoding="utf-8")
    missing = []
    for mention, dotted in sorted(set(DEFINITION.findall(text))):
        path = resolve(mention)
        if path is None or not defines(path, dotted):
            missing.append(f"{mention}::{dotted}")
    assert not missing, f"{doc.name}: references undefined name(s): {missing}"


def test_architecture_doc_covers_every_package():
    """The package map must name every top-level package under src/repro."""
    text = (REPO / "docs" / "ARCHITECTURE.md").read_text(encoding="utf-8")
    packages = sorted(
        child.name
        for child in (REPO / "src" / "repro").iterdir()
        if child.is_dir() and (child / "__init__.py").exists()
    )
    unmapped = [name for name in packages if f"repro.{name}" not in text]
    assert not unmapped, f"docs/ARCHITECTURE.md misses package(s): {unmapped}"
