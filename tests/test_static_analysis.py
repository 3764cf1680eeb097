"""The repo itself passes `python -m repro.analysis`, and the suite catches
a synthetic operator that skips the dispatch ladders it must extend."""

import ast
import dataclasses
import inspect
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro import Mediator
from repro.analysis import (
    load_modules,
    render_lock_table,
    run_suite,
)
from repro.analysis.baseline import Baseline
from repro.analysis.dispatch import check_dispatch
from repro.analysis.drift import extract_lock_block
from repro.analysis.spec import repo_spec
from repro.runtime.executor import ExecutorConfig

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_repo_is_clean_under_the_suite():
    result = run_suite(REPO_ROOT)
    assert result.ok, "\n".join(
        [f.render() for f in result.new]
        + [f"stale baseline: {e.key}" for e in result.stale]
        + result.baseline_errors
    )


def test_every_baseline_entry_is_justified():
    baseline = Baseline.load(REPO_ROOT / "analysis-baseline.txt")
    assert baseline.errors == []
    assert baseline.entries, "repo baseline unexpectedly empty"
    for entry in baseline.entries.values():
        assert "TODO" not in entry.justification, entry.key


def test_cli_exits_zero_on_the_repo():
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--root", str(REPO_ROOT)],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 new" in proc.stdout


def test_new_operator_without_dispatch_arms_is_flagged(tmp_path):
    """A logical/physical operator added without touching the unparser and
    the row composer must surface as missing-arm findings -- the
    machine-checked half of the "extend the ladders" rule.  (Its counterpart
    and its cost are checked when the class is defined:
    ``test_optimizer.py::TestOneDefinitionSite``.)"""
    shutil.copytree(REPO_ROOT / "src" / "repro", tmp_path / "src" / "repro")
    logical = tmp_path / "src" / "repro" / "algebra" / "logical.py"
    physical = tmp_path / "src" / "repro" / "algebra" / "physical.py"
    logical.write_text(
        logical.read_text()
        + "\n\n@dataclass(frozen=True)\nclass Shuffle(LogicalOp):\n    child: LogicalOp\n"
    )
    physical.write_text(
        physical.read_text()
        + "\n\n@dataclass(frozen=True)\nclass MkShuffle(PhysicalOp):\n    child: PhysicalOp\n"
    )
    spec = dataclasses.replace(repo_spec(), drift=None, baseline=None)
    result = run_suite(tmp_path, spec=spec, baseline_path=None)
    flagged = {
        (f.scope, f.message.split("`")[1])
        for f in result.findings
        if f.rule == "missing-arm"
    }
    shuffle_sites = {scope for scope, cls in flagged if cls == "Shuffle"}
    mkshuffle_sites = {scope for scope, cls in flagged if cls == "MkShuffle"}
    assert "unparser.unparse" in shuffle_sites, sorted(flagged)
    assert "operators.compose_rows" in mkshuffle_sites, sorted(flagged)


def test_runtime_does_not_borrow_the_source_side_evaluator():
    """`AlgebraEvaluator` is the simulated *source's* evaluator; the mediator
    evaluates rows with `runtime.operators.compose_rows` only."""
    offenders = [
        path.relative_to(REPO_ROOT).as_posix()
        for path in sorted((REPO_ROOT / "src" / "repro" / "runtime").rglob("*.py"))
        if "AlgebraEvaluator" in path.read_text(encoding="utf-8")
    ]
    assert offenders == []


def test_mediator_does_not_mirror_the_executor_knobs():
    """`ExecutorConfig` is the one knob list: the constructor forwards to it
    instead of naming its fields, so a knob is settable at construction the
    day it exists and a deleted one is refused by the dataclass."""
    assert list(inspect.signature(Mediator.__init__).parameters) == [
        "self",
        "name",
        "answer_cache",
        "config",
    ]
    mediator = Mediator(retry_backoff=0.001)
    assert mediator.executor.config == ExecutorConfig(retry_backoff=0.001)
    for gone in ("max_concurrent_queries", "no_such_knob"):
        with pytest.raises(TypeError):
            Mediator(**{gone: 1})


def test_priority_is_a_parameter_of_the_serving_door_only():
    """Admission is the serving layer's: nothing below it takes a scheduling
    class to thread down to a second gate."""
    src = REPO_ROOT / "src" / "repro"
    offenders = []
    for path in sorted(src.rglob("*.py")):
        relative = path.relative_to(src).as_posix()
        if relative.startswith("serving/") or relative == "runtime/admission.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                if "priority" in names:
                    offenders.append(f"{relative}:{node.lineno}")
    assert offenders == []


def test_dispatch_checker_covers_every_declared_hierarchy():
    spec = repo_spec()
    hierarchy_names = {h.name for h in spec.hierarchies}
    assert hierarchy_names == {"logical", "physical", "expr"}
    used = {site.hierarchy for site in spec.dispatch_sites}
    assert used == hierarchy_names


def test_architecture_lock_table_matches_the_spec():
    doc = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text(encoding="utf-8")
    extracted = extract_lock_block(doc)
    assert extracted is not None, "lock-spec markers missing from docs/ARCHITECTURE.md"
    block, _start_line = extracted
    assert block.strip() == render_lock_table(repo_spec().lock_components).strip()


def test_ci_has_a_blocking_static_analysis_job():
    workflow = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
    assert "static-analysis:" in workflow
    assert "python -m repro.analysis" in workflow


def test_spec_modules_all_exist():
    """Every module named in the repo spec resolves to a scanned file, so a
    file rename cannot silently disable a checker."""
    spec = repo_spec()
    modules = {m.path for m in load_modules(REPO_ROOT, spec.scan)}
    for component in spec.lock_components:
        assert component.module in modules, component.module
    for hierarchy in spec.hierarchies:
        assert hierarchy.module in modules, hierarchy.module
    for site in spec.dispatch_sites:
        assert site.module in modules, site.module
    spec_errors = [
        f
        for f in check_dispatch(spec, load_modules(REPO_ROOT, spec.scan))
        if f.rule == "spec-error"
    ]
    assert spec_errors == [], [f.render() for f in spec_errors]
