"""Knob/report/doc drift checker.

The README documents the executor's knob surface and report fields; the
architecture doc embeds the lock-discipline table.  This checker keeps the
docs honest against the code (and the lock spec):

* **knob-undocumented / knob-unknown** -- `ExecutorConfig` dataclass fields
  vs the README knob table, both directions;
* **report-undocumented** -- every `ExecReport` field is mentioned in the
  README (backticked or as ``field=``);
* **config-undocumented** -- every `ServerConfig` field is named in its own
  class docstring;
* **lockmap-drift** -- the generated lock table (from the machine-readable
  spec) differs from the marker-delimited block in docs/ARCHITECTURE.md;
  regenerate with ``python -m repro.analysis --write-docs``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.core import (
    Finding,
    SourceModule,
    Spec,
    class_fields,
    find_class,
)
from repro.analysis.lockspec import (
    LOCK_TABLE_BEGIN,
    LOCK_TABLE_END,
    render_lock_table,
)


@dataclass(frozen=True)
class DriftSpec:
    """Where the documented surfaces live."""

    readme: str = "README.md"
    architecture: str = "docs/ARCHITECTURE.md"
    executor_config: tuple[str, str] = ("src/repro/runtime/executor.py", "ExecutorConfig")
    exec_report: tuple[str, str] = ("src/repro/runtime/executor.py", "ExecReport")
    server_config: tuple[str, str] = ("src/repro/serving/server.py", "ServerConfig")


_KNOB_ROW = re.compile(r"^\|\s*`([A-Za-z_][A-Za-z0-9_]*)`\s*\|")


def _knob_table_rows(readme: str) -> dict[str, int]:
    """``{knob: lineno}`` for the rows of the "`ExecutorConfig` knobs" table."""
    rows: dict[str, int] = {}
    in_section = False
    for lineno, line in enumerate(readme.splitlines(), start=1):
        if line.startswith("#") and "ExecutorConfig" in line:
            in_section = True
            continue
        if in_section and line.startswith("#"):
            break
        if in_section:
            match = _KNOB_ROW.match(line)
            if match:
                rows[match.group(1)] = lineno
    return rows


def _mentioned(doc: str, name: str) -> bool:
    return f"`{name}`" in doc or f"{name}=" in doc or f".{name}" in doc


def _fields_of(
    modules_by_path: dict[str, SourceModule], where: tuple[str, str]
) -> tuple[list[str], int] | None:
    module = modules_by_path.get(where[0])
    if module is None:
        return None
    cls = find_class(module.tree, where[1])
    if cls is None:
        return None
    return class_fields(cls), cls.lineno


def check_drift(spec: Spec, modules: list[SourceModule], root: Path) -> list[Finding]:
    drift = spec.drift
    if drift is None:
        return []
    findings: list[Finding] = []
    by_path = {m.path: m for m in modules}

    def spec_error(path: str, message: str, detail: str) -> None:
        findings.append(
            Finding("drift", "spec-error", path, 1, "<module>", message, detail)
        )

    readme_path = root / drift.readme
    readme = readme_path.read_text(encoding="utf-8") if readme_path.is_file() else ""
    if not readme:
        spec_error(drift.readme, "README named by the drift spec is missing", "no-readme")
        return findings

    # -- ExecutorConfig <-> README knob table (both directions) ------------------------
    config = _fields_of(by_path, drift.executor_config)
    if config is None:
        spec_error(drift.executor_config[0], "ExecutorConfig class not found", "no-config")
    else:
        fields, line = config
        rows = _knob_table_rows(readme)
        for name in fields:
            if name not in rows:
                findings.append(
                    Finding(
                        "drift",
                        "knob-undocumented",
                        drift.executor_config[0],
                        line,
                        drift.executor_config[1],
                        f"knob `{name}` has no row in the README knob table",
                        name,
                    )
                )
        for name, row_line in sorted(rows.items()):
            if name not in fields:
                findings.append(
                    Finding(
                        "drift",
                        "knob-unknown",
                        drift.readme,
                        row_line,
                        "knob-table",
                        f"README documents knob `{name}`, which is not an "
                        "ExecutorConfig field",
                        name,
                    )
                )

    # -- ExecReport fields mentioned in the README ------------------------------------
    report = _fields_of(by_path, drift.exec_report)
    if report is None:
        spec_error(drift.exec_report[0], "ExecReport class not found", "no-report")
    else:
        fields, line = report
        for name in fields:
            if not _mentioned(readme, name):
                findings.append(
                    Finding(
                        "drift",
                        "report-undocumented",
                        drift.exec_report[0],
                        line,
                        drift.exec_report[1],
                        f"ExecReport field `{name}` is never mentioned in the README",
                        name,
                    )
                )

    # -- ServerConfig fields named in its own docstring --------------------------------
    module = by_path.get(drift.server_config[0])
    cls = find_class(module.tree, drift.server_config[1]) if module else None
    if cls is None:
        spec_error(drift.server_config[0], "ServerConfig class not found", "no-serverconfig")
    else:
        doc = ast.get_docstring(cls) or ""
        for name in class_fields(cls):
            if not _mentioned(doc, name) and name not in doc:
                findings.append(
                    Finding(
                        "drift",
                        "config-undocumented",
                        drift.server_config[0],
                        cls.lineno,
                        drift.server_config[1],
                        f"ServerConfig field `{name}` is not described in the "
                        "class docstring",
                        name,
                    )
                )

    # -- lock-discipline table in docs/ARCHITECTURE.md ---------------------------------
    findings.extend(check_lock_table(spec, root, drift.architecture))
    return findings


def extract_lock_block(doc: str) -> tuple[str, int] | None:
    """The current generated block (between markers) and its start line."""
    try:
        begin = doc.index(LOCK_TABLE_BEGIN)
        end = doc.index(LOCK_TABLE_END)
    except ValueError:
        return None
    start_line = doc[:begin].count("\n") + 1
    inner = doc[begin + len(LOCK_TABLE_BEGIN) : end].strip("\n")
    return inner, start_line


def check_lock_table(spec: Spec, root: Path, architecture: str) -> list[Finding]:
    if not spec.lock_components:
        return []
    path = root / architecture
    doc = path.read_text(encoding="utf-8") if path.is_file() else ""
    block = extract_lock_block(doc) if doc else None
    if block is None:
        return [
            Finding(
                "drift",
                "lockmap-drift",
                architecture,
                1,
                "lock-discipline-map",
                "no generated lock-discipline table found (markers missing); "
                "run `python -m repro.analysis --write-docs`",
                "missing-markers",
            )
        ]
    current, line = block
    expected = render_lock_table(spec.lock_components)
    if current != expected:
        return [
            Finding(
                "drift",
                "lockmap-drift",
                architecture,
                line,
                "lock-discipline-map",
                "lock-discipline table is out of date with the machine-readable "
                "lock spec; run `python -m repro.analysis --write-docs`",
                "stale-table",
            )
        ]
    return []


def write_lock_table(spec: Spec, root: Path, architecture: str) -> bool:
    """Regenerate the marker-delimited table in place.  True if changed."""
    path = root / architecture
    doc = path.read_text(encoding="utf-8")
    begin = doc.index(LOCK_TABLE_BEGIN)
    end = doc.index(LOCK_TABLE_END) + len(LOCK_TABLE_END)
    new_block = "\n".join(
        [LOCK_TABLE_BEGIN, render_lock_table(spec.lock_components), LOCK_TABLE_END]
    )
    updated = doc[:begin] + new_block + doc[end:]
    if updated != doc:
        path.write_text(updated, encoding="utf-8")
        return True
    return False
