"""Self-tests for the repro.analysis checkers.

Each ``tests/analysis_fixtures/bad_*`` directory seeds known violations,
marked in-source with ``# seed: <rule>`` comments so these tests can assert
exact file/line reporting without hard-coding line numbers.  The ``clean``
fixture exercises the correct counterpart of every seeded pattern and must
produce zero findings (no false positives).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import load_spec_file, run_suite

FIXTURES = Path(__file__).parent / "analysis_fixtures"
REPO_ROOT = Path(__file__).resolve().parents[1]


def seed_lines(fixture: str) -> dict[str, list[tuple[str, int]]]:
    """Map rule -> [(module, line)] from ``# seed:`` markers in a fixture."""
    seeds: dict[str, list[tuple[str, int]]] = {}
    root = FIXTURES / fixture
    for path in sorted(root.glob("*.py")):
        for lineno, text in enumerate(path.read_text().splitlines(), start=1):
            if "# seed:" not in text:
                continue
            rules = text.split("# seed:", 1)[1]
            for rule in rules.split(","):
                seeds.setdefault(rule.strip(), []).append((path.name, lineno))
    return seeds


def run_fixture(fixture: str):
    root = FIXTURES / fixture
    spec = load_spec_file(root / "analysis_spec.py")
    return run_suite(root, spec=spec, baseline_path=None)


def reported(result) -> set[tuple[str, str, int]]:
    return {(f.rule, f.path, f.line) for f in result.findings}


@pytest.mark.parametrize("fixture", ["bad_locks", "bad_dispatch", "bad_hygiene"])
def test_every_seeded_violation_is_reported_at_its_line(fixture):
    seeds = seed_lines(fixture)
    assert seeds, f"fixture {fixture} has no # seed: markers"
    got = reported(run_fixture(fixture))
    for rule, sites in seeds.items():
        for module, line in sites:
            assert (rule, module, line) in got, (
                f"{fixture}: expected {rule} at {module}:{line}, got {sorted(got)}"
            )


@pytest.mark.parametrize("fixture", ["bad_locks", "bad_dispatch", "bad_hygiene"])
def test_no_unseeded_findings(fixture):
    """The checkers report exactly the seeded lines -- nothing extra."""
    seeds = seed_lines(fixture)
    seeded = {
        (rule, module, line)
        for rule, sites in seeds.items()
        for module, line in sites
    }
    assert reported(run_fixture(fixture)) == seeded


def test_clean_fixture_has_no_false_positives():
    result = run_fixture("clean")
    assert result.findings == [], [f.render() for f in result.findings]
    assert result.ok


def test_lock_checker_names_the_guarding_lock():
    result = run_fixture("bad_locks")
    messages = [f.message for f in result.findings if f.rule == "unguarded-write"]
    assert any("`self.count`" in m and "`_lock`" in m for m in messages)
    assert any("`self.rows.append(...)`" in m for m in messages)


def test_dispatch_checker_names_the_missing_subclass():
    result = run_fixture("bad_dispatch")
    missing = [f for f in result.findings if f.rule == "missing-arm"]
    assert len(missing) == 1
    assert "`Mul`" in missing[0].message


def test_hygiene_checker_exempts_earlier_cancellation_handler():
    """`cancellation_aware` routes StreamClosed before the broad catch."""
    result = run_fixture("bad_hygiene")
    scopes = {f.scope for f in result.findings if f.rule == "broad-except"}
    assert scopes == {"swallow_everything"}


def cli(root: Path, *extra: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--root", str(root), *extra],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )


@pytest.mark.parametrize("fixture", ["bad_locks", "bad_dispatch", "bad_hygiene"])
def test_cli_exits_nonzero_on_seeded_fixture(fixture):
    proc = cli(FIXTURES / fixture, "--no-baseline")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "new" in proc.stdout


def test_cli_exits_zero_on_clean_fixture():
    proc = cli(FIXTURES / "clean", "--no-baseline")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_baseline_suppresses_known_findings(tmp_path):
    """--write-baseline then a re-run: same findings, exit 0 after justification."""
    root = FIXTURES / "bad_hygiene"
    baseline = tmp_path / "baseline.txt"
    proc = cli(root, "--baseline", str(baseline), "--write-baseline")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # The writer leaves TODO justifications; a human must fill them in.
    text = baseline.read_text().replace("TODO: justify this exemption", "fixture")
    baseline.write_text(text)
    proc = cli(root, "--baseline", str(baseline))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "3 baselined, 0 new" in proc.stdout


def test_stale_baseline_entries_fail_the_run(tmp_path):
    baseline = tmp_path / "baseline.txt"
    baseline.write_text(
        "hygiene|broad-except|nope.py|gone|Exception#1 :: obsolete entry\n"
    )
    proc = cli(FIXTURES / "clean", "--baseline", str(baseline))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "stale" in proc.stdout


def test_unjustified_baseline_entry_is_an_error(tmp_path):
    spec = load_spec_file(FIXTURES / "bad_hygiene" / "analysis_spec.py")
    baseline = tmp_path / "baseline.txt"
    baseline.write_text("hygiene|broad-except|worker.py|swallow_everything|Exception#1\n")
    result = run_suite(FIXTURES / "bad_hygiene", spec=spec, baseline_path=baseline)
    assert result.baseline_errors
    assert not result.ok
