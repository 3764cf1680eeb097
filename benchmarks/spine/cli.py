"""``python -m benchmarks.spine``: run workloads, print metrics, write BENCH.json.

With ``--workload NAME`` one workload runs in this process and the last line
of standard output is the result object the benchmark contract asks for.
Without it every workload runs in its own subprocess (so ``peak_rss_mb`` is
per workload), untraced and then traced, and the merged report goes to
``benchmarks/spine/out/BENCH.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from benchmarks.spine import compare, runner, trace, workloads

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
DECLARATION = HERE.parents[1] / "BENCHMARK.json"


def declaration() -> dict[str, Any]:
    """The root BENCHMARK.json: names, units, directions and bounds."""
    return json.loads(DECLARATION.read_text())


def run_workload(
    name: str, seed: int, seconds: float, traced: bool, rounds: int | None, scale: float = 1.0
) -> dict[str, Any]:
    """Run one workload in this process and return its full report.

    ``scale`` (share of the op lists) is for the smoke tests; the CLI always runs the full lists.
    """
    declared = declaration()
    workload = workloads.build(name, seed, scale)
    refs = runner.references(workload, seed)
    results: list[runner.RoundResult] = []
    # A traced run: a settling round (a process's first round runs ~15% faster
    # than its later ones; skipped under --rounds), an untraced reference
    # round, then the traced rounds.
    lead = 0 if not traced else 1 if rounds else 2
    planned = lead + (rounds or (runner.TRACED_ROUNDS if traced else runner.ROUNDS))
    started = time.perf_counter()
    for index in range(planned):
        is_traced = traced and index >= lead
        results.append(
            runner.run_round(workload, seed, refs, traced=is_traced, keep_spans=is_traced and index == planned - 1)
        )
        out_of_time = time.perf_counter() - started >= seconds
        if out_of_time and not traced and rounds is None and len(results) >= runner.MIN_ROUNDS:
            break
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    first_failure = next((r.first_failure for r in results if r.first_failure), None)
    report: dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "rounds": len(results),
        "ops_per_round": len(results[0].main.flat),
        "clients": workload.clients,
        "attempted": attempted,
        "failed": failed,
        "first_failure": first_failure,
    }
    untraced = [r for r in results if r.layer is None]
    report["determinism"] = runner.determinism(workload, results)
    report["counters"] = results[0].counters
    if traced:
        traced_rounds = [r for r in results if r.layer is not None]
        report["metrics"] = runner.per_layer(untraced[-1], traced_rounds)
        report["absent_wrap_points"] = traced_rounds[-1].absent
        spans = traced_rounds[-1].spans
        if spans is not None:
            OUT.mkdir(exist_ok=True)
            (OUT / f"trace-{name}.json").write_text(json.dumps({"workload": name, "seed": seed, "spans": trace.to_json(spans)}))
        declared_metrics = declared["per_layer"]
    else:
        report["metrics"], per_round, report["samples"] = runner.end_to_end(workload, untraced)
        report["per_round"] = per_round
        report["round_quartiles"] = {name: runner.quartiles(series) for name, series in per_round.items()}
        report["raw_metrics"] = runner.end_to_end(workload, untraced, normalised=False)[0]
        report["machine_speed"] = [r.main.factor for r in untraced]
        report["unscaled"] = sorted(workload.unscaled)
        declared_metrics = declared["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared_metrics}
    missing = sorted(set(units) ^ set(report["metrics"]))
    if missing:
        raise SystemExit(f"BENCHMARK.json and the runner disagree on metric names: {missing}")
    report["metrics"] = {k: {"value": float(report["metrics"][k]), "unit": units[k]} for k in units}
    report["correct"] = failed == 0 and report["determinism"]["ok"]
    return report


def print_report(report: dict[str, Any]) -> None:
    name = report["workload"]
    kind = "per-layer (traced)" if report["traced"] else "end-to-end (untraced)"
    print(f"== {name}: {kind}; seed {report['seed']}, {report['rounds']} rounds x {report['ops_per_round']} ops, {report['clients']} client(s)")
    if not report["traced"]:
        print("   times are scaled to reference machine speed; percentiles are over the per-op median")
        print("   across rounds: the tail of the query mix's intrinsic cost, not of machine")
        print("   interference; [q1 q2 q3] = what single rounds would have reported")
    for metric, entry in report["metrics"].items():
        line = f"   {metric:<40} {entry['value']:>14.4f} {entry['unit']:<6}"
        quartiles = report.get("round_quartiles", {}).get(metric)
        if quartiles:
            line += "  [" + " ".join(f"{q:.4g}" for q in quartiles) + "]"
        count = report.get("samples", {}).get(metric)
        if count:
            line += f"  n={count['n']}, {count['beyond']} beyond"
        if metric in report.get("unscaled", ()):
            line += "  (as the clock read it)"
        print(line)
    print(f"   attempted {report['attempted']}, failed {report['failed']}" + (f"; first failure: {report['first_failure']}" if report["first_failure"] else ""))
    determinism = report["determinism"]
    print(f"   determinism: {determinism['summary']}")
    if report.get("absent_wrap_points"):
        print(f"   absent wrap points: {', '.join(report['absent_wrap_points'])}")


def contract_line(report: dict[str, Any]) -> str:
    return json.dumps(
        {
            "correct": report["correct"],
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": report["metrics"],
        }
    )


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own subprocess; merged into out/BENCH.json."""
    OUT.mkdir(exist_ok=True)
    merged: dict[str, Any] = {"benchmark": "spine", "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    status = 0
    for name in workloads.NAMES:
        entry: dict[str, Any] = {}
        for traced in ([0, 1] if args.trace else [0]):
            detail = OUT / f"run-{name}-trace{traced}.json"
            command = [
                sys.executable, "-m", "benchmarks.spine",
                "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(traced), "--detail", str(detail),
            ]
            if args.rounds:
                command += ["--rounds", str(args.rounds)]
            done = subprocess.run(command, cwd=HERE.parents[1])
            if done.returncode != 0:
                status = done.returncode
                continue
            report = json.loads(detail.read_text())
            entry["per_layer" if traced else "end_to_end"] = report
        merged["workloads"][name] = entry
    target = OUT / "BENCH.json"
    target.write_text(json.dumps(merged, indent=1, sort_keys=True))
    print(f"wrote {target}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.spine", description=__doc__)
    parser.add_argument("--workload", choices=workloads.NAMES, help="run one workload in this process (default: all, one subprocess each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(declaration()["run_seconds"]), help="time budget of a run's rounds: fewer than 5 (never under 3) run if it is used up first")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1), help="1: traced run, per-layer metrics")
    parser.add_argument("--rounds", type=int, help="exactly this many rounds, whatever --seconds says")
    parser.add_argument("--detail", help="also write the full report of a --workload run here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"), help="compare two BENCH.json files and exit")
    args = parser.parse_args(argv)
    if args.compare:
        return compare.main(args.compare[0], args.compare[1], declaration())
    if args.workload is None:
        return run_all(args)
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.rounds)
    print_report(report)
    if args.detail:
        Path(args.detail).write_text(json.dumps(report, indent=1, sort_keys=True))
    print(contract_line(report))
    return 0
