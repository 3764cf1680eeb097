"""``--compare A.json B.json``: did B get worse than A, cell by cell?

One row per (workload, end-to-end metric) with both values, how much worse B
is (negative = better), the cell's bound and a verdict:

``same``        B is not worse than A by more than the bound.
``regressed``   B is worse by more than the bound.
``unresolved``  B is worse by more than the bound, but the metric's quartile
                spread across the rounds of either run is wider than the
                bound too: the difference cannot be told from noise.

Exit status is non-zero on any ``regressed`` row, when the two runs did not
execute the same op lists, and when two runs of the same seed disagree on a
counter that must repeat exactly.

``BENCHMARK.json`` carries one bound per metric, and the benchmark is refused
if ten runs spread by more than it: it has to hold on the metric's noisiest
workload in the box's noisiest hour (three times the worst spread measured,
at most the contract's 25%).  Two files can be compared again in a calmer
hour, so here a regression is judged cell by cell: a cell is held to the
issue's bound (``TIGHT``) unless its own spread in a calm hour is too wide for
it (``WIDER``), and never to more than the declared bound.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from benchmarks.spine import layers


#: ISSUE 11's bounds: relative worsening that counts as a regression.
TIGHT = {
    "setup_s": 0.25,
    "throughput_qps": 0.10,
    "query_p50_ms": 0.10,
    "query_p95_ms": 0.10,
    "resubmit_p50_ms": 0.10,
    "ttfr_p50_ms": 0.10,
    "rows_per_s": 0.10,
    "cpu_ms_per_query": 0.07,
    "peak_rss_mb": 0.10,
    "answered_share": 0.0001,
}
#: Cells whose quartile spread over ten seeds in a calm hour (README; the
#: value in the comment, the largest where several calm sets exist) is above a
#: third of the tight bound: three times that spread, rounded up to the next
#: 5%, at most the declared bound.
WIDER: dict[tuple[str, str], float] = {
    ("adhoc_cold", "resubmit_p50_ms"): 0.20,  # 5.5%
    ("adhoc_cold", "cpu_ms_per_query"): 0.10,  # 3.0%
    ("repeat_warm", "resubmit_p50_ms"): 0.20,  # 6.3%
    ("repeat_warm", "ttfr_p50_ms"): 0.15,  # 4.9%
    ("scan_heavy", "query_p95_ms"): 0.15,  # 3.7%
    ("scan_heavy", "resubmit_p50_ms"): 0.20,  # 5.7%
    ("outage_partial", "ttfr_p50_ms"): 0.20,  # 6.2%
    ("serve_mixed", "throughput_qps"): 0.25,  # 7.8%
    ("serve_mixed", "query_p50_ms"): 0.25,  # 11.0%
    ("serve_mixed", "query_p95_ms"): 0.25,  # 9.6%
    ("serve_mixed", "resubmit_p50_ms"): 0.25,  # 7.4%
    ("serve_mixed", "ttfr_p50_ms"): 0.20,  # 5.6%
    ("serve_mixed", "rows_per_s"): 0.25,  # 7.7%
    ("serve_mixed", "cpu_ms_per_query"): 0.25,  # 7.2%
}


def bound(workload: str, metric: str, declared: float) -> float:
    """The regression bound of one (workload, end-to-end metric) cell."""
    return min(WIDER.get((workload, metric), TIGHT[metric]), declared)


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def round_spread(report: dict[str, Any], metric: str) -> float:
    """Quartile distance across the run's rounds, as a share of the median."""
    quartiles = report.get("round_quartiles", {}).get(metric)
    if not quartiles or quartiles[1] == 0:
        return 0.0
    return (quartiles[2] - quartiles[0]) / abs(quartiles[1])


def verdict(a: dict[str, Any], b: dict[str, Any], name: str, better: str, limit: float) -> tuple[float, str]:
    worse = worse_by(a["metrics"][name]["value"], b["metrics"][name]["value"], better)
    if worse <= limit:
        return worse, "same"
    if max(round_spread(a, name), round_spread(b, name)) > limit:
        return worse, "unresolved"
    return worse, "regressed"


def counter_differences(a: dict[str, Any], b: dict[str, Any]) -> list[str]:
    """Counters that must repeat exactly for one seed, and did not."""
    if a.get("seed") != b.get("seed") or a.get("clients", 1) > 1:
        return []
    return [
        f"{name}: {a['counters'].get(name)} vs {b['counters'].get(name)}"
        for name in layers.DETERMINISTIC
        if a["counters"].get(name) != b["counters"].get(name)
    ]


def main(path_a: str, path_b: str, declared: dict[str, Any]) -> int:
    runs_a = json.loads(Path(path_a).read_text())["workloads"]
    runs_b = json.loads(Path(path_b).read_text())["workloads"]
    status = 0
    print(f"{'workload':<16}{'metric':<18}{'A':>14}{'B':>14}{'worse by':>10}{'bound':>8}  verdict")
    for workload in declared["workloads"]:
        name = workload["name"]
        a = runs_a.get(name, {}).get("end_to_end")
        b = runs_b.get(name, {}).get("end_to_end")
        if a is None or b is None:
            print(f"{name:<16}missing from {'A' if a is None else 'B'}")
            status = 1
            continue
        if (a["ops_per_round"], a["clients"]) != (b["ops_per_round"], b["clients"]):
            print(f"{name:<16}A and B did not run the same op lists: {a['ops_per_round']} vs {b['ops_per_round']} ops per round")
            status = 1
            continue
        for metric in declared["end_to_end"]:
            metric_name = metric["name"]
            limit = bound(name, metric_name, metric["bound"])
            worse, word = verdict(a, b, metric_name, metric["better"], limit)
            if word == "regressed":
                status = 1
            print(
                f"{name:<16}{metric_name:<18}"
                f"{a['metrics'][metric_name]['value']:>14.4f}{b['metrics'][metric_name]['value']:>14.4f}"
                f"{100 * worse:>9.2f}%{100 * limit:>7.2f}%  {word}"
            )
        differences = counter_differences(a, b)
        if differences:
            status = 1
            print(f"{name:<16}counters differ between two runs of seed {a['seed']}: {'; '.join(differences)}")
        elif a.get("seed") == b.get("seed") and a.get("clients", 1) == 1:
            print(f"{name:<16}counters identical between the two runs of seed {a['seed']}")
    return status
