"""The measurement spine: the repo's one benchmark.

``python -m benchmarks.spine`` drives five named workloads against the public
``repro`` API, reports client-visible end-to-end metrics from an untraced run
and per-layer metrics from a traced run, checks every answer against
reference multisets, and writes ``benchmarks/spine/out/BENCH.json``.  See
``README.md`` in this directory; ``BENCHMARK.json`` at the repo root declares
the command, workloads, metrics, units, directions and regression bounds.
"""

from __future__ import annotations

import sys
from pathlib import Path

# The benchmark runs from a clean checkout without installation.
SRC = Path(__file__).resolve().parents[2] / "src"
if SRC.is_dir() and str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
