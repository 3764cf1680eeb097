"""Benchmark harness package: one harness, ``benchmarks.spine``
(``python3 -m benchmarks.spine``; see ``benchmarks/spine/README.md``)."""
