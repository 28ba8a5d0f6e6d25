"""Two-process wall-clock benchmark with per-layer attribution.

See README.md in this directory; ``BENCHMARK.json`` at the repo root is
the contract the driver runs it by.
"""
