"""Benchmark harness: virtual-time measurement, workloads, and the
table/figure reproduction builders.  Import from the modules
(``repro.bench.harness``, ``.table2``, ``.figures``, ...): the package
itself re-exports nothing."""
