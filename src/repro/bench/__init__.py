"""Benchmark harnesses for the repro runtime itself.

Not the HPC I/O benchmarks the cycle studies — these measure *this*
codebase: the ``repro-bench`` CLI times hot paths (today, the knowledge
service in-process vs over the ``repro.wire/v1`` TCP link) and writes
machine-readable ``BENCH_*.json`` reports so performance regressions
show up in review instead of production.
"""

from repro.bench.service_bench import BENCH_SCHEMA, host_info, run_service_bench

__all__ = ["BENCH_SCHEMA", "host_info", "run_service_bench"]
