"""Compatibility package for ``perfbench/``.

Only :mod:`repro.bench.scan_bench` is left: a re-export of
:func:`~repro.core.persistence.scan.scan_results_match` for the
benchmark's workloads, which import it from here.
"""
