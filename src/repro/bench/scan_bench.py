"""Re-export of :func:`~repro.core.persistence.scan.scan_results_match`.

``perfbench/workloads.py`` imports the scan comparator from this path;
the comparator itself lives beside :func:`fold_scan` in
:mod:`repro.core.persistence.scan`.  This module goes when the
benchmark imports it from there.
"""

from repro.core.persistence.scan import scan_results_match

__all__ = ["scan_results_match"]
