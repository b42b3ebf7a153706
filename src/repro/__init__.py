"""repro — a reproduction of "A Comprehensive I/O Knowledge Cycle for
Modular and Automated HPC Workload Analysis" (CLUSTER 2022).

The package has two halves:

* **Substrates** (:mod:`repro.cluster`, :mod:`repro.pfs`,
  :mod:`repro.mpi`, :mod:`repro.iostack`, :mod:`repro.darshan`,
  :mod:`repro.benchmarks_io`, :mod:`repro.jube`) — a simulated HPC
  system standing in for the paper's FUCHS-CSC cluster with BeeGFS, and
  from-scratch implementations of the community tools the workflow
  consumes (IOR, IO500, mdtest, HACC-IO, Darshan/PyDarshan, JUBE).
* **The knowledge cycle** (:mod:`repro.core`) — the paper's actual
  contribution: knowledge generation, extraction, persistence
  (SQLite), analysis (knowledge explorer) and usage (anomaly
  detection, bounding box, workload generation, recommendation,
  performance prediction).

Quickstart::

    from repro import Testbed, KnowledgeCycle, KnowledgeDatabase

    testbed = Testbed.fuchs_csc(seed=42)
    with KnowledgeDatabase("knowledge.db") as db:
        cycle = KnowledgeCycle(testbed, db, workspace="bench_run")
        result = cycle.run_cycle(jube_xml)
"""

from repro.core.cycle import CycleResult, KnowledgeCycle
from repro.core.knowledge import IO500Knowledge, Knowledge
from repro.core.persistence.backend import PersistenceBackend
from repro.core.persistence.database import KnowledgeDatabase
from repro.core.pipeline import (
    LoggingObserver,
    PhaseObserver,
    PhaseRegistry,
    TimingObserver,
)
from repro.iostack.stack import Testbed

__version__ = "1.1.0"

__all__ = [
    "Testbed",
    "KnowledgeCycle",
    "CycleResult",
    "Knowledge",
    "IO500Knowledge",
    "KnowledgeDatabase",
    "PersistenceBackend",
    "PhaseRegistry",
    "PhaseObserver",
    "TimingObserver",
    "LoggingObserver",
    "__version__",
]
