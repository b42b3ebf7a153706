"""The I/O knowledge cycle — five-phase workflow orchestration (§III).

The five phases are registered :class:`~repro.core.pipeline.Phase`
implementations executed by the phase-pipeline engine: **generation**
runs a JUBE benchmark on the testbed, **extraction** scans the
resulting workspace, **persistence** stores the knowledge objects
behind the backend protocol, **analysis** builds the explorer views,
and **usage** runs the registered use-case modules.  "This iterative
cyclic process is either re-launched or terminated" —
:meth:`KnowledgeCycle.run_cycle` executes one revolution and can be
called repeatedly, optionally with a configuration produced by the
previous revolution's usage phase.

:class:`KnowledgeCycle` owns a :class:`PhaseRegistry`, so deployments
can insert, replace, or skip phases (say, a validation phase between
extraction and persistence) and attach
:class:`~repro.core.pipeline.PhaseObserver` instances, all without
touching this module.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro.core.explorer.comparison import ComparisonView
from repro.core.explorer.io500_viewer import IO500Viewer
from repro.core.explorer.viewer import KnowledgeViewer
from repro.core.extraction.workspace import KnowledgeExtractor
from repro.core.knowledge import IO500Knowledge, Knowledge
from repro.core.persistence.backend import PersistenceBackend
from repro.core.persistence.io500_repo import IO500Repository
from repro.core.persistence.repository import KnowledgeRepository
from repro.core.pipeline import (
    CycleContext,
    CycleResult,
    FailurePolicy,
    PhaseObserver,
    PhasePipeline,
    PhaseRegistry,
)
from repro.core.registry import ModuleRegistry, default_module_registry
from repro.core.resilience import RetryPolicy
from repro.iostack.stack import Testbed
from repro.jube.benchmark import JubeBenchmark
from repro.jube.steps import DEFAULT_WORK_REGISTRY
from repro.jube.xmlconfig import load_benchmark
from repro.util.errors import ReproError, UsageError

__all__ = [
    "CycleResult",
    "GenerationPhase",
    "ExtractionPhase",
    "PersistencePhase",
    "AnalysisPhase",
    "UsagePhase",
    "default_phase_registry",
    "KnowledgeCycle",
    "main",
]


# ----------------------------------------------------------------------
# the five phases as pluggable Phase implementations
# ----------------------------------------------------------------------
class GenerationPhase:
    """Phase I: run a JUBE-defined benchmark campaign."""

    name = "generation"

    def run(self, context: CycleContext) -> int:
        """Execute the JUBE campaign; returns the workpackage count."""
        benchmark, _ = load_benchmark(
            context.jube_xml,
            DEFAULT_WORK_REGISTRY,
            outpath=context.workspace,
            shared={"testbed": context.testbed},
        )
        benchmark.run()
        context.benchmark = benchmark
        return len(benchmark.workpackages)


class ExtractionPhase:
    """Phase II: extract knowledge from the generated output files."""

    name = "extraction"

    def run(self, context: CycleContext) -> int:
        """Scan the run directory; returns the knowledge-object count."""
        extractor = KnowledgeExtractor(jube_workspace=context.workspace)
        benchmark = context.benchmark
        path = benchmark.run_dir if isinstance(benchmark, JubeBenchmark) else None
        context.extracted = extractor.extract(path)
        context.result.knowledge = [
            k for k in context.extracted if isinstance(k, Knowledge)
        ]
        context.result.io500_knowledge = [
            k for k in context.extracted if isinstance(k, IO500Knowledge)
        ]
        return len(context.extracted)


class PersistencePhase:
    """Phase III: store the knowledge objects atomically.

    The whole revolution's writes share one transaction: a failure on
    the Nth object rolls back the N-1 already saved instead of leaving
    partial knowledge rows behind.
    """

    name = "persistence"

    def run(self, context: CycleContext) -> int:
        """Save every extracted object in one transaction."""
        ids: list[int] = []
        iofh_ids: list[int] = []
        with context.backend.transaction():
            for k in context.extracted:
                if isinstance(k, IO500Knowledge):
                    iofh_ids.append(context.io500_repository.save(k))
                else:
                    ids.append(context.repository.save(k))
        context.result.knowledge_ids = ids
        context.result.iofh_ids = iofh_ids
        return len(ids) + len(iofh_ids)


class AnalysisPhase:
    """Phase IV: render the explorer views of the new knowledge."""

    name = "analysis"

    def run(self, context: CycleContext) -> int:
        """Build the analysis report; returns the section count."""
        sections = []
        benchmark_knowledge = context.result.knowledge
        for k in benchmark_knowledge:
            sections.append(context.viewer.render(k))
        if len(benchmark_knowledge) > 1:
            sections.append("Comparison:")
            sections.append(ComparisonView(benchmark_knowledge).table())
        for k in context.result.io500_knowledge:
            sections.append(context.io500_viewer.render(k))
        context.result.analysis_report = "\n".join(sections)
        return len(sections)


class UsagePhase:
    """Phase V: run every registered use-case module."""

    name = "usage"

    def run(self, context: CycleContext) -> int:
        """Run the use-case modules; returns how many ran."""
        context.result.usage_results = context.modules.run_all(context.extracted)
        return len(context.result.usage_results)


def default_phase_registry() -> PhaseRegistry:
    """Registry with the paper's five phases in canonical order."""
    return PhaseRegistry(
        [
            GenerationPhase(),
            ExtractionPhase(),
            PersistencePhase(),
            AnalysisPhase(),
            UsagePhase(),
        ]
    )


class KnowledgeCycle:
    """Orchestrates the phase pipeline over one testbed and one backend."""

    def __init__(
        self,
        testbed: Testbed,
        database: PersistenceBackend,
        workspace: str | Path,
        modules: ModuleRegistry | None = None,
        phases: PhaseRegistry | None = None,
        observers: Sequence[PhaseObserver] = (),
        policies: Mapping[str, FailurePolicy] | None = None,
        default_policy: FailurePolicy | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.testbed = testbed
        self.db = database
        self.workspace = Path(workspace)
        self.repository = KnowledgeRepository(database)
        self.io500_repository = IO500Repository(database)
        self.modules = modules or default_module_registry()
        self.phases = phases or default_phase_registry()
        self.observers = list(observers)
        self.policies = dict(policies or {})
        self.default_policy = default_policy
        self.sleep = sleep
        self.viewer = KnowledgeViewer()
        self.io500_viewer = IO500Viewer()

    def _context(self, jube_xml: str = "") -> CycleContext:
        return CycleContext(
            testbed=self.testbed,
            workspace=self.workspace,
            backend=self.db,
            repository=self.repository,
            io500_repository=self.io500_repository,
            modules=self.modules,
            viewer=self.viewer,
            io500_viewer=self.io500_viewer,
            jube_xml=jube_xml,
        )

    # ------------------------------------------------------------------
    # single phases, runnable on their own
    # ------------------------------------------------------------------
    def generate(self, jube_xml: str) -> JubeBenchmark:
        """Phase I: run a JUBE-defined benchmark campaign."""
        context = self._context(jube_xml)
        GenerationPhase().run(context)
        assert isinstance(context.benchmark, JubeBenchmark)
        return context.benchmark

    def extract(self, path: str | Path | None = None) -> list[Knowledge | IO500Knowledge]:
        """Phase II: extract knowledge from output files."""
        extractor = KnowledgeExtractor(jube_workspace=self.workspace)
        return extractor.extract(path)

    def persist(
        self, knowledge: Sequence[Knowledge | IO500Knowledge]
    ) -> tuple[list[int], list[int]]:
        """Phase III: store knowledge objects; returns (ids, IOFH ids)."""
        context = self._context()
        context.extracted = list(knowledge)
        PersistencePhase().run(context)
        return context.result.knowledge_ids, context.result.iofh_ids

    def analyze(self, knowledge: Sequence[Knowledge | IO500Knowledge]) -> str:
        """Phase IV: render the explorer views of the new knowledge."""
        context = self._context()
        context.extracted = list(knowledge)
        context.result.knowledge = [k for k in knowledge if isinstance(k, Knowledge)]
        context.result.io500_knowledge = [
            k for k in knowledge if isinstance(k, IO500Knowledge)
        ]
        AnalysisPhase().run(context)
        return context.result.analysis_report

    def use(self, knowledge: Sequence[Knowledge | IO500Knowledge]) -> dict[str, object]:
        """Phase V: run every registered use-case module."""
        return self.modules.run_all(knowledge)

    # ------------------------------------------------------------------
    # one full revolution through the pipeline
    # ------------------------------------------------------------------
    def run_cycle(self, jube_xml: str) -> CycleResult:
        """Run one revolution of whatever phases are registered.

        With a ``"skip"`` failure policy a failed revolution does not
        raise: the failure is quarantined in the returned
        :attr:`CycleResult.failures` and the next call runs normally.
        """
        pipeline = PhasePipeline(
            self.phases,
            self.observers,
            policies=self.policies,
            default_policy=self.default_policy,
            sleep=self.sleep,
        )
        return pipeline.run(self._context(jube_xml))


_DEFAULT_XML = """
<jube>
  <benchmark name="quick-cycle" outpath="bench_run">
    <parameterset name="pattern">
      <parameter name="transfersize">1m,2m</parameter>
      <parameter name="command">ior -a mpiio -b 4m -t $transfersize -s 8 -F -e -i 3 -o /scratch/cycle/test -k</parameter>
      <parameter name="nodes">2</parameter>
    </parameterset>
    <step name="run" work="ior">
      <use>pattern</use>
    </step>
  </benchmark>
</jube>
"""


def _select_modules(spec: str) -> ModuleRegistry:
    """Build a registry holding only the comma-separated module names."""
    full = default_module_registry()
    names = [name.strip() for name in spec.split(",") if name.strip()]
    if not names:
        raise UsageError(
            f"--modules needs at least one module name; available: {full.names()}"
        )
    unknown = sorted(set(names) - set(full.names()))
    if unknown:
        raise UsageError(
            f"unknown use-case module(s) {unknown}; available: {full.names()}"
        )
    selected = ModuleRegistry()
    for name in dict.fromkeys(names):  # preserve order, drop duplicates
        selected.register(full.get(name))
    return selected


def main(argv: Sequence[str] | None = None) -> int:
    """Console entry point: run revolutions of the knowledge cycle.

    Usage::

        repro-cycle [--config jube.xml] [--workspace DIR] [--db TARGET]
                    [--seed N] [--repeat N] [--modules a,b] [--timings]
                    [--retries N] [--phase-timeout S] [--on-failure skip|abort]
                    [--metrics-json PATH] [--inject-fault P]

    Without ``--config``, a small built-in IOR sweep demonstrates the
    cycle.  The database is always wrapped in a
    :class:`ResilientBackend`; ``--retries`` arms per-phase retry with
    deterministic backoff (and retries transient database errors),
    ``--phase-timeout`` bounds each phase's wall time, and
    ``--on-failure=skip`` quarantines a failed revolution instead of
    aborting the run.  ``--metrics-json`` writes the run's metrics
    snapshot (phase outcomes, retry/breaker counters, persistence and
    I/O counters) as stable sorted JSON; ``--inject-fault P`` arms a
    deterministic transient benchmark fault with failure probability
    ``P`` — combined with ``--retries`` it exercises the whole
    resilience + observability path end to end.
    """
    import argparse

    from repro.core.metrics import MetricsObserver, MetricsRegistry, MetricsTracer
    from repro.core.persistence.backend import ResilientBackend
    from repro.core.persistence.database import KnowledgeDatabase
    from repro.core.pipeline import TimingObserver
    from repro.pfs.faults import Fault

    parser = argparse.ArgumentParser(
        prog="repro-cycle", description="Run the five-phase I/O knowledge cycle."
    )
    parser.add_argument("--config", default=None, help="JUBE XML configuration file")
    parser.add_argument("--workspace", default="bench_run", help="JUBE workspace directory")
    parser.add_argument("--db", default=":memory:", help="knowledge database path or URL")
    parser.add_argument("--seed", type=int, default=42, help="testbed seed")
    parser.add_argument("--repeat", type=int, default=1, help="number of revolutions")
    parser.add_argument(
        "--modules",
        default=None,
        help="comma-separated Phase-V use-case modules to run (default: all)",
    )
    parser.add_argument(
        "--timings", action="store_true", help="print per-phase wall times"
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        help="retries per failed phase on transient errors (default: 0)",
    )
    parser.add_argument(
        "--phase-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-time budget per phase (default: unlimited)",
    )
    parser.add_argument(
        "--on-failure",
        choices=("skip", "abort"),
        default="abort",
        help="quarantine a failed revolution (skip) or abort the run (default)",
    )
    parser.add_argument(
        "--metrics-json",
        default=None,
        metavar="PATH",
        help="write the run's metrics snapshot as sorted JSON to PATH",
    )
    parser.add_argument(
        "--inject-fault",
        type=float,
        default=None,
        metavar="P",
        help="inject a deterministic transient benchmark fault with "
        "failure probability P in [0, 1]",
    )
    args = parser.parse_args(list(sys.argv[1:] if argv is None else argv))
    if args.repeat < 1:
        print("error: --repeat must be >= 1", file=sys.stderr)
        return 2
    if args.retries < 0:
        print("error: --retries must be >= 0", file=sys.stderr)
        return 2
    if args.phase_timeout is not None and args.phase_timeout <= 0:
        print("error: --phase-timeout must be positive", file=sys.stderr)
        return 2
    if args.inject_fault is not None and not 0.0 < args.inject_fault <= 1.0:
        print("error: --inject-fault must be in (0, 1]", file=sys.stderr)
        return 2
    try:
        modules = _select_modules(args.modules) if args.modules is not None else None
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        xml = (
            Path(args.config).read_text(encoding="utf-8")
            if args.config
            else _DEFAULT_XML
        )
    except OSError as exc:
        print(f"error: cannot read {args.config}: {exc}", file=sys.stderr)
        return 1
    timer = TimingObserver()
    metrics = MetricsRegistry() if args.metrics_json else None
    retry_policy = (
        RetryPolicy(max_attempts=args.retries + 1, base_delay_s=0.05, seed=args.seed)
        if args.retries > 0
        else None
    )
    default_policy = FailurePolicy(
        retry=retry_policy,
        on_exhausted=args.on_failure,
        timeout_s=args.phase_timeout,
    )
    observers: list[PhaseObserver] = [timer] if args.timings else []
    if metrics is not None:
        observers.append(MetricsObserver(metrics))
    try:
        with KnowledgeDatabase(args.db, metrics=metrics) as db:
            # One write path: without --retries the backend makes one
            # attempt per write, still behind the breaker and counted.
            backend = ResilientBackend(
                db,
                retry_policy=None if args.retries > 0 else RetryPolicy(max_attempts=1),
                metrics=metrics,
            )
            testbed = Testbed.fuchs_csc(seed=args.seed)
            if metrics is not None:
                testbed.tracer = MetricsTracer(metrics)
            if args.inject_fault is not None:
                testbed.fs.faults.add(
                    Fault(
                        name="cli-injected",
                        fail_probability=args.inject_fault,
                        error_kind="benchmark",
                        when={"benchmark": "ior"},
                        transient=True,
                    )
                )
            cycle = KnowledgeCycle(
                testbed,
                backend,
                Path(args.workspace),
                modules=modules,
                observers=observers,
                default_policy=default_policy,
            )
            for revolution in range(args.repeat):
                timer.reset()
                result = cycle.run_cycle(xml)
                print(f"=== revolution {revolution + 1}/{args.repeat} ===")
                outcome = "quarantined" if result.failures else "ok"
                if metrics is not None:
                    metrics.counter(
                        "cycle.revolutions_total", "cycle revolutions run",
                        outcome=outcome,
                    ).inc()
                if result.failures:
                    for failure in result.failures:
                        print(f"[quarantined] {failure}", file=sys.stderr)
                    continue
                print(result.analysis_report)
                for name, value in result.usage_results.items():
                    print(f"[{name}] {value}")
                if args.timings:
                    for t in timer.timings:
                        print(f"[timing] {t.phase}: {t.duration_s:.3f}s "
                              f"({t.artifacts} artifact(s), "
                              f"{t.attempts} attempt(s))")
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if metrics is not None:
            try:
                metrics.write_json(args.metrics_json)
            except OSError as exc:
                print(f"error: cannot write {args.metrics_json}: {exc}", file=sys.stderr)
                return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
