"""Tests for the phase-pipeline engine: registry, observers, backends."""

import logging

import pytest

from repro.core.cycle import (
    KnowledgeCycle,
    PersistencePhase,
    default_phase_registry,
)
from repro.core.knowledge import Knowledge
from repro.core.persistence import KnowledgeDatabase, KnowledgeRepository
from repro.core.persistence.backend import PersistenceBackend
from repro.core.pipeline import (
    LoggingObserver,
    Phase,
    PhasePipeline,
    PhaseRegistry,
    TimingObserver,
)
from repro.iostack.stack import Testbed
from repro.util.errors import PersistenceError, PipelineError

CYCLE_XML = """
<jube>
  <benchmark name="pipe-test" outpath="ignored">
    <parameterset name="pattern">
      <parameter name="transfersize">1m,2m</parameter>
      <parameter name="command">ior -a mpiio -b 4m -t $transfersize -s 4 -F -e -i 3 -o /scratch/pp/test -k</parameter>
      <parameter name="nodes">2</parameter>
      <parameter name="taskspernode">10</parameter>
    </parameterset>
    <step name="run" work="ior">
      <use>pattern</use>
    </step>
  </benchmark>
</jube>
"""


class _NamedPhase:
    def __init__(self, name, fn=None):
        self.name = name
        self.fn = fn
        self.calls = 0

    def run(self, context):
        self.calls += 1
        return self.fn(context) if self.fn else None


class TestPhaseRegistry:
    def test_registration_preserves_order(self):
        reg = PhaseRegistry([_NamedPhase("a"), _NamedPhase("b")])
        reg.register(_NamedPhase("c"))
        assert reg.names() == ["a", "b", "c"]
        assert len(reg) == 3
        assert "b" in reg and "z" not in reg

    def test_before_after_anchors(self):
        reg = PhaseRegistry([_NamedPhase("a"), _NamedPhase("c")])
        reg.register(_NamedPhase("b"), before="c")
        reg.register(_NamedPhase("d"), after="c")
        assert reg.names() == ["a", "b", "c", "d"]

    def test_before_and_after_rejected(self):
        reg = PhaseRegistry([_NamedPhase("a")])
        with pytest.raises(PipelineError):
            reg.register(_NamedPhase("b"), before="a", after="a")

    def test_duplicate_rejected(self):
        reg = PhaseRegistry([_NamedPhase("a")])
        with pytest.raises(PipelineError):
            reg.register(_NamedPhase("a"))

    def test_unnamed_rejected(self):
        with pytest.raises(PipelineError):
            PhaseRegistry([_NamedPhase("")])

    def test_unknown_anchor(self):
        reg = PhaseRegistry([_NamedPhase("a")])
        with pytest.raises(PipelineError, match="no phase 'z'"):
            reg.register(_NamedPhase("b"), before="z")

    def test_replace_and_unregister(self):
        reg = PhaseRegistry([_NamedPhase("a"), _NamedPhase("b")])
        old = reg.replace("a", _NamedPhase("a2"))
        assert old.name == "a"
        assert reg.names() == ["a2", "b"]
        removed = reg.unregister("b")
        assert removed.name == "b"
        with pytest.raises(PipelineError):
            reg.unregister("b")
        with pytest.raises(PipelineError):
            reg.get("b")

    def test_replace_name_collision(self):
        reg = PhaseRegistry([_NamedPhase("a"), _NamedPhase("b")])
        with pytest.raises(PipelineError):
            reg.replace("a", _NamedPhase("b"))

    def test_default_registry_order(self):
        assert default_phase_registry().names() == [
            "generation",
            "extraction",
            "persistence",
            "analysis",
            "usage",
        ]
        for phase in default_phase_registry():
            assert isinstance(phase, Phase)


class TestPipelineExecution:
    def _context(self, tmp_path, db):
        cycle = KnowledgeCycle(Testbed.fuchs_csc(seed=300), db, workspace=tmp_path)
        return cycle._context("<unused/>")

    def test_empty_registry_rejected(self):
        with pytest.raises(PipelineError):
            PhasePipeline(PhaseRegistry())

    def test_runs_in_order_and_reports_counts(self, tmp_path):
        order = []
        reg = PhaseRegistry(
            [
                _NamedPhase("one", lambda ctx: order.append("one") or 3),
                _NamedPhase("two", lambda ctx: order.append("two")),
            ]
        )
        timer = TimingObserver()
        with KnowledgeDatabase(":memory:") as db:
            PhasePipeline(reg, [timer]).run(self._context(tmp_path, db))
        assert order == ["one", "two"]
        assert [(t.phase, t.artifacts) for t in timer.timings] == [("one", 3), ("two", 0)]
        assert all(t.duration_s >= 0 for t in timer.timings)

    def test_error_fires_observer_and_propagates(self, tmp_path):
        def boom(ctx):
            raise ValueError("phase exploded")

        timer = TimingObserver()
        reg = PhaseRegistry([_NamedPhase("ok"), _NamedPhase("bad", boom), _NamedPhase("never")])
        with KnowledgeDatabase(":memory:") as db:
            with pytest.raises(ValueError, match="phase exploded"):
                PhasePipeline(reg, [timer]).run(self._context(tmp_path, db))
        assert [t.phase for t in timer.timings] == ["ok", "bad"]
        assert timer.timings[-1].error and "phase exploded" in timer.timings[-1].error
        assert reg.get("never").calls == 0

    def test_logging_observer(self, tmp_path, caplog):
        reg = PhaseRegistry([_NamedPhase("solo", lambda ctx: 1)])
        with KnowledgeDatabase(":memory:") as db:
            with caplog.at_level(logging.INFO, logger="repro.pipeline"):
                PhasePipeline(reg, [LoggingObserver()]).run(self._context(tmp_path, db))
        assert any("phase solo: done" in r.message for r in caplog.records)

    def test_timing_observer_durations_and_reset(self, tmp_path):
        timer = TimingObserver()
        reg = PhaseRegistry([_NamedPhase("p", lambda ctx: 1)])
        with KnowledgeDatabase(":memory:") as db:
            ctx = self._context(tmp_path, db)
            PhasePipeline(reg, [timer]).run(ctx)
            PhasePipeline(reg, [timer]).run(ctx)
        assert len(timer.timings) == 2
        assert set(timer.durations) == {"p"}
        timer.reset()
        assert timer.timings == []


class TestCycleThroughPipeline:
    def test_custom_sixth_phase_batched_backend_and_timings(self, tmp_path):
        # Add a validation phase between extraction and persistence,
        # hand the cycle any PersistenceBackend, and time every phase —
        # all without touching cycle.py.
        validated = []

        class ValidationPhase:
            name = "validation"

            def run(self, context):
                for k in context.extracted:
                    assert k.summary("write").bw_mean > 0
                    validated.append(k)
                return len(validated)

        phases = default_phase_registry()
        phases.register(ValidationPhase(), after="extraction")
        timer = TimingObserver()
        backend = KnowledgeDatabase(":memory:")
        assert isinstance(backend, PersistenceBackend)
        try:
            cycle = KnowledgeCycle(
                Testbed.fuchs_csc(seed=301),
                backend,
                workspace=tmp_path,
                phases=phases,
                observers=[timer],
            )
            result = cycle.run_cycle(CYCLE_XML)
            assert len(result.knowledge) == 2
            assert len(validated) == 2
            assert result.knowledge_ids == [1, 2]
            assert backend.table_count("performances") == 2
            # Every phase of the revolution was timed, in order.
            assert [t.phase for t in timer.timings] == [
                "generation",
                "extraction",
                "validation",
                "persistence",
                "analysis",
                "usage",
            ]
            assert all(t.duration_s >= 0 for t in timer.timings)
            assert timer.timings[3].artifacts == 2  # persistence saved both
        finally:
            backend.close()

    def test_phase_can_be_skipped(self, tmp_path):
        phases = default_phase_registry()
        phases.unregister("persistence")
        with KnowledgeDatabase(":memory:") as db:
            cycle = KnowledgeCycle(
                Testbed.fuchs_csc(seed=302), db, workspace=tmp_path, phases=phases
            )
            result = cycle.run_cycle(CYCLE_XML)
            assert len(result.knowledge) == 2
            assert result.knowledge_ids == []
            assert db.table_count("performances") == 0

    def test_observer_sequence_across_revolutions(self, tmp_path):
        timer = TimingObserver()
        with KnowledgeDatabase(":memory:") as db:
            cycle = KnowledgeCycle(
                Testbed.fuchs_csc(seed=303), db, workspace=tmp_path, observers=[timer]
            )
            cycle.run_cycle(CYCLE_XML)
            cycle.run_cycle(CYCLE_XML)
        assert len(timer.timings) == 10  # 5 phases x 2 revolutions
        assert timer.durations.keys() == {
            "generation", "extraction", "persistence", "analysis", "usage",
        }


class TestAtomicPersistence:
    def test_mid_batch_failure_rolls_back(self, tmp_path):
        # Satellite: one revolution's persistence is a single
        # transaction; a failure on the second object must also undo
        # the first.
        good = Knowledge(benchmark="ior", command="c", parameters={"x": 1})
        bad = Knowledge(benchmark="ior", command="c")
        bad.summaries = None  # iterating summaries raises TypeError
        with KnowledgeDatabase(":memory:") as db:
            cycle = KnowledgeCycle(Testbed.fuchs_csc(seed=304), db, workspace=tmp_path)
            context = cycle._context()
            context.extracted = [good, bad]
            with pytest.raises(TypeError):
                PersistencePhase().run(context)
            assert db.table_count("performances") == 0

    def test_save_many_rolls_back_together(self):
        with KnowledgeDatabase(":memory:") as db:
            repo = KnowledgeRepository(db)
            bad = Knowledge(benchmark="ior")
            bad.summaries = None
            with pytest.raises(TypeError):
                repo.save_many([Knowledge(benchmark="ior"), bad])
            assert db.table_count("performances") == 0
            assert repo.save_many([Knowledge(benchmark="ior")] * 3) == [1, 2, 3]


class TestDatabaseTransaction:
    def test_nested_transactions_commit_once_at_outermost(self):
        with KnowledgeDatabase(":memory:") as db:
            with db.transaction():
                with db.transaction():
                    db.execute(
                        "INSERT INTO performances (benchmark, command) VALUES ('ior', 'c')"
                    )
                    db.commit()  # no-op inside the transaction
            assert db.table_count("performances") == 1

    def test_exception_rolls_back(self):
        with KnowledgeDatabase(":memory:") as db:
            with pytest.raises(RuntimeError):
                with db.transaction():
                    db.execute(
                        "INSERT INTO performances (benchmark, command) VALUES ('ior', 'c')"
                    )
                    raise RuntimeError("abort")
            assert db.table_count("performances") == 0

    def test_use_after_close_is_persistence_error(self):
        db = KnowledgeDatabase(":memory:")
        db.close()
        db.close()  # idempotent
        assert db.closed
        with pytest.raises(PersistenceError, match="closed"):
            db.execute("SELECT 1")
        with pytest.raises(PersistenceError):
            db.commit()
        with pytest.raises(PersistenceError):
            with db.transaction():
                pass
