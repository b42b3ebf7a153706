"""Tracer protocol: batch expansion, tee fan-out, testbed default tracer.

The tracer bridge is the seam where the metrics layer, the Darshan
substrate and the online monitor all hang off the same stream of I/O
events — so the fan-out semantics (vectorized vs per-event receivers)
must hold exactly.
"""

import numpy as np

from repro.core.metrics import MetricsRegistry, MetricsTracer
from repro.iostack.stack import Testbed
from repro.iostack.tracing import (
    NullTracer,
    RecordingTracer,
    TeeTracer,
    TraceEvent,
    Tracer,
)


def _event(op="write", length=1024, count=1):
    return TraceEvent(
        module="POSIX", op=op, rank=0, path="/scratch/t/f", offset=0,
        length=length, start=0.0, end=0.5, count=count,
    )


class _VectorizedTracer(Tracer):
    """Counter-style tracer that overrides record_batch (no expansion)."""

    def __init__(self):
        self.batches = []
        self.events = []

    def record(self, event):
        self.events.append(event)

    def record_batch(self, module, op, rank, path, offset0, nbytes, durations, t0):
        self.batches.append((module, op, rank, path, offset0, nbytes,
                             np.asarray(durations, dtype=float), t0))


class TestBatchExpansion:
    def test_default_record_batch_expands_to_sequential_events(self):
        rec = RecordingTracer()
        durations = np.array([0.1, 0.2, 0.3])
        rec.record_batch("POSIX", "write", 2, "/p", 100, 50, durations, 1.0)
        assert len(rec.events) == 3
        # Sequential offsets and back-to-back times.
        assert [e.offset for e in rec.events] == [100, 150, 200]
        assert np.allclose([e.start for e in rec.events], [1.0, 1.1, 1.3])
        assert all(e.length == 50 and e.rank == 2 for e in rec.events)


class TestTeeTracer:
    def test_record_fans_out_to_all(self):
        a, b = RecordingTracer(), RecordingTracer()
        tee = TeeTracer(a, b)
        tee.record(_event())
        assert len(a.events) == len(b.events) == 1

    def test_batch_fans_out_to_mixed_receivers(self):
        # One per-event tracer (expands the batch) and one vectorized
        # tracer (consumes it whole) behind the same tee: the per-event
        # one sees N events, the vectorized one sees 1 batch, and the
        # totals agree.
        per_event = RecordingTracer()
        vectorized = _VectorizedTracer()
        registry = MetricsRegistry()
        metrics = MetricsTracer(registry)
        tee = TeeTracer(per_event, vectorized, metrics, NullTracer())

        durations = np.array([0.01, 0.02, 0.04, 0.08])
        tee.record_batch("MPIIO", "read", 1, "/p", 0, 4096, durations, 0.0)

        assert len(per_event.events) == 4
        assert per_event.total_bytes("read") == 4 * 4096
        assert len(vectorized.batches) == 1
        module, op, *_rest = vectorized.batches[0]
        assert (module, op) == ("MPIIO", "read")
        assert np.allclose(vectorized.batches[0][6], durations)
        snap = registry.snapshot()
        ops = snap["counters"]["io.ops_total"]["series"][0]
        assert ops["value"] == 4
        nbytes = snap["counters"]["io.bytes_total"]["series"][0]
        assert nbytes["value"] == 4 * 4096

    def test_empty_tee_is_harmless(self):
        TeeTracer().record(_event())
        TeeTracer().record_batch("POSIX", "write", 0, "/p", 0, 1, np.array([0.1]), 0.0)


class TestTestbedDefaultTracer:
    def test_default_tracer_sees_job_io(self):
        tb = Testbed.fuchs_csc(seed=7)
        rec = RecordingTracer()
        tb.tracer = rec
        ctx = tb.start_job("trace-me", num_nodes=1, tasks_per_node=2)
        assert ctx.tracer is rec
        tb.finish_job(ctx)

    def test_explicit_and_default_tracers_combine(self):
        tb = Testbed.fuchs_csc(seed=7)
        default, explicit = RecordingTracer(), RecordingTracer()
        tb.tracer = default
        ctx = tb.start_job("both", num_nodes=1, tasks_per_node=1, tracer=explicit)
        assert isinstance(ctx.tracer, TeeTracer)
        ctx.tracer.record(_event())
        assert len(default.events) == len(explicit.events) == 1
        tb.finish_job(ctx)

    def test_no_tracer_still_null(self):
        tb = Testbed.fuchs_csc(seed=7)
        ctx = tb.start_job("none", num_nodes=1, tasks_per_node=1)
        assert isinstance(ctx.tracer, NullTracer)
        tb.finish_job(ctx)


class TestPhaseTracing:
    """Phase-level stack calls build trace events only for a real tracer
    (their order is pinned in tests/pfs/test_same_seed_digest.py)."""

    @staticmethod
    def _run_phases(tb, tracer=None):
        from repro.benchmarks_io.hacc_io import HaccIOConfig, run_hacc_io
        from repro.benchmarks_io.ior import parse_command, run_ior

        for i, cmd in enumerate((
            "ior -a mpiio -b 2m -t 1m -F -C -e -i 2",
            "ior -a posix -b 2m -t 1m -e -k",
            "ior -a hdf5 -b 2m -t 512k -C -D 1 -z -k",
        )):
            run_ior(parse_command(f"{cmd} -o /scratch/pt/{i}/t"), tb, 1, 4, run_id=i,
                    tracer=tracer)
        for i, api in enumerate(("POSIX", "MPIIO")):
            ctx = tb.start_job("hacc-io", 1, 4, tracer=tracer)
            run_hacc_io(HaccIOConfig(num_particles=30_000, api=api, transfer_size=256 * 1024,
                                     mode="file-per-group", group_size=3,
                                     out_file=f"/scratch/pt/h{i}/c"), ctx)
            tb.finish_job(ctx)

    def test_null_tracer_job_builds_no_trace_event(self, monkeypatch):
        import repro.iostack.posix as posix
        import repro.iostack.tracing as tracing

        built = []

        def counting(*args, **kwargs):
            built.append(args)
            return TraceEvent(*args, **kwargs)

        for module in (tracing, posix):
            monkeypatch.setattr(module, "TraceEvent", counting)
        self._run_phases(Testbed.fuchs_csc(seed=5))
        assert built == []
        # The counter does see the events a real tracer asks for.
        self._run_phases(Testbed.fuchs_csc(seed=5), RecordingTracer())
        assert built
