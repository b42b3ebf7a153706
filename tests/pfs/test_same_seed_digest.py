"""Same-seed pins: small seeded runs must stay byte-identical.

``PINNED_DIGEST`` covers a small IO500 run:

- the rendered IO500 result summary of a full run;
- the sorted ``(path, entry_id, size)`` of every file in the namespace
  after the four write phases (entry-id order and file sizes);
- the ``getentryinfo`` text of the IOR data files (stripe layouts).

``PINNED_IOR_HACC_DIGEST`` covers IOR and HACC-IO on one testbed: the
rendered IOR output of every API (POSIX, MPI-IO, HDF5), file-per-process
and shared, with collective I/O, fsync, stonewalling, random offsets,
striping and collective-buffering hints, and repeated iterations whose
files are removed in between; HACC-IO in all three modes on both APIs
with a remainder transfer and a file-per-group tail group of one rank;
then the namespace rows and stripe layouts those runs leave behind.

``PINNED_TRACE_DIGEST`` covers the instrumentation stream: every
``TraceEvent`` a ``RecordingTracer`` sees, in order and field for field,
and the Darshan counters and DXT segments of an ``ior-darshan`` step.

Any change to simulated time, RNG draws, entry-id assignment or trace
events in the pfs, iostack or benchmark layers moves a digest.
Refactors of those layers must reproduce the pins unchanged.
"""

import gzip
import hashlib

from repro.benchmarks_io.hacc_io import HaccIOConfig, run_hacc_io
from repro.benchmarks_io.io500 import IO500Config, render_io500_output, run_io500
from repro.benchmarks_io.ior.config import IORConfig
from repro.benchmarks_io.ior.output import render_ior_output
from repro.benchmarks_io.ior.runner import run_ior, run_ior_in_job
from repro.benchmarks_io.mdtest import run_mdtest_phase
from repro.iostack.stack import Testbed
from repro.iostack.tracing import RecordingTracer
from repro.jube.benchmark import StepContext
from repro.jube.steps import ior_darshan_step
from repro.mpi.hints import MPIIOHints
from repro.util.units import KIB, MIB

PINNED_DIGEST = "132edfb806fc69f6922f12f8ff5f41954466f9b2be2cbdadab026376b4e37dd2"
PINNED_IOR_HACC_DIGEST = "976dcb853ec7828fc039abe3cc3f26fe8cb75fddbe81422f9f438bc7b4880da4"
PINNED_TRACE_DIGEST = "a93d7c73b8fbe52a055e342d7100bd1083c990b3225d3e5cbcff0da8bb8d5c83"

SEED = 7
NODES, TASKS_PER_NODE = 1, 4
CONFIG = IO500Config(
    ior_easy_block=4 * 1024**2,
    ior_easy_transfer=1024**2,
    ior_hard_ops=8,
    mdtest_easy_items=12,
    mdtest_hard_items=6,
)

#: IOR runs of the IOR/HACC-IO pin, issued in this order on one testbed.
IOR_CONFIGS = (
    IORConfig(api="POSIX", block_size=2 * MIB, transfer_size=256 * KIB, segment_count=2,
              iterations=2, fsync=True, random_offsets=True, test_file="/scratch/p/shared"),
    IORConfig(api="POSIX", block_size=16 * MIB, transfer_size=MIB, file_per_proc=True,
              keep_file=True, stonewall_seconds=0.02, test_file="/scratch/p/fpp"),
    IORConfig(api="MPIIO", block_size=4 * MIB, transfer_size=64 * KIB, segment_count=4,
              file_per_proc=True, collective=True, fsync=True, keep_file=True,
              test_file="/scratch/m/fpp"),
    IORConfig(api="MPIIO", block_size=47008 * 4, transfer_size=47008, segment_count=3,
              iterations=2, collective=True, test_file="/scratch/m/shared"),
    IORConfig(api="MPIIO", block_size=4 * MIB, transfer_size=MIB, collective=True,
              keep_file=True, test_file="/scratch/m/hinted",
              hints=MPIIOHints(romio_cb_write="disable", striping_unit=MIB)),
    IORConfig(api="HDF5", block_size=2 * MIB, transfer_size=512 * KIB, file_per_proc=True,
              iterations=2, fsync=True, test_file="/scratch/h/fpp"),
    IORConfig(api="HDF5", block_size=16 * MIB, transfer_size=MIB, collective=True,
              random_offsets=True, stonewall_seconds=0.02, keep_file=True,
              test_file="/scratch/h/shared"),
)

#: HACC-IO runs: 250,000 particles of 38 bytes leave a remainder after
#: two 4 MiB transfers, and five ranks in groups of two leave a tail
#: group of one rank.
HACC_CONFIGS = tuple(
    HaccIOConfig(num_particles=250_000, api=api, mode=mode, group_size=2,
                 out_file=f"/scratch/hacc/{api.lower()}-{mode}/checkpoint")
    for api in ("POSIX", "MPIIO")
    for mode in ("single-shared-file", "file-per-process", "file-per-group")
)


def _rendered_run() -> str:
    tb = Testbed.fuchs_csc(seed=SEED)
    result = run_io500(CONFIG, tb, num_nodes=NODES, tasks_per_node=TASKS_PER_NODE)
    return render_io500_output(result)


def _after_write_phases() -> tuple[list[str], list[str]]:
    """Namespace rows and IOR entry info after the four write phases,
    issued in IO500 order with the runner's phase tags."""
    tb = Testbed.fuchs_csc(seed=SEED)
    ctx = tb.start_job("io500", NODES, TASKS_PER_NODE)
    fs = ctx.fs
    fs.makedirs(CONFIG.workdir)
    md_easy, md_hard = CONFIG.mdtest_easy(), CONFIG.mdtest_hard()
    for rank in ctx.comm.ranks():
        fs.makedirs(md_easy.task_dir(rank))
        fs.makedirs(md_hard.task_dir(rank))
    ior_easy = CONFIG.ior_easy().with_(read_file=False)
    ior_hard = CONFIG.ior_hard().with_(read_file=False)
    run_ior_in_job(ior_easy, ctx, extra_tags={"suite": "io500", "phase": "ior-easy-write"})
    run_mdtest_phase(ctx, md_easy, "create", 0, {"suite": "io500", "phase": "mdtest-easy-write"})
    run_ior_in_job(ior_hard, ctx, extra_tags={"suite": "io500", "phase": "ior-hard-write"})
    run_mdtest_phase(ctx, md_hard, "create", 0, {"suite": "io500", "phase": "mdtest-hard-write"})
    tb.finish_job(ctx)

    rows = sorted(
        f"{path}\t{entry.entry_id}\t{entry.size}"
        for path, entry in fs.namespace.walk_files("/")
    )
    ior_paths = [ior_easy.file_for_rank(r) for r in ctx.comm.ranks()] + [ior_hard.test_file]
    return rows, [fs.getentryinfo(p) for p in ior_paths]


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode() if isinstance(chunk, str) else chunk)
        h.update(b"\0")
    return h.hexdigest()


def same_seed_digest() -> str:
    rows, entry_info = _after_write_phases()
    return _digest([_rendered_run(), *rows, *entry_info])


def ior_hacc_digest() -> str:
    tb = Testbed.fuchs_csc(seed=SEED)
    chunks: list[str] = []
    for run_id, config in enumerate(IOR_CONFIGS):
        result = run_ior(config, tb, num_nodes=NODES, tasks_per_node=TASKS_PER_NODE,
                         run_id=run_id)
        chunks.append(render_ior_output(result))
    for run_id, config in enumerate(HACC_CONFIGS):
        ctx = tb.start_job("hacc-io", 1, 5)
        result = run_hacc_io(config, ctx, run_id=run_id)
        chunks.append(repr(result.results))
        chunks.append(repr(tb.finish_job(ctx)))
    fs = tb.fs
    files = fs.namespace.walk_files("/")
    chunks += [f"{path}\t{entry.entry_id}\t{entry.size}" for path, entry in files]
    chunks += [fs.getentryinfo(path) for path, _ in files]
    return _digest(chunks)


def trace_digest(tmp_path) -> str:
    tb = Testbed.fuchs_csc(seed=SEED)
    recorder = RecordingTracer()
    runs = (("MPIIO", True), ("MPIIO", False), ("HDF5", False), ("POSIX", True))
    for run_id, (api, file_per_proc) in enumerate(runs):
        config = IORConfig(api=api, block_size=2 * MIB, transfer_size=MIB, segment_count=2,
                           file_per_proc=file_per_proc, collective=api != "POSIX",
                           fsync=True, test_file=f"/scratch/trace/{run_id}/test")
        run_ior(config, tb, num_nodes=2, tasks_per_node=2, run_id=run_id, tracer=recorder)
    ctx = tb.start_job("hacc-io", 2, 2, tracer=recorder)
    run_hacc_io(HACC_CONFIGS[5], ctx)
    tb.finish_job(ctx)
    chunks: list[str | bytes] = [repr(e) for e in recorder.events]

    step = StepContext(
        params={"command": "ior -a mpiio -b 2m -t 512k -s 2 -C -e -i 2 -o /scratch/dx/test",
                "dxt": "1", "nodes": "2", "taskspernode": "2"},
        workdir=tmp_path, dependencies={}, shared={"testbed": tb},
    )
    ior_darshan_step(step)
    (log,) = tmp_path.glob("*.darshan")
    chunks.append(gzip.decompress(log.read_bytes()))
    return _digest(chunks)


def test_same_seed_runs_agree():
    assert same_seed_digest() == same_seed_digest()


def test_same_seed_digest_is_pinned():
    assert same_seed_digest() == PINNED_DIGEST


def test_ior_hacc_digest_is_pinned():
    assert ior_hacc_digest() == PINNED_IOR_HACC_DIGEST


def test_trace_stream_is_pinned(tmp_path):
    assert trace_digest(tmp_path) == PINNED_TRACE_DIGEST
