"""IOR execution engine on the simulated testbed.

Replays IOR's bulk-synchronous structure faithfully: per repetition one
write and/or one read phase, each phase being barrier / open / N
transfers per task / (fsync) / close / barrier, with per-phase timing
decomposed exactly into the columns IOR prints (open, wr/rd, close,
total) and bandwidth computed as aggregate data over total phase time.
"""

from __future__ import annotations

import posixpath
from dataclasses import dataclass, field

import numpy as np

from repro.benchmarks_io.ior.config import IORConfig
from repro.iostack.stack import IOJobContext, Testbed
from repro.iostack.tracing import Tracer
from repro.pfs.perfmodel import PhaseContext
from repro.util.errors import BenchmarkError, FileNotFoundInPFSError
from repro.util.stats import Summary, summarize
from repro.util.units import MIB

__all__ = ["IOROperationResult", "IORRunResult", "run_ior", "run_ior_in_job"]

#: Fixed simulated epoch: all timestamps are offsets from this instant,
#: keeping runs bit-reproducible (2022-07-20 10:00:00 UTC).
SIM_EPOCH = 1658311200.0


@dataclass(frozen=True, slots=True)
class IOROperationResult:
    """One row of IOR's per-iteration results table."""

    operation: str  # 'write' | 'read'
    iteration: int  # 0-based, like IOR's 'iter' column
    bandwidth_mib: float
    iops: float
    latency_s: float
    open_time_s: float
    io_time_s: float
    close_time_s: float
    total_time_s: float
    data_moved_bytes: int
    n_ops: int


@dataclass(slots=True)
class IORRunResult:
    """Everything one IOR invocation produced."""

    config: IORConfig
    num_nodes: int
    tasks_per_node: int
    results: list[IOROperationResult] = field(default_factory=list)
    start_offset_s: float = 0.0
    end_offset_s: float = 0.0
    machine: str = ""
    fs_info: dict[str, object] = field(default_factory=dict)
    entryinfo: str = ""

    @property
    def num_tasks(self) -> int:
        """Total MPI tasks of the run."""
        return self.num_nodes * self.tasks_per_node

    @property
    def command(self) -> str:
        """The equivalent command line."""
        return self.config.to_command()

    def operation_results(self, operation: str) -> list[IOROperationResult]:
        """Per-iteration rows of one operation, in iteration order."""
        return sorted(
            (r for r in self.results if r.operation == operation),
            key=lambda r: r.iteration,
        )

    def bandwidth_summary(self, operation: str) -> Summary:
        """Max/min/mean/stddev bandwidth over iterations (IOR summary)."""
        rows = self.operation_results(operation)
        if not rows:
            raise BenchmarkError(f"no {operation} results in this run")
        return summarize([r.bandwidth_mib for r in rows])

    def iops_summary(self, operation: str) -> Summary:
        """Max/min/mean/stddev operation rate over iterations."""
        rows = self.operation_results(operation)
        if not rows:
            raise BenchmarkError(f"no {operation} results in this run")
        return summarize([r.iops for r in rows])

    def operations(self) -> list[str]:
        """Operations present in the run, write before read."""
        present = {r.operation for r in self.results}
        return [op for op in ("write", "read") if op in present]


def _run_phase(
    ctx: IOJobContext,
    config: IORConfig,
    iteration: int,
    operation: str,
    run_id: int,
    extra_tags: dict[str, object] | None = None,
) -> IOROperationResult:
    comm = ctx.comm
    fs = ctx.fs
    tags = {
        "benchmark": "ior",
        "run": run_id,
        "iteration": iteration,
        "op": operation,
        **(extra_tags or {}),
    }
    # Hard faults fire at the phase boundary: a matching fault with a
    # fail_probability aborts this iteration with a typed, possibly
    # transient error (the resilience layer decides whether to retry).
    fs.faults.maybe_raise(tags)
    access = "write" if operation == "write" else "read"
    pctx = ctx.phase_ctx(
        access,
        shared_file=config.shared_file,
        collective=config.collective,
        fsync=config.fsync and access == "write",
        random_access=config.random_offsets,
        tags=tags,
    )
    # One systemic noise factor per phase: the state of the shared
    # storage system during this iteration (what makes Fig. 5 vary).
    phase_factor = fs.model.phase_noise_factor(pctx)
    layer = ctx.layer(config.api, config.hints, phase=True)

    # Every rank runs open / transfers / (fsync) / close from the
    # barrier; each step is accounted for all ranks in one call.
    t0 = comm.barrier()
    ranks = comm.ranks()
    paths = [config.file_for_rank(rank) for rank in ranks]
    try:
        handles, dt_open = layer.open_all(
            paths, ranks, pctx, t0, create=(access == "write"), shared_file=config.shared_file
        )
    except FileNotFoundInPFSError as exc:
        if access == "write":
            raise
        raise BenchmarkError(
            f"read phase: test file {exc} does not exist (run a write phase first or drop -r)"
        ) from None
    dt_open = dt_open * phase_factor
    now = t0 + dt_open
    # Segmented N-to-1 layout: rank r accesses block r of every segment.
    offsets = [rank * config.block_size for rank in ranks] if config.shared_file else None
    durations = layer.io_all(
        handles, operation, config.transfer_size, config.transfers_per_task, pctx, now,
        collective=config.collective, offsets=offsets,
    ) * phase_factor
    if config.stonewall_seconds > 0:
        # Stonewalling (-D): each task stops issuing transfers once
        # the deadline passes.  (The namespace may briefly over-
        # account the file size; the post-phase fixup below corrects
        # shared files, and per-process files only matter for
        # subsequent reads, which stonewall the same way.)
        done = (np.cumsum(durations, axis=1) <= config.stonewall_seconds).sum(axis=1)
        ops_done = np.maximum(1, done)
        dt_io = np.array([row[:n].sum() for row, n in zip(durations, ops_done)])
    else:
        ops_done = np.full(comm.size, config.transfers_per_task)
        dt_io = durations.sum(axis=1)
    now = now + dt_io
    if config.fsync and access == "write":
        dt_fsync = layer.sync_all(handles, now) * phase_factor
        dt_io = dt_io + dt_fsync
        now = now + dt_fsync
    dt_close = layer.close_all(handles, now, pctx) * phase_factor
    comm.advance_all(dt_open + dt_io + dt_close)
    layer.tracer.flush()

    comm.barrier()
    if config.shared_file and access == "write":
        # The segmented N-to-1 layout interleaves every rank's blocks,
        # so the file covers the full aggregate extent after the phase
        # (each rank's handle only tracked its own strided slice).
        entry = fs.namespace.lookup_file(config.test_file)
        entry.extend_to(config.aggregate_bytes(comm.size))
    total = comm.max_time() - t0
    n_ops_total = int(ops_done.sum())
    data_moved = n_ops_total * config.transfer_size
    io_time = float(dt_io.max())
    return IOROperationResult(
        operation=operation,
        iteration=iteration,
        bandwidth_mib=data_moved / MIB / total,
        iops=n_ops_total / io_time,
        latency_s=io_time / max(1, int(ops_done.max())),
        open_time_s=float(dt_open.max()),
        io_time_s=io_time,
        close_time_s=float(dt_close.max()),
        total_time_s=total,
        data_moved_bytes=data_moved,
        n_ops=n_ops_total,
    )


def run_ior_in_job(
    config: IORConfig,
    ctx: IOJobContext,
    run_id: int = 0,
    extra_tags: dict[str, object] | None = None,
) -> IORRunResult:
    """Run IOR inside an existing job allocation (used by IO500)."""
    fs = ctx.fs
    fs.makedirs(posixpath.dirname(config.test_file))
    result = IORRunResult(
        config=config,
        num_nodes=ctx.num_nodes,
        tasks_per_node=ctx.tasks_per_node,
        machine=ctx.testbed.cluster.name,
        start_offset_s=ctx.comm.max_time(),
    )
    for iteration in range(config.iterations):
        if config.write_file:
            result.results.append(
                _run_phase(ctx, config, iteration, "write", run_id, extra_tags)
            )
        if config.read_file:
            result.results.append(
                _run_phase(ctx, config, iteration, "read", run_id, extra_tags)
            )
        if not config.keep_file:
            # IOR removes the data set after each repetition unless -k.
            _remove_test_files(ctx, config)
    result.end_offset_s = ctx.comm.max_time()
    first_file = config.file_for_rank(0)
    if fs.namespace.exists(first_file):
        result.entryinfo = fs.getentryinfo(first_file)
    result.fs_info = fs.df()
    return result


def _remove_test_files(ctx: IOJobContext, config: IORConfig) -> None:
    wctx = ctx.phase_ctx("write", tags={"benchmark": "ior", "op": "cleanup"})
    ranks, dt = unlink_test_files(ctx, config, wctx)
    for rank in ranks:
        ctx.comm.advance(rank, dt)


def unlink_test_files(ctx: IOJobContext, config: IORConfig, wctx: PhaseContext
                      ) -> tuple[list[int], float]:
    """Unlink whichever ranks' test files exist (rank 0's if shared) in one
    batched unlink; returns those ranks and one removal's cost."""
    fs = ctx.fs
    dir_path = posixpath.dirname(config.test_file)
    directory = fs.namespace.lookup_dir(dir_path)
    names = {rank: posixpath.basename(config.file_for_rank(rank))
             for rank in (ctx.comm.ranks() if config.file_per_proc else [0])}
    ranks = [rank for rank, name in names.items() if name in directory.children]
    fs.namespace.remove_children(directory, [names[rank] for rank in ranks], dir_path=dir_path)
    return ranks, fs.model.metadata_time_s("remove", wctx)


def run_ior(
    config: IORConfig,
    testbed: Testbed,
    num_nodes: int = 4,
    tasks_per_node: int = 20,
    run_id: int = 0,
    tracer: Tracer | None = None,
) -> IORRunResult:
    """Run one IOR invocation as its own exclusive batch job.

    This is the §V-E1 entry point: the paper's example command on four
    FUCHS-CSC nodes is
    ``run_ior(parse_command("ior -a mpiio -b 4m -t 2m -s 40 -F -C -e -i 6 -o /scratch/test80 -k"), testbed)``.
    """
    ctx = testbed.start_job("ior", num_nodes, tasks_per_node, tracer=tracer)
    try:
        result = run_ior_in_job(config, ctx, run_id=run_id)
    finally:
        testbed.finish_job(ctx)
    return result
