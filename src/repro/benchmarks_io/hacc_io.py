"""HACC-IO benchmark.

Replays the checkpoint/restart I/O of the HACC cosmology code, which
the paper integrates "to cover real I/O patterns like checkpoint and
restart for large simulations" (§V-A).  Each simulated particle carries
38 bytes (9 floats + 1 int16, as in the real kernel); every rank owns
``num_particles`` of them and writes/reads them as one contiguous
record per rank.  Supported interfaces are POSIX and MPI-IO, with the
three file access modes of the real benchmark: single shared file,
file-per-process, and one file per group of ranks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.iostack.stack import IOJobContext
from repro.util.errors import BenchmarkError, ConfigurationError
from repro.util.units import MIB

__all__ = ["HaccIOConfig", "HaccIOPhaseResult", "HaccIOResult", "run_hacc_io", "BYTES_PER_PARTICLE"]

#: xx, yy, zz, vx, vy, vz, phi, pid, mask — 9 floats + 1 int16.
BYTES_PER_PARTICLE = 38

_MODES = ("single-shared-file", "file-per-process", "file-per-group")
_APIS = ("POSIX", "MPIIO")


@dataclass(frozen=True, slots=True)
class HaccIOConfig:
    """One HACC-IO invocation."""

    num_particles: int = 1_000_000  # per rank
    api: str = "MPIIO"
    mode: str = "single-shared-file"
    group_size: int = 16  # ranks per file in file-per-group mode
    out_file: str = "/scratch/hacc/checkpoint"
    transfer_size: int = 4 * MIB  # client-side buffering granularity
    restart: bool = True  # read the checkpoint back

    def __post_init__(self) -> None:
        if self.num_particles <= 0:
            raise ConfigurationError("HACC-IO needs >= 1 particle per rank")
        if self.api.upper() not in _APIS:
            raise ConfigurationError(f"HACC-IO api must be one of {_APIS}")
        object.__setattr__(self, "api", self.api.upper())
        if self.mode not in _MODES:
            raise ConfigurationError(f"HACC-IO mode must be one of {_MODES}")
        if self.group_size <= 0:
            raise ConfigurationError("group size must be >= 1")
        if self.transfer_size <= 0:
            raise ConfigurationError("transfer size must be positive")
        if not self.out_file.startswith("/"):
            raise ConfigurationError("out_file must be absolute")

    @property
    def bytes_per_rank(self) -> int:
        """Checkpoint bytes one rank owns."""
        return self.num_particles * BYTES_PER_PARTICLE

    def file_for_rank(self, rank: int) -> str:
        """The file a rank writes its particles into."""
        if self.mode == "single-shared-file":
            return self.out_file
        if self.mode == "file-per-process":
            return f"{self.out_file}.{rank:08d}"
        return f"{self.out_file}.g{rank // self.group_size:04d}"

    def ranks_sharing(self, num_tasks: int, rank: int) -> int:
        """How many ranks share this rank's file."""
        if self.mode == "single-shared-file":
            return num_tasks
        if self.mode == "file-per-process":
            return 1
        first = (rank // self.group_size) * self.group_size
        return min(self.group_size, num_tasks - first)


@dataclass(frozen=True, slots=True)
class HaccIOPhaseResult:
    """One checkpoint (write) or restart (read) phase."""

    operation: str
    bandwidth_mib: float
    time_s: float
    data_moved_bytes: int


@dataclass(slots=True)
class HaccIOResult:
    """Both phases of one HACC-IO run."""

    config: HaccIOConfig
    num_tasks: int
    results: list[HaccIOPhaseResult] = field(default_factory=list)

    def phase(self, operation: str) -> HaccIOPhaseResult:
        """Result of 'write' (checkpoint) or 'read' (restart)."""
        for r in self.results:
            if r.operation == operation:
                return r
        raise BenchmarkError(f"phase {operation!r} was not run")


def _run_phase(ctx: IOJobContext, config: HaccIOConfig, operation: str, run_id: int) -> HaccIOPhaseResult:
    comm = ctx.comm
    fs = ctx.fs
    layer = ctx.layer(config.api, phase=True)
    tags = {"benchmark": "hacc-io", "run": run_id, "op": operation, "mode": config.mode}
    t0 = comm.barrier()
    nbytes = config.bytes_per_rank
    full_transfers, remainder = divmod(nbytes, config.transfer_size)
    totals = np.zeros(comm.size)
    # One context per group of ranks that share files or not: the whole
    # phase, except a file-per-group tail group of one rank.
    for shared, group in itertools.groupby(
        comm.ranks(), key=lambda rank: config.ranks_sharing(comm.size, rank) > 1
    ):
        ranks = list(group)
        pctx = ctx.phase_ctx(operation, shared_file=shared, tags=tags)
        paths = [config.file_for_rank(rank) for rank in ranks]
        handles, total = layer.open_all(
            paths, ranks, pctx, t0, create=(operation == "write"), shared_file=shared
        )
        now = t0 + total
        # Contiguous per-rank record at a rank-order offset.
        offsets = [
            (rank % config.ranks_sharing(comm.size, rank)) * nbytes if shared else 0
            for rank in ranks
        ]
        if full_transfers:
            step = layer.io_all(
                handles, operation, config.transfer_size, full_transfers, pctx, now,
                offsets=offsets,
            ).sum(axis=1)
            now = now + step
            total = total + step
        if remainder:
            at = [offset + full_transfers * config.transfer_size for offset in offsets]
            step = layer.transfer_all(handles, operation, remainder, pctx, now, at)
            now = now + step
            total = total + step
        totals[ranks] = total + layer.close_all(handles, now)
    comm.advance_all(totals)
    layer.tracer.flush()
    comm.barrier()
    elapsed = comm.max_time() - t0
    data = nbytes * comm.size
    # The phase noise is keyed by the tags and access alone.
    elapsed *= fs.model.phase_noise_factor(pctx, kind="data")
    return HaccIOPhaseResult(
        operation=operation,
        bandwidth_mib=data / MIB / elapsed,
        time_s=elapsed,
        data_moved_bytes=data,
    )


def run_hacc_io(config: HaccIOConfig, ctx: IOJobContext, run_id: int = 0) -> HaccIOResult:
    """Run HACC-IO (checkpoint, then optional restart) in a job."""
    import posixpath

    ctx.fs.makedirs(posixpath.dirname(config.out_file))
    result = HaccIOResult(config=config, num_tasks=ctx.comm.size)
    result.results.append(_run_phase(ctx, config, "write", run_id))
    if config.restart:
        result.results.append(_run_phase(ctx, config, "read", run_id))
    return result
