"""mdtest metadata benchmark.

The metadata half of IO500: each task creates/stats/reads/removes many
small files.  The *easy* variant gives every task a private directory
and writes no data; the *hard* variant forces all tasks into one shared
directory and writes 3901 bytes per file — the directory-lock and
small-write costs that separate the two in real IO500 lists come from
the metadata-server model (shared-directory factor) and the transfer
cost of the tiny writes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.iostack.stack import IOJobContext
from repro.util.errors import (
    BenchmarkError,
    ConfigurationError,
    FileExistsInPFSError,
    FileNotFoundInPFSError,
)

__all__ = [
    "MdtestConfig",
    "MdtestPhaseResult",
    "MdtestResult",
    "run_mdtest",
    "run_mdtest_phase",
    "render_mdtest_output",
    "MDTEST_PHASES",
    "HARD_WRITE_BYTES",
]

MDTEST_PHASES = ("create", "stat", "read", "remove")

#: mdtest-hard writes exactly 3901 bytes into every file (IO500 rules).
HARD_WRITE_BYTES = 3901


@dataclass(frozen=True, slots=True)
class MdtestConfig:
    """One mdtest invocation."""

    num_items: int = 1000  # files per task (-n)
    base_dir: str = "/scratch/mdtest"
    unique_dir_per_task: bool = True  # -u; False = shared directory
    write_bytes: int = 0  # -w
    read_bytes: int = 0  # -e
    phases: tuple[str, ...] = MDTEST_PHASES

    def __post_init__(self) -> None:
        if self.num_items <= 0:
            raise ConfigurationError("mdtest needs >= 1 item per task")
        if self.write_bytes < 0 or self.read_bytes < 0:
            raise ConfigurationError("write/read bytes must be >= 0")
        unknown = set(self.phases) - set(MDTEST_PHASES)
        if unknown:
            raise ConfigurationError(f"unknown mdtest phases: {sorted(unknown)}")
        if "read" in self.phases and self.read_bytes > self.write_bytes:
            raise ConfigurationError("cannot read more bytes than were written")
        if not self.base_dir.startswith("/"):
            raise ConfigurationError("base_dir must be absolute")

    def task_dir(self, rank: int) -> str:
        """Directory a task works in."""
        if self.unique_dir_per_task:
            return f"{self.base_dir}/task{rank}"
        return f"{self.base_dir}/shared"

    def item_name(self, rank: int, index: int) -> str:
        """Name of one item file inside its task directory."""
        return f"file.mdtest.{rank}.{index}"

    def item_path(self, rank: int, index: int) -> str:
        """Path of one item file."""
        return f"{self.task_dir(rank)}/{self.item_name(rank, index)}"


@dataclass(frozen=True, slots=True)
class MdtestPhaseResult:
    """One mdtest phase outcome."""

    phase: str
    ops_per_sec: float
    total_ops: int
    time_s: float


@dataclass(slots=True)
class MdtestResult:
    """All phases of one mdtest run."""

    config: MdtestConfig
    num_tasks: int
    results: list[MdtestPhaseResult] = field(default_factory=list)

    def rate(self, phase: str) -> float:
        """Ops/s of one phase."""
        for r in self.results:
            if r.phase == phase:
                return r.ops_per_sec
        raise BenchmarkError(f"phase {phase!r} was not run")

    def rates(self) -> dict[str, float]:
        """Phase → ops/s mapping."""
        return {r.phase: r.ops_per_sec for r in self.results}


def run_mdtest_phase(
    ctx: IOJobContext,
    config: MdtestConfig,
    phase: str,
    run_id: int,
    extra_tags: Mapping[str, object],
) -> MdtestPhaseResult:
    """Run one mdtest phase in an existing allocation.

    IO500 drives phases individually (they interleave with other
    benchmarks in the official order); files created by an earlier
    ``create`` call persist in the namespace between calls.
    """
    comm = ctx.comm
    fs = ctx.fs
    shared_dir = not config.unique_dir_per_task
    access = "write" if phase in ("create", "remove") else "read"
    tags = {"benchmark": "mdtest", "run": run_id, "phase": phase, **extra_tags}
    # Hard faults (e.g. a flaky metadata service) abort the phase with a
    # typed, possibly transient error before any namespace bookkeeping.
    fs.faults.maybe_raise(tags)
    pctx = ctx.phase_ctx(access, shared_file=False, tags=tags)
    phase_factor = fs.model.phase_noise_factor(pctx, kind="metadata")
    md_op = {"create": "create", "stat": "stat", "read": "open", "remove": "remove"}[phase]

    t0 = comm.barrier()
    n = config.num_items
    for rank in comm.ranks():
        md_times = fs.model.metadata_times_s(md_op, pctx, n, rank=rank, shared_dir=shared_dir)
        dt = float(md_times.sum())
        # Namespace bookkeeping + data payloads, by name under the task
        # directory resolved once per rank.  Items must be absent before
        # create and present for every other phase; a phase that fails
        # this check changes nothing.
        dir_path = config.task_dir(rank)
        directory = fs.namespace.lookup_dir(dir_path)
        names = [config.item_name(rank, i) for i in range(n)]
        for i, name in enumerate(names):
            if (name in directory.children) == (phase == "create"):
                error = FileExistsInPFSError if phase == "create" else FileNotFoundInPFSError
                raise error(config.item_path(rank, i))
        if phase == "create":
            layout = fs.default_layout()
            entries = [
                fs.create_in(directory, name, None, layout=layout, shared_dir=shared_dir)[0]
                for name in names
            ]
            if config.write_bytes:
                io = fs.model.transfer_times_s(config.write_bytes, layout, pctx, n, rank=rank)
                dt += float(io.sum())
                for entry in entries:
                    entry.extend_to(config.write_bytes)
        elif phase == "remove":
            for name in names:
                fs.namespace.remove_child(directory, name)
        elif phase == "read" and config.read_bytes:
            layout = directory.children[names[0]].layout
            io = fs.model.transfer_times_s(config.read_bytes, layout, pctx, n, rank=rank)
            dt += float(io.sum())
        # Report the batch to the job's tracer under a module of its
        # own: counter tracers (metrics bridge, online monitor) pick it
        # up while the Darshan substrate ignores non-stack modules.
        payload = config.write_bytes if phase == "create" else (
            config.read_bytes if phase == "read" else 0
        )
        ctx.tracer.record_batch(
            "MDTEST", phase, rank, dir_path, 0, payload,
            md_times * phase_factor, t0,
        )
        comm.advance(rank, dt * phase_factor)
    comm.barrier()
    elapsed = comm.max_time() - t0
    total_ops = n * comm.size
    return MdtestPhaseResult(
        phase=phase, ops_per_sec=total_ops / elapsed, total_ops=total_ops, time_s=elapsed
    )


def run_mdtest(
    config: MdtestConfig,
    ctx: IOJobContext,
    run_id: int = 0,
    extra_tags: Mapping[str, object] | None = None,
) -> MdtestResult:
    """Run mdtest inside an existing job allocation.

    Phases run in the order given by ``config.phases``; ``create`` must
    precede any phase that touches the created files.
    """
    fs = ctx.fs
    for rank in ctx.comm.ranks():
        fs.makedirs(config.task_dir(rank))
    needs_files = {"stat", "read", "remove"} & set(config.phases)
    if needs_files and "create" not in config.phases:
        raise BenchmarkError("mdtest phases require 'create' to run first")
    if config.phases and config.phases[0] != "create" and "create" in config.phases:
        raise BenchmarkError("'create' must be the first mdtest phase")
    result = MdtestResult(config=config, num_tasks=ctx.comm.size)
    for phase in config.phases:
        result.results.append(run_mdtest_phase(ctx, config, phase, run_id, extra_tags or {}))
    return result


def render_mdtest_output(result: MdtestResult) -> str:
    """Render mdtest-style summary text for one run.

    Follows the real mdtest "SUMMARY rate" block so the knowledge
    extractor works on genuine mdtest output as well (§VI: unified
    knowledge objects "support[ing] more benchmarks with different
    output formats").
    """
    label = {
        "create": "File creation",
        "stat": "File stat",
        "read": "File read",
        "remove": "File removal",
    }
    lines = [
        "-- started at 07/20/2022 10:00:00 --",
        "",
        f"mdtest-3.4.0+repro was launched with {result.num_tasks} total task(s)",
        f"Command line used: mdtest -n {result.config.num_items}"
        f"{' -u' if result.config.unique_dir_per_task else ''}"
        f"{f' -w {result.config.write_bytes}' if result.config.write_bytes else ''}"
        f" -d {result.config.base_dir}",
        f"Path: {result.config.base_dir}",
        "",
        "SUMMARY rate: (of 1 iterations)",
        "   Operation                      Max            Min           Mean        Std Dev",
        "   ---------                      ---            ---           ----        -------",
    ]
    for phase in result.results:
        rate = phase.ops_per_sec
        lines.append(
            f"   {label[phase.phase]:<25} :  {rate:>13.3f}  {rate:>13.3f}  {rate:>13.3f}  {0.0:>13.3f}"
        )
    lines += ["", "-- finished at 07/20/2022 10:00:30 --", ""]
    return "\n".join(lines)
