"""IO500 suite execution.

Runs the twelve official phases in order against one job allocation and
scores the run.  The paper integrates IO500 "as a separate knowledge
generator" (§V-A) and builds the Fig. 6 bounding box from its
ior-easy/ior-hard boundary test cases.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Sequence

from repro.benchmarks_io.io500.config import IO500Config
from repro.benchmarks_io.io500.find import run_find
from repro.benchmarks_io.io500.scoring import (
    PHASE_ORDER,
    IO500Score,
    compute_score,
)
from repro.benchmarks_io.ior.config import IORConfig
from repro.benchmarks_io.ior.runner import run_ior_in_job, unlink_test_files
from repro.benchmarks_io.mdtest import MdtestConfig, run_mdtest_phase
from repro.iostack.stack import IOJobContext, Testbed
from repro.util.errors import BenchmarkError
from repro.util.units import GIB, MIB

__all__ = ["IO500PhaseResult", "IO500Result", "run_io500", "main"]


@dataclass(frozen=True, slots=True)
class IO500PhaseResult:
    """One ``[RESULT]`` line of an IO500 run."""

    name: str
    value: float  # GiB/s for bandwidth phases, kIOPS for metadata phases
    unit: str  # 'GiB/s' | 'kIOPS'
    time_s: float


@dataclass(slots=True)
class IO500Result:
    """A complete, scored IO500 run."""

    config: IO500Config
    num_nodes: int
    tasks_per_node: int
    phases: list[IO500PhaseResult] = field(default_factory=list)
    score: IO500Score | None = None

    @property
    def num_tasks(self) -> int:
        """Total MPI tasks of the run."""
        return self.num_nodes * self.tasks_per_node

    def phase(self, name: str) -> IO500PhaseResult:
        """Look up one phase result by name."""
        for p in self.phases:
            if p.name == name:
                return p
        raise BenchmarkError(f"phase {name!r} not present in this IO500 run")

    def phase_values(self) -> dict[str, float]:
        """Phase name → scored value mapping."""
        return {p.name: p.value for p in self.phases}


def _ior_phase(
    ctx: IOJobContext, base: IORConfig, phase_name: str, operation: str, run_id: int
) -> IO500PhaseResult:
    config = base.with_(
        write_file=(operation == "write"), read_file=(operation == "read")
    )
    result = run_ior_in_job(
        config, ctx, run_id=run_id, extra_tags={"suite": "io500", "phase": phase_name}
    )
    row = result.operation_results(operation)[0]
    return IO500PhaseResult(
        name=phase_name,
        value=row.bandwidth_mib * MIB / GIB,
        unit="GiB/s",
        time_s=row.total_time_s,
    )


def _mdtest_phase(
    ctx: IOJobContext,
    config: MdtestConfig,
    phase_name: str,
    mdtest_op: str,
    run_id: int,
) -> IO500PhaseResult:
    row = run_mdtest_phase(
        ctx, config, mdtest_op, run_id, {"suite": "io500", "phase": phase_name}
    )
    return IO500PhaseResult(
        name=phase_name, value=row.ops_per_sec / 1000.0, unit="kIOPS", time_s=row.time_s
    )


def run_io500(
    config: IO500Config,
    testbed: Testbed,
    num_nodes: int = 2,
    tasks_per_node: int = 20,
    run_id: int = 0,
) -> IO500Result:
    """Run the full IO500 suite as one exclusive job and score it."""
    ctx = testbed.start_job("io500", num_nodes, tasks_per_node)
    try:
        result = run_io500_in_job(config, ctx, run_id=run_id)
    finally:
        testbed.finish_job(ctx)
    return result


def run_io500_in_job(config: IO500Config, ctx: IOJobContext, run_id: int = 0) -> IO500Result:
    """Run IO500 inside an existing allocation (all twelve phases)."""
    fs = ctx.fs
    fs.makedirs(config.workdir)
    ior_easy = config.ior_easy()
    ior_hard = config.ior_hard()
    md_easy = config.mdtest_easy()
    md_hard = config.mdtest_hard()
    for rank in ctx.comm.ranks():
        fs.makedirs(md_easy.task_dir(rank))
        fs.makedirs(md_hard.task_dir(rank))

    result = IO500Result(
        config=config, num_nodes=ctx.num_nodes, tasks_per_node=ctx.tasks_per_node
    )
    runners = {
        "ior-easy-write": lambda: _ior_phase(ctx, ior_easy, "ior-easy-write", "write", run_id),
        "mdtest-easy-write": lambda: _mdtest_phase(
            ctx, md_easy, "mdtest-easy-write", "create", run_id
        ),
        "ior-hard-write": lambda: _ior_phase(ctx, ior_hard, "ior-hard-write", "write", run_id),
        "mdtest-hard-write": lambda: _mdtest_phase(
            ctx, md_hard, "mdtest-hard-write", "create", run_id
        ),
        "find": lambda: _find_phase(ctx, config, run_id),
        "ior-easy-read": lambda: _ior_phase(ctx, ior_easy, "ior-easy-read", "read", run_id),
        "mdtest-easy-stat": lambda: _mdtest_phase(
            ctx, md_easy, "mdtest-easy-stat", "stat", run_id
        ),
        "ior-hard-read": lambda: _ior_phase(ctx, ior_hard, "ior-hard-read", "read", run_id),
        "mdtest-hard-stat": lambda: _mdtest_phase(
            ctx, md_hard, "mdtest-hard-stat", "stat", run_id
        ),
        "mdtest-easy-delete": lambda: _mdtest_phase(
            ctx, md_easy, "mdtest-easy-delete", "remove", run_id
        ),
        "mdtest-hard-read": lambda: _mdtest_phase(
            ctx, md_hard, "mdtest-hard-read", "read", run_id
        ),
        "mdtest-hard-delete": lambda: _mdtest_phase(
            ctx, md_hard, "mdtest-hard-delete", "remove", run_id
        ),
    }
    for name in PHASE_ORDER:
        result.phases.append(runners[name]())
    result.score = compute_score(result.phase_values())
    _cleanup_ior_files(ctx, (ior_easy, ior_hard))
    return result


def _find_phase(ctx: IOJobContext, config: IO500Config, run_id: int) -> IO500PhaseResult:
    found = run_find(ctx, config.workdir, run_id=run_id)
    return IO500PhaseResult(
        name="find", value=found.ops_per_sec / 1000.0, unit="kIOPS", time_s=found.time_s
    )


def _cleanup_ior_files(ctx: IOJobContext, configs: Sequence[IORConfig]) -> None:
    wctx = ctx.phase_ctx("write", tags={"suite": "io500", "phase": "cleanup"})
    for cfg in configs:
        ranks, dt = unlink_test_files(ctx, cfg, wctx)
        for _ in ranks:
            ctx.comm.advance(0, dt)


def main(argv: Sequence[str] | None = None) -> int:
    """Console entry point: run IO500 on the default simulated testbed."""
    from repro.benchmarks_io.io500.output import render_io500_output

    args = list(sys.argv[1:] if argv is None else argv)
    nodes = int(args[args.index("-N") + 1]) if "-N" in args else 2
    config = IO500Config()
    result = run_io500(config, Testbed.fuchs_csc(), num_nodes=nodes, tasks_per_node=20)
    print(render_io500_output(result))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
