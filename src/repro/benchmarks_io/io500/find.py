"""The IO500 ``find`` phase.

Scans the namespace produced by the preceding write phases and counts
the files matching the IO500 predicate (the 3901-byte mdtest-hard files
plus the timestamp window).  The rate is bounded by the metadata
servers' stat capability, saturating with client concurrency like every
other metadata operation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.iostack.stack import IOJobContext
from repro.util.errors import BenchmarkError

__all__ = ["FindResult", "run_find"]

#: Directory-scan speedup over individual stats: find readdirplus-style
#: bulk iteration is cheaper per entry than isolated stat calls.
_SCAN_SPEEDUP = 4.0


@dataclass(frozen=True, slots=True)
class FindResult:
    """Outcome of one find phase."""

    total_files: int
    matched_files: int
    time_s: float

    @property
    def ops_per_sec(self) -> float:
        """Scan rate in entries/s (what IO500 scores as kIOPS)."""
        if self.time_s <= 0:
            raise BenchmarkError("find finished in non-positive time")
        return self.total_files / self.time_s


def run_find(
    ctx: IOJobContext,
    workdir: str,
    match_size: int = 3901,
    run_id: int = 0,
) -> FindResult:
    """Run the parallel find over ``workdir``.

    All ranks share the scan evenly; the phase cost is the per-entry
    stat cost at full concurrency divided by the bulk-scan speedup.
    """
    comm = ctx.comm
    fs = ctx.fs
    tags = {"benchmark": "find", "run": run_id}
    pctx = ctx.phase_ctx("read", tags=tags)
    sizes = [e.size for e in fs.namespace.iter_files(workdir)]
    total = len(sizes)
    matched = sizes.count(match_size)
    if total == 0:
        raise BenchmarkError(f"find: no files under {workdir!r}; run the write phases first")

    t0 = comm.barrier()
    per_entry = fs.model.metadata_time_s("stat", pctx) / _SCAN_SPEEDUP
    noise = fs.model.phase_noise_factor(pctx, kind="metadata")
    entries_per_rank = total / comm.size
    for rank in comm.ranks():
        comm.advance(rank, entries_per_rank * per_entry * noise)
    comm.barrier()
    elapsed = comm.max_time() - t0
    return FindResult(total_files=total, matched_files=matched, time_s=elapsed)
