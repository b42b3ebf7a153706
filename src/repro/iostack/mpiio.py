"""MPI-IO layer of the I/O stack.

Sits on the POSIX layer, as in the paper's Fig. 1 ("these libraries ...
are built atop MPI-IO, where MPI-IO in turn uses POSIX").  Adds the
MPI-IO semantics the benchmarks exercise: shared file handles across a
communicator, independent vs. collective data operations, and ROMIO
hints that switch collective buffering on or off.  Collective
operations run under a context with ``collective=True`` so the
performance model applies the aggregation efficiency instead of the
shared-file lock penalty, plus the two-phase exchange latency.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from repro.iostack.posix import PosixFile, PosixLayer, StackFile, StackLayer
from repro.iostack.tracing import NullTracer, Times, Tracer
from repro.mpi.hints import MPIIOHints
from repro.pfs.beegfs import BeeGFS
from repro.pfs.perfmodel import PhaseContext
from repro.util.errors import IOStackError

__all__ = ["MPIIO_OVERHEAD_S", "MPIIOFile", "MPIIOLayer"]

MPIIO_OVERHEAD_S = 5.0e-6

_MODULE = "MPIIO"


class MPIIOFile(StackFile):
    """An ``MPI_File`` handle (per-rank view in the simulator)."""

    write_at, read_at, io_many = StackFile.write_at, StackFile.read_at, StackFile.io_many
    sync, close = StackFile.sync, StackFile.close

    def __init__(self, layer: "MPIIOLayer", posix_file: PosixFile, rank: int,
                 shared_file: bool) -> None:
        self.layer = layer
        self.posix = posix_file
        self.rank = rank
        self.shared_file = shared_file
        self.path = posix_file.path


class MPIIOLayer(StackLayer):
    """Factory for MPI-IO file handles, configured with ROMIO hints.

    The ``*_all`` methods take the handles of every rank of a phase,
    which share one ``shared_file`` mode.
    """

    api_name = "MPIIO"
    open = StackLayer.open

    def __init__(
        self,
        fs: BeeGFS,
        tracer: Tracer | None = None,
        hints: MPIIOHints | None = None,
    ) -> None:
        self.tracer = tracer or NullTracer()
        self.posix_layer = PosixLayer(fs, self.tracer)
        self.hints = hints or MPIIOHints()

    def _ctx(self, ctx: PhaseContext, collective: bool, files: Sequence[MPIIOFile]) -> PhaseContext:
        shared = files[0].shared_file
        wants = collective and self.hints.collective_enabled(ctx.access, shared)
        if ctx.collective == wants and ctx.shared_file == shared:
            return ctx
        return replace(ctx, collective=wants, shared_file=shared)

    def open_all(self, paths: Sequence[str], ranks: Sequence[int], ctx: PhaseContext, now: Times,
                 create: bool = False, shared_file: bool = False) -> tuple[list, np.ndarray]:
        """``MPI_File_open`` by every rank in rank order; with ``create``
        for write phases.

        Open-or-create in both modes: a shared file is created by the
        first rank only and the others pay an open of the now-existing
        file (the open is collective), and a rewrite of an existing
        file-per-process file opens it in place (IOR without -k removal,
        repetition > 1).  A ``striping_unit`` hint restripes each file.
        """
        layouts, unit = None, self.hints.striping_unit
        if unit > 0:
            layouts = [replace(self.posix_layer.fs.default_layout(), chunk_size=unit) for _ in paths]
        pfs, dt = self.posix_layer.open_all(paths, ranks, ctx, now, create, layouts=layouts)
        dt = dt + MPIIO_OVERHEAD_S
        files = [MPIIOFile(self, pf, r, shared_file) for pf, r in zip(pfs, ranks)]
        self.tracer.record_phase(_MODULE, "open", files, now, dt)
        return files, dt

    def io_all(self, files: Sequence[MPIIOFile], op: str, nbytes: int, n_ops: int,
               ctx: PhaseContext, now: Times, collective: bool = False,
               offsets: Sequence[int] | None = None) -> np.ndarray:
        """``n_ops`` transfers per handle from ``offsets`` (default: its
        position); returns ranks × ops durations."""
        eff = self._ctx(ctx, collective, files)
        posix = [f.posix for f in files]
        times = self.posix_layer.io_all(posix, op, nbytes, n_ops, eff, now, offsets=offsets)
        times = times + MPIIO_OVERHEAD_S
        op = op + "_all" if eff.collective else op
        self.tracer.record_phase(_MODULE, op, files, now, times, nbytes=nbytes)
        return times

    def transfer_all(self, files: Sequence[MPIIOFile], op: str, nbytes: int, ctx: PhaseContext,
                     now: Times, offsets: Sequence[int], collective: bool = False) -> np.ndarray:
        """``MPI_File_write_at(_all)``/``read_at(_all)`` per handle at ``offsets``."""
        eff = self._ctx(ctx, collective, files)
        posix = [f.posix for f in files]
        dt = self.posix_layer.transfer_all(posix, op, nbytes, eff, now, offsets) + MPIIO_OVERHEAD_S
        op = op + "_all" if eff.collective else op
        self.tracer.record_phase(_MODULE, op, files, now, dt, offsets, nbytes)
        return dt

    def sync_all(self, files: Sequence[MPIIOFile], now: Times) -> np.ndarray:
        """``MPI_File_sync`` of every handle."""
        dt = self.posix_layer.sync_all([f.posix for f in files], now) + MPIIO_OVERHEAD_S
        self.tracer.record_phase(_MODULE, "sync", files, now, dt)
        return dt

    def close_all(self, files: Sequence[MPIIOFile], now: Times, ctx: PhaseContext | None = None
                  ) -> np.ndarray:
        """``MPI_File_close`` of every handle (``ctx`` is unused here)."""
        dt = self.posix_layer.close_all([f.posix for f in files], now) + MPIIO_OVERHEAD_S
        self.tracer.record_phase(_MODULE, "close", files, now, dt)
        return dt

    def delete(self, path: str, rank: int, ctx: PhaseContext, now: float) -> float:
        """``MPI_File_delete``."""
        if ctx.access != "write":
            raise IOStackError("MPI_File_delete requires a write-phase context")
        return self.posix_layer.unlink(path, rank, ctx, now) + MPIIO_OVERHEAD_S
