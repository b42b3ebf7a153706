"""POSIX layer of the I/O stack.

The bottom software layer of the paper's Fig. 1 stack: everything above
(MPI-IO, HDF5) ultimately issues POSIX open/read/write/fsync/close
against the parallel file system client.  Each call returns its
simulated duration; a small constant models the syscall/VFS overhead on
top of the file-system cost.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.iostack.tracing import NullTracer, Times, TraceEvent, Tracer
from repro.pfs.beegfs import BeeGFS
from repro.pfs.file import FileEntry
from repro.pfs.layout import StripeLayout
from repro.pfs.perfmodel import PhaseContext
from repro.util.errors import IOStackError

__all__ = ["POSIX_SYSCALL_OVERHEAD_S", "StackFile", "StackLayer", "PosixFile", "PosixLayer"]

POSIX_SYSCALL_OVERHEAD_S = 2.0e-6

_MODULE = "POSIX"


class StackFile:
    """One rank's open file at one layer of the stack.

    Its methods are the layer's ``*_all`` calls on this file alone; each
    file class binds those it offers as its own attributes (profilers
    wrap them per class).
    """

    layer: "StackLayer"

    def write_at(self, offset: int, nbytes: int, ctx: PhaseContext, now: float,
                 collective: bool = False) -> float:
        """One write of ``nbytes`` at ``offset`` (``MPI_File_write_at(_all)``, ``H5Dwrite``)."""
        return self._at("write", offset, nbytes, ctx, now, collective)

    def read_at(self, offset: int, nbytes: int, ctx: PhaseContext, now: float,
                collective: bool = False) -> float:
        """One read of ``nbytes`` at ``offset`` (``MPI_File_read_at(_all)``, ``H5Dread``)."""
        return self._at("read", offset, nbytes, ctx, now, collective)

    def _at(self, op: str, offset: int, nbytes: int, ctx: PhaseContext, now: float,
            collective: bool) -> float:
        return float(self.layer.transfer_all([self], op, nbytes, ctx, now, [offset], collective)[0])

    def io_many(self, op: str, nbytes: int, n_ops: int, ctx: PhaseContext, now: float,
                collective: bool = False) -> np.ndarray:
        """Per-op durations of ``n_ops`` identical sequential transfers
        from the current position, which moves past the batch."""
        return self.layer.io_all([self], op, nbytes, n_ops, ctx, now, collective)[0]

    def sync(self, now: float) -> float:
        """Flush dirty data (``fsync``, ``MPI_File_sync``, ``H5Fflush``)."""
        return float(self.layer.sync_all([self], now)[0])

    def close(self, now: float, ctx: PhaseContext | None = None) -> float:
        """Close the file (HDF5 needs the phase ``ctx``)."""
        return float(self.layer.close_all([self], now, ctx)[0])


class StackLayer:
    """One layer of the stack, reporting to a tracer.

    The ``*_all`` methods run one step of a phase (open, transfers,
    sync, close) for every rank's file in rank order, starting at
    ``now`` (one time, or one per rank): a cost shared by all ranks is
    computed once, transfers are priced as one ranks × ops array, and
    trace events are built only for a tracer that keeps them.
    """

    tracer: Tracer

    def open(self, path: str, rank: int, ctx: PhaseContext, now: float, create: bool = False,
             shared_file: bool = False) -> tuple[StackFile, float]:
        """Open by one rank: ``open_all`` on its file alone."""
        files, dt = self.open_all([path], [rank], ctx, now, create, shared_file)
        return files[0], float(dt[0])


class PosixFile(StackFile):
    """An open POSIX file descriptor on the simulated PFS."""

    fsync, io_many, close = StackFile.sync, StackFile.io_many, StackFile.close

    def __init__(self, layer: "PosixLayer", path: str, entry: FileEntry, rank: int) -> None:
        self.layer = layer
        self.path = path
        self.entry = entry
        self.rank = rank
        self.offset = 0  # sequential position for append-style access
        self.closed = False

    def _check_open(self) -> None:
        if self.closed:
            raise IOStackError(f"I/O on closed file {self.path!r}")

    def write(self, nbytes: int, ctx: PhaseContext, now: float, offset: int | None = None) -> float:
        """Write ``nbytes`` at ``offset`` (or the current position)."""
        return self._transfer("write", nbytes, ctx, now, offset)

    def read(self, nbytes: int, ctx: PhaseContext, now: float, offset: int | None = None) -> float:
        """Read ``nbytes`` at ``offset`` (or the current position)."""
        return self._transfer("read", nbytes, ctx, now, offset)

    def _transfer(self, op: str, nbytes: int, ctx: PhaseContext, now: float, offset: int | None) -> float:
        dt = self._at(op, self.offset if offset is None else offset, nbytes, ctx, now, False)
        if offset is None:
            self.offset += nbytes
        return dt

    def seek(self, offset: int) -> None:
        """Reposition the sequential pointer (no simulated cost)."""
        if offset < 0:
            raise IOStackError(f"cannot seek to negative offset {offset}")
        self.offset = offset


class PosixLayer(StackLayer):
    """Factory for POSIX files on one file system, with tracing.

    POSIX has no collective I/O and no shared handles: ``collective``
    and ``shared_file`` are unused at this layer.
    """

    api_name = "POSIX"
    open = StackLayer.open

    def __init__(self, fs: BeeGFS, tracer: Tracer | None = None) -> None:
        self.fs = fs
        self.tracer = tracer or NullTracer()

    def _open_files(self, files: Sequence[PosixFile]) -> list[FileEntry]:
        for f in files:
            f._check_open()
        return [f.entry for f in files]

    def open_all(self, paths: Sequence[str], ranks: Sequence[int], ctx: PhaseContext, now: Times,
                 create: bool = False, shared_file: bool = False,
                 layouts: Sequence[StripeLayout | None] | None = None) -> tuple[list, np.ndarray]:
        """``open`` of each rank's file; with ``create``, open-or-create
        (the first rank to reach a shared file creates it, striped as its
        ``layouts`` entry)."""
        entries, created = self.fs.open_all(paths, create, layouts)
        model = self.fs.model
        dt = np.where(
            created, model.metadata_time_s("create", ctx), model.metadata_time_s("open", ctx)
        ) + POSIX_SYSCALL_OVERHEAD_S
        files = [PosixFile(self, p, e, r) for p, e, r in zip(paths, entries, ranks)]
        ops = ["create" if c else "open" for c in created]
        self.tracer.record_phase(_MODULE, ops, files, now, dt)
        return files, dt

    def io_all(self, files: Sequence[PosixFile], op: str, nbytes: int, n_ops: int,
               ctx: PhaseContext, now: Times, collective: bool = False,
               offsets: Sequence[int] | None = None) -> np.ndarray:
        """``n_ops`` sequential transfers per file from ``offsets`` (default:
        its position), after which its position is past the batch;
        returns ranks × ops durations."""
        if op not in ("read", "write"):
            raise IOStackError(f"io_many op must be 'read' or 'write', got {op!r}")
        if op != ctx.access:
            raise IOStackError(f"{op} issued under a {ctx.access}-phase context")
        entries = self._open_files(files)
        if offsets is None:
            offsets = [f.offset for f in files]
        ranks = [f.rank for f in files]
        times, _ = self.fs.phase_io(op, entries, nbytes, n_ops, ctx, ranks, offsets)
        times = times + POSIX_SYSCALL_OVERHEAD_S
        for f, off in zip(files, offsets):
            f.offset = off + n_ops * nbytes
        self.tracer.record_phase(_MODULE, op, files, now, times, offsets, nbytes)
        return times

    def transfer_all(self, files: Sequence[PosixFile], op: str, nbytes: int, ctx: PhaseContext,
                     now: Times, offsets: Sequence[int], collective: bool = False) -> np.ndarray:
        """One ``pwrite``/``pread`` of ``nbytes`` per file at ``offsets``."""
        entries = self._open_files(files)
        times, _ = self.fs.phase_io(op, entries, nbytes, 1, ctx, offsets=offsets)
        dt = times[:, 0] + POSIX_SYSCALL_OVERHEAD_S
        self.tracer.record_phase(_MODULE, op, files, now, dt, offsets, nbytes)
        return dt

    def sync_all(self, files: Sequence[PosixFile], now: Times) -> np.ndarray:
        """``fsync`` of every file."""
        self._open_files(files)
        dt = np.full(len(files), self.fs.model.fsync_time_s())
        self.tracer.record_phase(_MODULE, "fsync", files, now, dt)
        return dt

    def close_all(self, files: Sequence[PosixFile], now: Times, ctx: PhaseContext | None = None
                  ) -> np.ndarray:
        """``close`` of every file."""
        self._open_files(files)
        for f in files:
            f.closed = True
        dt = np.full(len(files), POSIX_SYSCALL_OVERHEAD_S)
        self.tracer.record_phase(_MODULE, "close", files, now, dt)
        return dt

    def _traced(self, op: str, rank: int, path: str, now: float, cost: float) -> float:
        """Trace one rank's metadata call; returns its cost with the syscall."""
        dt = cost + POSIX_SYSCALL_OVERHEAD_S
        self.tracer.record(TraceEvent(_MODULE, op, rank, path, 0, 0, now, now + dt))
        return dt

    def create(
        self,
        path: str,
        rank: int,
        ctx: PhaseContext,
        now: float,
        layout: StripeLayout | None = None,
        shared_dir: bool = False,
    ) -> tuple[PosixFile, float]:
        """``open(O_CREAT|O_WRONLY)``: create a file for writing."""
        entry, cost = self.fs.create(path, ctx, layout=layout, shared_dir=shared_dir)
        return PosixFile(self, path, entry, rank), self._traced("create", rank, path, now, cost)

    def open_shared(self, path: str, rank: int, ctx: PhaseContext, now: float) -> tuple[PosixFile, float]:
        """Open-or-create used by N-to-1 workloads (rank 0 creates)."""
        return self.open(path, rank, ctx, now, create=True)

    def stat(self, path: str, rank: int, ctx: PhaseContext, now: float, shared_dir: bool = False) -> float:
        """Stat a path."""
        return self._traced("stat", rank, path, now, self.fs.stat(path, ctx, shared_dir))

    def unlink(self, path: str, rank: int, ctx: PhaseContext, now: float, shared_dir: bool = False) -> float:
        """Remove a file."""
        return self._traced("unlink", rank, path, now, self.fs.unlink(path, ctx, shared_dir))

    def mkdir(self, path: str, rank: int, ctx: PhaseContext, now: float) -> float:
        """Create one directory."""
        return self._traced("mkdir", rank, path, now, self.fs.mkdir(path, ctx)[1])
