"""HDF5-like high-level library layer.

Top of the paper's Fig. 1 stack: a self-describing container library
built on MPI-IO.  The simulator models what costs performance in real
parallel HDF5 — per-call library overhead, superblock/metadata writes
at file open and close, and a dataset-chunking efficiency factor when
the application transfer size is not aligned to the HDF5 chunk size.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.iostack.mpiio import MPIIOFile, MPIIOLayer
from repro.iostack.posix import StackFile, StackLayer
from repro.iostack.tracing import NullTracer, Times, Tracer
from repro.mpi.hints import MPIIOHints
from repro.pfs.beegfs import BeeGFS
from repro.pfs.perfmodel import PhaseContext
from repro.util.errors import IOStackError
from repro.util.units import KIB

__all__ = ["HDF5_OVERHEAD_S", "HDF5File", "HDF5Layer"]

HDF5_OVERHEAD_S = 8.0e-6

#: Library metadata written at file creation (superblock, root group).
_HEADER_BYTES = 2 * KIB

_MODULE = "HDF5"


class HDF5File(StackFile):
    """An open HDF5 file with one contiguous dataset per benchmark."""

    flush = StackFile.sync

    def __init__(self, layer: "HDF5Layer", mpiio_file: MPIIOFile, rank: int) -> None:
        self.layer = layer
        self.mpiio = mpiio_file
        self.rank = rank
        self.path = mpiio_file.path


class HDF5Layer(StackLayer):
    """Factory for HDF5 files atop an MPI-IO layer."""

    api_name = "HDF5"

    def __init__(
        self,
        fs: BeeGFS,
        tracer: Tracer | None = None,
        hints: MPIIOHints | None = None,
        chunk_bytes: int = 1024 * KIB,
        chunk_floor: float = 0.82,
    ) -> None:
        if chunk_bytes <= 0:
            raise IOStackError("HDF5 chunk size must be positive")
        if not 0 < chunk_floor <= 1:
            raise IOStackError("chunk_floor must be in (0, 1]")
        self.tracer = tracer or NullTracer()
        self.mpiio_layer = MPIIOLayer(fs, self.tracer, hints)
        self.chunk_bytes = chunk_bytes
        self.chunk_floor = chunk_floor

    def chunk_efficiency(self, nbytes: int) -> float:
        """Extra cost of unaligned dataset access.

        Transfers at least as large as the HDF5 chunk size are free of
        re-chunking cost; smaller transfers read-modify-write partial
        chunks, degrading towards the configured floor.
        """
        if nbytes >= self.chunk_bytes:
            return 1.0
        return self.chunk_floor + (1.0 - self.chunk_floor) * (nbytes / self.chunk_bytes)

    def open_all(self, paths: Sequence[str], ranks: Sequence[int], ctx: PhaseContext, now: Times,
                 create: bool = False, shared_file: bool = False) -> tuple[list, np.ndarray]:
        """``H5Fopen``/``H5Fcreate`` by every rank (always through MPI-IO)."""
        mfs, dt = self.mpiio_layer.open_all(paths, ranks, ctx, now, create, shared_file)
        if create and ctx.access == "write":
            dt = dt + self.mpiio_layer.transfer_all(mfs, "write", _HEADER_BYTES, ctx, now + dt,
                                                    [0] * len(mfs))
        dt = dt + HDF5_OVERHEAD_S
        files = [HDF5File(self, mf, mf.rank) for mf in mfs]
        self.tracer.record_phase(_MODULE, "open", files, now, dt)
        return files, dt

    def io_all(self, files: Sequence[HDF5File], op: str, nbytes: int, n_ops: int,
               ctx: PhaseContext, now: Times, collective: bool = False,
               offsets: Sequence[int] | None = None) -> np.ndarray:
        """Dataset accesses, ``n_ops`` per file; returns ranks × ops durations."""
        mfs = [f.mpiio for f in files]
        times = self.mpiio_layer.io_all(mfs, op, nbytes, n_ops, ctx, now, collective, offsets)
        times = times / self.chunk_efficiency(nbytes) + HDF5_OVERHEAD_S
        self.tracer.record_phase(_MODULE, op, files, now, times, nbytes=nbytes)
        return times

    def transfer_all(self, files: Sequence[HDF5File], op: str, nbytes: int, ctx: PhaseContext,
                     now: Times, offsets: Sequence[int], collective: bool = False) -> np.ndarray:
        """``H5Dwrite``/``H5Dread`` of one application block per file at ``offsets``."""
        mfs = [f.mpiio for f in files]
        dt = self.mpiio_layer.transfer_all(mfs, op, nbytes, ctx, now, offsets, collective)
        dt = dt / self.chunk_efficiency(nbytes) + HDF5_OVERHEAD_S
        self.tracer.record_phase(_MODULE, op, files, now, dt, offsets, nbytes)
        return dt

    def sync_all(self, files: Sequence[HDF5File], now: Times) -> np.ndarray:
        """``H5Fflush`` of every file: push dirty data down the stack."""
        return self.mpiio_layer.sync_all([f.mpiio for f in files], now) + HDF5_OVERHEAD_S

    def close_all(self, files: Sequence[HDF5File], now: Times, ctx: PhaseContext) -> np.ndarray:
        """``H5Fclose`` of every file: write library metadata, then close below."""
        mfs = [f.mpiio for f in files]
        dt = np.zeros(len(mfs))
        if ctx.access == "write":
            dt = self.mpiio_layer.transfer_all(mfs, "write", _HEADER_BYTES, ctx, now, [0] * len(mfs))
        dt = dt + (self.mpiio_layer.close_all(mfs, now + dt) + HDF5_OVERHEAD_S)
        self.tracer.record_phase(_MODULE, "close", files, now, dt)
        return dt
