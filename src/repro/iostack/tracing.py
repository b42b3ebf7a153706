"""Instrumentation hooks for the I/O stack.

Every layer reports its operations to a :class:`Tracer`.  The Darshan
substrate plugs in here to build counter records and DXT segment
traces; the default :class:`NullTracer` makes instrumentation free when
profiling is off (exactly how Darshan is an opt-in link-time wrapper on
real systems).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

import numpy as np

__all__ = [
    "TraceEvent", "Tracer", "NullTracer", "RecordingTracer", "TeeTracer", "RankOrderTracer",
]

#: Start times of a phase step: one for every rank, or one per rank.
Times = float | np.ndarray


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One observed I/O operation (or a batch of identical ones)."""

    module: str  # 'POSIX' | 'MPIIO' | 'HDF5'
    op: str  # 'open' | 'create' | 'read' | 'write' | 'fsync' | 'close' | 'stat' | ...
    rank: int
    path: str
    offset: int
    length: int
    start: float
    end: float
    count: int = 1

    @property
    def duration(self) -> float:
        """Wall time covered by the event."""
        return self.end - self.start


class Tracer:
    """Base tracer: receives events; subclasses accumulate them."""

    def record(self, event: TraceEvent) -> None:
        """Record a single event.  Default: drop it."""

    def flush(self) -> None:
        """Hand on held events (see :class:`RankOrderTracer`).  Default: none held."""

    def record_batch(
        self,
        module: str,
        op: str,
        rank: int,
        path: str,
        offset0: int,
        nbytes: int,
        durations: np.ndarray,
        t0: float,
    ) -> None:
        """Record ``len(durations)`` identical back-to-back ops.

        The default implementation expands the batch into per-op events
        with sequential offsets (what DXT needs); counter-oriented
        tracers override this with a vectorized update.
        """
        t = t0
        off = offset0
        for d in np.asarray(durations, dtype=float):
            self.record(
                TraceEvent(
                    module=module,
                    op=op,
                    rank=rank,
                    path=path,
                    offset=off,
                    length=nbytes,
                    start=t,
                    end=t + float(d),
                )
            )
            t += float(d)
            off += nbytes

    def record_phase(self, module: str, op: str | Sequence[str], handles: Sequence, now: Times,
                     durations: np.ndarray, offsets: Sequence[int] | None = None,
                     nbytes: int = 0) -> None:
        """Record one phase step: open file ``i`` (of one rank) runs ``op``
        (or ``op[i]``) from ``now`` (or ``now[i]``) at ``offsets[i]``, once
        for ``durations[i]``, or as a batch when ``durations`` is ranks × ops."""
        ops = repeat(op) if isinstance(op, str) else op
        starts = np.broadcast_to(np.asarray(now, dtype=float), (len(handles),)).tolist()
        batched = durations.ndim == 2
        rows = durations if batched else durations.tolist()
        offs = repeat(0) if offsets is None else offsets
        for h, o, t, d, off in zip(handles, ops, starts, rows, offs):
            if batched:
                self.record_batch(module, o, h.rank, h.path, off, nbytes, d, t)
            else:
                self.record(TraceEvent(module, o, h.rank, h.path, off, nbytes, t, t + d))


class NullTracer(Tracer):
    """Tracer that drops everything (profiling disabled) and builds no events."""

    def record(self, event: TraceEvent) -> None:
        """Drop the event."""

    def record_batch(self, *args: object, **kwargs: object) -> None:
        """Drop the batch."""

    def record_phase(self, *args: object, **kwargs: object) -> None:
        """Drop the phase step unbuilt."""


class RecordingTracer(Tracer):
    """Tracer that keeps every event in a list (tests, DXT explorer)."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def record(self, event: TraceEvent) -> None:
        """Append the event to the in-memory list."""
        self.events.append(event)

    def by_module(self, module: str) -> list[TraceEvent]:
        """Events of one stack layer."""
        return [e for e in self.events if e.module == module]

    def total_bytes(self, op: str) -> int:
        """Total bytes moved by all events of one op type."""
        return sum(e.length * e.count for e in self.events if e.op == op)


class TeeTracer(Tracer):
    """Fans every event out to several tracers.

    Lets a job be profiled by Darshan and watched by the online monitor
    at the same time, mirroring how real systems stack instrumentation.
    """

    def __init__(self, *tracers: Tracer) -> None:
        self.tracers = list(tracers)

    def record(self, event: TraceEvent) -> None:
        """Forward the event to every attached tracer."""
        for t in self.tracers:
            t.record(event)

    def record_batch(self, *args: object, **kwargs: object) -> None:
        """Forward the batch to every attached tracer."""
        for t in self.tracers:
            t.record_batch(*args, **kwargs)


class RankOrderTracer(Tracer):
    """Holds events per rank and hands them on in rank order at :meth:`flush`.

    Phase-level stack calls report one step (open, transfers, close) for
    all ranks at a time; replaying each rank's events in turn restores
    the sequence a rank-by-rank loop reports.  Batches are held by
    reference, so their arrays must not change before the flush.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._held: dict[int, list] = {}

    def record(self, event: TraceEvent) -> None:
        """Hold the event under its rank."""
        self._held.setdefault(event.rank, []).append((self.tracer.record, (event,)))

    def record_batch(self, module, op, rank, *args) -> None:
        """Hold the batch under its rank."""
        held = self._held.setdefault(rank, [])
        held.append((self.tracer.record_batch, (module, op, rank, *args)))

    def flush(self) -> None:
        """Hand every held event on, rank by rank, and forget them."""
        held, self._held = self._held, {}
        for rank in sorted(held):
            for call, args in held[rank]:
                call(*args)
