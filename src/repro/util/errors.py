"""Exception hierarchy shared by every ``repro`` subpackage.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything coming out of the knowledge cycle with a single handler
while still discriminating by phase/substrate when they need to.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "UnitParseError",
    "ClusterError",
    "AllocationError",
    "FileSystemError",
    "FileNotFoundInPFSError",
    "FileExistsInPFSError",
    "NotADirectoryInPFSError",
    "DirectoryNotEmptyError",
    "MPIError",
    "IOStackError",
    "BenchmarkError",
    "ExtractionError",
    "PersistenceError",
    "PersistenceUnavailableError",
    "PipelineError",
    "DeadlineError",
    "ServiceError",
    "ServiceOverloadError",
    "ServiceTransportError",
    "WireProtocolError",
    "AnalysisError",
    "UsageError",
    "JubeError",
    "DarshanError",
    "CampaignError",
    "LeaseLostError",
    "ScenarioError",
]


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """An invalid or inconsistent configuration was supplied."""


class UnitParseError(ConfigurationError):
    """A size/count/time string could not be parsed (e.g. ``'4x'``)."""


class ClusterError(ReproError):
    """Errors raised by the cluster model or resource manager."""


class AllocationError(ClusterError):
    """A job allocation request could not be satisfied."""


class FileSystemError(ReproError):
    """Errors raised by the simulated parallel file system."""


class FileNotFoundInPFSError(FileSystemError):
    """Path lookup failed inside the simulated PFS namespace."""


class FileExistsInPFSError(FileSystemError):
    """Exclusive create hit an existing entry."""


class NotADirectoryInPFSError(FileSystemError):
    """A path component that must be a directory is a regular file."""


class DirectoryNotEmptyError(FileSystemError):
    """``rmdir`` was attempted on a non-empty directory."""


class MPIError(ReproError):
    """Errors raised by the simulated MPI runtime."""


class IOStackError(ReproError):
    """Errors raised by the layered I/O stack (POSIX/MPI-IO/HDF5)."""


class BenchmarkError(ReproError):
    """Errors raised by a benchmark implementation (IOR, IO500, ...)."""


class ExtractionError(ReproError):
    """Phase II: output/log parsing failed."""


class PersistenceError(ReproError):
    """Phase III: database operation failed."""


class PersistenceUnavailableError(PersistenceError):
    """A knowledge-database write was refused or never went through.

    Raised by :class:`~repro.core.persistence.backend.ResilientBackend`
    when its circuit breaker is open or a write is still transient after
    its last retry.  Nothing of the operation was saved, so re-running
    it is safe: the error is transient, and ``retry_after_s`` is the
    breaker's remaining open window (0.0 when there is nothing to wait
    for).  Over the wire it travels as code ``persistence`` with
    ``retryable`` and a ``retry_after`` hint.
    """

    transient = True

    def __init__(self, message: str, *, retry_after_s: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class PipelineError(ReproError):
    """The phase-pipeline engine was misconfigured or misused."""


class DeadlineError(ReproError):
    """A phase or operation exceeded its wall-time budget.

    Deadline overruns are *not* transient: retrying the same work under
    the same budget would overrun again, so the default retry predicate
    never retries them.
    """

    transient = False


class ServiceError(ReproError):
    """The knowledge service was misconfigured or misused."""


class ServiceOverloadError(ServiceError):
    """The knowledge service shed a request under admission control.

    Overload is transient by definition — the queue drains as workers
    catch up — so the default retry predicate retries it, and the
    service client backs off with deterministic jitter before trying
    again.
    """

    transient = True


class ServiceTransportError(ServiceError):
    """A remote service call failed in the transport layer.

    Connection refused/reset, a short read, a timed-out socket or a
    quarantined endpoint — the request may never have reached the
    server.  Connect-phase faults are always safe to retry; a fault
    *after* a mutating request was written is ambiguous (the server may
    have committed before the connection died), so the client marks
    those non-transient and surfaces them instead of risking a
    double-apply.
    """

    transient = True

    def __init__(self, message: str, *, retryable: bool = True) -> None:
        super().__init__(message)
        self.transient = retryable


class WorkerStartupError(ServiceTransportError):
    """A shard-group worker failed (or hung past) its startup handshake.

    Raised when a freshly spawned worker process does not answer
    ``hello`` on every channel within the startup deadline.  Transient
    by definition: the supervisor kills the half-born process and
    respawns it under its restart budget, so a retry against the same
    shard group may well succeed.
    """


class WireProtocolError(ServiceError):
    """A ``repro.wire`` frame violated the protocol.

    Bad magic, an unsupported version, an oversized frame or a body
    that is not valid JSON.  Never transient: resending the same bytes
    would fail the same way.
    """

    transient = False


class AnalysisError(ReproError):
    """Phase IV: knowledge explorer operation failed."""


class UsageError(ReproError):
    """Phase V: usage-module operation failed."""


class JubeError(ReproError):
    """Errors raised by the JUBE-like benchmarking environment."""


class DarshanError(ReproError):
    """Errors raised by the Darshan-like profiler or log reader."""


class CampaignError(ReproError):
    """The campaign orchestrator was misconfigured or misused.

    Raised for invalid campaign specs, illegal job state transitions,
    and operations on unknown campaigns/jobs — operator errors, never
    transient, so the retry predicate leaves them alone.
    """


class LeaseLostError(CampaignError):
    """A launcher touched a job whose lease it no longer holds.

    Raised by owner-guarded heartbeats/completions when the job was
    stolen by another launcher (the lease expired and a competing
    launcher claimed it).  The loser must *abandon* the job silently —
    the thief owns its retry budget now — so this is never retried and
    never recorded as a job failure.
    """

    transient = False


class ScenarioError(ReproError):
    """The scenario engine was misconfigured or misused.

    Raised for unparsable workload grammars, non-terminating or
    contradictory productions, and derivations that cannot be compiled
    into a runnable configuration — authoring errors, never transient.
    """

    transient = False
