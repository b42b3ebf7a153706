"""Persistence backends — the storage abstraction under the repositories.

§V-C allows knowledge to be stored "either directly as a local SQLite
database or by specifying a SQL connection URL remotely".  The
repositories therefore depend on the :class:`PersistenceBackend`
protocol, not on a concrete engine: anything that can execute
parameterised SQL against the paper's schema and manage transactions
can hold the knowledge base.  :class:`~repro.core.persistence.database.
KnowledgeDatabase` is the synchronous SQLite backend; a bulk ingest
groups its writes with ``transaction()`` or a repository's
``save_many``.  :class:`ResilientBackend` wraps any backend with
retry/backoff against transient driver errors ("database is locked")
and a circuit breaker that fails writes fast with a typed transient
error once the database is wedged, while reads keep passing through —
the caller re-runs the whole operation, so no write is ever half-saved
or saved twice.
"""

from __future__ import annotations

import sqlite3
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Iterable, Protocol, Sequence, runtime_checkable

from repro.core.resilience import CircuitBreaker, RetryPolicy, retry
from repro.util.errors import PersistenceError, PersistenceUnavailableError

if TYPE_CHECKING:  # pragma: no cover - type-only import (avoids a cycle)
    from repro.core.metrics import MetricsRegistry

__all__ = [
    "PersistenceBackend",
    "ResilientBackend",
    "transient_db_error",
]


@runtime_checkable
class PersistenceBackend(Protocol):
    """What the repositories require from a storage engine."""

    def execute(self, sql: str, params: tuple = ()) -> sqlite3.Cursor:
        """Run one parameterised statement; returns its cursor."""
        ...

    def executemany(self, sql: str, seq_of_params: Iterable[Sequence]) -> sqlite3.Cursor:
        """Run one statement over many parameter rows."""
        ...

    def commit(self) -> None:
        """Make completed writes durable."""
        ...

    def rollback(self) -> None:
        """Discard uncommitted writes."""
        ...

    def close(self) -> None:
        """Release the underlying storage; must be idempotent."""
        ...

    def transaction(self):
        """Context manager: group writes into one atomic transaction."""
        ...

    def table_count(self, table: str) -> int:
        """Row count of one table (for tests and reports)."""
        ...


# ----------------------------------------------------------------------
# resilient wrapper: retry and circuit breaker, failing writes fast
# ----------------------------------------------------------------------
_TRANSIENT_DB_MARKERS = ("database is locked", "database table is locked", "busy", "disk i/o error")


def transient_db_error(exc: BaseException) -> bool:
    """Whether a database error is worth retrying.

    SQLite signals contention as ``sqlite3.OperationalError`` with a
    "database is locked"/"busy" message — possibly already wrapped into
    :class:`PersistenceError` by :class:`~repro.core.persistence.
    database.KnowledgeDatabase`.  Errors carrying a truthy ``transient``
    attribute (injected faults) count too.
    """
    if getattr(exc, "transient", False):
        return True
    if isinstance(exc, (sqlite3.OperationalError, PersistenceError)):
        msg = str(exc).lower()
        return any(marker in msg for marker in _TRANSIENT_DB_MARKERS)
    return False


_WRITE_VERBS = frozenset({"insert", "update", "delete", "replace", "create", "drop", "alter"})


class ResilientBackend:
    """Retry + circuit-breaker wrapper around any persistence backend.

    Transient driver errors (``transient_db_error``) are retried under
    a deterministic :class:`RetryPolicy`.  Reads always pass straight
    through, even while the breaker is OPEN.  A write or commit that the
    OPEN breaker refuses, or that is still transient after its last
    retry, raises :class:`~repro.util.errors.PersistenceUnavailableError`
    (transient, with the breaker's remaining window as
    ``retry_after_s``).  Nothing is buffered: a write that raised was
    not saved, and the caller re-runs the whole operation — the
    pipeline's ``FailurePolicy``, a campaign requeue under the job's
    idempotency token, or a client retry.

    A write that raises outside :meth:`transaction` first rolls back
    the connection's uncommitted writes, so a ``save()`` cut off after
    its ``performances`` row cannot be committed as an orphan by the
    next ``commit()``.  Inside :meth:`transaction`, the transaction's
    own rollback does the same.
    """

    def __init__(
        self,
        backend: PersistenceBackend,
        retry_policy: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        sleep: Callable[[float], None] = time.sleep,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        self.backend = backend
        self.metrics = metrics
        self.retry_policy = retry_policy or RetryPolicy(
            max_attempts=4, base_delay_s=0.01, salt="persistence",
            retryable=transient_db_error,
        )
        self.breaker = breaker or CircuitBreaker(
            failure_threshold=3, reset_timeout_s=1.0, metrics=metrics, name="persistence"
        )
        self._sleep = sleep
        self._txn_depth = 0

    @staticmethod
    def _is_write(sql: str) -> bool:
        head = sql.lstrip().split(None, 1)
        return bool(head) and head[0].lower() in _WRITE_VERBS

    def _run(self, fn):
        """One backend call under the retry policy."""
        return retry(
            fn, self.retry_policy, sleep=self._sleep,
            metrics=self.metrics, site="persistence",
        )

    def _count_stmt(self, kind: str, outcome: str, rows: int = 0) -> None:
        if self.metrics is None:
            return
        self.metrics.counter(
            "persistence.statements_total", "statements through the resilient backend",
            kind=kind, outcome=outcome,
        ).inc()
        if rows > 0:
            self.metrics.counter(
                "persistence.rows_written_total", "rows written through the backend"
            ).inc(rows)

    def _guarded(self, kind: str, fn):
        """Run one write or commit behind the breaker; fail fast when wedged."""
        if not self.breaker.allow():
            self._count_stmt(kind, "refused")
            self._abandon()
            raise self._unavailable(f"{kind} refused, circuit breaker open")
        try:
            result = self._run(fn)
        except Exception as exc:
            # Success or failure must be reported either way: the
            # half-open probe slot is held until the breaker hears back.
            self.breaker.record_failure()
            self._count_stmt(kind, "failed")
            self._abandon()
            if transient_db_error(exc):
                raise self._unavailable(f"{kind} failed ({exc})") from exc
            raise
        self.breaker.record_success()
        return result

    def _abandon(self) -> None:
        """Roll back a cut-off write (a transaction rolls back its own)."""
        if not self._txn_depth:
            self.backend.rollback()

    def _unavailable(self, why: str) -> PersistenceUnavailableError:
        return PersistenceUnavailableError(
            f"knowledge database unavailable: {why}",
            retry_after_s=self.breaker.retry_after_s,
        )

    # -- write path ----------------------------------------------------
    def execute(self, sql: str, params: tuple = ()) -> sqlite3.Cursor:
        """Run one statement; a write goes through the breaker."""
        if not self._is_write(sql):
            cursor = self._run(lambda: self.backend.execute(sql, params))
            self._count_stmt("read", "ok")
            return cursor
        cursor = self._guarded("write", lambda: self.backend.execute(sql, params))
        self._count_stmt("write", "ok", rows=max(getattr(cursor, "rowcount", 0), 0) or 1)
        return cursor

    def executemany(self, sql: str, seq_of_params: Iterable[Sequence]) -> sqlite3.Cursor:
        """Run one statement over many rows through the breaker."""
        rows = [tuple(p) for p in seq_of_params]
        cursor = self._guarded("write", lambda: self.backend.executemany(sql, rows))
        self._count_stmt("write", "ok", rows=len(rows))
        return cursor

    def commit(self) -> None:
        """Commit through the breaker (deferred inside a :meth:`transaction`)."""
        if self._txn_depth:
            return
        self._guarded("commit", self.backend.commit)
        self._count_stmt("commit", "ok")

    def rollback(self) -> None:
        """Discard uncommitted writes."""
        self.backend.rollback()

    @contextmanager
    def transaction(self):
        """Group writes into one atomic transaction.

        Inner ``commit()`` calls are deferred until the outermost block
        exits cleanly; its commit then runs through the breaker and the
        retry policy like any other, so a commit the database keeps
        refusing rolls the whole group back and raises the typed error.
        Any exception inside the block rolls the group back.
        """
        self._txn_depth += 1
        try:
            yield self
        except BaseException:
            self._txn_depth -= 1
            if not self._txn_depth:
                self.backend.rollback()
            raise
        self._txn_depth -= 1
        self.commit()

    def close(self) -> None:
        """Close the wrapped backend; there is nothing left to write."""
        self.backend.close()

    # -- read path -----------------------------------------------------
    def table_count(self, table: str) -> int:
        """Row count of one table."""
        return self.backend.table_count(table)

    def __enter__(self) -> "ResilientBackend":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.rollback()
        self.close()
