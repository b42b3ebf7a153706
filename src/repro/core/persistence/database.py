"""Database connection management (DB-API 2.0 over SQLite).

§V-C: knowledge can be stored "either directly as a local SQLite
database or by specifying a SQL connection URL remotely".  Both
spellings are accepted here — a plain filesystem path, ``:memory:``,
or a ``sqlite:///...`` URL (the "remote" flavour of the prototype; the
URL scheme is validated so pointing the tool at an unsupported engine
fails loudly instead of silently writing a local file).

:class:`KnowledgeDatabase` is the synchronous SQLite implementation of
the :class:`~repro.core.persistence.backend.PersistenceBackend`
protocol the repositories depend on.
"""

from __future__ import annotations

import math
import sqlite3
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.core.persistence.schema import create_schema
from repro.util.errors import PersistenceError

if TYPE_CHECKING:  # pragma: no cover - type-only import (avoids a cycle)
    from repro.core.metrics import MetricsRegistry

__all__ = ["resolve_database_target", "KnowledgeDatabase"]


def resolve_database_target(target: str | Path) -> str:
    """Normalise a path / URL into an sqlite3 connect target."""
    if isinstance(target, Path):
        return str(target)
    if target == ":memory:":
        return target
    if "://" in target:
        scheme, _, rest = target.partition("://")
        if scheme not in ("sqlite", "sqlite3"):
            raise PersistenceError(
                f"unsupported database URL scheme {scheme!r}; only sqlite:// URLs "
                "are supported by this prototype"
            )
        path = rest.lstrip("/")
        if not path:
            raise PersistenceError(f"database URL {target!r} has no path")
        return "/" + path if target.count("/") >= 3 else path
    return target


class KnowledgeDatabase:
    """An open knowledge database with the schema in place.

    Usable as a context manager; commits on clean exit, rolls back on
    error.  ``close()`` is idempotent, and using a closed database
    raises :class:`PersistenceError` rather than a raw driver error.
    """

    def __init__(
        self,
        target: str | Path = ":memory:",
        metrics: "MetricsRegistry | None" = None,
        check_same_thread: bool = True,
    ) -> None:
        self.metrics = metrics
        resolved = resolve_database_target(target)
        if resolved != ":memory:":
            try:
                Path(resolved).parent.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise PersistenceError(
                    f"cannot create database directory for {target!r}: {exc}"
                ) from exc
        try:
            # check_same_thread=False lets the knowledge service share one
            # connection per shard across its worker pool; the service
            # serialises access with a per-shard lock, which is the
            # discipline sqlite3 requires when the check is disabled.
            self.conn = sqlite3.connect(resolved, check_same_thread=check_same_thread)
            self.conn.row_factory = sqlite3.Row
            self.conn.execute("PRAGMA foreign_keys = ON")
            try:
                self.conn.execute("SELECT ln(1)")
            except sqlite3.OperationalError:  # no math functions: scans need these
                self.conn.create_function("ln", 1, math.log, deterministic=True)
                self.conn.create_function("floor", 1, math.floor, deterministic=True)
            create_schema(self.conn)
        except sqlite3.Error as exc:
            raise PersistenceError(f"cannot open database {target!r}: {exc}") from exc
        self.target = resolved
        self._closed = False
        self._txn_depth = 0

    def __enter__(self) -> "KnowledgeDatabase":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self._closed:
            if exc_type is None:
                self.conn.commit()
            else:
                self.conn.rollback()
        self.close()

    def close(self) -> None:
        """Close the connection; safe to call more than once."""
        if self._closed:
            return
        self._closed = True
        self.conn.close()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise PersistenceError(f"database {self.target!r} is closed")

    def _count(self, sql: str, outcome: str) -> None:
        if self.metrics is not None:
            verb = sql.lstrip().split(None, 1)[0].lower() if sql.strip() else "?"
            self.metrics.counter(
                "persistence.db_statements_total", "statements run on the SQLite engine",
                verb=verb, outcome=outcome,
            ).inc()

    def execute(self, sql: str, params: tuple = ()) -> sqlite3.Cursor:
        """Run one statement, wrapping driver errors."""
        self._check_open()
        try:
            cursor = self.conn.execute(sql, params)
        except sqlite3.Error as exc:
            self._count(sql, "error")
            raise PersistenceError(f"database error on {sql.split()[0]}: {exc}") from exc
        self._count(sql, "ok")
        return cursor

    def executemany(self, sql: str, seq_of_params: Iterable[Sequence]) -> sqlite3.Cursor:
        """Run one statement over many parameter rows."""
        self._check_open()
        try:
            cursor = self.conn.executemany(sql, seq_of_params)
        except sqlite3.Error as exc:
            self._count(sql, "error")
            raise PersistenceError(f"database error on {sql.split()[0]}: {exc}") from exc
        self._count(sql, "ok")
        return cursor

    def commit(self) -> None:
        """Commit completed writes (deferred inside a :meth:`transaction`)."""
        self._check_open()
        if self._txn_depth:
            return
        try:
            self.conn.commit()
        except sqlite3.Error as exc:
            raise PersistenceError(f"database error on commit: {exc}") from exc

    def rollback(self) -> None:
        """Discard uncommitted writes."""
        self._check_open()
        try:
            self.conn.rollback()
        except sqlite3.Error as exc:
            raise PersistenceError(f"database error on rollback: {exc}") from exc

    @contextmanager
    def transaction(self) -> Iterator["KnowledgeDatabase"]:
        """Group writes into one atomic transaction.

        Inner ``commit()`` calls become no-ops until the outermost
        ``transaction()`` block exits cleanly; any exception rolls the
        whole batch back.  Nested use composes: only the outermost
        block touches the connection.
        """
        self._check_open()
        self._txn_depth += 1
        try:
            yield self
        except BaseException:
            self._txn_depth -= 1
            if self._txn_depth == 0 and not self._closed:
                self.rollback()
            raise
        else:
            self._txn_depth -= 1
            if self._txn_depth == 0:
                try:
                    self.commit()
                except PersistenceError:
                    self.rollback()  # else the next commit() makes it durable
                    raise

    def table_count(self, table: str) -> int:
        """Row count of one table (for tests and reports)."""
        if not table.isidentifier():
            raise PersistenceError(f"invalid table name {table!r}")
        return int(self.execute(f"SELECT COUNT(*) AS n FROM {table}").fetchone()["n"])
