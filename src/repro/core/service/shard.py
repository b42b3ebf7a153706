"""Sharded knowledge store: N databases behind one stable partition map.

§V-C lets knowledge live "either directly as a local SQLite database or
by specifying a SQL connection URL remotely" — but one SQLite file is
one writer.  To serve corpus-scale knowledge (the IO500 submission
study's thousands of runs, many concurrent readers) the store is split
into *shards*: independent :class:`~repro.core.persistence.database.
KnowledgeDatabase` files, each guarded by its own lock and its own
:class:`~repro.core.persistence.backend.ResilientBackend` circuit
breaker, so contention and failure stay local to one shard: a wedged
shard fails its writes fast with a transient error while its reads and
every other shard keep serving.

Placement is *stable*: a knowledge object's shard is derived by hashing
its partition key (``benchmark/system``) with the repository-wide
SHA-256 stream derivation, so the same object lands on the same shard
in every process on every run — no coordination service needed.  A
``shard_manifest`` table in ``manifest.db`` records the shard layout so
an existing store can be discovered (and rebalanced) without guessing
file names.

Knowledge ids become *global* ids that encode the owning shard:
``global = local * MAX_SHARDS + shard_index``.  Decoding needs no
lookup, and ids stay unique across shards without a central sequence.
"""

from __future__ import annotations

import sqlite3
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, TypeVar

from repro.core.persistence.backend import ResilientBackend
from repro.core.persistence.database import KnowledgeDatabase
from repro.core.persistence.repository import KnowledgeRepository
from repro.core.resilience import CircuitBreaker
from repro.util.errors import PersistenceError, ServiceError
from repro.util.rng import derive_seed

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.core.knowledge import Knowledge
    from repro.core.metrics import MetricsRegistry

__all__ = [
    "MAX_SHARDS",
    "MANIFEST_SCHEMA_VERSION",
    "encode_knowledge_id",
    "decode_knowledge_id",
    "shard_key",
    "shard_index_for_key",
    "group_by_owner",
    "KnowledgeShard",
    "KnowledgeShardMap",
]

#: Global-id stride: the largest shard count the id encoding supports.
#: ``global = local * MAX_SHARDS + shard`` keeps decoding a pure mod/div.
MAX_SHARDS = 1024

#: Bump on incompatible ``shard_manifest`` layout changes.
MANIFEST_SCHEMA_VERSION = 1

_MANIFEST_DDL = """
CREATE TABLE IF NOT EXISTS shard_manifest (
    shard_index    INTEGER PRIMARY KEY,
    path           TEXT NOT NULL,
    key_space      TEXT NOT NULL DEFAULT 'benchmark/system',
    schema_version INTEGER NOT NULL DEFAULT 1
)
"""


def encode_knowledge_id(local_id: int, shard_index: int) -> int:
    """Fold a shard-local rowid and its shard into one global id."""
    if not 0 <= shard_index < MAX_SHARDS:
        raise ServiceError(f"shard index {shard_index} outside [0, {MAX_SHARDS})")
    if local_id < 1:
        raise ServiceError(f"local knowledge id must be >= 1, got {local_id}")
    return local_id * MAX_SHARDS + shard_index


def decode_knowledge_id(global_id: int) -> tuple[int, int]:
    """Split a global id back into ``(local_id, shard_index)``."""
    local_id, shard_index = divmod(int(global_id), MAX_SHARDS)
    if local_id < 1:
        raise ServiceError(
            f"{global_id} is not a service knowledge id (local part {local_id} < 1); "
            "was a plain single-database id passed to the service?"
        )
    return local_id, shard_index


def shard_key(knowledge: "Knowledge") -> str:
    """The stable partition key of one knowledge object.

    ``benchmark/system`` — the two dimensions the explorer filters by —
    so one system's runs of one benchmark cluster on one shard and a
    comparison query usually touches a single database.
    """
    system = (knowledge.system or {}).get("hostname", "") if knowledge.system else ""
    return f"{knowledge.benchmark}/{system}"


def shard_index_for_key(key: str, num_shards: int) -> int:
    """Deterministic shard assignment of one partition key.

    Derived from the repository-wide SHA-256 seed derivation — the same
    key maps to the same shard in every process and run, which is what
    lets a server route requests to shard-group workers without the
    workers sharing any state.
    """
    return derive_seed(0, "knowledge-shard", key) % num_shards


_Item = TypeVar("_Item")
_Owner = TypeVar("_Owner", bound=Hashable)


def group_by_owner(
    items: Iterable[_Item], owner_of: Callable[[_Item], _Owner]
) -> dict[_Owner, list[tuple[int, _Item]]]:
    """Scatter a batch: ``{owner: [(position, item), ...]}``.

    Owners come out in sorted order — the order shards are locked and
    workers are called in — and each item keeps its input position so
    the gathered results can be put back in input order.
    """
    groups: dict[_Owner, list[tuple[int, _Item]]] = {}
    for position, item in enumerate(items):
        groups.setdefault(owner_of(item), []).append((position, item))
    return dict(sorted(groups.items()))  # type: ignore[type-var]


@dataclass
class KnowledgeShard:
    """One shard: its backend, repository and lock."""

    index: int
    path: str
    backend: ResilientBackend
    repository: KnowledgeRepository
    lock: threading.RLock = field(default_factory=threading.RLock)


class KnowledgeShardMap:
    """Partitioned knowledge store with a discovery manifest.

    Opening a root directory that already holds a manifest *discovers*
    the existing layout; a fresh directory is initialised with
    ``num_shards`` shards.  Passing a conflicting ``num_shards`` for an
    existing store fails loudly (use :meth:`rebalance` to change the
    shard count).

    Every shard write must happen under that shard's ``lock`` — the
    single-writer discipline SQLite requires.  :class:`~repro.core.service.service.
    KnowledgeService` enforces this for its callers.
    """

    def __init__(
        self,
        root: str | Path,
        num_shards: int | None = None,
        *,
        key_space: str = "benchmark/system",
        metrics: "MetricsRegistry | None" = None,
        breaker_factory: Callable[[int], CircuitBreaker] | None = None,
    ) -> None:
        self.root = Path(root)
        self.metrics = metrics
        self.key_space = key_space
        self._breaker_factory = breaker_factory
        self.root.mkdir(parents=True, exist_ok=True)
        manifest_rows = self._read_manifest()
        if manifest_rows:
            if num_shards is not None and num_shards != len(manifest_rows):
                raise ServiceError(
                    f"store at {self.root} has {len(manifest_rows)} shard(s) but "
                    f"{num_shards} were requested; rebalance the store instead of "
                    "reopening it with a different shard count"
                )
            paths = [row[1] for row in sorted(manifest_rows)]
            self.key_space = manifest_rows[0][2]
        else:
            n = 2 if num_shards is None else num_shards
            if not 1 <= n <= MAX_SHARDS:
                raise ServiceError(f"num_shards must be in [1, {MAX_SHARDS}], got {n}")
            paths = [f"shard-{i:03d}.db" for i in range(n)]
            self._write_manifest(paths)
        self.shards: list[KnowledgeShard] = [
            self._open_shard(i, p) for i, p in enumerate(paths)
        ]

    # -- manifest ------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        """Where the shard-discovery manifest lives."""
        return self.root / "manifest.db"

    def _manifest_conn(self) -> sqlite3.Connection:
        try:
            conn = sqlite3.connect(self.manifest_path)
            conn.execute(_MANIFEST_DDL)
            return conn
        except sqlite3.Error as exc:
            raise PersistenceError(
                f"cannot open shard manifest {self.manifest_path}: {exc}"
            ) from exc

    def _read_manifest(self) -> list[tuple[int, str, str]]:
        if not self.manifest_path.exists():
            return []
        conn = self._manifest_conn()
        try:
            rows = conn.execute(
                "SELECT shard_index, path, key_space, schema_version "
                "FROM shard_manifest ORDER BY shard_index"
            ).fetchall()
        finally:
            conn.close()
        for _, _, _, version in rows:
            if version != MANIFEST_SCHEMA_VERSION:
                raise PersistenceError(
                    f"shard manifest {self.manifest_path} has schema version "
                    f"{version}; this build understands {MANIFEST_SCHEMA_VERSION}"
                )
        return [(int(i), str(p), str(ks)) for i, p, ks, _ in rows]

    def _write_manifest(self, paths: list[str]) -> None:
        conn = self._manifest_conn()
        try:
            conn.execute("DELETE FROM shard_manifest")
            conn.executemany(
                "INSERT INTO shard_manifest (shard_index, path, key_space, schema_version) "
                "VALUES (?, ?, ?, ?)",
                [
                    (i, p, self.key_space, MANIFEST_SCHEMA_VERSION)
                    for i, p in enumerate(paths)
                ],
            )
            conn.commit()
        finally:
            conn.close()

    def manifest(self) -> list[dict[str, object]]:
        """The manifest rows (for discovery tooling and ``repro-serve``)."""
        return [
            {
                "shard_index": shard.index,
                "path": shard.path,
                "key_space": self.key_space,
                "schema_version": MANIFEST_SCHEMA_VERSION,
            }
            for shard in self.shards
        ]

    # -- shard lifecycle -----------------------------------------------
    def _open_shard(self, index: int, rel_path: str) -> KnowledgeShard:
        db = KnowledgeDatabase(
            self.root / rel_path, metrics=self.metrics, check_same_thread=False
        )
        if self._breaker_factory is not None:
            breaker = self._breaker_factory(index)
        else:
            breaker = CircuitBreaker(
                failure_threshold=3, reset_timeout_s=1.0,
                metrics=self.metrics, name=f"shard-{index}",
            )
        backend = ResilientBackend(db, breaker=breaker, metrics=self.metrics)
        return KnowledgeShard(
            index=index, path=rel_path, backend=backend,
            repository=KnowledgeRepository(backend),
        )

    @property
    def num_shards(self) -> int:
        """How many shards the store is split into."""
        return len(self.shards)

    def close(self) -> None:
        """Close every shard backend."""
        errors = []
        for shard in self.shards:
            with shard.lock:
                try:
                    shard.backend.close()
                except PersistenceError as exc:
                    errors.append(f"shard {shard.index}: {exc}")
        if errors:
            raise PersistenceError(
                "could not cleanly close shard(s): " + "; ".join(errors)
            )

    def __enter__(self) -> "KnowledgeShardMap":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- placement -----------------------------------------------------
    def shard_index_for_key(self, key: str) -> int:
        """Deterministic shard assignment of one partition key.

        Delegates to the module-level :func:`shard_index_for_key` so the
        TCP server's router computes the identical placement.
        """
        return shard_index_for_key(key, self.num_shards)

    def shard_for(self, knowledge: "Knowledge") -> KnowledgeShard:
        """The shard one knowledge object belongs on."""
        return self.shards[self.shard_index_for_key(shard_key(knowledge))]

    def shard_of(self, global_id: int) -> tuple[KnowledgeShard, int]:
        """Resolve a global id to ``(shard, local_id)``."""
        local_id, index = decode_knowledge_id(global_id)
        if index >= self.num_shards:
            raise PersistenceError(
                f"knowledge id {global_id} names shard {index} but the store "
                f"has only {self.num_shards} shard(s)"
            )
        return self.shards[index], local_id

    # -- store-wide helpers --------------------------------------------
    def counts(self) -> list[int]:
        """Knowledge-object count per shard (COUNT fast path)."""
        out = []
        for shard in self.shards:
            with shard.lock:
                out.append(shard.repository.count())
        return out

    def rebalance(self, new_num_shards: int) -> int:
        """Repartition the store across a different shard count.

        Loads every knowledge object, recreates the shard files and
        re-saves each object under the new placement.  Global ids are
        reassigned (the local part restarts per shard).  **Not** safe
        under live traffic — stop the service first.  Returns the number
        of objects moved.
        """
        if not 1 <= new_num_shards <= MAX_SHARDS:
            raise ServiceError(
                f"num_shards must be in [1, {MAX_SHARDS}], got {new_num_shards}"
            )
        moved: list["Knowledge"] = []
        for shard in self.shards:
            with shard.lock:
                for knowledge in shard.repository.fetch_many(
                    shard.repository.list_ids()
                ):
                    knowledge.knowledge_id = None
                    moved.append(knowledge)
        self.close()
        old_paths = [self.root / shard.path for shard in self.shards]
        paths = [f"shard-{i:03d}.db" for i in range(new_num_shards)]
        for old in old_paths:
            old.unlink(missing_ok=True)
        self._write_manifest(paths)
        self.shards = [self._open_shard(i, p) for i, p in enumerate(paths)]
        for knowledge in moved:
            shard = self.shard_for(knowledge)
            with shard.lock:
                shard.repository.save(knowledge)
        return len(moved)
