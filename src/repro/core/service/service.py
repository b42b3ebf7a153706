"""The knowledge service: a concurrent serving layer over the shards.

The ROADMAP north star is a knowledge base that serves "heavy traffic"
while ingestion keeps writing — the always-on store that corpus studies
and LLM-driven diagnosis front-ends presume.  This module is that
serving layer, embeddable in-process:

* every request runs on the **caller's thread** (``execute``): the
  in-process client's thread, or a shard-group worker's channel thread.
  Every shard access happens under that shard's lock (SQLite's
  single-writer discipline), so concurrency comes from spreading keys
  across shards.
* **admission control** is a bounded count of requests in flight: one
  more than ``queue_size`` is *shed* at once with a typed
  :class:`~repro.util.errors.ServiceOverloadError` instead of piling
  onto a wedged SQLite file — overload degrades into client backoff,
  never a deadlock.
* every read goes to the shards, so it sees every committed write —
  including writes made by another process that opened the same store.
* shard writes run on the shard map's
  :class:`~repro.core.persistence.backend.ResilientBackend`, so a
  wedged shard trips its circuit breaker and quarantines: its writes
  fail fast with a transient, typed error carrying the breaker's
  ``retry_after_s`` while its reads and every other shard keep serving.

Every request outcome and shard latency is recorded in the attached
:class:`~repro.core.metrics.MetricsRegistry` under the ``service.*``
families.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Sequence

from repro.core.knowledge import Knowledge
from repro.core.persistence.scan import ScanQuery, merge_partial_payloads
from repro.core.service.shard import (
    KnowledgeShard,
    KnowledgeShardMap,
    encode_knowledge_id,
    group_by_owner,
)
from repro.util.errors import (
    ConfigurationError,
    PersistenceError,
    ServiceError,
    ServiceOverloadError,
)

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.core.metrics import MetricsRegistry

__all__ = ["KnowledgeService"]


class KnowledgeService:
    """Concurrent serving front for a :class:`KnowledgeShardMap`.

    ``execute(op, *args)`` runs one request on the calling thread.  At
    most ``queue_size`` requests run at once; one more raises
    :class:`ServiceOverloadError` immediately (admission control).
    :class:`~repro.core.service.client.ServiceClient` wraps this with
    deterministic-jitter backoff and a blocking API.

    The service starts no threads of its own and is a context manager;
    ``close()`` closes every shard, and later requests are refused.

    Every read builds its own objects from the shards (one per answer
    position, a repeated id included), so a caller may mutate what it
    gets back without touching the store or another reader's copy.
    """

    def __init__(
        self,
        shard_map: KnowledgeShardMap,
        *,
        queue_size: int = 64,
        metrics: "MetricsRegistry | None" = None,
        owned_shards: Sequence[int] | None = None,
    ) -> None:
        if queue_size < 1:
            raise ConfigurationError(f"queue_size must be >= 1, got {queue_size}")
        self.shard_map = shard_map
        if owned_shards is None:
            self.owned_shards = tuple(range(shard_map.num_shards))
        else:
            indices = sorted({int(i) for i in owned_shards})
            if not indices:
                raise ConfigurationError("owned_shards must name at least one shard")
            for index in indices:
                if not 0 <= index < shard_map.num_shards:
                    raise ConfigurationError(
                        f"owned shard {index} outside the store's "
                        f"[0, {shard_map.num_shards}) shard range"
                    )
            self.owned_shards = tuple(indices)
        self._owned = [shard_map.shards[i] for i in self.owned_shards]
        self._owned_set = frozenset(self.owned_shards)
        self.metrics = metrics if metrics is not None else shard_map.metrics
        self.queue_size = queue_size
        self._admit_lock = threading.Lock()
        self._in_flight = 0
        self._stats_lock = threading.Lock()
        self._closed = False
        self._ops = {
            "save": self._op_save,
            "save_many": self._op_save_many,
            "delete": self._op_delete,
            "load": self._op_load,
            "load_all": self._op_load_all,
            "fetch_many": self._op_fetch_many,
            "list_ids": self._op_list_ids,
            "find_by_parameter": self._op_find_by_parameter,
            "count": self._op_count,
            "exists": self._op_exists,
            "scan": self._op_scan,
        }

    # ------------------------------------------------------------------
    # execution, admission + dispatch
    # ------------------------------------------------------------------
    def execute(self, op: str, *args: object) -> object:
        """Run one request on the calling thread.

        Raises :class:`ServiceOverloadError` when ``queue_size``
        requests are already in flight — the caller is expected to back
        off (the service client does, with deterministic jitter) rather
        than block.
        """
        run = self._ops.get(op)
        if run is None:
            raise ServiceError(
                f"unknown service operation {op!r}; known: {sorted(self._ops)}"
            )
        if self._closed:
            raise ServiceError("knowledge service is closed")
        with self._admit_lock:
            admitted = self._in_flight < self.queue_size
            if admitted:
                self._in_flight += 1
        if not admitted:
            self._count_request(op, "shed")
            raise ServiceOverloadError(
                f"knowledge service at its in-flight cap ({self.queue_size} "
                "request(s) running); back off and retry"
            )
        start = time.perf_counter()
        try:
            result = run(*args)
        except BaseException:
            self._count_request(op, "error")
            raise
        finally:
            self._observe_latency(op, time.perf_counter() - start)
            with self._admit_lock:
                self._in_flight -= 1
        self._count_request(op, "ok")
        return result

    # ------------------------------------------------------------------
    # metrics plumbing (exact under the stats lock)
    # ------------------------------------------------------------------
    def _count_request(self, op: str, outcome: str) -> None:
        if self.metrics is not None:
            with self._stats_lock:
                self.metrics.counter(
                    "service.requests_total", "requests by operation and outcome",
                    op=op, outcome=outcome,
                ).inc()

    def _observe_latency(self, op: str, seconds: float) -> None:
        if self.metrics is not None:
            with self._stats_lock:
                self.metrics.histogram(
                    "service.request_seconds", "request service time",
                    wallclock=True, op=op,
                ).observe(seconds)

    def _observe_shard(self, shard: KnowledgeShard, seconds: float) -> None:
        if self.metrics is not None:
            with self._stats_lock:
                self.metrics.histogram(
                    "service.shard_request_seconds", "time spent inside one shard",
                    wallclock=True, shard=shard.index,
                ).observe(seconds)

    # ------------------------------------------------------------------
    # shard ownership (a networked worker serves a subset of the shards)
    # ------------------------------------------------------------------
    def _check_owned(self, shard_index: int) -> None:
        if shard_index not in self._owned_set:
            raise ServiceError(
                f"shard {shard_index} is not owned by this service "
                f"(owns {list(self.owned_shards)}); the request was "
                "routed to the wrong shard group"
            )

    # ------------------------------------------------------------------
    # write operations (per-shard lock)
    # ------------------------------------------------------------------
    def _op_save(self, knowledge: Knowledge) -> int:
        shard = self.shard_map.shard_for(knowledge)
        self._check_owned(shard.index)
        start = time.perf_counter()
        with shard.lock:
            local_id = shard.repository.save(knowledge)
        self._observe_shard(shard, time.perf_counter() - start)
        global_id = encode_knowledge_id(local_id, shard.index)
        knowledge.knowledge_id = global_id
        return global_id

    def _op_save_many(self, objects: Sequence[Knowledge]) -> list[int]:
        groups = group_by_owner(objects, lambda k: self.shard_map.shard_for(k).index)
        for index in groups:
            self._check_owned(index)
        global_ids: list[int] = [0] * len(objects)
        for index, group in groups.items():
            shard = self.shard_map.shards[index]
            start = time.perf_counter()
            with shard.lock:
                local_ids = shard.repository.save_many([k for _, k in group])
            self._observe_shard(shard, time.perf_counter() - start)
            for (position, knowledge), local_id in zip(group, local_ids):
                gid = encode_knowledge_id(local_id, index)
                knowledge.knowledge_id = gid
                global_ids[position] = gid
        return global_ids

    def _op_delete(self, global_id: int) -> None:
        shard, local_id = self.shard_map.shard_of(global_id)
        self._check_owned(shard.index)
        start = time.perf_counter()
        with shard.lock:
            shard.repository.delete(local_id)
        self._observe_shard(shard, time.perf_counter() - start)

    # ------------------------------------------------------------------
    # read operations (each builds its own objects from the shards)
    # ------------------------------------------------------------------
    def _op_load(self, global_id: int) -> Knowledge:
        shard, local_id = self.shard_map.shard_of(global_id)
        self._check_owned(shard.index)
        start = time.perf_counter()
        with shard.lock:
            knowledge = shard.repository.load(local_id)
        self._observe_shard(shard, time.perf_counter() - start)
        knowledge.knowledge_id = global_id
        return knowledge

    def _op_list_ids(self, benchmark: str | None = None) -> list[int]:
        ids: list[int] = []
        for shard in self._owned:
            start = time.perf_counter()
            with shard.lock:
                local_ids = shard.repository.list_ids(benchmark)
            self._observe_shard(shard, time.perf_counter() - start)
            ids.extend(encode_knowledge_id(i, shard.index) for i in local_ids)
        ids.sort()
        return ids

    def _op_load_all(self, benchmark: str | None = None) -> list[Knowledge]:
        # One batched fetch per shard, not a load() per id.
        return self._op_fetch_many(self._op_list_ids(benchmark))

    def _op_fetch_many(self, global_ids: Sequence[int]) -> list[Knowledge]:
        """Batched load: each shard's ids are fetched with one
        repository round-trip (``fetch_many``) under that shard's lock.
        Every position of the answer is its own object, a repeated id
        included."""
        ids = [int(i) for i in global_ids]
        groups = group_by_owner(ids, lambda gid: self.shard_map.shard_of(gid)[0].index)
        for index in groups:
            self._check_owned(index)
        out: list[Knowledge] = [None] * len(ids)  # type: ignore[list-item]
        for index, group in groups.items():
            shard = self.shard_map.shards[index]
            local_ids = [self.shard_map.shard_of(gid)[1] for _, gid in group]
            start = time.perf_counter()
            with shard.lock:
                loaded = shard.repository.fetch_many(local_ids)
            self._observe_shard(shard, time.perf_counter() - start)
            for (position, global_id), knowledge in zip(group, loaded):
                knowledge.knowledge_id = global_id
                out[position] = knowledge
        return out

    def _op_find_by_parameter(self, key: str, value: str) -> list[int]:
        """Global ids whose ``parameters[key] == value``, across shards.

        The campaign orchestrator's exactly-once token lookup.
        """
        ids: list[int] = []
        for shard in self._owned:
            start = time.perf_counter()
            with shard.lock:
                local_ids = shard.repository.find_ids_by_parameter(key, value)
            self._observe_shard(shard, time.perf_counter() - start)
            ids.extend(encode_knowledge_id(i, shard.index) for i in local_ids)
        ids.sort()
        return ids

    def _op_count(self, benchmark: str | None = None) -> int:
        total = 0
        for shard in self._owned:
            start = time.perf_counter()
            with shard.lock:
                total += shard.repository.count(benchmark)
            self._observe_shard(shard, time.perf_counter() - start)
        return total

    def _op_scan(self, query: ScanQuery) -> dict[str, object]:
        """Partial aggregate states for ``query`` over the owned shards.

        Each shard evaluates the scan down in SQL (never materialising
        knowledge objects); the per-shard states merge here, and merge
        again in the router when several shard-group workers each
        answer for their subset.
        """
        parts: list[dict[str, object]] = []
        for shard in self._owned:
            start = time.perf_counter()
            with shard.lock:
                parts.append(shard.repository.scan_partial(query))
            self._observe_shard(shard, time.perf_counter() - start)
        return merge_partial_payloads(parts)

    def _op_exists(self, global_id: int) -> bool:
        try:
            shard, local_id = self.shard_map.shard_of(global_id)
        except (ServiceError, PersistenceError):
            return False
        self._check_owned(shard.index)
        start = time.perf_counter()
        with shard.lock:
            present = shard.repository.exists(local_id)
        self._observe_shard(shard, time.perf_counter() - start)
        return present

    # ------------------------------------------------------------------
    # administration (no admission control, no request accounting)
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, object]:
        """A point-in-time operational summary (for ``repro-serve``).

        ``rows_per_shard`` is keyed by shard index (as strings: the dict
        crosses JSON on the wire) and covers only the *owned* shards, so
        a server can merge its shard-group workers' stats into one
        store-wide view without double counting.
        """
        rows: dict[str, int] = {}
        for shard in self._owned:
            with shard.lock:
                rows[str(shard.index)] = shard.repository.count()
        return {
            "shards": self.shard_map.num_shards,
            "owned_shards": list(self.owned_shards),
            "rows_per_shard": rows,
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def close(self) -> None:
        """Close every shard; later requests are refused."""
        with self._admit_lock:
            if self._closed:
                return
            self._closed = True
        self.shard_map.close()

    def __enter__(self) -> "KnowledgeService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
