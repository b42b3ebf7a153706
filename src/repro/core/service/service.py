"""The knowledge service: a concurrent, cache-fronted serving layer.

The ROADMAP north star is a knowledge base that serves "heavy traffic"
while ingestion keeps writing — the always-on store that corpus studies
and LLM-driven diagnosis front-ends presume.  This module is that
serving layer, embeddable in-process:

* requests enter a **bounded queue** (admission control): when the
  queue is full the service *sheds* the request with a typed
  :class:`~repro.util.errors.ServiceOverloadError` instead of letting
  callers pile onto a wedged SQLite file — overload degrades into
  client backoff, never a deadlock.
* a **worker pool** drains the queue (a shard-group worker process
  calls ``execute`` on its channel threads instead).  Every shard access
  happens under that shard's lock (SQLite's single-writer discipline),
  so concurrency comes from spreading keys across shards and from the
  result cache.
* reads go through an :class:`~repro.core.service.cache.EpochLRUCache`;
  every committed write bumps the owning shard's epoch, lazily evicting
  stale entries on their next lookup.  The cache holds the knowledge
  objects the repository built, uncopied: the dispatcher's wire codec
  gives every caller its own copy.
* shard writes run on the shard map's
  :class:`~repro.core.persistence.backend.ResilientBackend`, so a
  wedged shard trips its circuit breaker and quarantines: its writes
  fail fast with a transient, typed error carrying the breaker's
  ``retry_after_s`` while its reads and every other shard keep serving.

Every queue transition, shard latency and cache event is recorded in
the attached :class:`~repro.core.metrics.MetricsRegistry` under the
``service.*`` families.
"""

from __future__ import annotations

import json
import queue
import threading
import time
from concurrent.futures import Future
from typing import TYPE_CHECKING, Sequence

from repro.core.knowledge import Knowledge
from repro.core.persistence.scan import ScanQuery, merge_partial_payloads
from repro.core.service.cache import EpochLRUCache
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

_STOP = object()  # worker-shutdown sentinel; requests are (op, args, future)


class KnowledgeService:
    """Concurrent serving front for a :class:`KnowledgeShardMap`.

    ``execute(op, *args)`` runs one request on the calling thread;
    ``submit(op, *args)`` enqueues it and returns a
    :class:`~concurrent.futures.Future`, and a full queue raises
    :class:`ServiceOverloadError` immediately (admission control).
    :class:`~repro.core.service.client.ServiceClient` wraps this with
    deterministic-jitter backoff and a blocking API.

    The service starts its workers on the first ``submit`` and is a
    context manager; ``close()`` drains the queue, stops the workers and
    closes every shard.

    Read results (``load``, ``fetch_many``, ``load_all``) are the very
    objects held by the read-through cache, shared with every later
    reader of the same id: treat them as read-only.  A caller that wants
    its own mutable copy goes through
    :class:`~repro.core.service.ops.ServiceDispatcher`, whose
    ``encode_result`` converts each object once for the wire; every
    :class:`~repro.core.service.client.ServiceClient` does.
    """

    def __init__(
        self,
        shard_map: KnowledgeShardMap,
        *,
        workers: int = 4,
        queue_size: int = 64,
        cache_size: int = 128,
        metrics: "MetricsRegistry | None" = None,
        owned_shards: Sequence[int] | None = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
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
        self.cache = EpochLRUCache(cache_size, metrics=self.metrics)
        self._queue: "queue.Queue[object]" = queue.Queue(maxsize=queue_size)
        self._start_lock = threading.Lock()
        self._started = False
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
        if self.metrics is not None:
            self._depth_gauge = self.metrics.gauge(
                "service.queue_depth", "requests waiting in the service queue"
            )
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"knowledge-service-{i}", daemon=True
            )
            for i in range(workers)
        ]

    # ------------------------------------------------------------------
    # execution, admission + dispatch
    # ------------------------------------------------------------------
    def execute(self, op: str, *args: object) -> object:
        """Run one request of a known ``op`` on the calling thread, with
        the same request count and latency accounting as a queued one."""
        run = self._ops[op]
        start = time.perf_counter()
        try:
            result = run(*args)
        except BaseException:
            self._count_request(op, "error")
            raise
        finally:
            self._observe_latency(op, time.perf_counter() - start)
        self._count_request(op, "ok")
        return result

    def submit(self, op: str, *args: object) -> "Future[object]":
        """Enqueue one request; returns its future.

        Raises :class:`ServiceOverloadError` when the bounded queue is
        full — the caller is expected to back off (the service client
        does, with deterministic jitter) rather than block.
        """
        if self._closed:
            raise ServiceError("knowledge service is closed")
        if op not in self._ops:
            raise ServiceError(
                f"unknown service operation {op!r}; known: {sorted(self._ops)}"
            )
        if not self._started:
            with self._start_lock:  # a racing close() stops them or refuses
                if self._closed:
                    raise ServiceError("knowledge service is closed")
                if not self._started:
                    for thread in self._workers:
                        thread.start()
                    self._started = True
        future: "Future[object]" = Future()
        try:
            self._queue.put_nowait((op, args, future))
        except queue.Full:
            self._count_request(op, "shed")
            raise ServiceOverloadError(
                f"service queue full ({self.queue_size} request(s) waiting); "
                "back off and retry"
            ) from None
        self._note_depth()
        return future

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            try:
                if item is _STOP:
                    return
                op, args, future = item  # type: ignore[misc]
                self._note_depth()
                if not future.set_running_or_notify_cancel():
                    continue
                try:
                    result = self.execute(op, *args)
                except BaseException as exc:  # noqa: BLE001 - delivered via future
                    future.set_exception(exc)
                else:
                    future.set_result(result)
            finally:
                self._queue.task_done()

    # ------------------------------------------------------------------
    # metrics plumbing (exact under the stats lock)
    # ------------------------------------------------------------------
    def _note_depth(self) -> None:
        if self.metrics is not None:
            self._depth_gauge.set(self._queue.qsize())

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
    # write operations (per-shard lock, epoch bump after commit)
    # ------------------------------------------------------------------
    def _op_save(self, knowledge: Knowledge) -> int:
        shard = self.shard_map.shard_for(knowledge)
        self._check_owned(shard.index)
        start = time.perf_counter()
        with shard.lock:
            local_id = shard.repository.save(knowledge)
            self.shard_map.bump_epoch(shard.index)
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
                self.shard_map.bump_epoch(index)
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
            self.shard_map.bump_epoch(shard.index)
        self._observe_shard(shard, time.perf_counter() - start)

    # ------------------------------------------------------------------
    # read operations (read-through cache of shared, read-only objects)
    # ------------------------------------------------------------------
    def _op_load(self, global_id: int) -> Knowledge:
        shard, local_id = self.shard_map.shard_of(global_id)
        self._check_owned(shard.index)
        epochs = (self.shard_map.epoch(shard.index),)
        hit, cached = self.cache.get(("load", global_id), epochs)
        if hit:
            return cached  # type: ignore[return-value]
        start = time.perf_counter()
        with shard.lock:
            knowledge = shard.repository.load(local_id)
        self._observe_shard(shard, time.perf_counter() - start)
        knowledge.knowledge_id = global_id
        self.cache.put(("load", global_id), epochs, knowledge)
        return knowledge

    def _op_list_ids(self, benchmark: str | None = None) -> list[int]:
        epochs = self.shard_map.epochs()
        hit, value = self.cache.get(("list_ids", benchmark), epochs)
        if hit:
            return list(value)  # type: ignore[arg-type]
        ids: list[int] = []
        for shard in self._owned:
            start = time.perf_counter()
            with shard.lock:
                local_ids = shard.repository.list_ids(benchmark)
            self._observe_shard(shard, time.perf_counter() - start)
            ids.extend(encode_knowledge_id(i, shard.index) for i in local_ids)
        ids.sort()
        self.cache.put(("list_ids", benchmark), epochs, tuple(ids))
        return ids

    def _op_load_all(self, benchmark: str | None = None) -> list[Knowledge]:
        # One batched fetch per shard (cache-aware), not a load() per id.
        return self._op_fetch_many(self._op_list_ids(benchmark))

    def _op_fetch_many(self, global_ids: Sequence[int]) -> list[Knowledge]:
        """Batched load: cached ids are served from the cache, the
        misses of each shard are fetched with one repository round-trip
        (``fetch_many``) under that shard's lock."""
        out: dict[int, Knowledge] = {}
        misses: list[int] = []
        for global_id in dict.fromkeys(int(i) for i in global_ids):
            shard, _ = self.shard_map.shard_of(global_id)
            self._check_owned(shard.index)
            epochs = (self.shard_map.epoch(shard.index),)
            hit, cached = self.cache.get(("load", global_id), epochs)
            if hit:
                out[global_id] = cached  # type: ignore[assignment]
            else:
                misses.append(global_id)
        groups = group_by_owner(misses, lambda gid: self.shard_map.shard_of(gid)[0].index)
        for index, group in groups.items():
            shard = self.shard_map.shards[index]
            epochs = (self.shard_map.epoch(index),)
            local_ids = [self.shard_map.shard_of(gid)[1] for _, gid in group]
            start = time.perf_counter()
            with shard.lock:
                loaded = shard.repository.fetch_many(local_ids)
            self._observe_shard(shard, time.perf_counter() - start)
            for (_, global_id), knowledge in zip(group, loaded):
                knowledge.knowledge_id = global_id
                self.cache.put(("load", global_id), epochs, knowledge)
                out[global_id] = knowledge
        return [out[int(i)] for i in global_ids]

    def _op_find_by_parameter(self, key: str, value: str) -> list[int]:
        """Global ids whose ``parameters[key] == value``, across shards.

        The campaign orchestrator's exactly-once token lookup — always
        answered from the shards, never the cache: a stale answer here
        could duplicate a benchmark run.
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
        epochs = self.shard_map.epochs()
        hit, value = self.cache.get(("count", benchmark), epochs)
        if hit:
            return int(value)  # type: ignore[arg-type]
        total = 0
        for shard in self._owned:
            start = time.perf_counter()
            with shard.lock:
                total += shard.repository.count(benchmark)
            self._observe_shard(shard, time.perf_counter() - start)
        self.cache.put(("count", benchmark), epochs, total)
        return total

    def _op_scan(self, query: ScanQuery) -> dict[str, object]:
        """Partial aggregate states for ``query`` over the owned shards.

        Each shard evaluates the scan down in SQL (never materialising
        knowledge objects); the per-shard states merge here, and merge
        again in the router when several shard-group workers each
        answer for their subset.  The merged partials are cached keyed
        on the canonical query payload + every owned shard's epoch.
        """
        cache_key = ("scan", json.dumps(query.to_payload(), sort_keys=True))
        epochs = self.shard_map.epochs()
        hit, value = self.cache.get(cache_key, epochs)
        if hit:
            return dict(value)  # type: ignore[arg-type]
        parts: list[dict[str, object]] = []
        for shard in self._owned:
            start = time.perf_counter()
            with shard.lock:
                parts.append(shard.repository.scan_partial(query))
            self._observe_shard(shard, time.perf_counter() - start)
        merged = merge_partial_payloads(parts)
        self.cache.put(cache_key, epochs, merged)
        return merged

    def _op_exists(self, global_id: int) -> bool:
        try:
            shard, local_id = self.shard_map.shard_of(global_id)
        except (ServiceError, PersistenceError):
            return False
        self._check_owned(shard.index)
        epochs = (self.shard_map.epoch(shard.index),)
        hit, value = self.cache.get(("exists", global_id), epochs)
        if hit:
            return bool(value)
        start = time.perf_counter()
        with shard.lock:
            present = shard.repository.exists(local_id)
        self._observe_shard(shard, time.perf_counter() - start)
        self.cache.put(("exists", global_id), epochs, present)
        return present

    # ------------------------------------------------------------------
    # administration (runs in the caller's thread, not through the queue)
    # ------------------------------------------------------------------
    def warm_up(self, limit: int | None = None) -> int:
        """Preload up to ``limit`` knowledge objects into the cache.

        Uses the COUNT fast path to skip empty shards without touching
        any rows, then loads ids in global order through the cache.
        Returns how many objects were loaded.
        """
        if self._op_count() == 0:
            return 0
        warmed = 0
        for global_id in self._op_list_ids():
            if limit is not None and warmed >= limit:
                break
            self._op_load(global_id)
            warmed += 1
        return warmed

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
            "cache_entries": len(self.cache),
            "cache_hits": self.cache.hits,
            "cache_misses": self.cache.misses,
            "cache_hit_rate": round(self.cache.hit_rate, 4),
            "cache_evictions_stale": self.cache.evictions_stale,
            "cache_evictions_capacity": self.cache.evictions_capacity,
            "epochs": list(self.shard_map.epochs()),
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
        """Drain the queue, stop the workers and close every shard."""
        with self._start_lock:
            if self._closed:
                return
            self._closed = True
        if self._started:
            for _ in self._workers:
                self._queue.put(_STOP)
            for thread in self._workers:
                thread.join()
        self.shard_map.close()

    def __enter__(self) -> "KnowledgeService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
