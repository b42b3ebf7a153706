"""The networked knowledge server behind ``repro-serve --listen``.

Three pieces, one wire protocol:

* :class:`WorkerHandle` — one shard-group worker *process* (spawned as
  ``python -m repro.core.service.worker`` with ``socketpair`` channels
  passed by fd).  The parent talks to it in ``repro.wire/v1`` frames,
  one in-flight request per channel, and guards it with a circuit
  breaker: a worker that stops answering is quarantined, and requests
  for its shards fail fast with a typed ``quarantine`` error instead of
  piling onto a dead process.
* :class:`ShardRouter` — routes each operation to the worker(s) owning
  the shards it touches.  Placement reuses the store's deterministic
  key hash, global-id decoding names the shard directly, and the
  multi-shard operations (``save_many``/``fetch_many``/``list_ids``/
  ``count``/``find_by_parameter``/``load_all``/``stats``) are split per
  worker and merged back in the exact order the embedded service would
  have produced.  The read-only ones are scattered to every owning
  worker before any reply is read; single-owner results and
  ``fetch_many`` objects are relayed as bytes, never decoded here.
* :class:`KnowledgeServer` — the TCP front end: accepts connections,
  answers ``hello`` protocol negotiation, hardens against malformed
  frames (typed error frame or clean close — never a crashed thread),
  counts every connection/frame/byte under ``service.transport.*``, and
  drains gracefully: stop accepting, finish in-flight requests, answer
  ``draining`` to new ones, then close the worker channels so each
  worker flushes its shards and exits 0.

SQLite never runs in this process — the server routes, the workers own
the shards, and writes to different shard groups proceed on different
GILs.  That is the ROADMAP's "service split" step: the same knowledge
store, reachable from another process or host via ``knowledge+tcp://``.
"""

from __future__ import annotations

import itertools
import os
import queue
import select
import socket
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

import repro
from repro.core.persistence.scan import merge_partial_payloads
from repro.core.resilience import CircuitBreaker, Deadline, RetryPolicy
from repro.core.supervise import SupervisedSlot
from repro.core.service.ops import MUTATING_OPS, SERVICE_OPS
from repro.core.service.shard import (
    KnowledgeShardMap,
    decode_knowledge_id,
    group_by_owner,
    shard_index_for_key,
)
from repro.core.service.wire import (
    MAX_FRAME_BYTES,
    PROTOCOL,
    TruncatedFrameError,
    WireProtocolError,
    WireVersionError,
    decode_body,
    encode_body,
    error_body,
    join_fragments,
    ok_reply,
    ok_result,
    raise_wire_error,
    read_body,
    read_frame,
    split_fragments,
    write_frame,
)
from repro.util.errors import (
    PersistenceError,
    ServiceError,
    ServiceTransportError,
    WorkerStartupError,
)

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.core.metrics import MetricsRegistry

__all__ = [
    "WorkerHandle",
    "CrashLoopedHandle",
    "ShardRouter",
    "WorkerSupervisor",
    "KnowledgeServer",
]


def _typed(exc: Exception, code: str) -> Exception:
    """Stamp an explicit wire code onto one exception instance."""
    exc.wire_code = code  # type: ignore[attr-defined]
    return exc


class _Pending(NamedTuple):
    """One request written to a worker channel, its reply not yet read."""

    channel: socket.socket
    request_id: int
    op: str


class WorkerHandle:
    """The parent-side handle of one shard-group worker process."""

    def __init__(
        self,
        index: int,
        owned_shards: Sequence[int],
        process: subprocess.Popen,
        channels: Sequence[socket.socket],
        *,
        breaker: CircuitBreaker,
        max_frame: int = MAX_FRAME_BYTES,
        request_timeout_s: float = 30.0,
    ) -> None:
        self.index = index
        self.owned_shards = tuple(owned_shards)
        self.process = process
        self.breaker = breaker
        self.max_frame = max_frame
        self.request_timeout_s = request_timeout_s
        self.channel_count = len(channels)
        self._pool: "queue.Queue[socket.socket]" = queue.Queue()
        self._all_channels = list(channels)
        for channel in channels:
            self._pool.put(channel)
        self._seq = itertools.count(1)

    def call(
        self, op: str, payload: dict[str, object], *, timeout_s: float | None = None
    ) -> dict[str, object]:
        """One wire round-trip to the worker; raises typed errors.

        ``receive(send(...))``; ``timeout_s`` overrides the handle's
        default per-request timeout (the supervisor uses a short one for
        startup and heal probes).
        """
        return self.receive(self.send(op, payload, timeout_s=timeout_s))  # type: ignore[return-value]

    def send(
        self, op: str, payload: dict[str, object], *, timeout_s: float | None = None
    ) -> _Pending:
        """Claim a channel and write one request on it; the reply is
        read by :meth:`receive`, which must follow on every returned
        pending request so the channel goes back to the pool.

        Transport faults (dead channel, short read, timeout) trip the
        breaker and surface as :class:`ServiceTransportError` — marked
        non-retryable for mutating ops, whose effect on the worker is
        unknowable once the request left this process.
        """
        effective = self.request_timeout_s if timeout_s is None else timeout_s
        if not self.breaker.allow():
            exc = ServiceTransportError(
                f"shard-group worker {self.index} "
                f"(shards {list(self.owned_shards)}) is quarantined by its "
                "circuit breaker; its shards are unavailable until it heals",
                retryable=True,
            )
            exc.retry_after_s = self.breaker.retry_after_s
            raise _typed(exc, "quarantine")
        channel = self._checkout_channel(effective)
        pending = _Pending(channel, next(self._seq), op)
        try:
            channel.settimeout(effective)
            write_frame(
                channel,
                {"id": pending.request_id, "op": op, "args": payload},
                max_frame=self.max_frame,
            )
        except (OSError, WireProtocolError) as exc:
            raise self._channel_failed(pending, exc) from exc
        return pending

    def receive(
        self, pending: _Pending, *, raw: bool = False
    ) -> dict[str, object] | bytes:
        """Read the reply to one :meth:`send`; raises typed errors.

        ``raw=True`` returns an ok reply's ``result`` as the worker's
        JSON bytes, for a front end that only passes it on.  Any other
        reply is decoded: typed error frames from the worker re-raise as
        their registered classes, and a closed channel or an
        out-of-sequence id is a transport fault.
        """
        try:
            body = read_body(pending.channel, max_frame=self.max_frame)
        except (OSError, WireProtocolError) as exc:
            raise self._channel_failed(pending, exc) from exc
        result = None if body is None else ok_result(body, pending.request_id)
        if result is None:
            try:
                response = None if body is None else decode_body(body)
            except WireProtocolError as exc:
                raise self._channel_failed(pending, exc) from exc
            if response is None or response.get("id") != pending.request_id:
                raise self._channel_failed(
                    pending, None,
                    "closed its channel" if response is None
                    else "answered out of sequence",
                )
        self._pool.put(pending.channel)
        self.breaker.record_success()
        if result is not None:
            return result if raw else decode_body(result)
        if response.get("ok"):
            decoded = response.get("result")
            decoded = decoded if isinstance(decoded, dict) else {}
            return encode_body(decoded) if raw else decoded
        error = response.get("error")
        raise_wire_error(error if isinstance(error, dict) else {})
        raise AssertionError("raise_wire_error always raises")  # pragma: no cover

    def _channel_failed(
        self, pending: _Pending, exc: Exception | None, detail: str = ""
    ) -> ServiceTransportError:
        """Trip the breaker, drop the channel, and build the error."""
        self.breaker.record_failure()
        self._discard(pending.channel)
        what = (
            f"channel to shard-group worker {self.index} failed during "
            f"{pending.op!r}: {exc}"
            if exc is not None
            else f"shard-group worker {self.index} {detail} during {pending.op!r}"
        )
        return ServiceTransportError(what, retryable=pending.op not in MUTATING_OPS)

    def _checkout_channel(self, timeout_s: float) -> socket.socket:
        """Claim a free channel, failing *fast* once the process is gone.

        A SIGKILL'd worker EOFs the channels in flight, but requests
        queued behind them would otherwise sit in the (now permanently
        empty) pool for the full request timeout.  Waiting in short
        slices and re-checking process liveness bounds that stall —
        and thereby the server's time-to-heal — to one slice.
        """
        deadline = time.monotonic() + timeout_s
        while True:
            if self.process.poll() is not None:
                self.breaker.record_failure()
                raise _typed(
                    ServiceTransportError(
                        f"shard-group worker {self.index} (shards "
                        f"{list(self.owned_shards)}) exited with code "
                        f"{self.process.returncode}; its shards are "
                        "unavailable until the supervisor respawns it",
                        retryable=True,
                    ),
                    "unavailable",
                ) from None
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.breaker.record_failure()
                raise _typed(
                    ServiceTransportError(
                        f"no free channel to shard-group worker {self.index} "
                        f"within {timeout_s:g}s",
                        retryable=True,
                    ),
                    "unavailable",
                ) from None
            try:
                return self._pool.get(timeout=min(0.25, remaining))
            except queue.Empty:
                continue

    def _discard(self, channel: socket.socket) -> None:
        try:
            channel.close()
        except OSError:
            pass
        if channel in self._all_channels:
            self._all_channels.remove(channel)

    def handshake(self, *, deadline_s: float | None = None) -> None:
        """Verify every channel answers ``hello`` (worker readiness).

        With a ``deadline_s`` the whole handshake must finish inside
        that startup budget: a worker that hangs during spawn raises a
        typed :class:`WorkerStartupError` instead of blocking the
        server's boot (or the supervisor's respawn) indefinitely.
        """
        deadline = Deadline(deadline_s) if deadline_s is not None else None
        for _ in range(self.channel_count):  # FIFO pool: each call rotates
            timeout: float | None = None
            if deadline is not None:
                remaining = deadline.remaining_s
                if remaining <= 0:
                    raise WorkerStartupError(
                        f"shard-group worker {self.index} (shards "
                        f"{list(self.owned_shards)}) did not finish its startup "
                        f"handshake within {deadline_s:g}s"
                    )
                timeout = min(self.request_timeout_s, remaining)
            try:
                self.call("hello", {}, timeout_s=timeout)
            except WorkerStartupError:
                raise
            except (ServiceError, OSError) as exc:
                raise WorkerStartupError(
                    f"shard-group worker {self.index} (shards "
                    f"{list(self.owned_shards)}) failed its startup handshake: "
                    f"{exc}"
                ) from exc

    @property
    def alive(self) -> bool:
        """Whether the worker process is still running."""
        return self.process.poll() is None

    def close_channels(self) -> None:
        """EOF every channel: the worker flushes its shards and exits."""
        while True:
            try:
                self._pool.get_nowait()
            except queue.Empty:
                break
        for channel in list(self._all_channels):
            self._discard(channel)

    def reap(self, *, timeout_s: float = 5.0) -> None:
        """Kill the worker process (if needed) and collect its exit.

        Safe on an already-dead process; the supervisor calls this
        before respawning so a wedged worker cannot linger as a zombie
        holding its SQLite file handles.
        """
        self.close_channels()
        if self.process.poll() is None:
            self.process.kill()
        try:
            self.process.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:  # pragma: no cover - kernel lag
            pass


class CrashLoopedHandle:
    """The tombstone of a shard group demoted to permanent quarantine.

    When the supervisor's crash-loop detector gives up on a flapping
    worker, this handle takes its slot: every call answers a typed
    ``crash_loop`` error carrying a ``retry_after`` hint, so clients
    back off for the hinted window instead of hammering shards that
    will not come back without operator intervention.
    """

    process = None

    def __init__(
        self, index: int, owned_shards: Sequence[int], *, retry_after_s: float
    ) -> None:
        self.index = index
        self.owned_shards = tuple(owned_shards)
        self.retry_after_s = retry_after_s

    @property
    def alive(self) -> bool:
        """A crash-looped group has no process — never alive."""
        return False

    def call(
        self, op: str, payload: dict[str, object], *, timeout_s: float | None = None
    ) -> dict[str, object]:
        """Every operation fails fast with the typed crash-loop error."""
        exc = ServiceTransportError(
            f"shard-group worker {self.index} (shards "
            f"{list(self.owned_shards)}) is in a crash loop and permanently "
            "quarantined; its shards stay dark until an operator restarts "
            "the server",
            retryable=True,
        )
        exc.retry_after_s = self.retry_after_s
        raise _typed(exc, "crash_loop")

    #: The router's scatter path fails just as fast.
    send = call

    def handshake(self, *, deadline_s: float | None = None) -> None:
        """Crash-looped groups never hand-shake again."""
        self.call("hello", {})

    def close_channels(self) -> None:
        """Nothing to close — the last process was reaped at demotion."""

    def reap(self, *, timeout_s: float = 5.0) -> None:
        """Nothing to reap."""


class ShardRouter:
    """Route wire operations to the shard-group workers that own them.

    Worker handles are *replaceable*: the supervisor swaps a dead
    group's handle for its respawned successor (or a
    :class:`CrashLoopedHandle`) via :meth:`replace` while connection
    threads keep routing — reads take a consistent snapshot under the
    same lock.
    """

    def __init__(self, workers: Sequence[WorkerHandle], num_shards: int) -> None:
        self.workers = list(workers)
        self.num_shards = num_shards
        self._replace_lock = threading.Lock()
        self._owner: dict[int, WorkerHandle] = {}
        for worker in self.workers:
            for shard in worker.owned_shards:
                self._owner[shard] = worker

    def replace(self, index: int, worker: "WorkerHandle | CrashLoopedHandle") -> None:
        """Atomically swap the handle serving one shard group."""
        with self._replace_lock:
            self.workers[index] = worker  # type: ignore[assignment]
            for shard in worker.owned_shards:
                self._owner[shard] = worker  # type: ignore[assignment]

    def _snapshot(self) -> "list[WorkerHandle]":
        with self._replace_lock:
            return list(self.workers)

    # -- placement -----------------------------------------------------
    def _worker_of_shard(self, index: int) -> WorkerHandle:
        if not 0 <= index < self.num_shards:
            raise PersistenceError(
                f"shard {index} outside the store's {self.num_shards} shard(s)"
            )
        return self._owner[index]

    def _shard_of_id(self, global_id: int) -> int:
        _, index = decode_knowledge_id(int(global_id))
        if index >= self.num_shards:
            raise PersistenceError(
                f"knowledge id {global_id} names shard {index} but the store "
                f"has only {self.num_shards} shard(s)"
            )
        return index

    def _placement(self, packed: dict[str, object]) -> int:
        data = packed["data"]  # type: ignore[index]
        system = data.get("system") or {}  # type: ignore[union-attr]
        hostname = system.get("hostname") or "" if isinstance(system, dict) else ""
        return shard_index_for_key(f"{data['benchmark']}/{hostname}", self.num_shards)

    # -- dispatch ------------------------------------------------------
    def call(self, op: str, payload: dict[str, object]) -> dict[str, object] | bytes:
        """Route one operation payload; returns its result payload.

        Single-owner ops and ``fetch_many`` return the result as
        encoded JSON bytes (relayed from the workers without a decode);
        merged ops return a dict.
        """
        try:
            return self._route(op, payload)
        except (KeyError, TypeError, ValueError, AttributeError, IndexError) as exc:
            raise _typed(
                WireProtocolError(f"malformed arguments for operation {op!r}: {exc}"),
                "bad-request",
            ) from exc

    def _route(self, op: str, payload: dict[str, object]) -> dict[str, object] | bytes:
        if op == "ping":
            return {}
        if op == "stats":
            return {"stats": self._merged_stats()}
        if op not in SERVICE_OPS:
            raise _typed(
                ServiceError(
                    f"unknown service operation {op!r}; known: {sorted(SERVICE_OPS)}"
                ),
                "unknown-op",
            )
        if op == "save":
            owner = self._worker_of_shard(self._placement(payload["knowledge"]))  # type: ignore[arg-type]
            return owner.receive(owner.send("save", payload), raw=True)
        if op == "save_many":
            return self._save_many(payload)
        if op == "fetch_many":
            return self._fetch_many(payload)
        if op in ("load", "delete"):
            owner = self._worker_of_shard(self._shard_of_id(payload["id"]))  # type: ignore[arg-type]
            return owner.receive(owner.send(op, payload), raw=True)
        if op == "exists":
            try:
                index = self._shard_of_id(payload["id"])  # type: ignore[arg-type]
            except (ServiceError, PersistenceError):
                return {"exists": False}
            owner = self._worker_of_shard(index)
            return owner.receive(owner.send("exists", payload), raw=True)
        results = self._gather([(worker, op, payload) for worker in self._snapshot()])
        if op in ("list_ids", "find_by_parameter"):
            return {"ids": sorted(i for result in results for i in result["ids"])}  # type: ignore[union-attr]
        if op == "count":
            return {"count": sum(int(result["count"]) for result in results)}  # type: ignore[index, arg-type]
        if op == "scan":
            # Each shard-group worker answers with mergeable partial
            # aggregate states for its shards; the group-wise merge is
            # associative, so router-then-client merging equals the
            # embedded single-service evaluation.
            return {"partials": merge_partial_payloads(r["partials"] for r in results)}  # type: ignore[index]
        # load_all: every worker returns its owned objects, merged in
        # global-id order — exactly the embedded service's ordering.
        objects = [obj for result in results for obj in result["objects"]]  # type: ignore[union-attr]
        objects.sort(key=lambda obj: int(obj["id"]))  # type: ignore[index]
        return {"objects": objects}

    @staticmethod
    def _gather(
        calls: "Sequence[tuple[WorkerHandle, str, dict[str, object]]]",
        *,
        raw: bool = False,
    ) -> list:
        """Send every ``(worker, op, payload)`` call, then read every reply.

        Requests go out in ascending worker index: a gather holds one
        channel per worker while it waits, and one acquisition order
        keeps two concurrent gathers from deadlocking on the channel
        pools.  Every request that was sent has its reply read (or its
        channel discarded) before the first error is raised, so no
        channel returns to a pool with an unread reply on it.  Results
        come back in the order of ``calls``.
        """
        order = sorted(range(len(calls)), key=lambda i: calls[i][0].index)
        sent: list[tuple[int, _Pending]] = []
        send_error: Exception | None = None
        for i in order:
            worker, op, payload = calls[i]
            try:
                sent.append((i, worker.send(op, payload)))
            except Exception as exc:  # noqa: BLE001 - raised after the gather
                send_error = exc
                break
        results: list[object] = [None] * len(calls)
        error: Exception | None = None
        for i, pending in sent:
            try:
                results[i] = calls[i][0].receive(pending, raw=raw)
            except Exception as exc:  # noqa: BLE001 - raised after the gather
                error = error or exc
        error = error or send_error
        if error is not None:
            raise error
        return results

    def _save_many(self, payload: dict[str, object]) -> dict[str, object]:
        # Sequential on purpose: a partial failure stops before the
        # next group is written, which the exactly-once tests pin.
        objects = payload["objects"]  # type: ignore[index]
        groups = group_by_owner(
            objects,  # type: ignore[arg-type]
            lambda packed: self._worker_of_shard(self._placement(packed)).index,
        )
        workers = self._snapshot()
        ids: list[int] = [0] * len(objects)  # type: ignore[arg-type]
        for index, group in groups.items():
            result = workers[index].call("save_many", {"objects": [o for _, o in group]})
            for (position, _), global_id in zip(group, result["ids"]):  # type: ignore[arg-type]
                ids[position] = int(global_id)
        return {"ids": ids}

    def _fetch_many(self, payload: dict[str, object]) -> bytes:
        # Workers answer in the fragment layout; the objects are put in
        # the requested order (duplicates included) as bytes.
        wanted = [int(i) for i in payload["ids"]]  # type: ignore[union-attr]
        groups = group_by_owner(
            dict.fromkeys(wanted),
            lambda global_id: self._worker_of_shard(self._shard_of_id(global_id)).index,
        )
        workers = self._snapshot()
        batches = [[global_id for _, global_id in group] for group in groups.values()]
        replies = self._gather(
            [(workers[index], "fetch_many", {"ids": ids})
             for index, ids in zip(groups, batches)],
            raw=True,
        )
        fragments: dict[int, bytes] = {}
        for ids, reply in zip(batches, replies):
            fragments.update(zip(ids, split_fragments(reply), strict=True))
        return join_fragments([fragments[i] for i in wanted])

    def _merged_stats(self) -> dict[str, object]:
        workers = self._snapshot()
        rows: dict[str, int] = {}
        for reply in self._gather([(worker, "stats", {}) for worker in workers]):
            rows.update(reply["stats"].get("rows_per_shard", {}))
        return {
            "shards": self.num_shards,
            "worker_processes": len(workers),
            "shard_groups": [list(w.owned_shards) for w in workers],
            "rows_per_shard": rows,
        }


# Per-shard-group supervision state: the slot bookkeeping is shared
# with the campaign launcher fleet (repro.core.supervise), so respawn
# backoff and crash-loop semantics stay identical across supervisors.
_SupervisedSlot = SupervisedSlot


class WorkerSupervisor:
    """Self-healing loop over a :class:`KnowledgeServer`'s worker slots.

    Every ``poll_interval_s`` the supervisor walks the shard groups and
    converges each one back to healthy:

    * **dead process** (SIGKILL, OOM, crash) — respawn the worker with
      the same shard set (shards are durable SQLite; the successor
      re-opens them), re-run the hello handshake under the startup
      deadline, and swap the new handle into the router.  Respawns are
      budgeted by a :class:`RetryPolicy`'s exponential backoff.
    * **quarantined but alive** (breaker open past its window) — send
      one ``ping`` through the breaker's half-open probe slot; success
      closes the breaker with no respawn.  ``wedged_probe_limit``
      consecutive failed probes against a *live* process mean the
      worker is wedged, not slow: it is killed so the respawn path can
      take over.
    * **crash loop** — more than ``crash_loop_threshold`` respawn
      attempts inside ``crash_loop_window_s`` demotes the group to a
      :class:`CrashLoopedHandle`: permanent quarantine, typed
      ``crash_loop`` errors with a ``retry_after`` hint, no more
      respawn attempts burning CPU on a group that cannot stay up.

    Heals are measured: ``service.supervisor.respawns_total`` /
    ``crash_loops_total`` counters and a ``heal_seconds`` histogram
    (detection to healthy) land in the ordinary metrics report.
    """

    def __init__(
        self,
        server: "KnowledgeServer",
        *,
        poll_interval_s: float = 0.1,
        startup_deadline_s: float = 15.0,
        respawn_policy: RetryPolicy | None = None,
        crash_loop_threshold: int = 5,
        crash_loop_window_s: float = 30.0,
        crash_loop_retry_after_s: float | None = None,
        wedged_probe_limit: int = 3,
        clock: Callable[[], float] = time.monotonic,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        self.server = server
        self.poll_interval_s = poll_interval_s
        self.startup_deadline_s = startup_deadline_s
        self.respawn_policy = respawn_policy or RetryPolicy(
            max_attempts=crash_loop_threshold + 1,
            base_delay_s=0.05, multiplier=2.0, max_delay_s=2.0,
            salt="worker-supervisor",
        )
        self.crash_loop_threshold = crash_loop_threshold
        self.crash_loop_window_s = crash_loop_window_s
        self.crash_loop_retry_after_s = (
            crash_loop_retry_after_s
            if crash_loop_retry_after_s is not None
            else crash_loop_window_s
        )
        self.wedged_probe_limit = wedged_probe_limit
        self.metrics = metrics
        self._clock = clock
        self._slots = [_SupervisedSlot() for _ in server.workers]
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "WorkerSupervisor":
        """Begin supervising (idempotent)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name="repro-serve-supervisor", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the loop; a drain's worker exits must not look like crashes."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.poll_interval_s):
            try:
                self.tick()
            except Exception:  # noqa: BLE001 - supervision must not die
                # A tick that throws (a worker vanishing mid-inspection)
                # is retried on the next interval; the loop is the
                # safety net and must outlive any single surprise.
                continue

    # -- one supervision pass ------------------------------------------
    def tick(self) -> None:
        """Inspect every shard group once and converge it toward healthy."""
        for index in range(len(self._slots)):
            slot = self._slots[index]
            if slot.crash_looped:
                continue
            worker = self.server.workers[index]
            if worker.process is None:
                continue
            if not worker.alive:
                self._handle_dead(index, slot, worker)
            else:
                self._handle_alive(index, slot, worker)

    def _handle_alive(
        self, index: int, slot: _SupervisedSlot, worker: WorkerHandle
    ) -> None:
        state = worker.breaker.state
        if state == CircuitBreaker.CLOSED:
            if slot.unhealthy_since is not None:
                # Regular traffic healed the breaker through its own
                # half-open probe — record the heal, keep the worker.
                self._healed(index, slot, respawned=False)
            slot.probe_failures = 0
            return
        if slot.unhealthy_since is None:
            slot.unhealthy_since = self._clock()
        if state != CircuitBreaker.HALF_OPEN:
            return  # OPEN inside its window: breaker says wait, so wait
        try:
            worker.call("ping", {}, timeout_s=min(2.0, worker.request_timeout_s))
        except Exception as exc:  # noqa: BLE001 - typed probe outcomes
            if getattr(exc, "wire_code", "") == "quarantine":
                return  # a client claimed this window's probe; defer to it
            slot.probe_failures += 1
            if slot.probe_failures >= self.wedged_probe_limit and worker.alive:
                # Alive but unresponsive: the process is wedged.  Kill it
                # so the next tick takes the respawn path.
                worker.reap()
        else:
            slot.probe_failures = 0
            self._healed(index, slot, respawned=False)

    def _handle_dead(
        self, index: int, slot: _SupervisedSlot, worker: WorkerHandle
    ) -> None:
        now = self._clock()
        if slot.unhealthy_since is None:
            slot.unhealthy_since = now
        if now < slot.next_attempt_at:
            return  # respawn budget: back off between attempts
        if slot.note_respawn_attempt(
            now,
            window_s=self.crash_loop_window_s,
            threshold=self.crash_loop_threshold,
        ):
            self._declare_crash_loop(index, slot, worker)
            return
        worker.reap()
        slot.attempt += 1
        try:
            successor = self.server._respawn_worker(index)
        except Exception:  # noqa: BLE001 - spawn/handshake failed; back off
            delay = self.respawn_policy.delay_s(
                min(slot.attempt, self.respawn_policy.max_attempts - 1) or 1
            )
            slot.next_attempt_at = self._clock() + delay
            return
        self.server._replace_worker(index, successor)
        slot.respawned(self._clock())
        if self.metrics is not None:
            self.metrics.counter(
                "service.supervisor.respawns_total",
                "shard-group worker processes respawned",
                worker=str(index),
            ).inc()
        self._healed(index, slot, respawned=True)

    def _declare_crash_loop(
        self, index: int, slot: _SupervisedSlot, worker: WorkerHandle
    ) -> None:
        worker.reap()
        slot.crash_looped = True
        self.server._replace_worker(
            index,
            CrashLoopedHandle(
                index, worker.owned_shards,
                retry_after_s=self.crash_loop_retry_after_s,
            ),
        )
        if self.metrics is not None:
            self.metrics.counter(
                "service.supervisor.crash_loops_total",
                "shard groups demoted to permanent quarantine",
                worker=str(index),
            ).inc()

    def _healed(self, index: int, slot: _SupervisedSlot, *, respawned: bool) -> None:
        duration = slot.healed(self._clock())
        if duration is not None and self.metrics is not None:
            self.metrics.histogram(
                "service.supervisor.heal_seconds",
                "time from detecting an unhealthy shard group to healthy",
                wallclock=True,
                mode="respawn" if respawned else "probe",
            ).observe(duration)

    # -- introspection (the health op) ---------------------------------
    def slot_info(self, index: int) -> dict[str, object]:
        """Supervision state of one shard group, JSON-safe."""
        slot = self._slots[index]
        now = self._clock()
        return {
            "respawns": slot.respawns,
            "crash_looped": slot.crash_looped,
            "failed_attempts": slot.attempt,
            "last_heal_s_ago": (
                round(now - slot.last_heal_at, 3)
                if slot.last_heal_at is not None else None
            ),
            "unhealthy_for_s": (
                round(now - slot.unhealthy_since, 3)
                if slot.unhealthy_since is not None else None
            ),
        }


class KnowledgeServer:
    """TCP front end over shard-group worker processes.

    ``port=0`` binds an ephemeral port (``.port`` reports the real one).
    The server is a context manager; ``start()`` begins accepting,
    ``initiate_drain()`` (or SIGTERM via ``repro-serve``) starts the
    graceful shutdown, ``close()`` completes it.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        shards: int | None = None,
        worker_processes: int = 2,
        channels_per_worker: int = 2,
        max_frame: int = MAX_FRAME_BYTES,
        request_timeout_s: float = 30.0,
        metrics: "MetricsRegistry | None" = None,
        supervise: bool = True,
        startup_deadline_s: float = 15.0,
        respawn_policy: RetryPolicy | None = None,
        crash_loop_threshold: int = 5,
        crash_loop_window_s: float = 30.0,
        supervisor_poll_s: float = 0.1,
    ) -> None:
        self.root = Path(root)
        self.metrics = metrics
        self.max_frame = max_frame
        self.request_timeout_s = request_timeout_s
        self._startup_deadline_s = startup_deadline_s
        self._metrics_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._idle = threading.Condition(self._state_lock)
        self._inflight = 0
        self._draining = False
        self._shutdown = False
        self._closed = False
        self._stop_event = threading.Event()
        self._accept_thread: threading.Thread | None = None
        self._conn_threads: list[threading.Thread] = []
        self._open_conns: set[socket.socket] = set()
        self._active_conns = 0
        self.worker_returncodes: list[int] = []

        # Fix the shard layout up front so the workers *discover* it
        # instead of racing to create it.
        bootstrap = KnowledgeShardMap(self.root, shards)
        self.num_shards = bootstrap.num_shards
        bootstrap.close()

        n_workers = max(1, min(worker_processes, self.num_shards))
        groups: list[list[int]] = [[] for _ in range(n_workers)]
        for index in range(self.num_shards):
            groups[index % n_workers].append(index)
        self._shard_groups = groups
        self._channels_per_worker = channels_per_worker
        self.workers: "list[WorkerHandle | CrashLoopedHandle]" = [
            self._spawn_worker(wi, owned)
            for wi, owned in enumerate(groups)
        ]
        for worker in self.workers:
            try:
                worker.handshake(deadline_s=startup_deadline_s)
            except WorkerStartupError:
                if not supervise:
                    for peer in self.workers:
                        peer.reap()
                    raise
                # Kill the half-born process; the supervisor respawns
                # the slot under its restart budget once it starts.
                worker.reap()
        self.router = ShardRouter(self.workers, self.num_shards)
        self.supervisor: WorkerSupervisor | None = None
        if supervise:
            self.supervisor = WorkerSupervisor(
                self,
                poll_interval_s=supervisor_poll_s,
                startup_deadline_s=startup_deadline_s,
                respawn_policy=respawn_policy,
                crash_loop_threshold=crash_loop_threshold,
                crash_loop_window_s=crash_loop_window_s,
                metrics=metrics,
            )

        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(64)
        self.host, self.port = self._listener.getsockname()[:2]

    # ------------------------------------------------------------------
    # worker processes
    # ------------------------------------------------------------------
    def _spawn_worker(self, worker_index: int, owned: list[int]) -> WorkerHandle:
        pairs = [
            socket.socketpair() for _ in range(max(1, self._channels_per_worker))
        ]
        child_fds = [child.fileno() for _, child in pairs]
        env = dict(os.environ)
        src_root = str(Path(repro.__file__).resolve().parents[1])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root if not existing else f"{src_root}{os.pathsep}{existing}"
        )
        argv = [
            sys.executable, "-m", "repro.core.service.worker",
            "--store", str(self.root),
            "--shards", ",".join(str(i) for i in owned),
            "--fds", ",".join(str(fd) for fd in child_fds),
            "--max-frame", str(self.max_frame),
        ]
        process = subprocess.Popen(argv, pass_fds=child_fds, env=env)
        parent_channels = []
        for parent, child in pairs:
            child.close()  # the worker owns its end now
            parent_channels.append(parent)
        breaker = CircuitBreaker(
            failure_threshold=3, reset_timeout_s=1.0,
            metrics=self.metrics, name=f"service-worker-{worker_index}",
        )
        return WorkerHandle(
            worker_index, owned, process, parent_channels,
            breaker=breaker, max_frame=self.max_frame,
            request_timeout_s=self.request_timeout_s,
        )

    def _respawn_worker(self, index: int) -> WorkerHandle:
        """Spawn + handshake a successor for one shard group.

        Raises (and reaps the half-born process) when the successor
        fails or overruns its startup handshake — the supervisor backs
        off and tries again under its restart budget.
        """
        handle = self._spawn_worker(index, self._shard_groups[index])
        try:
            handle.handshake(deadline_s=self._startup_deadline_s)
        except Exception:
            handle.reap()
            raise
        return handle

    def _replace_worker(
        self, index: int, handle: "WorkerHandle | CrashLoopedHandle"
    ) -> None:
        """Install a successor handle in both the slot list and router."""
        self.workers[index] = handle
        self.router.replace(index, handle)

    def health(self) -> dict[str, object]:
        """The ``health`` admin op: per-worker liveness + supervision."""
        workers: list[dict[str, object]] = []
        for index, worker in enumerate(self.router._snapshot()):
            breaker = getattr(worker, "breaker", None)
            info: dict[str, object] = {
                "worker": index,
                "pid": worker.process.pid if worker.process is not None else None,
                "alive": worker.alive,
                "shards": list(worker.owned_shards),
                "breaker": breaker.state if breaker is not None else "crash-loop",
            }
            if self.supervisor is not None:
                info.update(self.supervisor.slot_info(index))
            workers.append(info)
        healthy = all(
            w["alive"] and w["breaker"] == CircuitBreaker.CLOSED for w in workers
        )
        return {
            "status": "draining" if self._draining
            else ("healthy" if healthy else "degraded"),
            "shards": self.num_shards,
            "supervised": self.supervisor is not None,
            "workers": workers,
        }

    # ------------------------------------------------------------------
    # accept loop + per-connection protocol
    # ------------------------------------------------------------------
    def start(self) -> "KnowledgeServer":
        """Begin accepting connections and supervising (idempotent)."""
        if self._accept_thread is None:
            self._accept_thread = threading.Thread(
                target=self._accept_loop, name="repro-serve-accept", daemon=True
            )
            self._accept_thread.start()
        if self.supervisor is not None:
            self.supervisor.start()
        return self

    def _accept_loop(self) -> None:
        while not self._draining:
            try:
                ready, _, _ = select.select([self._listener], [], [], 0.2)
            except (OSError, ValueError):
                return
            if not ready:
                continue
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return
            self._track_connection(conn, opened=True)
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            )
            with self._state_lock:
                self._conn_threads.append(thread)
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        conn.settimeout(self.request_timeout_s)
        try:
            while True:
                try:
                    ready, _, _ = select.select([conn], [], [], 0.25)
                except (OSError, ValueError):
                    return
                if not ready:
                    if self._shutdown:
                        return
                    continue
                received = [0]
                try:
                    request = read_frame(
                        conn, max_frame=self.max_frame,
                        on_bytes=lambda n: received.__setitem__(0, n),
                    )
                except TruncatedFrameError:
                    return  # mid-frame disconnect: nothing to answer
                except WireVersionError as exc:
                    # Answer in *our* version — the one thing both ends
                    # can parse — then hang up.
                    self._send(conn, {"id": None, "ok": False,
                                      "error": error_body(_typed(exc, "version-mismatch"))})
                    return
                except WireProtocolError as exc:
                    code = "frame-too-large" if "cap" in str(exc) else "bad-frame"
                    self._send(conn, {"id": None, "ok": False,
                                      "error": error_body(_typed(exc, code))})
                    return
                except (OSError, ValueError):
                    return
                if request is None:
                    return  # clean close at a frame boundary
                self._count_frame("in", received[0])
                if not self._send(conn, self._respond(request)):
                    return
        finally:
            self._track_connection(conn, opened=False)
            try:
                conn.close()
            except OSError:
                pass

    def _respond(self, request: dict[str, object]) -> dict[str, object] | bytes:
        request_id = request.get("id")
        op = str(request.get("op", ""))
        args = request.get("args")
        payload = args if isinstance(args, dict) else {}
        start = time.perf_counter()
        try:
            if op == "hello":
                result = self._hello(payload)
            elif op == "health":
                # Health answers even while draining — that is exactly
                # when an operator wants to see worker state.
                result = {"health": self.health()}
            elif self._draining:
                raise _typed(
                    ServiceTransportError(
                        "server is draining; finish against another endpoint "
                        "or retry once a replacement is up",
                        retryable=True,
                    ),
                    "draining",
                )
            else:
                with self._inflight_guard():
                    result = self.router.call(op, payload)
        except Exception as exc:  # noqa: BLE001 - typed error frame, never die
            self._observe_op(op, time.perf_counter() - start)
            return {"id": request_id, "ok": False, "error": error_body(exc)}
        self._observe_op(op, time.perf_counter() - start)
        if isinstance(result, bytes):  # relayed worker result
            return ok_reply(request_id, result)
        return {"id": request_id, "ok": True, "result": result}

    def _hello(self, payload: dict[str, object]) -> dict[str, object]:
        offered = payload.get("protocols")
        if offered is not None and PROTOCOL not in offered:  # type: ignore[operator]
            raise _typed(
                WireProtocolError(
                    f"no common protocol: client offers {offered!r}, "
                    f"server speaks {PROTOCOL}"
                ),
                "version-mismatch",
            )
        return {
            "protocol": PROTOCOL,
            "transport": "tcp",
            "server": "repro-serve",
            "shards": self.num_shards,
            "worker_processes": len(self.workers),
            "draining": self._draining,
        }

    def _send(self, conn: socket.socket, body: dict[str, object] | bytes) -> bool:
        try:
            sent = write_frame(conn, body, max_frame=self.max_frame)
        except (OSError, WireProtocolError):
            return False
        self._count_frame("out", sent)
        return True

    @contextmanager
    def _inflight_guard(self):
        with self._idle:
            self._inflight += 1
        try:
            yield
        finally:
            with self._idle:
                self._inflight -= 1
                self._idle.notify_all()

    # ------------------------------------------------------------------
    # service.transport.* metrics
    # ------------------------------------------------------------------
    def _track_connection(self, conn: socket.socket, *, opened: bool) -> None:
        with self._state_lock:
            if opened:
                self._open_conns.add(conn)
                self._active_conns += 1
            else:
                self._open_conns.discard(conn)
                self._active_conns -= 1
            active = self._active_conns
        if self.metrics is not None:
            with self._metrics_lock:
                if opened:
                    self.metrics.counter(
                        "service.transport.connections_total",
                        "client connections accepted",
                    ).inc()
                self.metrics.gauge(
                    "service.transport.connections_active",
                    "client connections currently open",
                ).set(active)

    def _count_frame(self, direction: str, nbytes: int) -> None:
        if self.metrics is None:
            return
        with self._metrics_lock:
            self.metrics.counter(
                "service.transport.frames_total",
                "wire frames by direction", direction=direction,
            ).inc()
            self.metrics.counter(
                "service.transport.bytes_total",
                "wire bytes by direction", direction=direction,
            ).inc(nbytes)

    def _observe_op(self, op: str, seconds: float) -> None:
        if self.metrics is None:
            return
        with self._metrics_lock:
            self.metrics.histogram(
                "service.transport.request_seconds",
                "wire round-trip time spent inside the server",
                wallclock=True, op=op,
            ).observe(seconds)

    # ------------------------------------------------------------------
    # lifecycle: drain, then close
    # ------------------------------------------------------------------
    def initiate_drain(self) -> None:
        """Stop accepting; new requests get typed ``draining`` errors."""
        with self._state_lock:
            if self._draining:
                return
            self._draining = True
        try:
            self._listener.close()
        except OSError:
            pass
        self._stop_event.set()

    def serve_forever(self) -> None:
        """Accept until :meth:`initiate_drain` is called, then close."""
        self.start()
        self._stop_event.wait()
        self.close()

    def close(self, *, drain_timeout_s: float = 10.0) -> None:
        """Finish in-flight requests, drain the workers, release sockets."""
        if self._closed:
            return
        if self.supervisor is not None:
            # Stop supervising *before* the drain: workers exiting 0 on
            # EOF must not look like crashes and get respawned mid-close.
            self.supervisor.stop()
        self.initiate_drain()
        deadline = time.monotonic() + drain_timeout_s
        with self._idle:
            while self._inflight > 0 and time.monotonic() < deadline:
                self._idle.wait(timeout=0.1)
        self._shutdown = True
        for worker in self.workers:
            worker.close_channels()  # EOF: workers flush their shards
        self.worker_returncodes = []
        for worker in self.workers:
            if worker.process is None:  # crash-looped tombstone
                self.worker_returncodes.append(-1)
                continue
            try:
                self.worker_returncodes.append(
                    worker.process.wait(timeout=drain_timeout_s)
                )
            except subprocess.TimeoutExpired:  # pragma: no cover - safety net
                worker.process.kill()
                self.worker_returncodes.append(worker.process.wait())
        with self._state_lock:
            lingering = list(self._open_conns)
            threads = list(self._conn_threads)
        for conn in lingering:
            try:
                conn.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
        for thread in threads:
            thread.join(timeout=2.0)
        self._closed = True

    def __enter__(self) -> "KnowledgeServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
