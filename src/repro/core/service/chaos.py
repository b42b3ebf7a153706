"""Deterministic wire-level chaos injection for the knowledge server.

Self-healing that is only exercised by real crashes is self-healing
that is never exercised.  This module makes process and network faults
*injectable, seeded and reproducible*, in the same spirit as
:mod:`repro.pfs.faults`: every fault decision is a draw from a named
:func:`repro.util.rng.stream`, keyed **positionally** by
``(seed, "chaos", kind, connection, direction, frame)`` — not by wall
time and not by a shared counter — so the schedule of injected faults
for a given seed and traffic pattern is identical across runs and
across thread interleavings.

Three pieces:

* :class:`ChaosPolicy` — the knobs (per-frame fault probabilities, a
  worker-kill cadence, the seed), parseable from a compact
  ``repro-serve --chaos "seed=7,corrupt=0.01,kill_every=200"`` spec.
* :class:`ChaosProxy` — a TCP proxy that sits between clients and a
  :class:`~repro.core.service.server.KnowledgeServer`, parses
  ``repro.wire`` frame boundaries, and injects frame delay, mid-frame
  disconnect, byte corruption, truncation and connection refusal.
  Every injected fault is appended to :attr:`ChaosProxy.injected` (the
  reproducible schedule) and counted under
  ``service.chaos.faults_total{kind}``.
* :class:`WorkerKiller` — SIGKILLs a live shard-group worker every
  ``kill_every`` proxied frames, round-robin, which is exactly the
  fault the :class:`~repro.core.service.server.WorkerSupervisor` must
  heal.

The proxy injects at the *byte* level, beneath the client's codec — a
corrupted frame exercises the server's typed ``bad-frame`` answer, a
truncation exercises the client's short-read classification, and a
kill exercises supervised respawn, all without patching either end.
"""

from __future__ import annotations

import itertools
import socket
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.core.service.wire import HEADER, MAGIC
from repro.util.errors import ConfigurationError
from repro.util.rng import stream

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.metrics import MetricsRegistry
    from repro.core.service.server import KnowledgeServer

__all__ = [
    "ChaosPolicy",
    "parse_chaos_spec",
    "ChaosProxy",
    "WorkerKiller",
]

#: Frames larger than this are treated as a non-wire byte stream and
#: passed through verbatim (the proxy must not allocate unboundedly on
#: a corrupt or hostile length prefix any more than the server would).
_PASSTHROUGH_LIMIT = 64 * 1024 * 1024


@dataclass(frozen=True, slots=True)
class ChaosPolicy:
    """Seeded fault probabilities for one chaos run.

    All probabilities are per-frame (``refuse`` is per-connection) and
    drawn independently; ``corrupt`` and ``delay`` can both fire on the
    same frame, while ``disconnect`` and ``truncate`` terminate it.
    ``kill_every > 0`` SIGKILLs a worker every that many proxied frames.
    """

    seed: int = 42
    refuse: float = 0.0  # P(connection refused at accept)
    disconnect: float = 0.0  # P(drop the connection instead of the frame)
    truncate: float = 0.0  # P(forward a partial frame, then close)
    corrupt: float = 0.0  # P(flip one body byte)
    delay: float = 0.0  # P(stall the frame)
    delay_ms: float = 50.0  # max stall per delayed frame
    kill_every: int = 0  # SIGKILL a worker every N proxied frames

    def __post_init__(self) -> None:
        for name in ("refuse", "disconnect", "truncate", "corrupt", "delay"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(
                    f"chaos probability {name!r} must be in [0, 1], got {p}"
                )
        if self.delay_ms < 0:
            raise ConfigurationError(
                f"chaos delay_ms must be >= 0, got {self.delay_ms}"
            )
        if self.kill_every < 0:
            raise ConfigurationError(
                f"chaos kill_every must be >= 0, got {self.kill_every}"
            )

    @property
    def any_wire_faults(self) -> bool:
        """Whether any per-frame/per-connection fault can fire."""
        return any(
            getattr(self, name) > 0.0
            for name in ("refuse", "disconnect", "truncate", "corrupt", "delay")
        )

    def _draw(self, kind: str, *key: object):
        """The deterministic stream for one fault decision."""
        return stream(self.seed, "chaos", kind, *key)


_SPEC_FIELDS = {
    "seed": int,
    "refuse": float,
    "disconnect": float,
    "truncate": float,
    "corrupt": float,
    "delay": float,
    "delay_ms": float,
    "kill_every": int,
}


def parse_chaos_spec(spec: str) -> ChaosPolicy:
    """Parse ``"seed=7,corrupt=0.01,kill_every=200"`` into a policy."""
    values: dict[str, object] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, raw = part.partition("=")
        key = key.strip()
        if not sep or key not in _SPEC_FIELDS:
            raise ConfigurationError(
                f"bad chaos spec element {part!r}; known keys: "
                f"{', '.join(sorted(_SPEC_FIELDS))}"
            )
        try:
            values[key] = _SPEC_FIELDS[key](raw.strip())
        except ValueError as exc:
            raise ConfigurationError(
                f"bad chaos spec value for {key!r}: {raw.strip()!r}"
            ) from exc
    return ChaosPolicy(**values)  # type: ignore[arg-type]


class WorkerKiller:
    """Scheduled SIGKILL of shard-group workers, by proxied-frame count.

    ``on_frame(total)`` is called by the proxy after every forwarded
    frame; each time the total crosses a multiple of ``every_frames``
    the next live worker (round-robin) is killed.  Counting frames
    instead of seconds keeps the kill schedule a function of traffic,
    not wall time, so a seeded soak kills at the same points in the
    request stream every run.

    ``server`` is duck-typed: anything exposing a ``workers`` list of
    slots with ``.process``/``.alive`` works — the knowledge server's
    shard-group workers and the campaign fleet's launcher slots both
    do, so one killer drives both SIGKILL matrices (the fleet feeds it
    its campaign's DONE-job count instead of a frame count).
    ``metric_name`` routes the fault count to the owning subsystem's
    metric family.
    """

    def __init__(
        self,
        server: "KnowledgeServer",
        *,
        every_frames: int,
        metrics: "MetricsRegistry | None" = None,
        metric_name: str = "service.chaos.faults_total",
    ) -> None:
        if every_frames < 1:
            raise ConfigurationError(
                f"every_frames must be >= 1, got {every_frames}"
            )
        self.server = server
        self.every_frames = every_frames
        self.metrics = metrics
        self.metric_name = metric_name
        self.kills = 0
        self._next_at = every_frames
        self._rr = 0
        self._lock = threading.Lock()

    def on_frame(self, total_frames: int) -> None:
        """Kill the next live worker when the cadence comes due."""
        with self._lock:
            if total_frames < self._next_at:
                return
            self._next_at += self.every_frames
            workers = self.server.workers
            for offset in range(len(workers)):
                worker = workers[(self._rr + offset) % len(workers)]
                if worker.process is not None and worker.alive:
                    worker.process.kill()
                    self._rr = (self._rr + offset + 1) % len(workers)
                    self.kills += 1
                    if self.metrics is not None:
                        self.metrics.counter(
                            self.metric_name,
                            "chaos faults injected by kind",
                            kind="worker-kill",
                        ).inc()
                    return


class ChaosProxy:
    """A frame-aware TCP proxy injecting seeded faults on the wire.

    Sits on its own ``host:port`` and forwards to ``upstream``.  Each
    accepted connection gets a connection index; each direction
    (``c2s``/``s2c``) counts its own frames; fault draws are keyed by
    those positions, so the injected schedule is independent of thread
    timing.  :attr:`injected` accumulates
    ``(kind, connection, direction, frame)`` tuples in draw order per
    connection — compare two seeded runs' sorted schedules for
    byte-for-byte reproducibility.
    """

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        policy: ChaosPolicy,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        metrics: "MetricsRegistry | None" = None,
        killer: WorkerKiller | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.upstream = (upstream_host, upstream_port)
        self.policy = policy
        self.metrics = metrics
        self.killer = killer
        self._sleep = sleep
        self.injected: list[tuple[str, int, str, int]] = []
        self._frames_total = 0
        self._lock = threading.Lock()
        self._conn_ids = itertools.count()
        self._stopping = False
        self._accept_thread: threading.Thread | None = None
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(64)
        self.host, self.port = self._listener.getsockname()[:2]

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "ChaosProxy":
        """Begin accepting and proxying (idempotent)."""
        if self._accept_thread is None:
            self._accept_thread = threading.Thread(
                target=self._accept_loop, name="repro-chaos-proxy", daemon=True
            )
            self._accept_thread.start()
        return self

    def close(self) -> None:
        """Stop accepting; in-flight pumps die with their sockets."""
        self._stopping = True
        try:
            self._listener.close()
        except OSError:
            pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
            self._accept_thread = None

    def __enter__(self) -> "ChaosProxy":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- bookkeeping ---------------------------------------------------
    def _record(self, kind: str, conn: int, direction: str, frame: int) -> None:
        with self._lock:
            self.injected.append((kind, conn, direction, frame))
        if self.metrics is not None:
            self.metrics.counter(
                "service.chaos.faults_total",
                "chaos faults injected by kind",
                kind=kind,
            ).inc()

    def _count_frame(self) -> int:
        with self._lock:
            self._frames_total += 1
            return self._frames_total

    # -- proxying ------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stopping:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return
            conn_index = next(self._conn_ids)
            threading.Thread(
                target=self._handle, args=(conn, conn_index), daemon=True
            ).start()

    def _handle(self, conn: socket.socket, conn_index: int) -> None:
        p = self.policy
        if p.refuse > 0 and p._draw("refuse", conn_index).random() < p.refuse:
            self._record("refuse", conn_index, "accept", 0)
            self._close(conn)
            return
        try:
            upstream = socket.create_connection(self.upstream, timeout=10.0)
        except OSError:
            self._close(conn)
            return
        done = threading.Event()
        for src, dst, direction in (
            (conn, upstream, "c2s"),
            (upstream, conn, "s2c"),
        ):
            threading.Thread(
                target=self._pump,
                args=(src, dst, conn_index, direction, done),
                daemon=True,
            ).start()

    def _pump(
        self,
        src: socket.socket,
        dst: socket.socket,
        conn_index: int,
        direction: str,
        done: threading.Event,
    ) -> None:
        """Forward frames one way, injecting faults at frame boundaries."""
        frame_index = 0
        try:
            while not done.is_set():
                header = self._read_exact(src, HEADER.size)
                if header is None:
                    return
                if len(header) < HEADER.size or header[:4] != MAGIC:
                    # Not a wire frame (or a mid-stream desync): forward
                    # what we have and fall back to a dumb byte pipe.
                    dst.sendall(header)
                    self._raw_pipe(src, dst, done)
                    return
                _magic, _version, length = HEADER.unpack(header)
                if length > _PASSTHROUGH_LIMIT:
                    dst.sendall(header)
                    self._raw_pipe(src, dst, done)
                    return
                body = self._read_exact(src, length) if length else b""
                if body is None or len(body) < length:
                    dst.sendall(header + (body or b""))
                    return
                if not self._forward(
                    dst, header, body, conn_index, direction, frame_index
                ):
                    return
                frame_index += 1
                if self.killer is not None:
                    self.killer.on_frame(self._count_frame())
                else:
                    self._count_frame()
        except OSError:
            return
        finally:
            done.set()
            self._close(src)
            self._close(dst)

    def _forward(
        self,
        dst: socket.socket,
        header: bytes,
        body: bytes,
        conn: int,
        direction: str,
        frame: int,
    ) -> bool:
        """Apply fault draws to one frame; False ends the connection."""
        p = self.policy
        if (
            p.disconnect > 0
            and p._draw("disconnect", conn, direction, frame).random()
            < p.disconnect
        ):
            # Drop the connection without forwarding the frame at all —
            # the peer sees a clean close or a reset between frames.
            self._record("disconnect", conn, direction, frame)
            return False
        if (
            p.truncate > 0
            and p._draw("truncate", conn, direction, frame).random() < p.truncate
        ):
            # Forward the header plus a prefix of the body, then hang
            # up mid-frame: the receiver's _read_exact sees a short
            # read and raises TruncatedFrameError.
            draw = p._draw("truncate-cut", conn, direction, frame)
            cut = int(draw.random() * max(1, len(body)))
            self._record("truncate", conn, direction, frame)
            try:
                dst.sendall(header + body[:cut])
            except OSError:
                pass
            return False
        if (
            p.corrupt > 0
            and body
            and p._draw("corrupt", conn, direction, frame).random() < p.corrupt
        ):
            draw = p._draw("corrupt-byte", conn, direction, frame)
            position = int(draw.random() * len(body))
            flip = 1 + int(draw.random() * 255)
            corrupted = bytearray(body)
            corrupted[position] ^= flip
            body = bytes(corrupted)
            self._record("corrupt", conn, direction, frame)
        if (
            p.delay > 0
            and p._draw("delay", conn, direction, frame).random() < p.delay
        ):
            draw = p._draw("delay-ms", conn, direction, frame)
            self._record("delay", conn, direction, frame)
            self._sleep(draw.random() * self.policy.delay_ms / 1000.0)
        dst.sendall(header + body)
        return True

    def _raw_pipe(
        self, src: socket.socket, dst: socket.socket, done: threading.Event
    ) -> None:
        """Fault-free byte forwarding for non-wire traffic."""
        while not done.is_set():
            chunk = src.recv(65536)
            if not chunk:
                return
            dst.sendall(chunk)

    @staticmethod
    def _read_exact(sock: socket.socket, n: int) -> bytes | None:
        """Read ``n`` bytes; None on immediate EOF, short bytes on mid-EOF."""
        chunks: list[bytes] = []
        remaining = n
        while remaining:
            chunk = sock.recv(remaining)
            if not chunk:
                if not chunks:
                    return None
                break
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    @staticmethod
    def _close(sock: socket.socket) -> None:
        try:
            sock.close()
        except OSError:
            pass
