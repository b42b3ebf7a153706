"""Client-side TCP transport for ``knowledge+tcp://`` URLs.

:class:`TcpTransport` gives :class:`~repro.core.service.client.
ServiceClient` the same ``call(op, payload)`` surface as the in-process
:class:`~repro.core.service.ops.LocalTransport`, but over a bounded
pool of ``repro.wire/v1`` connections to a ``repro-serve --listen``
server, and answers with the result payload for the client to decode:

* **bounded pool** — at most ``pool_size`` concurrent connections;
  idle sockets are reused, a dead one is discarded and redialed.
* **version negotiation** — every new connection opens with ``hello``
  offering this build's protocols; a server that cannot speak any of
  them answers a typed ``version-mismatch`` error and the dial fails
  loudly instead of misparsing frames later.
* **typed transport faults** — connection refused/reset, short reads
  and timeouts raise :class:`~repro.util.errors.ServiceTransportError`.
  Faults *before* the request was written are always retryable; faults
  after a **mutating** op (``save``/``save_many``/``delete``) left this
  process are not — the server may have committed, and retrying could
  double-apply.  Typed error frames re-raise as their registered
  exception classes (an overload shed by a remote worker is still a
  :class:`~repro.util.errors.ServiceOverloadError` here).
* **endpoint breaker** — repeated transport faults trip a circuit
  breaker so a dead server costs one fast typed error, not a connect
  timeout per request.
* **metrics** — dials, frames, bytes and per-op round-trip latency are
  recorded under the same ``service.transport.*`` family the server
  uses, so one report reads both sides.
"""

from __future__ import annotations

import socket
import threading
import time
from collections import deque
from typing import TYPE_CHECKING

from repro.core.resilience import CircuitBreaker
from repro.core.service.ops import MUTATING_OPS
from repro.core.service.wire import (
    MAX_FRAME_BYTES,
    PROTOCOL,
    TruncatedFrameError,
    WireProtocolError,
    raise_wire_error,
    read_frame,
    with_wire_code,
    write_frame,
)
from repro.util.errors import ConfigurationError, ServiceError, ServiceTransportError

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.core.metrics import MetricsRegistry

__all__ = ["TcpTransport"]


class TcpTransport:
    """Pooled ``repro.wire/v1`` client for one server endpoint."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        pool_size: int = 4,
        timeout_s: float | None = 30.0,
        connect_timeout_s: float = 5.0,
        max_frame: int = MAX_FRAME_BYTES,
        metrics: "MetricsRegistry | None" = None,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        if pool_size < 1:
            raise ConfigurationError(f"pool_size must be >= 1, got {pool_size}")
        self.host = host
        self.port = int(port)
        self.pool_size = pool_size
        self.timeout_s = timeout_s
        self.connect_timeout_s = connect_timeout_s
        self.max_frame = max_frame
        self.metrics = metrics
        self.breaker = breaker or CircuitBreaker(
            failure_threshold=3, reset_timeout_s=1.0,
            metrics=metrics, name=f"tcp-{host}:{port}",
        )
        self.server_info: dict[str, object] = {}
        self._slots = threading.BoundedSemaphore(pool_size)
        self._idle: "deque[socket.socket]" = deque()
        self._lock = threading.Lock()
        self._metrics_lock = threading.Lock()
        self._seq = 0
        self._closed = False

    # ------------------------------------------------------------------
    # connection pool
    # ------------------------------------------------------------------
    def _dial(self) -> socket.socket:
        """Open one connection and negotiate the protocol version."""
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout_s
            )
        except OSError as exc:
            raise ServiceTransportError(
                f"cannot connect to knowledge server {self.host}:{self.port}: "
                f"{exc}",
                retryable=True,
            ) from exc
        self._count("service.transport.connections_total",
                    "server connections dialed")
        try:
            write_frame(
                sock,
                {"id": 0, "op": "hello", "args": {"protocols": [PROTOCOL]}},
                max_frame=self.max_frame,
            )
            response = read_frame(sock, max_frame=self.max_frame)
        except (OSError, WireProtocolError) as exc:
            sock.close()
            raise ServiceTransportError(
                f"protocol negotiation with {self.host}:{self.port} failed: {exc}",
                retryable=isinstance(exc, OSError),
            ) from exc
        if response is None:
            sock.close()
            raise ServiceTransportError(
                f"server {self.host}:{self.port} closed the connection "
                "during protocol negotiation",
                retryable=True,
            )
        if not response.get("ok"):
            sock.close()
            error = response.get("error")
            raise_wire_error(error if isinstance(error, dict) else {})
        info = response.get("result")
        info = info if isinstance(info, dict) else {}
        if info.get("protocol") != PROTOCOL:
            sock.close()
            raise with_wire_code(
                WireProtocolError(
                    f"server {self.host}:{self.port} negotiated protocol "
                    f"{info.get('protocol')!r}; this client speaks {PROTOCOL}"
                ),
                "version-mismatch",
            )
        self.server_info = info
        return sock

    def _checkout(self, timeout_s: float | None) -> socket.socket:
        wait = timeout_s if timeout_s is not None else self.connect_timeout_s * 4
        if not self._slots.acquire(timeout=wait):
            raise ServiceTransportError(
                f"connection pool to {self.host}:{self.port} exhausted "
                f"after {wait:g}s",
                retryable=True,
            )
        try:
            with self._lock:
                if self._idle:
                    return self._idle.popleft()
            try:
                return self._dial()
            except BaseException:
                # A failed dial is an endpoint fault: it must settle the
                # breaker (a claimed half-open probe that records neither
                # success nor failure would quarantine the endpoint
                # forever).  Pool exhaustion above is local and does not.
                self.breaker.record_failure()
                raise
        except BaseException:
            self._slots.release()
            raise

    def _checkin(self, sock: socket.socket, *, reusable: bool) -> None:
        if reusable and not self._closed:
            with self._lock:
                self._idle.append(sock)
        else:
            try:
                sock.close()
            except OSError:
                pass
        self._slots.release()

    # ------------------------------------------------------------------
    # requests
    # ------------------------------------------------------------------
    def call(
        self, op: str, payload: dict[str, object], *, timeout_s: float | None = None
    ) -> dict[str, object]:
        """One wire round-trip; raises typed errors (never hangs forever)."""
        if self._closed:
            raise ServiceError("tcp transport is closed")
        if not self.breaker.allow():
            exc = ServiceTransportError(
                f"knowledge server {self.host}:{self.port} is quarantined "
                "by the client's circuit breaker after repeated transport "
                "faults; backing off",
                retryable=True,
            )
            # Same contract as a server-sent quarantine frame: tell the
            # retry loop exactly how long the breaker window has left.
            exc.retry_after_s = self.breaker.retry_after_s
            raise with_wire_code(exc, "quarantine")
        effective = timeout_s if timeout_s is not None else self.timeout_s
        start = time.perf_counter()
        sock = self._checkout(effective)  # transport errors here are pre-send
        with self._lock:
            self._seq += 1
            request_id = self._seq
        sent = False
        try:
            sock.settimeout(effective)
            body = {"id": request_id, "op": op, "args": payload}
            sent_bytes = write_frame(sock, body, max_frame=self.max_frame)
            sent = True
            self._count_frame("out", sent_bytes)
            received = [0]
            response = read_frame(
                sock, max_frame=self.max_frame,
                on_bytes=lambda n: received.__setitem__(0, n),
            )
        except WireProtocolError as exc:
            # The stream is desynchronized or the server sent garbage —
            # the socket is unusable either way.
            self.breaker.record_failure()
            self._checkin(sock, reusable=False)
            if isinstance(exc, TruncatedFrameError):
                raise ServiceTransportError(
                    f"server {self.host}:{self.port} disconnected mid-frame "
                    f"during {op!r}",
                    retryable=op not in MUTATING_OPS,
                ) from exc
            raise
        except OSError as exc:
            self.breaker.record_failure()
            self._checkin(sock, reusable=False)
            raise ServiceTransportError(
                f"transport fault during {op!r} to {self.host}:{self.port}: "
                f"{exc}",
                retryable=(not sent) or op not in MUTATING_OPS,
            ) from exc
        if response is None:
            self.breaker.record_failure()
            self._checkin(sock, reusable=False)
            raise ServiceTransportError(
                f"server {self.host}:{self.port} closed the connection "
                f"instead of answering {op!r}",
                retryable=op not in MUTATING_OPS,
            )
        self._count_frame("in", received[0])
        self._observe_op(op, time.perf_counter() - start)
        if response.get("id") != request_id:
            self.breaker.record_failure()
            self._checkin(sock, reusable=False)
            raise with_wire_code(
                WireProtocolError(
                    f"server answered request {response.get('id')!r} "
                    f"while {request_id!r} was in flight"
                ),
                "bad-frame",
            )
        self._checkin(sock, reusable=True)
        self.breaker.record_success()  # the endpoint answered, typed or not
        if response.get("ok"):
            result = response.get("result")
            return result if isinstance(result, dict) else {}
        error = response.get("error")
        raise_wire_error(error if isinstance(error, dict) else {})
        raise AssertionError("raise_wire_error always raises")  # pragma: no cover

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def _count(self, name: str, help_text: str, **labels: object) -> None:
        if self.metrics is not None:
            with self._metrics_lock:
                self.metrics.counter(name, help_text, **labels).inc()

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
                "wire round-trip time seen by the client",
                wallclock=True, op=op,
            ).observe(seconds)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close every pooled connection (in-flight calls finish first)."""
        self._closed = True
        with self._lock:
            idle = list(self._idle)
            self._idle.clear()
        for sock in idle:
            try:
                sock.close()
            except OSError:
                pass

    def __enter__(self) -> "TcpTransport":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
