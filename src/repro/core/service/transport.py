"""The one ``repro.wire/v1`` request path, and the client's TCP transport.

:class:`WireRequester` is the requesting side of both hops of
``knowledge+tcp://``: client → front end (:class:`TcpTransport`) and
front end → shard-group worker (:class:`~repro.core.service.server.
WorkerHandle`).  ``send`` gates on the peer's circuit breaker (a typed
``quarantine`` error with a ``retry_after`` hint while it is open),
takes a socket and writes ``{"id", "op", "args"}``; ``receive`` reads
the reply, checks its ``id``, settles the breaker, gives the socket
back and re-raises a typed error frame as its registered exception
class; ``call`` is the two in a row.  A subclass says only how it gets
a socket and what it counts.

Faults are typed.  Socket errors, timeouts, a close instead of an
answer and a mid-frame disconnect drop the socket, count against the
breaker and raise :class:`~repro.util.errors.ServiceTransportError`.
The retry rule: a fault before a socket was taken (breaker gate, dial,
pool checkout) is retryable; after that, a fault is retryable only for
a read-only op, because a mutating op (``save``/``save_many``/
``delete``) may have been applied and a retry could double-apply.  A
reply that is not a frame, or answers another ``id``, is a
:class:`~repro.util.errors.WireProtocolError`: never retryable, the
stream is out of step.

:class:`TcpTransport` gives :class:`~repro.core.service.client.
ServiceClient` the same ``call(op, payload)`` surface as the in-process
:class:`~repro.core.service.ops.LocalTransport` over a bounded pool of
at most ``pool_size`` connections to a ``repro-serve --listen`` server.
Each new connection opens with ``hello`` offering this build's
protocols; a server that speaks none of them answers a typed
``version-mismatch`` error and the dial fails loudly instead of
misparsing frames later.  Dials, frames, bytes and per-op round-trip
latency are counted under the same ``service.transport.*`` family the
server uses, so one report reads both sides.
"""

from __future__ import annotations

import itertools
import socket
import threading
import time
from collections import deque
from typing import TYPE_CHECKING, NamedTuple

from repro.core.resilience import CircuitBreaker
from repro.core.service.ops import MUTATING_OPS
from repro.core.service.wire import (
    PROTOCOL,
    TruncatedFrameError,
    WireProtocolError,
    decode_body,
    encode_body,
    ok_result,
    raise_wire_error,
    read_body,
    with_wire_code,
    write_frame,
)
from repro.util.errors import ConfigurationError, ServiceError, ServiceTransportError

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.core.metrics import MetricsRegistry

__all__ = ["TcpTransport", "WireRequester"]


class _Pending(NamedTuple):
    """One request written to a socket, its reply not yet read."""

    sock: socket.socket
    request_id: int
    op: str
    start: float


class WireRequester:
    """Pooled ``repro.wire/v1`` request/reply to one peer.

    A subclass provides ``_checkout(timeout_s)`` (a socket to write on,
    or a typed error), ``_checkin(sock)`` (the socket served a request
    and can serve the next) and ``_discard(sock)`` (the socket faulted),
    and may count frames and round trips through ``_count_frame`` and
    ``_observe_op``.
    """

    def __init__(
        self, peer: str, breaker: CircuitBreaker, timeout_s: float | None
    ) -> None:
        self.peer = peer
        self.breaker = breaker
        self.timeout_s = timeout_s
        self._ids = itertools.count(1)

    def call(
        self, op: str, payload: dict[str, object], *, timeout_s: float | None = None
    ) -> dict[str, object]:
        """One round trip; raises typed errors (never hangs forever).

        ``timeout_s`` overrides the default per-request timeout.
        """
        return self.receive(self.send(op, payload, timeout_s=timeout_s))  # type: ignore[return-value]

    def send(
        self, op: str, payload: dict[str, object], *, timeout_s: float | None = None
    ) -> _Pending:
        """Take a socket and write one request on it; the reply is read
        by :meth:`receive`, which must follow on every returned pending
        request so the socket goes back to the pool."""
        if not self.breaker.allow():
            exc = ServiceTransportError(
                f"{self.peer} is quarantined by its circuit breaker after "
                "repeated transport faults; backing off",
                retryable=True,
            )
            exc.retry_after_s = self.breaker.retry_after_s
            raise with_wire_code(exc, "quarantine")
        timeout = self.timeout_s if timeout_s is None else timeout_s
        start = time.perf_counter()
        pending, sent = self._write(self._checkout(timeout), op, payload, timeout, start)
        self._count_frame("out", sent)
        return pending

    def receive(
        self, pending: _Pending, *, raw: bool = False
    ) -> dict[str, object] | bytes:
        """Read the reply to one :meth:`send`; raises typed errors.

        ``raw=True`` returns an ok reply's ``result`` as the peer's JSON
        bytes, for a front end that only passes it on.
        """
        reply, received = self._read(pending, raw=raw)
        self._count_frame("in", received)
        self._observe_op(pending.op, time.perf_counter() - pending.start)
        self._checkin(pending.sock)
        self.breaker.record_success()  # the peer answered, typed or not
        if isinstance(reply, bytes):
            return reply
        if reply.get("ok"):
            result = reply.get("result")
            result = result if isinstance(result, dict) else {}
            return encode_body(result) if raw else result
        error = reply.get("error")
        raise_wire_error(error if isinstance(error, dict) else {})
        raise AssertionError("raise_wire_error always raises")  # pragma: no cover

    def _write(
        self,
        sock: socket.socket,
        op: str,
        payload: dict[str, object],
        timeout_s: float | None,
        start: float,
    ) -> tuple[_Pending, int]:
        pending = _Pending(sock, next(self._ids), op, start)
        try:
            sock.settimeout(timeout_s)
            sent = write_frame(sock, {"id": pending.request_id, "op": op, "args": payload})
        except OSError as exc:
            raise self._fault(pending, exc) from exc
        except WireProtocolError:  # over the frame cap: nothing was written
            self._drop(sock)
            raise
        return pending, sent

    def _read(
        self, pending: _Pending, *, raw: bool
    ) -> tuple[dict[str, object] | bytes, int]:
        """The reply to ``pending`` (its ok ``result`` bytes when ``raw``
        and the reply is one) and the frame's size."""
        received = [0]
        try:
            body = read_body(pending.sock, on_bytes=lambda n: received.__setitem__(0, n))
        except (OSError, TruncatedFrameError) as exc:
            raise self._fault(pending, exc) from exc
        except WireProtocolError:
            self._drop(pending.sock)
            raise
        if body is None:
            raise self._fault(pending, "closed the connection without answering")
        result = ok_result(body, pending.request_id) if raw else None
        if result is not None:
            return result, received[0]
        try:
            reply = decode_body(body)
            if reply.get("id") != pending.request_id:
                raise with_wire_code(
                    WireProtocolError(
                        f"{self.peer} answered request {reply.get('id')!r} "
                        f"while {pending.request_id!r} was in flight"
                    ),
                    "bad-frame",
                )
        except WireProtocolError:
            self._drop(pending.sock)
            raise
        return reply, received[0]

    def _drop(self, sock: socket.socket) -> None:
        self.breaker.record_failure()
        self._discard(sock)

    def _fault(self, pending: _Pending, detail: object) -> ServiceTransportError:
        """Drop the socket and build the transport error for one fault."""
        self._drop(pending.sock)
        return ServiceTransportError(
            f"transport fault during {pending.op!r} to {self.peer}: {detail}",
            retryable=pending.op not in MUTATING_OPS,
        )

    def _checkout(self, timeout_s: float | None) -> socket.socket:
        raise NotImplementedError

    def _checkin(self, sock: socket.socket) -> None:
        raise NotImplementedError

    def _discard(self, sock: socket.socket) -> None:
        raise NotImplementedError

    def _count_frame(self, direction: str, nbytes: int) -> None:
        """Count one frame written or read (nothing by default)."""

    def _observe_op(self, op: str, seconds: float) -> None:
        """Observe one round trip (nothing by default)."""


class TcpTransport(WireRequester):
    """Pooled ``repro.wire/v1`` client for one server endpoint."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        pool_size: int = 4,
        timeout_s: float | None = 30.0,
        connect_timeout_s: float = 5.0,
        metrics: "MetricsRegistry | None" = None,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        if pool_size < 1:
            raise ConfigurationError(f"pool_size must be >= 1, got {pool_size}")
        super().__init__(
            f"knowledge server {host}:{port}",
            breaker or CircuitBreaker(
                failure_threshold=3, reset_timeout_s=1.0,
                metrics=metrics, name=f"tcp-{host}:{port}",
            ),
            timeout_s,
        )
        self.host = host
        self.port = int(port)
        self.pool_size = pool_size
        self.connect_timeout_s = connect_timeout_s
        self.metrics = metrics
        self.server_info: dict[str, object] = {}
        self._slots = threading.BoundedSemaphore(pool_size)
        self._idle: "deque[socket.socket]" = deque()
        self._lock = threading.Lock()
        self._metrics_lock = threading.Lock()
        self._closed = False

    #: Bound here, not inherited: profilers patch it in this class's own
    #: ``__dict__``.
    call = WireRequester.call

    # ------------------------------------------------------------------
    # connection pool
    # ------------------------------------------------------------------
    def _checkout(self, timeout_s: float | None) -> socket.socket:
        if self._closed:
            raise ServiceError("tcp transport is closed")
        wait = timeout_s if timeout_s is not None else self.connect_timeout_s * 4
        if not self._slots.acquire(timeout=wait):
            raise ServiceTransportError(
                f"connection pool to {self.host}:{self.port} exhausted "
                f"after {wait:g}s",
                retryable=True,
            )
        with self._lock:
            if self._idle:
                return self._idle.popleft()
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout_s
            )
        except OSError as exc:
            # A failed dial is an endpoint fault: it must settle the
            # breaker (a claimed half-open probe that records neither
            # success nor failure would quarantine the endpoint
            # forever).  Pool exhaustion above is local and does not.
            self.breaker.record_failure()
            self._slots.release()
            raise ServiceTransportError(
                f"cannot connect to knowledge server {self.host}:{self.port}: "
                f"{exc}",
                retryable=True,
            ) from exc
        self._count("service.transport.connections_total",
                    "server connections dialed")
        self._negotiate(sock)
        return sock

    def _negotiate(self, sock: socket.socket) -> None:
        """``hello`` on a new connection; a fault drops it like a request's."""
        pending, _ = self._write(
            sock, "hello", {"protocols": [PROTOCOL]}, self.connect_timeout_s, 0.0
        )
        reply, _ = self._read(pending, raw=False)
        if not reply.get("ok"):  # type: ignore[union-attr]
            self._drop(sock)
            error = reply.get("error")  # type: ignore[union-attr]
            raise_wire_error(error if isinstance(error, dict) else {})
        info = reply.get("result")  # type: ignore[union-attr]
        info = info if isinstance(info, dict) else {}
        if info.get("protocol") != PROTOCOL:
            self._drop(sock)
            raise with_wire_code(
                WireProtocolError(
                    f"server {self.host}:{self.port} negotiated protocol "
                    f"{info.get('protocol')!r}; this client speaks {PROTOCOL}"
                ),
                "version-mismatch",
            )
        self.server_info = info

    def _checkin(self, sock: socket.socket) -> None:
        if self._closed:
            self._discard(sock)
            return
        with self._lock:
            self._idle.append(sock)
        self._slots.release()

    def _discard(self, sock: socket.socket) -> None:
        try:
            sock.close()
        except OSError:
            pass
        self._slots.release()

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
