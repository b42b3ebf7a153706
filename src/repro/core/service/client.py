"""Service client: blocking API over a local *or* remote transport.

The explorer and usage modules should not care whether knowledge comes
from one local SQLite file, an in-process sharded service or a server
on another host — §V-C's "local or remote" choice is a URL::

    knowledge+service:///var/lib/repro/store?shards=4&queue=64
    knowledge+tcp://db-node:9477/?pool=4&timeout_ms=30000

Both flavours share one client: :class:`ServiceClient` encodes each
operation's arguments with the :mod:`repro.core.service.ops` codec and
hands the payload to a transport
(:class:`~repro.core.service.ops.LocalTransport` around an embedded
:class:`~repro.core.service.service.KnowledgeService`, or
:class:`~repro.core.service.transport.TcpTransport` speaking
``repro.wire/v1`` to ``repro-serve --listen``), behind the
repository-shaped blocking API (``load`` / ``load_all`` / ``list_ids``
/ ``count`` / ``exists`` / ``save`` / ``save_many`` / ``delete``).  A
remote transport answers with a result payload, which the client
decodes; the in-process transport answers with the service's own
value, so an embedded read returns the fresh objects the shard's
repository built, with no dict round trip.

Failures are absorbed the same way on both paths, under one
deterministic-jitter :class:`~repro.core.resilience.RetryPolicy`:

* an admission-control shed (:class:`~repro.util.errors.
  ServiceOverloadError`) is always retried — it happens before the
  request starts, so a retry can never double-apply;
* a *retryable* transport fault (connection refused/reset, short read,
  timeout — :class:`~repro.util.errors.ServiceTransportError` with
  ``transient=True``) is retried too; the transport marks post-send
  faults on mutating ops non-retryable, and those surface;
* retries are counted per kind under ``service.client.retries_total``
  and every backoff sleep is clamped to the per-request ``timeout_s``
  deadline, so a retrying client can never overshoot its budget.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Sequence
from urllib.parse import parse_qsl

from repro.core.resilience import Deadline, RetryPolicy, retry
from repro.core.service.ops import LocalTransport, decode_result, encode_args
from repro.core.service.service import KnowledgeService
from repro.core.service.shard import KnowledgeShardMap
from repro.core.service.transport import TcpTransport
from repro.util.errors import (
    DeadlineError,
    PersistenceError,
    ServiceError,
    ServiceOverloadError,
    ServiceTransportError,
    WireProtocolError,
)

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.knowledge import Knowledge
    from repro.core.metrics import MetricsRegistry
    from repro.core.persistence.scan import ScanQuery, ScanResult

__all__ = [
    "SERVICE_URL_SCHEME",
    "TCP_URL_SCHEME",
    "is_service_url",
    "is_tcp_url",
    "parse_service_url",
    "parse_tcp_url",
    "open_service",
    "ServiceClient",
]

SERVICE_URL_SCHEME = "knowledge+service"
TCP_URL_SCHEME = "knowledge+tcp"

#: URL query parameters understood by :func:`parse_service_url`
#: (``queue`` is the embedded service's in-flight request cap).
_URL_OPTIONS = ("shards", "queue")

#: URL query parameters understood by :func:`parse_tcp_url`.
_TCP_URL_OPTIONS = ("pool", "timeout_ms", "connect_timeout_ms")


def _has_scheme(target: object, scheme: str) -> bool:
    return (
        isinstance(target, str)
        and "://" in target
        and target.partition("://")[0] == scheme
    )


def is_service_url(target: object) -> bool:
    """Whether ``target`` is a ``knowledge+service://`` URL."""
    return _has_scheme(target, SERVICE_URL_SCHEME)


def is_tcp_url(target: object) -> bool:
    """Whether ``target`` is a ``knowledge+tcp://`` URL."""
    return _has_scheme(target, TCP_URL_SCHEME)


def parse_service_url(url: str) -> tuple[str, dict[str, int]]:
    """Split a service URL into ``(root_directory, options)``.

    Follows the same path convention as the ``sqlite://`` resolver
    (three slashes mean an absolute path) and validates option names so
    a typo fails loudly instead of being silently ignored.
    """
    scheme, sep, rest = url.partition("://")
    if not sep or scheme != SERVICE_URL_SCHEME:
        raise ServiceError(
            f"not a knowledge-service URL: {url!r} (expected "
            f"{SERVICE_URL_SCHEME}://...)"
        )
    path_part, _, query = rest.partition("?")
    path = path_part.lstrip("/")
    if not path:
        raise ServiceError(f"service URL {url!r} has no store directory")
    head = f"{scheme}://{path_part}"
    root = "/" + path if head.count("/") >= 3 else path
    options: dict[str, int] = {}
    for key, value in parse_qsl(query, keep_blank_values=True):
        if key not in _URL_OPTIONS:
            raise ServiceError(
                f"unknown service URL option {key!r}; known: {list(_URL_OPTIONS)}"
            )
        try:
            options[key] = int(value)
        except ValueError:
            raise ServiceError(
                f"service URL option {key}={value!r} is not an integer"
            ) from None
    return root, options


def parse_tcp_url(url: str) -> tuple[str, int, dict[str, int]]:
    """Split a ``knowledge+tcp://host:port/`` URL into its parts."""
    scheme, sep, rest = url.partition("://")
    if not sep or scheme != TCP_URL_SCHEME:
        raise ServiceError(
            f"not a knowledge-tcp URL: {url!r} (expected {TCP_URL_SCHEME}://host:port/)"
        )
    authority, _, tail = rest.partition("/")
    path, _, query = tail.partition("?")
    if path:
        raise ServiceError(
            f"knowledge-tcp URL {url!r} must not carry a path — the server "
            "chose the store when it started"
        )
    host, colon, port_text = authority.rpartition(":")
    if not colon or not host:
        raise ServiceError(
            f"knowledge-tcp URL {url!r} must name host:port "
            f"(e.g. {TCP_URL_SCHEME}://127.0.0.1:9477/)"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ServiceError(
            f"knowledge-tcp URL port {port_text!r} is not an integer"
        ) from None
    options: dict[str, int] = {}
    for key, value in parse_qsl(query, keep_blank_values=True):
        if key not in _TCP_URL_OPTIONS:
            raise ServiceError(
                f"unknown knowledge-tcp URL option {key!r}; "
                f"known: {list(_TCP_URL_OPTIONS)}"
            )
        try:
            options[key] = int(value)
        except ValueError:
            raise ServiceError(
                f"knowledge-tcp URL option {key}={value!r} is not an integer"
            ) from None
    return host, port, options


def open_service(
    target: str,
    *,
    metrics: "MetricsRegistry | None" = None,
    shards: int | None = None,
    queue: int = 64,
) -> KnowledgeService:
    """Open (or create) an embedded knowledge service from a URL or path.

    URL options override the keyword defaults; an existing store's
    shard count is discovered from its manifest when ``shards`` is
    omitted, and ``queue`` caps the requests in flight.  (Remote
    ``knowledge+tcp://`` URLs have no embedded service — open those
    with :meth:`ServiceClient.open`.)
    """
    options: dict[str, int] = {}
    root = target
    if is_service_url(target):
        root, options = parse_service_url(target)
    shard_map = KnowledgeShardMap(
        root, options.get("shards", shards), metrics=metrics
    )
    return KnowledgeService(
        shard_map,
        queue_size=options.get("queue", queue),
        metrics=metrics,
    )


def _default_retryable(exc: BaseException) -> bool:
    """Overload sheds always; transport faults when marked transient."""
    if isinstance(exc, ServiceOverloadError):
        return True
    return isinstance(exc, ServiceTransportError) and bool(
        getattr(exc, "transient", False)
    )


def _typed(exc: Exception, code: str) -> Exception:
    exc.wire_code = code  # type: ignore[attr-defined]
    return exc


def _server_retry_after(exc: BaseException) -> float | None:
    """Honor a server-supplied ``retry_after`` hint over our own schedule.

    ``quarantine`` and ``crash_loop`` error frames carry the server's
    remaining breaker window as ``retry_after_s`` — retrying sooner is
    guaranteed to bounce off the breaker, and retrying much later wastes
    the request's deadline.  The :func:`~repro.core.resilience.retry`
    deadline clamp still applies on top.
    """
    hint = getattr(exc, "retry_after_s", None)
    if isinstance(hint, (int, float)) and hint > 0:
        return float(hint)
    return None


def _retry_kind(exc: BaseException) -> str:
    if isinstance(exc, ServiceOverloadError):
        return "overload"
    if isinstance(exc, ServiceTransportError):
        return "transport"
    return "other"


class ServiceClient:
    """Blocking facade over a service transport, with backoff.

    Accepts either an embedded :class:`KnowledgeService` (wrapped in a
    :class:`LocalTransport`) or any transport object exposing
    ``call(op, payload, timeout_s=)`` / ``close()``; every transport
    but :class:`LocalTransport` must answer with a result payload.
    ``timeout_s`` is a *per-request deadline*: it bounds each transport
    wait **and** clamps every retry backoff sleep, raising
    :class:`DeadlineError` once the budget is spent.
    """

    def __init__(
        self,
        service: "KnowledgeService | LocalTransport | TcpTransport",
        *,
        retry_policy: RetryPolicy | None = None,
        sleep: Callable[[float], None] = time.sleep,
        timeout_s: float | None = None,
    ) -> None:
        if isinstance(service, KnowledgeService):
            self.transport = LocalTransport(service)
        else:
            self.transport = service  # type: ignore[assignment]
        self.service: "KnowledgeService | None" = getattr(
            self.transport, "service", None
        )
        # Only a remote transport's answer is a result payload to decode.
        self._decode = not isinstance(self.transport, LocalTransport)
        self.metrics = getattr(self.transport, "metrics", None)
        self.retry_policy = retry_policy or RetryPolicy(
            max_attempts=8, base_delay_s=0.005, max_delay_s=0.25,
            salt="service-client", retryable=_default_retryable,
        )
        self.timeout_s = timeout_s
        self._sleep = sleep

    @classmethod
    def open(
        cls,
        target: str,
        *,
        metrics: "MetricsRegistry | None" = None,
        retry_policy: RetryPolicy | None = None,
        timeout_s: float | None = None,
        **service_options: object,
    ) -> "ServiceClient":
        """Open a client from a URL or path — embedded or remote.

        ``knowledge+tcp://host:port/`` dials a running server;
        everything else opens an embedded service in this process.
        """
        if is_tcp_url(target):
            host, port, options = parse_tcp_url(target)
            transport = TcpTransport(
                host, port,
                pool_size=options.get("pool", 4),
                timeout_s=(
                    options["timeout_ms"] / 1000.0
                    if "timeout_ms" in options else 30.0
                ),
                connect_timeout_s=(
                    options["connect_timeout_ms"] / 1000.0
                    if "connect_timeout_ms" in options else 5.0
                ),
                metrics=metrics,
            )
            return cls(transport, retry_policy=retry_policy, timeout_s=timeout_s)
        return cls(
            open_service(target, metrics=metrics, **service_options),  # type: ignore[arg-type]
            retry_policy=retry_policy,
            timeout_s=timeout_s,
        )

    # ------------------------------------------------------------------
    # encode -> transport (with retry) -> decode a remote answer
    # ------------------------------------------------------------------
    def _count_retry(self, exc: BaseException) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                "service.client.retries_total",
                "client retries by failure kind", kind=_retry_kind(exc),
            ).inc()

    def _call(self, op: str, *args: object) -> object:
        payload = encode_args(op, args)
        deadline = Deadline(self.timeout_s) if self.timeout_s is not None else None

        def attempt() -> object:
            remaining: float | None = None
            if deadline is not None:
                remaining = deadline.remaining_s
                if remaining <= 0:
                    raise DeadlineError(
                        f"service request {op!r} exceeded its "
                        f"{self.timeout_s:g}s client deadline"
                    )
            return self.transport.call(op, payload, timeout_s=remaining)

        def on_retry(attempt_n: int, exc: BaseException, delay_s: float) -> None:
            self._count_retry(exc)

        result = retry(
            attempt, self.retry_policy, sleep=self._sleep, on_retry=on_retry,
            deadline=deadline, metrics=self.metrics, site="service-client",
            delay_override=_server_retry_after,
        )
        if not self._decode:
            return result
        try:
            return decode_result(op, result)  # type: ignore[arg-type]
        except (KeyError, TypeError, ValueError, PersistenceError) as exc:
            # A response that parsed as JSON but no longer has the shape
            # the codec promised (e.g. a corrupted-in-flight frame whose
            # mangled bytes still decode) is a protocol fault, not a
            # caller bug — surface it as the typed wire error.  The
            # knowledge codec reports a mangled object as PersistenceError.
            raise _typed(
                WireProtocolError(
                    f"malformed {op!r} result payload from the service: {exc!r}"
                ),
                "bad-frame",
            ) from exc

    # -- repository-shaped API -----------------------------------------
    def save(self, knowledge: "Knowledge") -> int:
        """Persist one knowledge object; returns its global id."""
        global_id = int(self._call("save", knowledge))  # type: ignore[arg-type]
        knowledge.knowledge_id = global_id
        return global_id

    def save_many(self, objects: Sequence["Knowledge"]) -> list[int]:
        """Persist several objects (one transaction per touched shard)."""
        batch = list(objects)
        ids: list[int] = self._call("save_many", batch)  # type: ignore[assignment]
        for knowledge, global_id in zip(batch, ids):
            knowledge.knowledge_id = global_id
        return ids

    def load(self, knowledge_id: int) -> "Knowledge":
        """Load one knowledge object by global id."""
        return self._call("load", knowledge_id)  # type: ignore[return-value]

    def load_all(self, benchmark: str | None = None) -> "list[Knowledge]":
        """Load every stored knowledge object."""
        return self._call("load_all", benchmark)  # type: ignore[return-value]

    def fetch_many(self, ids: Sequence[int]) -> "list[Knowledge]":
        """Batched load of several objects (one round-trip per shard)."""
        return self._call("fetch_many", [int(i) for i in ids])  # type: ignore[return-value]

    def list_ids(self, benchmark: str | None = None) -> list[int]:
        """All global knowledge ids, optionally filtered by benchmark."""
        return self._call("list_ids", benchmark)  # type: ignore[return-value]

    def find_ids_by_parameter(self, key: str, value: str) -> list[int]:
        """Global ids whose ``parameters[key] == value``."""
        return self._call("find_by_parameter", key, value)  # type: ignore[return-value]

    def count(self, benchmark: str | None = None) -> int:
        """Number of stored knowledge objects (COUNT fast path)."""
        return self._call("count", benchmark)  # type: ignore[return-value]

    def exists(self, knowledge_id: int) -> bool:
        """Whether a global knowledge id is present."""
        return self._call("exists", knowledge_id)  # type: ignore[return-value]

    def delete(self, knowledge_id: int) -> None:
        """Delete one knowledge object by global id."""
        self._call("delete", knowledge_id)

    def scan(self, query: "ScanQuery") -> "ScanResult":
        """Run a columnar aggregate scan across every shard.

        Only mergeable partial aggregate states cross the transport —
        per shard-group worker on the TCP path, merged by the router
        and finalized here — so a fleet-wide percentile table costs a
        few KiB of state on the wire instead of every knowledge object.
        Same results as ``KnowledgeRepository.scan`` on the same rows,
        with the same ``source``: every shard took the evaluation path
        :func:`~repro.core.persistence.scan.summary_eligible` picks.
        """
        from repro.core.persistence.scan import finalize_partials, summary_eligible

        partials = self._call("scan", query)
        source = "summary-table" if summary_eligible(query) else "base-tables"
        return finalize_partials(query, partials, source=source)  # type: ignore[arg-type]

    # -- service-level introspection -----------------------------------
    def stats(self) -> dict[str, object]:
        """Operational stats of the backing service (local or remote)."""
        return self._call("stats")  # type: ignore[return-value]

    def ping(self) -> bool:
        """Round-trip liveness probe (True, or a typed error raised)."""
        self._call("ping")
        return True

    def health(self) -> dict[str, object]:
        """Per-worker liveness and supervision state.

        Against a ``repro-serve`` server: status, per-worker pid,
        breaker state, shards owned, respawn count and last heal time.
        Against an embedded service: a minimal healthy stub.
        """
        return self._call("health")  # type: ignore[return-value]

    @property
    def server_info(self) -> dict[str, object]:
        """What the transport negotiated on connect (empty if unknown)."""
        return dict(getattr(self.transport, "server_info", {}) or {})

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Close the transport (and an embedded service's shards)."""
        self.transport.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
