"""Transport-neutral request/response model for the service operations.

The knowledge service's operations (``save``/``load``/``fetch_many``/
``find_by_parameter``/``count``/…) are defined here as *payloads*: a
JSON-safe argument dict on the way in, a JSON-safe result dict on the
way out, with :mod:`repro.core.persistence.transfer` carrying knowledge
objects across.  Arguments take the same path on both transports;
results cross the codec only where there is a wire:

* :class:`LocalTransport` — the ``knowledge+service://`` in-process
  path: the argument payload is decoded (and validated) into a
  :class:`~repro.core.service.service.KnowledgeService` ``execute`` on
  the caller's thread, and the caller gets ``execute``'s value as is.
  A read hands back the fresh objects the shard's repository built.
* the TCP path — payloads travel inside :mod:`repro.core.service.wire`
  frames to a ``repro-serve --listen`` server and on to its shard-group
  worker processes, whose :meth:`ServiceDispatcher.call` encodes each
  result for the client to decode.

So a URL flip from ``knowledge+service://`` to ``knowledge+tcp://``
changes the transport and nothing else — the paper's §V-C "local or
remote" choice.  ``tests/core/test_ops_codec.py`` pins that the result
codec gives back what the service returned, and the parity test in
``tests/core/test_tcp_service.py`` that both transports answer alike.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.core.persistence.scan import ScanQuery
from repro.core.persistence.transfer import knowledge_from_dict, knowledge_to_dict
from repro.core.service.wire import PROTOCOL, WireProtocolError
from repro.util.errors import PersistenceError, ServiceError

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.knowledge import Knowledge
    from repro.core.service.service import KnowledgeService

__all__ = [
    "SERVICE_OPS",
    "MUTATING_OPS",
    "encode_args",
    "decode_args",
    "encode_result",
    "decode_result",
    "ServiceDispatcher",
    "LocalTransport",
]

#: Every operation a transport may carry (``hello`` is negotiated at
#: the connection layer, not dispatched).
SERVICE_OPS = frozenset(
    {
        "save", "save_many", "delete",
        "load", "load_all", "fetch_many", "list_ids",
        "find_by_parameter", "count", "exists", "scan",
        "stats", "ping", "health",
    }
)

#: Operations whose retry after a mid-flight transport fault could
#: double-apply a write (the server may have committed already).
MUTATING_OPS = frozenset({"save", "save_many", "delete"})


def _pack_knowledge(knowledge: "Knowledge") -> dict[str, object]:
    return {"data": knowledge_to_dict(knowledge), "id": knowledge.knowledge_id}


def _unpack_knowledge(obj: dict[str, object]) -> "Knowledge":
    knowledge = knowledge_from_dict(obj["data"])  # type: ignore[arg-type]
    raw_id = obj.get("id")
    knowledge.knowledge_id = int(raw_id) if raw_id is not None else None
    return knowledge


def _check_op(op: str) -> None:
    if op not in SERVICE_OPS:
        raise ServiceError(
            f"unknown service operation {op!r}; known: {sorted(SERVICE_OPS)}"
        )


# ----------------------------------------------------------------------
# argument payloads
# ----------------------------------------------------------------------
def encode_args(op: str, args: Sequence[object]) -> dict[str, object]:
    """Encode one operation's positional arguments as a JSON-safe dict."""
    _check_op(op)
    if op == "save":
        return {"knowledge": _pack_knowledge(args[0])}  # type: ignore[arg-type]
    if op == "save_many":
        return {"objects": [_pack_knowledge(k) for k in args[0]]}  # type: ignore[union-attr]
    if op in ("load", "delete", "exists"):
        return {"id": int(args[0])}  # type: ignore[arg-type]
    if op == "fetch_many":
        return {"ids": [int(i) for i in args[0]]}  # type: ignore[union-attr]
    if op in ("load_all", "list_ids", "count"):
        benchmark = args[0] if args else None
        return {"benchmark": None if benchmark is None else str(benchmark)}
    if op == "find_by_parameter":
        return {"key": str(args[0]), "value": str(args[1])}
    if op == "scan":
        return {"query": args[0].to_payload()}  # type: ignore[attr-defined]
    return {}  # stats / ping


def decode_args(op: str, payload: dict[str, object]) -> tuple:
    """Decode an argument payload back into ``execute``-shaped positionals."""
    _check_op(op)
    if op == "save":
        return (_unpack_knowledge(payload["knowledge"]),)  # type: ignore[arg-type]
    if op == "save_many":
        return ([_unpack_knowledge(o) for o in payload["objects"]],)  # type: ignore[union-attr]
    if op in ("load", "delete", "exists"):
        return (int(payload["id"]),)  # type: ignore[arg-type]
    if op == "fetch_many":
        return ([int(i) for i in payload["ids"]],)  # type: ignore[union-attr]
    if op in ("load_all", "list_ids", "count"):
        benchmark = payload.get("benchmark")
        return (None if benchmark is None else str(benchmark),)
    if op == "find_by_parameter":
        return (str(payload["key"]), str(payload["value"]))
    if op == "scan":
        return (ScanQuery.from_payload(payload["query"]),)  # type: ignore[arg-type]
    return ()  # stats / ping


# ----------------------------------------------------------------------
# result payloads
# ----------------------------------------------------------------------
def encode_result(op: str, result: object) -> dict[str, object]:
    """Encode one operation's return value as a JSON-safe dict."""
    _check_op(op)
    if op == "save":
        return {"id": int(result)}  # type: ignore[arg-type]
    if op in ("save_many", "list_ids", "find_by_parameter"):
        return {"ids": [int(i) for i in result]}  # type: ignore[union-attr]
    if op == "load":
        return {"knowledge": _pack_knowledge(result)}  # type: ignore[arg-type]
    if op in ("load_all", "fetch_many"):
        return {"objects": [_pack_knowledge(k) for k in result]}  # type: ignore[union-attr]
    if op == "count":
        return {"count": int(result)}  # type: ignore[arg-type]
    if op == "exists":
        return {"exists": bool(result)}
    if op == "stats":
        return {"stats": dict(result)}  # type: ignore[arg-type]
    if op == "health":
        return {"health": dict(result)}  # type: ignore[arg-type]
    if op == "scan":
        # Mergeable partial-aggregate states, not finalized values: the
        # router merges worker partials, the client finalizes.
        return {"partials": dict(result)}  # type: ignore[arg-type]
    return {}  # delete / ping


def decode_result(op: str, payload: dict[str, object]) -> object:
    """Decode a result payload back into the blocking-API return value."""
    _check_op(op)
    if op == "save":
        return int(payload["id"])  # type: ignore[arg-type]
    if op in ("save_many", "list_ids", "find_by_parameter"):
        return [int(i) for i in payload["ids"]]  # type: ignore[union-attr]
    if op == "load":
        return _unpack_knowledge(payload["knowledge"])  # type: ignore[arg-type]
    if op in ("load_all", "fetch_many"):
        return [_unpack_knowledge(o) for o in payload["objects"]]  # type: ignore[union-attr]
    if op == "count":
        return int(payload["count"])  # type: ignore[arg-type]
    if op == "exists":
        return bool(payload["exists"])
    if op == "stats":
        return dict(payload["stats"])  # type: ignore[arg-type]
    if op == "health":
        return dict(payload["health"])  # type: ignore[arg-type]
    if op == "scan":
        return dict(payload["partials"])  # type: ignore[arg-type]
    return None  # delete / ping


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------
class ServiceDispatcher:
    """Execute decoded requests against one :class:`KnowledgeService`.

    The single choke point between "payloads from a caller or a peer"
    and the service: argument payloads are validated here, so a
    malformed request becomes a typed ``bad-request`` error instead of
    an arbitrary exception (or a dead worker process).  Every op runs on
    the calling thread through ``service.execute``.
    """

    def __init__(self, service: "KnowledgeService") -> None:
        self.service = service

    def run(self, op: str, payload: dict[str, object]) -> object:
        """Run one operation from its argument payload; returns the
        service's own value (fresh objects for a read)."""
        if op == "ping":
            return None
        if op == "stats":
            return self.service.stats()
        if op == "health":
            # The embedded service has no worker processes or
            # supervisor — healthy as long as it answers at all.
            return {
                "status": "healthy",
                "shards": self.service.shard_map.num_shards,
                "supervised": False,
                "workers": [],
            }
        try:
            args = decode_args(op, payload)
        except ServiceError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError, PersistenceError) as exc:
            # The knowledge codec reports a mangled object (say, a summary
            # missing a field) as PersistenceError; it is still a bad request.
            error = WireProtocolError(
                f"malformed arguments for operation {op!r}: {exc}"
            )
            error.wire_code = "bad-request"  # type: ignore[attr-defined]
            raise error from exc
        return self.service.execute(op, *args)

    def call(self, op: str, payload: dict[str, object]) -> dict[str, object]:
        """Run one operation payload-to-payload (a shard-group worker's
        path); raises typed errors."""
        return encode_result(op, self.run(op, payload))


class LocalTransport:
    """The in-process transport: no socket, no result codec.

    Wraps an embedded :class:`KnowledgeService` behind the transport
    interface (``call``/``close``/``server_info``) so
    :class:`~repro.core.service.client.ServiceClient` serves
    ``knowledge+service://`` and ``knowledge+tcp://`` alike.  ``call``
    takes an argument payload, as a remote transport does, but returns
    the service's value itself, not a result payload.  Exceptions
    propagate natively (no error-frame round trip): the classes and
    ``transient`` flags are identical to what the wire codec would
    reconstruct, with full local detail preserved.

    An op runs to completion on the caller's thread, so ``timeout_s``
    cannot cut it short: the client's deadline is checked before each
    attempt instead.
    """

    def __init__(self, service: "KnowledgeService") -> None:
        self.service = service
        self.dispatcher = ServiceDispatcher(service)
        self.metrics = service.metrics

    @property
    def server_info(self) -> dict[str, object]:
        """What a remote ``hello`` would have negotiated."""
        return {
            "protocol": PROTOCOL,
            "transport": "local",
            "shards": self.service.shard_map.num_shards,
        }

    def call(
        self, op: str, payload: dict[str, object], *, timeout_s: float | None = None
    ) -> object:
        """Run one operation against the embedded service; returns its value."""
        return self.dispatcher.run(op, payload)

    def close(self) -> None:
        """Close the embedded service (and its shards)."""
        self.service.close()
