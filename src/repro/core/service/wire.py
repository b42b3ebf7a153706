"""``repro.wire/v1`` — the knowledge service's versioned frame codec.

One frame format carries every request and response on every hop of the
networked service: client → server over TCP, and server → shard-group
worker over its ``socketpair`` channels.  A frame is a fixed header
followed by a JSON body::

    +-------+---------+-----------+----------------------+
    | magic | version | body len  | body (UTF-8 JSON)    |
    | 4 B   | 1 B     | 4 B (BE)  | <= max_frame bytes   |
    +-------+---------+-----------+----------------------+

* ``magic`` is ``b"RPRO"`` — a connection speaking anything else is
  rejected on the first frame instead of being misparsed.
* ``version`` is the wire-protocol version (currently 1).  A peer
  seeing a version it does not speak answers with a typed
  ``version-mismatch`` error frame (in *its* version) and closes.
* ``body len`` is the byte length of the JSON body, capped at
  ``max_frame`` so a hostile or corrupt length prefix cannot make a
  worker allocate unbounded memory (:class:`FrameTooLargeError`).

Request bodies are ``{"id", "op", "args"}``; responses are
``{"id", "ok": true, "result"}`` or ``{"id", "ok": false, "error":
{"code", "message", "retryable"}}``.  Error frames are *typed*: the
code names an exception class on the registry below, so a
:class:`~repro.util.errors.ServiceOverloadError` shed by a remote
worker re-raises as exactly that class in the client, with its
``transient`` flag carried across the wire.

This module is also the one place that knows the byte layout of an ok
reply (:func:`ok_reply`/:func:`ok_result`) and of a batch result split
into per-object fragments (:func:`fragment_result`,
:func:`split_fragments`, :func:`join_fragments`): the server's front
end relays worker results as bytes through these helpers instead of
decoding and encoding them again.  It also holds :func:`serve_frames`,
the one read → respond → write loop that answers requests on both
hops, front end and worker.
"""

from __future__ import annotations

import json
import select
import socket
import struct
from typing import Callable

from repro.util.errors import (
    ConfigurationError,
    DeadlineError,
    PersistenceError,
    ServiceError,
    ServiceOverloadError,
    ServiceTransportError,
    WireProtocolError,
    WorkerStartupError,
)

__all__ = [
    "PROTOCOL",
    "WIRE_VERSION",
    "MAGIC",
    "MAX_FRAME_BYTES",
    "HEADER",
    "FrameTooLargeError",
    "TruncatedFrameError",
    "WireVersionError",
    "encode_body",
    "encode_frame",
    "read_body",
    "decode_body",
    "read_frame",
    "write_frame",
    "ok_reply",
    "ok_result",
    "fragment_result",
    "split_fragments",
    "join_fragments",
    "serve_frames",
    "error_body",
    "error_code",
    "with_wire_code",
    "raise_wire_error",
]

#: Protocol name exchanged during ``hello`` negotiation.
PROTOCOL = "repro.wire/v1"

#: Wire-format version stamped into every frame header.
WIRE_VERSION = 1

#: First four bytes of every frame.
MAGIC = b"RPRO"

#: Default cap on a frame body — a corrupt length prefix must not turn
#: into an unbounded allocation inside a worker process.
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: Frame header: magic, version, body length (network byte order).
HEADER = struct.Struct("!4sBI")


class TruncatedFrameError(WireProtocolError):
    """The peer closed the connection in the middle of a frame."""


class FrameTooLargeError(WireProtocolError):
    """A frame body over the frame cap, announced or about to be sent."""


class WireVersionError(WireProtocolError):
    """The peer framed its request in a version this build cannot parse."""

    def __init__(self, message: str, *, version: int) -> None:
        super().__init__(message)
        self.version = version


# ----------------------------------------------------------------------
# typed error codes: exception class <-> wire code
# ----------------------------------------------------------------------
#: Most-specific-first: the first matching class names the frame code.
_ERROR_TO_CODE: tuple[tuple[type[BaseException], str], ...] = (
    (ServiceOverloadError, "overload"),
    (WorkerStartupError, "worker-startup"),
    (ServiceTransportError, "unavailable"),
    (WireProtocolError, "bad-request"),
    (DeadlineError, "deadline"),
    (ConfigurationError, "configuration"),
    (PersistenceError, "persistence"),
    (ServiceError, "service"),
)

#: Decode side of the registry, plus protocol-level codes a server can
#: emit without an exception instance behind them.
_CODE_TO_ERROR: dict[str, type[Exception]] = {
    "overload": ServiceOverloadError,
    "unavailable": ServiceTransportError,
    "quarantine": ServiceTransportError,
    "crash_loop": ServiceTransportError,
    "worker-startup": WorkerStartupError,
    "draining": ServiceTransportError,
    "deadline": DeadlineError,
    "configuration": ConfigurationError,
    "persistence": PersistenceError,
    "service": ServiceError,
    "unknown-op": ServiceError,
    "internal": ServiceError,
    "bad-request": WireProtocolError,
    "bad-frame": WireProtocolError,
    "frame-too-large": WireProtocolError,
    "version-mismatch": WireProtocolError,
}


def error_code(exc: BaseException) -> str:
    """The wire code of one exception (``wire_code`` attribute wins)."""
    explicit = getattr(exc, "wire_code", None)
    if isinstance(explicit, str) and explicit in _CODE_TO_ERROR:
        return explicit
    for cls, code in _ERROR_TO_CODE:
        if isinstance(exc, cls):
            return code
    return "internal"


def with_wire_code(exc: Exception, code: str) -> Exception:
    """Stamp an explicit wire code onto one exception instance."""
    exc.wire_code = code  # type: ignore[attr-defined]
    return exc


def error_body(exc: BaseException) -> dict[str, object]:
    """The typed-error payload of a response frame.

    A positive ``retry_after_s`` attribute on the exception (the
    remaining breaker window of a quarantined worker, the crash-loop
    back-off of a demoted one) travels as a ``retry_after`` hint the
    client's backoff honors in place of its own schedule.
    """
    body: dict[str, object] = {
        "code": error_code(exc),
        "message": str(exc),
        "retryable": bool(getattr(exc, "transient", False)),
    }
    hint = getattr(exc, "retry_after_s", None)
    if isinstance(hint, (int, float)) and hint > 0:
        body["retry_after"] = round(float(hint), 6)
    return body


def raise_wire_error(error: dict[str, object]) -> None:
    """Re-raise a typed error frame as its registered exception class.

    The reconstructed exception carries the frame's ``retryable`` flag
    as its ``transient`` attribute (and any ``retry_after`` hint as
    ``retry_after_s``), so retry predicates and backoff behave the same
    whether the error was raised locally or a network away.
    """
    code = str(error.get("code", "internal"))
    message = str(error.get("message", "remote service error"))
    retryable = bool(error.get("retryable", False))
    cls = _CODE_TO_ERROR.get(code, ServiceError)
    if issubclass(cls, ServiceTransportError):
        exc: Exception = cls(f"[{code}] {message}", retryable=retryable)
    else:
        exc = cls(message)
        exc.transient = retryable  # type: ignore[attr-defined]
    with_wire_code(exc, code)
    hint = error.get("retry_after")
    if isinstance(hint, (int, float)) and hint > 0:
        exc.retry_after_s = float(hint)  # type: ignore[attr-defined]
    raise exc


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def encode_body(body: object) -> bytes:
    """The compact UTF-8 JSON encoding every frame body uses."""
    return json.dumps(body, separators=(",", ":")).encode("utf-8")


def encode_frame(
    body: dict[str, object] | bytes,
    *,
    version: int = WIRE_VERSION,
    max_frame: int = MAX_FRAME_BYTES,
) -> bytes:
    """Serialize one frame (header + JSON body) to bytes.

    A ``bytes`` body is taken as already-encoded JSON (a relayed or
    pre-assembled reply) and only framed.
    """
    payload = body if isinstance(body, bytes) else encode_body(body)
    if len(payload) > max_frame:
        raise FrameTooLargeError(
            f"frame body of {len(payload)} bytes exceeds the "
            f"{max_frame}-byte frame cap; split the request "
            "(e.g. batch fewer objects per save_many/fetch_many)"
        )
    return HEADER.pack(MAGIC, version, len(payload)) + payload


def _read_exact(sock: socket.socket, n: int, *, first: bool) -> bytes | None:
    """Read exactly ``n`` bytes.

    Returns ``None`` on a clean EOF before the first byte (the peer
    closed between frames); raises :class:`TruncatedFrameError` on EOF
    mid-read.  Socket timeouts propagate as ``socket.timeout`` for the
    caller to classify (client: transport fault; server: idle poll).
    """
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if first and not chunks:
                return None
            got = n - remaining
            raise TruncatedFrameError(
                f"peer closed mid-frame ({got}/{n} byte(s) read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_body(
    sock: socket.socket,
    *,
    max_frame: int = MAX_FRAME_BYTES,
    on_bytes=None,
) -> bytes | None:
    """Read one frame's raw JSON body; ``None`` means a clean close.

    The header's magic, version and length cap are checked here — the
    one header parser — and the body is returned undecoded.
    ``on_bytes(n)``, when given, is called with the frame's total size
    once it has been read — the hook the server's ``service.transport``
    byte counters hang off.
    """
    header = _read_exact(sock, HEADER.size, first=True)
    if header is None:
        return None
    magic, version, length = HEADER.unpack(header)
    if magic != MAGIC:
        raise WireProtocolError(
            f"bad frame magic {magic!r} (expected {MAGIC!r}); "
            "is the peer speaking repro.wire at all?"
        )
    if version != WIRE_VERSION:
        raise WireVersionError(
            f"peer framed its request as wire version {version}; "
            f"this build speaks version {WIRE_VERSION} ({PROTOCOL})",
            version=version,
        )
    if length > max_frame:
        raise FrameTooLargeError(
            f"frame announces a {length}-byte body, over the "
            f"{max_frame}-byte cap; refusing to allocate"
        )
    body = _read_exact(sock, length, first=False)
    if on_bytes is not None:
        on_bytes(HEADER.size + length)
    return body


def decode_body(body: bytes) -> dict[str, object]:
    """Decode one frame body, which must be a JSON object."""
    try:
        decoded = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireProtocolError(f"frame body is not valid JSON: {exc}") from exc
    if not isinstance(decoded, dict):
        raise WireProtocolError(
            f"frame body must be a JSON object, got {type(decoded).__name__}"
        )
    return decoded


def read_frame(
    sock: socket.socket,
    *,
    max_frame: int = MAX_FRAME_BYTES,
    on_bytes=None,
) -> dict[str, object] | None:
    """Read and decode one frame; ``None`` means a clean close.

    :func:`read_body` followed by :func:`decode_body`.
    """
    body = read_body(sock, max_frame=max_frame, on_bytes=on_bytes)
    return None if body is None else decode_body(body)


def write_frame(
    sock: socket.socket,
    body: dict[str, object] | bytes,
    *,
    version: int = WIRE_VERSION,
    max_frame: int = MAX_FRAME_BYTES,
) -> int:
    """Encode and send one frame; returns the bytes written."""
    data = encode_frame(body, version=version, max_frame=max_frame)
    sock.sendall(data)
    return len(data)


# ----------------------------------------------------------------------
# ok-reply byte layout: relayed without a decode/encode round trip
# ----------------------------------------------------------------------
def _ok_prefix(request_id: object) -> bytes:
    return b'{"id":' + encode_body(request_id) + b',"ok":true,"result":'


def ok_reply(request_id: object, result: bytes) -> bytes:
    """The body of an ok reply around an already-encoded ``result``.

    Byte-identical to :func:`encode_body` of ``{"id", "ok": true,
    "result"}``, so a front end can answer a client with a worker's
    result bytes under the client's own request id.
    """
    return _ok_prefix(request_id) + result + b"}"


def ok_result(body: bytes, request_id: object) -> bytes | None:
    """The raw ``result`` bytes of an ok reply to ``request_id``.

    ``None`` when the body is anything else — an error frame or a reply
    to another request id — which the caller decodes as a whole.
    """
    prefix = _ok_prefix(request_id)
    if body.startswith(prefix) and body.endswith(b"}"):
        return body[len(prefix):-1]
    return None


# Batch results (``fetch_many``) put one compact-encoded object per
# fragment, separated by ",\n": compact JSON never holds a raw newline,
# so the split is unambiguous whatever the objects' strings contain.
_OBJECTS_HEAD = b'{"objects":['
_OBJECTS_TAIL = b"]}"
_FRAGMENT_SEP = b",\n"


def fragment_result(objects: list[object]) -> bytes:
    """Encode an ``{"objects": [...]}`` result in the fragment layout.

    It decodes to the same payload as :func:`encode_body` (the
    separators are JSON whitespace), but :func:`split_fragments` can cut
    it into per-object byte strings without decoding anything.
    """
    return (
        _OBJECTS_HEAD
        + _FRAGMENT_SEP.join(encode_body(obj) for obj in objects)
        + _OBJECTS_TAIL
    )


def split_fragments(result: bytes) -> list[bytes]:
    """Cut a :func:`fragment_result` into its per-object encodings."""
    if not (result.startswith(_OBJECTS_HEAD) and result.endswith(_OBJECTS_TAIL)):
        raise WireProtocolError("batch result is not in the fragment layout")
    inner = result[len(_OBJECTS_HEAD):-len(_OBJECTS_TAIL)]
    return inner.split(_FRAGMENT_SEP) if inner else []


def join_fragments(fragments: list[bytes]) -> bytes:
    """Join object encodings into a compact ``{"objects": [...]}`` result.

    Byte-identical to :func:`encode_body` of the decoded objects.
    """
    return _OBJECTS_HEAD + b",".join(fragments) + _OBJECTS_TAIL


# ----------------------------------------------------------------------
# the serving loop of both hops: front end and shard-group worker
# ----------------------------------------------------------------------
def serve_frames(
    sock: socket.socket,
    respond: Callable[[str, dict[str, object]], dict[str, object] | bytes],
    *,
    stop: Callable[[], bool],
    on_frame: Callable[[str, int], None] = lambda direction, nbytes: None,
) -> None:
    """Answer request frames on one connection, then close it.

    ``respond(op, args)`` returns the result payload, or its encoded
    JSON bytes to relay as they are; whatever it raises is answered as
    a typed error frame and the connection keeps serving.  A framing
    fault is answered once, under the code its type names
    (``version-mismatch``, ``frame-too-large``, else ``bad-frame``), and
    ends the connection: after a bad frame the stream offset is
    unknowable.  A clean close, a mid-frame disconnect, a failed write,
    or ``stop()`` holding while the connection idles (polled every
    0.25 s) also ends it.  ``on_frame(direction, nbytes)`` sees every
    frame read and written.
    """
    try:
        while True:
            try:
                ready, _, _ = select.select([sock], [], [], 0.25)
            except (OSError, ValueError):
                return
            if not ready:
                if stop():
                    return
                continue
            received = [0]
            try:
                request = read_frame(sock, on_bytes=lambda n: received.__setitem__(0, n))
            except TruncatedFrameError:
                return  # mid-frame disconnect: nothing to answer
            except WireProtocolError as exc:
                # Answered in *our* version: the one thing both ends parse.
                code = (
                    "version-mismatch" if isinstance(exc, WireVersionError)
                    else "frame-too-large" if isinstance(exc, FrameTooLargeError)
                    else "bad-frame"
                )
                error = error_body(with_wire_code(exc, code))
                _send_reply(sock, {"id": None, "ok": False, "error": error}, on_frame)
                return
            except (OSError, ValueError):
                return
            if request is None:
                return  # clean close at a frame boundary
            on_frame("in", received[0])
            if not _send_reply(sock, _answer(request, respond), on_frame):
                return
    finally:
        try:
            sock.close()
        except OSError:
            pass


def _answer(
    request: dict[str, object],
    respond: Callable[[str, dict[str, object]], dict[str, object] | bytes],
) -> dict[str, object] | bytes:
    request_id = request.get("id")
    args = request.get("args")
    try:
        result = respond(str(request.get("op", "")), args if isinstance(args, dict) else {})
        encoded = result if isinstance(result, bytes) else encode_body(result)
    except Exception as exc:  # noqa: BLE001 - typed error frame, never die
        return {"id": request_id, "ok": False, "error": error_body(exc)}
    return ok_reply(request_id, encoded)


def _send_reply(
    sock: socket.socket,
    reply: dict[str, object] | bytes,
    on_frame: Callable[[str, int], None],
) -> bool:
    try:
        sent = write_frame(sock, reply)
    except (OSError, WireProtocolError):
        return False
    on_frame("out", sent)
    return True
