"""Shard-group worker process: ``python -m repro.core.service.worker``.

The networked knowledge server (:mod:`repro.core.service.server`) does
not touch SQLite itself — it routes.  Each *worker process* owns a
disjoint group of shards and runs an embedded
:class:`~repro.core.service.service.KnowledgeService` over them:
per-shard breaker quarantine lives here as per-worker state, and
SQLite writes to different shard groups
no longer contend on one GIL.

The parent hands the worker one or more ``socketpair`` channel file
descriptors on the command line (``--fds``); each channel speaks the
same ``repro.wire/v1`` frames as the public TCP port, one in-flight
request per channel.  The channel thread that reads a request runs it
(``KnowledgeService.execute``), and the service's in-flight cap is the
channel count, so the front end's channel pool is the admission
control.  The worker answers *every* failure — malformed payload,
unknown op, wedged shard — with a typed error frame and keeps serving
the channel; nothing a peer sends can kill the process.  EOF on all
channels (the parent closed them: graceful drain) flushes the shards
and exits 0.
"""

from __future__ import annotations

import argparse
import os
import signal
import socket
import sys
import threading

from repro.core.metrics import MetricsRegistry
from repro.core.service.ops import ServiceDispatcher
from repro.core.service.service import KnowledgeService
from repro.core.service.shard import KnowledgeShardMap
from repro.core.service.wire import (
    MAX_FRAME_BYTES,
    PROTOCOL,
    TruncatedFrameError,
    WireProtocolError,
    encode_body,
    error_body,
    fragment_result,
    ok_reply,
    read_frame,
    write_frame,
)

__all__ = ["serve_channel", "main"]


def _hello_result(service: KnowledgeService) -> dict[str, object]:
    return {
        "protocol": PROTOCOL,
        "transport": "worker",
        "shards": service.shard_map.num_shards,
        "owned_shards": list(service.owned_shards),
        # The supervisor/health op reports the pid the *worker* claims,
        # which catches a handle pointing at a stale process.
        "pid": os.getpid(),
    }


def serve_channel(
    sock: socket.socket,
    dispatcher: ServiceDispatcher,
    *,
    max_frame: int = MAX_FRAME_BYTES,
) -> None:
    """Answer ``repro.wire/v1`` requests on one channel until EOF.

    Every per-request failure becomes a typed error frame; only a dead
    or protocol-violating channel ends the loop (and then only this
    channel — the worker process itself keeps serving its siblings).
    """
    while True:
        try:
            request = read_frame(sock, max_frame=max_frame)
        except TruncatedFrameError:
            return  # peer died mid-frame; nothing sane to answer
        except WireProtocolError as exc:
            # Corrupt framing: after this frame the stream offset is
            # unknowable, so answer once (best effort) and hang up.
            try:
                write_frame(sock, {"id": None, "ok": False, "error": error_body(exc)})
            except OSError:
                pass
            return
        except OSError:
            return
        if request is None:
            return  # clean EOF: the parent is draining us
        request_id = request.get("id")
        op = str(request.get("op", ""))
        args = request.get("args")
        try:
            if op == "hello":
                result: dict[str, object] = _hello_result(dispatcher.service)
            else:
                payload = args if isinstance(args, dict) else {}
                result = dispatcher.call(op, payload)
            # fetch_many answers in the fragment layout, so the front end
            # can reorder the objects without decoding them.
            encoded = (
                fragment_result(result["objects"])  # type: ignore[arg-type]
                if op == "fetch_many" else encode_body(result)
            )
        except Exception as exc:  # noqa: BLE001 - typed error frame, never die
            response: dict[str, object] | bytes = {
                "id": request_id, "ok": False, "error": error_body(exc),
            }
        else:
            response = ok_reply(request_id, encoded)
        try:
            write_frame(sock, response, max_frame=max_frame)
        except (OSError, WireProtocolError):
            return


def main(argv: list[str] | None = None) -> int:
    """Entry point for one shard-group worker process."""
    parser = argparse.ArgumentParser(
        prog="repro-service-worker",
        description="shard-group worker for the networked knowledge service",
    )
    parser.add_argument("--store", required=True, help="knowledge store root")
    parser.add_argument(
        "--shards", required=True,
        help="comma-separated shard indices this worker owns (e.g. 0,2)",
    )
    parser.add_argument(
        "--fds", required=True,
        help="comma-separated channel socket file descriptors",
    )
    parser.add_argument(
        "--max-frame", type=int, default=MAX_FRAME_BYTES, help="frame body cap (bytes)"
    )
    options = parser.parse_args(argv)

    # The parent coordinates shutdown by closing the channels; a Ctrl-C
    # aimed at the server's process group must not kill workers first.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)

    owned = [int(i) for i in options.shards.split(",") if i != ""]
    fds = [int(fd) for fd in options.fds.split(",") if fd != ""]
    channels = [socket.socket(fileno=fd) for fd in fds]

    metrics = MetricsRegistry()
    shard_map = KnowledgeShardMap(options.store, metrics=metrics)
    service = KnowledgeService(
        shard_map, queue_size=max(1, len(channels)), metrics=metrics,
        owned_shards=owned,
    )
    dispatcher = ServiceDispatcher(service)
    threads = [
        threading.Thread(
            target=serve_channel,
            args=(channel, dispatcher),
            kwargs={"max_frame": options.max_frame},
            name=f"worker-channel-{fd}",
        )
        for fd, channel in zip(fds, channels)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for channel in channels:
        try:
            channel.close()
        except OSError:
            pass
    service.close()  # close every shard
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
