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
request per channel, and is answered by the same serving loop as the
port (:func:`~repro.core.service.wire.serve_frames`), so a framing
fault gets the same code on both hops (``version-mismatch``,
``frame-too-large`` or ``bad-frame``, then a close).  The channel
thread that reads a request runs it (``KnowledgeService.execute``),
and the service's in-flight cap is the channel count, so the front
end's channel pool is the admission control.  The worker answers
*every* other failure — malformed payload, unknown op, wedged shard —
with a typed error frame and keeps serving the channel; nothing a peer
sends can kill the process.  EOF on all channels (the parent closed
them: graceful drain) flushes the shards and exits 0.
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
from repro.core.service.wire import PROTOCOL, fragment_result, serve_frames

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


def serve_channel(sock: socket.socket, dispatcher: ServiceDispatcher) -> None:
    """Answer ``repro.wire/v1`` requests on one channel until EOF.

    The front end's serving loop (:func:`~repro.core.service.wire.
    serve_frames`) with the worker's own respond function: every
    per-request failure becomes a typed error frame, and only a closed
    or protocol-violating channel ends the loop (and then only this
    channel — the worker process itself keeps serving its siblings).
    """

    def respond(op: str, args: dict[str, object]) -> dict[str, object] | bytes:
        if op == "hello":
            return _hello_result(dispatcher.service)
        result = dispatcher.call(op, args)
        if op == "fetch_many":
            # The fragment layout lets the front end reorder the objects
            # without decoding them.
            return fragment_result(result["objects"])  # type: ignore[arg-type]
        return result

    serve_frames(sock, respond, stop=lambda: False)


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
