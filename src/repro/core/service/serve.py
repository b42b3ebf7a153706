"""``repro-serve`` — run, administer and exercise a knowledge store.

Operator console for the sharded knowledge service, in three modes::

    # embedded administration (no daemon)
    repro-serve /var/lib/repro/store --shards 4
    repro-serve /var/lib/repro/store --ingest runs.json
    repro-serve 'knowledge+service:///var/lib/repro/store?queue=16' --list
    repro-serve /var/lib/repro/store --rebalance 8
    repro-serve /var/lib/repro/store --exercise 200 --metrics-json m.json

    # networked server: shard groups in separate worker processes
    repro-serve /var/lib/repro/store --listen 0.0.0.0:9477 --worker-processes 4

    # remote administration of a running server
    repro-serve 'knowledge+tcp://db-node:9477/' --list
    repro-serve 'knowledge+tcp://db-node:9477/' --ingest runs.json --exercise 200
    repro-serve --health 'knowledge+tcp://db-node:9477/'

``--listen`` promotes the store to a TCP server speaking the versioned
``repro.wire/v1`` protocol; clients reach it through
``knowledge+tcp://host:port/`` URLs.  SIGTERM (or Ctrl-C) drains
gracefully: in-flight requests finish, new ones get typed ``draining``
errors, and every shard-group worker flushes its shards before exit.

A listening server is *supervised* by default: a shard-group worker
that dies or wedges is respawned with the same shard set under a
restart budget (``--crash-loop-threshold`` demotes a flapping group to
permanent quarantine); ``--no-supervise`` restores the PR 6 behavior.
``--chaos SPEC`` puts a seeded fault-injecting proxy in front of the
server (frame corruption, truncation, disconnects, scheduled worker
kills) for reproducible resilience drills, and ``--health URL`` asks a
running server for per-worker pid/breaker/respawn state.

``--exercise`` drives deterministic round-robin read traffic through
the client (same ids, same order every run) — a quick way to check the
store answers before pointing real load at it.
"""

from __future__ import annotations

import argparse
import signal
import sys
from typing import Sequence

from repro.core.knowledge import Knowledge
from repro.core.metrics import MetricsRegistry
from repro.core.persistence.transfer import import_json
from repro.core.service.client import (
    ServiceClient,
    is_service_url,
    is_tcp_url,
    open_service,
    parse_service_url,
)
from repro.core.service.chaos import ChaosProxy, WorkerKiller, parse_chaos_spec
from repro.core.service.server import KnowledgeServer
from repro.util.errors import ReproError, ServiceError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The repro-serve argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Run or administer a sharded knowledge-service store.",
    )
    parser.add_argument(
        "store", nargs="?", default=None,
        help="store root directory, knowledge+service:// URL, or "
             "knowledge+tcp:// URL of a running server "
             "(optional with --health)",
    )
    parser.add_argument(
        "--shards", type=int, default=None,
        help="shard count when creating a new store (default 2; "
             "existing stores are discovered from their manifest)",
    )
    parser.add_argument(
        "--queue", type=int, default=None, metavar="N",
        help="in-flight request cap of an embedded store (default 64); "
             "refused with --listen, which admits one request per worker "
             "channel, and with knowledge+tcp:// URLs",
    )
    parser.add_argument(
        "--listen", default=None, metavar="HOST:PORT",
        help="serve the store over TCP (repro.wire/v1); port 0 picks a free port",
    )
    parser.add_argument(
        "--worker-processes", type=int, default=2, metavar="N",
        help="shard-group worker processes behind --listen (default 2, "
             "capped at the shard count)",
    )
    parser.add_argument(
        "--channels", type=int, default=2, metavar="N",
        help="wire channels per worker process behind --listen (default 2)",
    )
    parser.add_argument(
        "--no-supervise", action="store_true",
        help="disable the worker supervisor behind --listen (a dead "
             "shard-group worker stays quarantined instead of respawning)",
    )
    parser.add_argument(
        "--startup-deadline", type=float, default=15.0, metavar="S",
        help="seconds a (re)spawned worker gets to finish its hello "
             "handshake before it is killed and retried (default 15)",
    )
    parser.add_argument(
        "--crash-loop-threshold", type=int, default=5, metavar="N",
        help="respawn attempts within the crash-loop window before a "
             "flapping shard group is permanently quarantined (default 5)",
    )
    parser.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="put a seeded fault-injecting proxy in front of --listen; "
             "SPEC is comma-separated key=value, e.g. "
             "'seed=7,corrupt=0.01,disconnect=0.005,kill_every=200'",
    )
    parser.add_argument(
        "--health", default=None, metavar="URL",
        help="print per-worker health of a running server "
             "(knowledge+tcp:// URL) and exit 0 iff it is healthy",
    )
    parser.add_argument(
        "--ingest", action="append", default=[], metavar="JSON",
        help="import knowledge from a repro-knowledge JSON file (repeatable)",
    )
    parser.add_argument(
        "--list", action="store_true", help="print the shard manifest and counts"
    )
    parser.add_argument(
        "--rebalance", type=int, default=None, metavar="N",
        help="repartition the store across N shards (store must be idle)",
    )
    parser.add_argument(
        "--exercise", type=int, default=None, metavar="N",
        help="drive N deterministic read requests through the client",
    )
    parser.add_argument(
        "--metrics-json", default=None, metavar="PATH",
        help="write the service metrics snapshot to PATH on exit",
    )
    return parser


def _ingest(client: ServiceClient, paths: list[str]) -> tuple[int, int]:
    saved = skipped = 0
    for path in paths:
        entries = import_json(path)
        knowledge = [k for k in entries if isinstance(k, Knowledge)]
        skipped += len(entries) - len(knowledge)
        if knowledge:
            client.save_many(knowledge)
            saved += len(knowledge)
    return saved, skipped


def _exercise(client: ServiceClient, requests: int) -> None:
    ids = client.list_ids()
    if not ids:
        print("exercise: store is empty, nothing to read")
        return
    for i in range(requests):
        client.load(ids[i % len(ids)])
    print(f"exercise: {requests} read(s) over {len(ids)} object(s)")


def _parse_listen(listen: str) -> tuple[str, int]:
    host, colon, port_text = listen.rpartition(":")
    if not colon or not host:
        raise ServiceError(
            f"--listen wants HOST:PORT, got {listen!r} "
            "(use 127.0.0.1:0 for an ephemeral local port)"
        )
    try:
        return host, int(port_text)
    except ValueError:
        raise ServiceError(f"--listen port {port_text!r} is not an integer") from None


def _run_server(args: argparse.Namespace, metrics: MetricsRegistry) -> int:
    if is_tcp_url(args.store):
        raise ServiceError(
            "--listen serves a local store; point it at a store directory "
            "or knowledge+service:// URL, not a running server's URL"
        )
    root = args.store
    shards = args.shards
    if is_service_url(args.store):
        root, options = parse_service_url(args.store)
        shards = options.get("shards", shards)
    host, port = _parse_listen(args.listen)
    server = KnowledgeServer(
        root, host=host, port=port, shards=shards,
        worker_processes=args.worker_processes,
        channels_per_worker=args.channels,
        metrics=metrics,
        supervise=not args.no_supervise,
        startup_deadline_s=args.startup_deadline,
        crash_loop_threshold=args.crash_loop_threshold,
    )
    proxy = None
    if args.chaos is not None:
        policy = parse_chaos_spec(args.chaos)
        killer = (
            WorkerKiller(server, every_frames=policy.kill_every, metrics=metrics)
            if policy.kill_every > 0 else None
        )
        proxy = ChaosProxy(
            server.host, server.port, policy,
            host=server.host, metrics=metrics, killer=killer,
        ).start()

    def _drain(signum, frame):  # noqa: ARG001 - signal handler signature
        server.initiate_drain()

    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, _drain)
    print(
        f"repro-serve: listening on knowledge+tcp://{server.host}:{server.port}/ "
        f"({server.num_shards} shard(s) in {len(server.workers)} worker "
        "process(es)); SIGTERM drains",
        flush=True,
    )
    if proxy is not None:
        print(
            f"repro-serve: chaos proxy on knowledge+tcp://{proxy.host}:"
            f"{proxy.port}/ (spec {args.chaos!r}) — point clients here",
            flush=True,
        )
    try:
        server.serve_forever()
    finally:
        if proxy is not None:
            proxy.close()
    bad = [code for code in server.worker_returncodes if code != 0]
    print(
        "repro-serve: drained; worker exit codes "
        f"{server.worker_returncodes}",
        flush=True,
    )
    return 1 if bad else 0


def _print_health(url: str, metrics: MetricsRegistry) -> int:
    """Print a running server's per-worker health; exit 0 iff healthy."""
    if not is_tcp_url(url):
        raise ServiceError(
            f"--health wants a knowledge+tcp:// URL of a running server, "
            f"got {url!r}"
        )
    with ServiceClient.open(url, metrics=metrics) as client:
        health = client.health()
    supervised = "supervised" if health.get("supervised") else "unsupervised"
    print(
        f"server {url} is {health.get('status', '?')} "
        f"({health.get('shards', '?')} shard(s), {supervised})"
    )
    for info in health.get("workers", []):  # type: ignore[union-attr]
        heal = info.get("last_heal_s_ago")
        print(
            f"  worker {info.get('worker')}  pid={info.get('pid')}  "
            f"alive={info.get('alive')}  breaker={info.get('breaker')}  "
            f"shards={info.get('shards')}  respawns={info.get('respawns', 0)}"
            + (f"  last_heal={heal:g}s ago" if heal is not None else "")
        )
    return 0 if health.get("status") == "healthy" else 1


def _remote_summary(client: ServiceClient) -> None:
    stats = client.stats()
    rows = stats.get("rows_per_shard", {})
    print(f"server: {client.transport.host}:{client.transport.port} "  # type: ignore[union-attr]
          f"({stats.get('worker_processes', '?')} worker process(es))")
    for index in sorted(rows, key=int):
        print(f"  shard {int(index):>3}  {rows[index]} object(s)")
    total = sum(int(n) for n in rows.values())
    print(f"total: {total} object(s) in {stats['shards']} shard(s)")


def main(argv: Sequence[str] | None = None) -> int:
    """Console entry point."""
    args = build_parser().parse_args(list(sys.argv[1:] if argv is None else argv))
    metrics = MetricsRegistry()
    try:
        if args.health is not None:
            return _print_health(args.health, metrics)
        if args.store is None:
            print("error: a store argument is required unless --health URL "
                  "is used", file=sys.stderr)
            return 2
        if args.chaos is not None and args.listen is None:
            print("error: --chaos only applies to a --listen server",
                  file=sys.stderr)
            return 2
        sizing = {} if args.queue is None else {"queue": args.queue}
        if sizing and (args.listen is not None or is_tcp_url(args.store)):
            print("error: --queue sizes the embedded service's in-flight cap; "
                  "a --listen server or knowledge+tcp:// store has none "
                  "(size a server with --worker-processes and --channels)",
                  file=sys.stderr)
            return 2
        if args.listen is not None:
            return _run_server(args, metrics)
        if is_tcp_url(args.store):
            if args.rebalance is not None:
                print("error: --rebalance needs direct store access, "
                      "not a knowledge+tcp:// URL", file=sys.stderr)
                return 2
            with ServiceClient.open(args.store, metrics=metrics) as client:
                if args.ingest:
                    saved, skipped = _ingest(client, args.ingest)
                    print(f"ingested {saved} knowledge object(s)"
                          + (f" ({skipped} non-benchmark entr(ies) skipped)"
                             if skipped else ""))
                if args.exercise is not None:
                    _exercise(client, args.exercise)
                if args.list or not (args.ingest or args.exercise is not None):
                    _remote_summary(client)
            return 0
        if args.rebalance is not None and is_service_url(args.store):
            print("error: --rebalance takes a plain store directory, not a URL",
                  file=sys.stderr)
            return 2
        service = open_service(
            args.store, metrics=metrics, shards=args.shards, **sizing,
        )
        with ServiceClient(service) as client:
            if args.ingest:
                saved, skipped = _ingest(client, args.ingest)
                print(f"ingested {saved} knowledge object(s)"
                      + (f" ({skipped} non-benchmark entr(ies) skipped)" if skipped else ""))
            if args.rebalance is not None:
                moved = service.shard_map.rebalance(args.rebalance)
                print(f"rebalanced {moved} object(s) across {args.rebalance} shard(s)")
            if args.exercise is not None:
                _exercise(client, args.exercise)
            if args.list or not (
                args.ingest or args.exercise is not None
                or args.rebalance is not None
            ):
                print(f"store: {service.shard_map.root}")
                print(f"key space: {service.shard_map.key_space}")
                counts = service.shard_map.counts()
                for row, n in zip(service.shard_map.manifest(), counts):
                    print(f"  shard {row['shard_index']:>3}  {row['path']:<16} "
                          f"{n} object(s)")
                print(f"total: {sum(counts)} object(s) in "
                      f"{service.shard_map.num_shards} shard(s)")
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        # Parity with repro-cycle: the snapshot is written even when an
        # --exercise/--ingest run fails, so the metrics survive for
        # post-mortem analysis.
        if args.metrics_json:
            try:
                metrics.write_json(args.metrics_json)
                print(f"metrics snapshot written to {args.metrics_json}")
            except OSError as exc:
                print(f"error: cannot write {args.metrics_json}: {exc}",
                      file=sys.stderr)
                return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
