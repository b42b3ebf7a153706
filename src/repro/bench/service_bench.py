"""Knowledge-service benchmark: in-process vs ``knowledge+tcp://``.

Drives the same deterministic workload through both transports and
reports per-op latency percentiles plus throughput, so the wire
overhead of the multi-process server is a measured number instead of
folklore.  The report schema is ``repro.bench/v1``::

    {
      "schema": "repro.bench/v1",
      "bench": "service",
      "host": {"cores": ..., "python": ..., "sqlite": ..., "platform": ...},
      "config": {...},
      "modes": {
        "in_process": {"save": {"p50_us": ..., "p99_us": ...,
                                "mean_us": ..., "ops_per_s": ...,
                                "samples": ...}, "load": ..., "fetch_many": ...},
        "tcp": {...}
      },
      "overhead": {"load_p50_ratio": ...},
      "heal": {"time_to_heal_s": ..., "respawns_total": ...}
    }

Latencies are wall-clock microseconds per call; ``fetch_many`` counts
one sample per *batch* call, with ``batch`` ids per call.  The ``heal``
section measures self-healing rather than throughput: after the TCP
workload one shard-group worker is SIGKILL'd and the supervisor's time
to restore full-shard service is clocked wall-to-wall.
"""

from __future__ import annotations

import os
import platform
import sqlite3
import time
from typing import Callable, Sequence

from repro.core.knowledge import Knowledge, KnowledgeResult, KnowledgeSummary
from repro.core.metrics import MetricsRegistry
from repro.core.service.client import ServiceClient
from repro.core.service.server import KnowledgeServer
from repro.core.service.service import KnowledgeService
from repro.core.service.shard import KnowledgeShardMap

__all__ = ["BENCH_SCHEMA", "host_info", "run_service_bench"]

BENCH_SCHEMA = "repro.bench/v1"


def host_info() -> dict[str, object]:
    """The ``host`` block every ``repro.bench/v1`` report carries.

    ``cores`` counts the CPUs this process may run on (its affinity
    mask where the platform has one), which is what bounds a bench.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        cores = os.cpu_count() or 1
    return {
        "cores": cores,
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "platform": platform.platform(),
    }


def _make_knowledge(index: int, benchmark: str = "ior") -> Knowledge:
    """One deterministic knowledge object; ``index`` varies placement."""
    return Knowledge(
        benchmark,
        command="ior -a POSIX -b 16m -t 1m",
        api="POSIX",
        num_nodes=1 + index % 4,
        num_tasks=8,
        parameters={"bench_index": index, "xfersize_bytes": 1 << 20},
        summaries=[
            KnowledgeSummary(
                operation="write", api="POSIX",
                bw_max=520.0 + index, bw_min=500.0 + index, bw_mean=512.0 + index,
                bw_stddev=2.0, ops_max=4200.0, ops_min=4000.0, ops_mean=4096.0,
                ops_stddev=50.0, iterations=2,
                results=[
                    KnowledgeResult(iteration=i, bandwidth_mib=512.0 + index,
                                    iops=4096.0)
                    for i in range(2)
                ],
            )
        ],
        system={"hostname": f"node{index % 8:02d}"},
    )


def _percentile(sorted_samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile over an already-sorted sample list."""
    if not sorted_samples:
        return 0.0
    rank = min(len(sorted_samples) - 1, int(q * (len(sorted_samples) - 1) + 0.5))
    return sorted_samples[rank]


def _timed(calls: int, fn: Callable[[int], object]) -> dict[str, float]:
    """Run ``fn(i)`` ``calls`` times; return the latency digest."""
    samples: list[float] = []
    start = time.perf_counter()
    for i in range(calls):
        t0 = time.perf_counter()
        fn(i)
        samples.append(time.perf_counter() - t0)
    elapsed = time.perf_counter() - start
    samples.sort()
    return {
        "samples": len(samples),
        "p50_us": _percentile(samples, 0.50) * 1e6,
        "p99_us": _percentile(samples, 0.99) * 1e6,
        "mean_us": (sum(samples) / len(samples)) * 1e6 if samples else 0.0,
        "ops_per_s": len(samples) / elapsed if elapsed > 0 else 0.0,
    }


def _bench_client(
    client: ServiceClient, *, objects: int, reads: int, batch: int
) -> dict[str, dict[str, float]]:
    """The workload: N saves, M round-robin loads, M/batch fetch_many."""
    saved: list[Knowledge] = []

    def _save(i: int) -> None:
        k = _make_knowledge(i)
        client.save(k)
        saved.append(k)

    save_stats = _timed(objects, _save)
    ids = [k.knowledge_id for k in saved]
    load_stats = _timed(reads, lambda i: client.load(ids[i % len(ids)]))
    batch_calls = max(1, reads // batch)
    fetch_stats = _timed(
        batch_calls,
        lambda i: client.fetch_many(
            [ids[(i * batch + j) % len(ids)] for j in range(batch)]
        ),
    )
    return {"save": save_stats, "load": load_stats, "fetch_many": fetch_stats}


def run_service_bench(
    root: str,
    *,
    objects: int = 64,
    reads: int = 256,
    batch: int = 16,
    shards: int = 2,
    worker_processes: int = 2,
) -> dict:
    """Benchmark the knowledge service in-process and over TCP.

    ``root`` is a scratch directory; two independent stores are created
    under it (one per mode) so neither mode warms the other's shards.
    """
    config = {
        "objects": objects,
        "reads": reads,
        "batch": batch,
        "shards": shards,
        "worker_processes": worker_processes,
    }
    modes: dict[str, dict] = {}

    shard_map = KnowledgeShardMap(f"{root}/in_process", num_shards=shards)
    service = KnowledgeService(shard_map)
    with ServiceClient(service) as client:
        modes["in_process"] = _bench_client(
            client, objects=objects, reads=reads, batch=batch
        )
    service.close()
    shard_map.close()

    metrics = MetricsRegistry()
    server = KnowledgeServer(
        f"{root}/tcp",
        shards=shards,
        worker_processes=worker_processes,
        metrics=metrics,
        supervisor_poll_s=0.02,
    )
    server.start()
    heal: dict[str, float] = {}
    try:
        url = f"knowledge+tcp://{server.host}:{server.port}/"
        with ServiceClient.open(url) as client:
            modes["tcp"] = _bench_client(
                client, objects=objects, reads=reads, batch=batch
            )
            heal = _measure_heal(server, client, objects=objects)
    finally:
        server.close()

    overhead = {}
    for op in ("save", "load", "fetch_many"):
        local = modes["in_process"][op]["p50_us"]
        remote = modes["tcp"][op]["p50_us"]
        overhead[f"{op}_p50_ratio"] = round(remote / local, 3) if local else 0.0
    return {
        "schema": BENCH_SCHEMA,
        "bench": "service",
        "config": config,
        "modes": modes,
        "overhead": overhead,
        "heal": heal,
    }


def _measure_heal(
    server: KnowledgeServer, client: ServiceClient, *, objects: int,
    deadline_s: float = 30.0,
) -> dict[str, float]:
    """SIGKILL one shard-group worker and time the supervised heal.

    ``time_to_heal_s`` is wall clock from the kill to the first
    ``count`` that again covers every shard (a multi-worker op, so it
    only succeeds once the respawned worker answers).
    """
    from repro.util.errors import ServiceError

    victim = server.workers[0]
    killed_at = time.perf_counter()
    victim.process.kill()
    victim.process.wait()
    deadline = time.perf_counter() + deadline_s
    while True:
        try:
            if client.count() == objects:
                break
        except ServiceError:
            pass
        if time.perf_counter() > deadline:
            return {"time_to_heal_s": -1.0, "respawns_total": 0.0}
        time.sleep(0.005)
    elapsed = time.perf_counter() - killed_at
    respawns = 0.0
    if server.metrics is not None:
        family = server.metrics.snapshot()["counters"].get(
            "service.supervisor.respawns_total", {}
        )
        respawns = sum(r["value"] for r in family.get("series", []))
    return {
        "time_to_heal_s": round(elapsed, 6),
        "respawns_total": respawns,
    }
