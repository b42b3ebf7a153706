"""Columnar-scan benchmark: row-loop fold vs batched fold vs ``scan()``.

Builds a deterministic 10k-row knowledge store, then answers the same
grouped-aggregate question three ways:

* ``row_loop_fold`` — the seed-era access pattern: one ``load(id)``
  round-trip per row (the N+1 loop ``load_all`` used to hide), folded
  in Python with :func:`~repro.core.persistence.scan.fold_scan`.
* ``fetch_many_fold`` — today's batched ``load_all`` (chunked
  ``fetch_many``), same Python fold.
* ``scan`` — the columnar pushdown: SQL does the grouping and the
  aggregate arithmetic, Python only merges partial states.

The report schema is ``repro.bench/v1``::

    {
      "schema": "repro.bench/v1",
      "bench": "scan",
      "host": {"cores": ..., "python": ..., "sqlite": ..., "platform": ...},
      "config": {...},
      "timings": {"row_loop_fold": {...}, "fetch_many_fold": {...},
                  "scan": {...}},
      "speedup": {"scan_vs_row_loop": ..., "scan_vs_fetch_many": ...},
      "value_identical": {"embedded": true, "tcp": true}
    }

``value_identical`` is the point of the exercise: the scan result must
equal the plain-Python fold — exactly for counts/min/max/percentiles
(same sketch class on both sides), to 1e-9 relative for mean/stddev
(float summation order differs across shards) — both embedded and over
a sharded ``knowledge+tcp://`` server.
"""

from __future__ import annotations

import math
import time
from typing import Callable

from repro.bench.service_bench import BENCH_SCHEMA
from repro.core.knowledge import Knowledge, KnowledgeResult, KnowledgeSummary
from repro.core.persistence.database import KnowledgeDatabase
from repro.core.persistence.repository import KnowledgeRepository
from repro.core.persistence.scan import ScanQuery, ScanResult, fold_scan
from repro.core.service.client import ServiceClient
from repro.core.service.server import KnowledgeServer
from repro.util.rng import stream

__all__ = ["run_scan_bench", "scan_results_match"]

_BENCHMARKS = ("ior", "mdtest", "hacc")
_APIS = ("POSIX", "MPIIO")


def _make_row(index: int, root_seed: int) -> Knowledge:
    """One varied knowledge object; spread over benchmarks/apis/nodes."""
    rng = stream(root_seed, "scan-bench", "row", index)
    benchmark = _BENCHMARKS[index % len(_BENCHMARKS)]
    api = _APIS[index % len(_APIS)]
    bw = 480.0 + 60.0 * rng.random() + (index % 16)
    ops = 3800.0 + 500.0 * rng.random()
    return Knowledge(
        benchmark,
        command=f"{benchmark} -b 16m -t 1m",
        api=api,
        num_nodes=1 << (index % 4),
        num_tasks=8 * (1 + index % 3),
        parameters={"bench_index": index, "xfersize_bytes": 1 << 20},
        summaries=[
            KnowledgeSummary(
                operation=operation, api=api,
                bw_max=bw + 8.0, bw_min=bw - 8.0, bw_mean=bw,
                bw_stddev=2.0 + rng.random(), ops_max=ops + 150.0,
                ops_min=ops - 150.0, ops_mean=ops,
                ops_stddev=40.0, iterations=2,
                results=[
                    KnowledgeResult(iteration=i, bandwidth_mib=bw, iops=ops)
                    for i in range(2)
                ],
            )
            for operation in ("write", "read")
        ],
        system={"hostname": f"node{index % 8:02d}"},
    )


def scan_results_match(
    left: ScanResult, right: ScanResult, *, rel_tol: float = 1e-9
) -> bool:
    """Whether two scan results agree group-by-group, value-by-value.

    Counts, minima, maxima and sketch percentiles must be exactly equal
    (both sides use the same order-independent sketch); means and
    stddevs get ``rel_tol`` slack for cross-shard summation order.
    """
    if len(left.rows) != len(right.rows):
        return False
    for a, b in zip(left.rows, right.rows):
        if a.group != b.group or set(a.values) != set(b.values):
            return False
        for key, va in a.values.items():
            vb = b.values[key]
            if key in ("mean", "stddev"):
                if not math.isclose(va, vb, rel_tol=rel_tol, abs_tol=1e-12):
                    return False
            elif va != vb:
                return False
    return True


def _timed_once(fn: Callable[[], object]) -> tuple[float, object]:
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def _bench_embedded(
    path: str, query: ScanQuery, *, rows: int, seed: int
) -> tuple[dict, dict, bool]:
    """Populate one store, time the three strategies, check identity."""
    with KnowledgeDatabase(path) as db:
        repo = KnowledgeRepository(db)
        ingest_s, _ = _timed_once(
            lambda: [repo.save(_make_row(i, seed)) for i in range(rows)]
        )

        # The seed-era pattern: one SELECT wave per id, then fold.
        def row_loop() -> ScanResult:
            objects = [repo.load(i) for i in repo.list_ids()]
            return fold_scan(query, objects)

        row_loop_s, row_loop_result = _timed_once(row_loop)
        batched_s, batched_result = _timed_once(
            lambda: fold_scan(query, repo.load_all())
        )
        scan_s, scan_result = _timed_once(lambda: repo.scan(query))
        identical = scan_results_match(
            scan_result, row_loop_result
        ) and scan_results_match(scan_result, batched_result)
        timings = {
            "row_loop_fold": {"seconds": round(row_loop_s, 6)},
            "fetch_many_fold": {"seconds": round(batched_s, 6)},
            "scan": {"seconds": round(scan_s, 6),
                     "source": scan_result.source},
        }
        config = {"rows": rows, "ingest_s": round(ingest_s, 6)}
    return timings, config, identical


def _check_tcp(
    root: str, query: ScanQuery, *, rows: int, seed: int,
    shards: int, worker_processes: int,
) -> bool:
    """Value identity over the wire: router-merged scan vs client fold."""
    server = KnowledgeServer(
        root, shards=shards, worker_processes=worker_processes
    )
    server.start()
    try:
        url = f"knowledge+tcp://{server.host}:{server.port}/"
        with ServiceClient.open(url) as client:
            for i in range(rows):
                client.save(_make_row(i, seed))
            scan_result = client.scan(query)
            fold_result = fold_scan(query, client.load_all())
        return scan_results_match(scan_result, fold_result)
    finally:
        server.close()


def run_scan_bench(
    root: str,
    *,
    rows: int = 10_000,
    tcp_rows: int = 512,
    shards: int = 4,
    worker_processes: int = 2,
    seed: int = 20260808,
) -> dict:
    """Benchmark the columnar scan against Python folds.

    ``root`` is a scratch directory; the 10k-row embedded store and the
    sharded TCP store are created under it.  ``tcp_rows`` is smaller
    because the TCP leg only checks value identity, not speed — every
    save is a round-trip there.
    """
    query = ScanQuery(
        metric="bw_mean",
        group_by=("benchmark", "operation"),
        percentiles=(50.0, 95.0),
    )
    timings, embedded_config, embedded_ok = _bench_embedded(
        f"{root}/embedded.db", query, rows=rows, seed=seed
    )
    tcp_ok = _check_tcp(
        f"{root}/tcp", query, rows=tcp_rows, seed=seed,
        shards=shards, worker_processes=worker_processes,
    )
    scan_s = timings["scan"]["seconds"]
    speedup = {
        "scan_vs_row_loop": round(
            timings["row_loop_fold"]["seconds"] / scan_s, 2
        ) if scan_s else 0.0,
        "scan_vs_fetch_many": round(
            timings["fetch_many_fold"]["seconds"] / scan_s, 2
        ) if scan_s else 0.0,
    }
    return {
        "schema": BENCH_SCHEMA,
        "bench": "scan",
        "config": {
            **embedded_config,
            "tcp_rows": tcp_rows,
            "shards": shards,
            "worker_processes": worker_processes,
            "seed": seed,
            "query": query.to_payload(),
        },
        "timings": timings,
        "speedup": speedup,
        "value_identical": {"embedded": embedded_ok, "tcp": tcp_ok},
    }
