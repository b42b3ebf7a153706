"""Campaign-drain benchmark: fleet throughput scaling + steal latency.

Answers the two questions the launcher-fleet layer exists for:

* **Does adding launchers add throughput?**  One campaign of ``jobs``
  noop jobs (each holding ``duration_ms`` of real wall-clock, the way
  a launcher waits on cluster-side work) is drained by fleets of 1, 2
  and 4 launcher processes; the report carries jobs/s per fleet size
  and the speedup ratios.  Because the jobs wait rather than compute,
  the scaling holds on a single-core CI host exactly as it would on a
  login node.
* **How fast is a steal?**  A store is seeded with expired-lease
  RUNNING jobs and :meth:`~repro.core.campaign.store.CampaignStore.
  steal` is timed per claim — the covering-index scan plus the
  compare-and-set UPDATE — reported as p50/p99 microseconds.

The report schema is ``repro.bench/v1``::

    {
      "schema": "repro.bench/v1",
      "bench": "campaign",
      "host": {"cores": ..., "python": ..., "sqlite": ..., "platform": ...},
      "knobs": {"jobs": 60, "duration_ms": 200, ...},
      "drain": {"launchers_1": {"seconds": ..., "jobs_per_s": ...}, ...},
      "speedup": {"x2_vs_x1": ..., "x4_vs_x1": ...},
      "steal": {"steals": 64, "p50_us": ..., "p99_us": ...},
      "correctness": {"tokens_unique": true, "all_done": true}
    }
"""

from __future__ import annotations

import json
import sqlite3
import time
from pathlib import Path
from typing import Sequence

from repro.core.campaign.fleet import LauncherFleet
from repro.core.campaign.spec import CampaignSpec
from repro.core.campaign.store import CampaignStore

__all__ = ["BENCH_SCHEMA", "run_campaign_bench"]

BENCH_SCHEMA = "repro.bench/v1"


def _percentile(sorted_samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile over an already-sorted sample list."""
    if not sorted_samples:
        return 0.0
    rank = max(0, min(len(sorted_samples) - 1, round(q * (len(sorted_samples) - 1))))
    return sorted_samples[rank]


def _noop_spec(jobs: int, duration_ms: int) -> CampaignSpec:
    return CampaignSpec(
        name=f"bench-noop-{jobs}",
        benchmark="noop",
        parameters={"idx": ",".join(str(i) for i in range(jobs))},
        fixed={"duration_ms": str(duration_ms)},
    )


def _drain_with_fleet(
    scratch: Path, size: int, *, jobs: int, duration_ms: int, lease_s: float
) -> dict[str, object]:
    store_path = scratch / f"fleet{size}" / "campaign.db"
    knowledge = scratch / f"fleet{size}" / "knowledge.db"
    with CampaignStore(store_path) as store:
        campaign_id = store.submit(_noop_spec(jobs, duration_ms), str(knowledge))
        fleet = LauncherFleet(
            store,
            campaign_id,
            size=size,
            workspace=scratch / f"fleet{size}" / "ws",
            workers_per_launcher=1,  # isolate launcher-count scaling
            lease_s=lease_s,
            poll_s=0.005,
            supervise_interval_s=0.02,
        )
        start = time.perf_counter()
        counts = fleet.run()
        elapsed = time.perf_counter() - start
        all_done = counts["DONE"] == sum(counts.values())
    # Exactly-once witness: every job's idempotency token appears on
    # exactly one knowledge row.
    conn = sqlite3.connect(str(knowledge))
    try:
        tokens = [
            json.loads(row[0]).get("campaign_job")
            for row in conn.execute(
                "SELECT parameters_json FROM performances"
            ).fetchall()
        ]
    finally:
        conn.close()
    return {
        "seconds": round(elapsed, 4),
        "jobs_per_s": round(jobs / elapsed, 2) if elapsed > 0 else 0.0,
        "all_done": all_done,
        "tokens_unique": len(tokens) == jobs and len(set(tokens)) == jobs,
    }


def _steal_latency(scratch: Path, steals: int) -> dict[str, float]:
    store_path = scratch / "steal" / "campaign.db"
    with CampaignStore(store_path) as store:
        campaign_id = store.submit(_noop_spec(steals, 0), str(scratch / "k.db"))
        # Park every job RUNNING under a dead owner with an expired
        # lease, so each timed steal() pays the index scan + CAS claim.
        now = 1000.0
        for _ in range(steals):
            job = store.acquire(campaign_id, "dead-launcher", now, lease_s=1.0)
            assert job is not None
        samples = []
        for i in range(steals):
            t0 = time.perf_counter()
            claimed = store.steal(campaign_id, "thief", now + 10.0)
            samples.append(time.perf_counter() - t0)
            assert claimed is not None, f"steal {i} found nothing to claim"
        samples.sort()
    return {
        "steals": float(steals),
        "p50_us": round(_percentile(samples, 0.50) * 1e6, 1),
        "p99_us": round(_percentile(samples, 0.99) * 1e6, 1),
    }


def run_campaign_bench(
    scratch: str,
    *,
    jobs: int = 60,
    duration_ms: int = 200,
    fleets: Sequence[int] = (1, 2, 4),
    lease_s: float = 5.0,
    steals: int = 64,
) -> dict:
    """Run the campaign-drain benchmark; returns the report dict."""
    scratch_path = Path(scratch)
    drain: dict[str, dict[str, object]] = {}
    for size in fleets:
        drain[f"launchers_{size}"] = _drain_with_fleet(
            scratch_path, size, jobs=jobs, duration_ms=duration_ms, lease_s=lease_s
        )
    base = float(drain[f"launchers_{fleets[0]}"]["jobs_per_s"]) or 1e-9
    speedup = {
        f"x{size}_vs_x{fleets[0]}": round(
            float(drain[f"launchers_{size}"]["jobs_per_s"]) / base, 2
        )
        for size in fleets[1:]
    }
    steal = _steal_latency(scratch_path, steals)
    return {
        "schema": BENCH_SCHEMA,
        "bench": "campaign",
        "knobs": {
            "jobs": jobs,
            "duration_ms": duration_ms,
            "fleets": list(fleets),
            "lease_s": lease_s,
            "steals": steals,
        },
        "drain": drain,
        "speedup": speedup,
        "steal": steal,
        "correctness": {
            "tokens_unique": all(d["tokens_unique"] for d in drain.values()),
            "all_done": all(d["all_done"] for d in drain.values()),
        },
    }
