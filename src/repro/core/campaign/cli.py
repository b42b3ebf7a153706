"""``repro-campaign`` — submit, run, resume and inspect campaigns.

The operator console for the campaign orchestrator::

    repro-campaign campaigns.db --submit sweep.toml --db knowledge.db
    repro-campaign campaigns.db --run 1 --workers 4
    repro-campaign campaigns.db --status
    repro-campaign campaigns.db --resume 1            # after a crash
    repro-campaign campaigns.db --cancel 1
    repro-campaign campaigns.db --run 1 --metrics-json m.json

The first positional argument is the campaign store (a SQLite file
holding the job DAG); ``--db`` at submit time records the knowledge
backend URL (a path, ``sqlite://`` URL, ``knowledge+service://`` URL,
or a ``knowledge+tcp://`` URL naming a running ``repro-serve --listen``
server) with the campaign, so ``--run``/``--resume`` need no further
configuration.  ``--resume`` differs from ``--run`` in one way only:
RUNNING jobs left behind by a dead launcher are reclaimed immediately
instead of waiting for their lease to expire.

Fleet mode (``--run ID --fleet N``) drains the campaign with N
*competing launcher processes* instead of one in-process launcher:
each steals expired leases from dead peers, optionally serves one
cluster partition (``--partitions``), and sizes its thread pool
elastically (``--min-workers``).  ``--watch`` renders a live status
view (per-launcher throughput, stolen leases, queue depth) from the
store's launcher scoreboard.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Sequence

from repro.core.campaign.fleet import LauncherFleet
from repro.core.campaign.launcher import Launcher
from repro.core.campaign.spec import load_campaign_file
from repro.core.campaign.store import JOB_STATES, CampaignStore
from repro.core.metrics import MetricsRegistry
from repro.core.resilience import CircuitBreaker, RetryPolicy
from repro.core.service.chaos import WorkerKiller
from repro.util.errors import ReproError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The repro-campaign argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-campaign",
        description="Run resumable benchmark campaigns over the knowledge cycle.",
    )
    parser.add_argument("store", help="campaign store (SQLite file path)")
    actions = parser.add_mutually_exclusive_group(required=True)
    actions.add_argument(
        "--submit", metavar="TOML", help="expand a campaign file into the job DAG"
    )
    actions.add_argument(
        "--status", action="store_true", help="print per-state job counts"
    )
    actions.add_argument(
        "--run", type=int, metavar="ID", help="drain campaign ID to completion"
    )
    actions.add_argument(
        "--resume", type=int, metavar="ID",
        help="like --run, but reclaim a dead launcher's RUNNING jobs first",
    )
    actions.add_argument(
        "--cancel", type=int, metavar="ID", help="cancel campaign ID's queued jobs"
    )
    parser.add_argument(
        "--db", default=":memory:",
        help="knowledge backend URL recorded at --submit time "
             "(path, sqlite://, knowledge+service:// or knowledge+tcp:// URL)",
    )
    parser.add_argument(
        "--max-attempts", type=int, default=None, metavar="N",
        help="override the campaign file's per-job retry budget",
    )
    parser.add_argument("--workers", type=int, default=2, help="launcher worker threads")
    parser.add_argument("--seed", type=int, default=42, help="campaign testbed seed")
    parser.add_argument(
        "--workspace", default="campaign_run", help="JUBE workspace directory"
    )
    parser.add_argument(
        "--retries", type=int, default=2,
        help="per-phase retries on transient errors (default: 2)",
    )
    parser.add_argument(
        "--fleet", type=int, default=None, metavar="N",
        help="drain with N competing launcher processes instead of one "
             "in-process launcher (with --run/--resume)",
    )
    parser.add_argument(
        "--watch", action="store_true",
        help="with --fleet: print a live per-launcher status view",
    )
    parser.add_argument(
        "--partitions", default=None, metavar="A,B,...",
        help="with --fleet: cluster partitions assigned round-robin to "
             "launchers (jobs route by their placement key)",
    )
    parser.add_argument(
        "--min-workers", type=int, default=None, metavar="N",
        help="with --fleet: enable elastic pools between N and --workers "
             "threads per launcher",
    )
    parser.add_argument(
        "--lease", type=float, default=60.0, metavar="SECONDS",
        help="job lease duration; expired leases are stolen by peers "
             "(default: 60)",
    )
    parser.add_argument(
        "--chaos-kill-every", type=int, default=None, metavar="JOBS",
        help="with --fleet: SIGKILL a launcher each time JOBS more jobs "
             "reach DONE (soak fault injection keyed to progress, not time)",
    )
    parser.add_argument(
        "--metrics-json", default=None, metavar="PATH",
        help="write the campaign metrics snapshot to PATH on exit",
    )
    return parser


def _print_status(store: CampaignStore) -> None:
    campaigns = store.campaigns()
    if not campaigns:
        print("no campaigns submitted")
        return
    for row in campaigns:
        counts = store.counts(int(row["id"]))
        summary = ", ".join(f"{counts[s]} {s}" for s in JOB_STATES if counts[s])
        flag = " (cancelled)" if row["cancelled"] else ""
        print(
            f"campaign {row['id']}: {row['name']} [{row['benchmark']}] "
            f"-> {row['backend_url']}{flag}"
        )
        print(f"  jobs: {summary or 'none'}")
        for job in store.jobs(int(row["id"])):
            lease = f" lease={job.lease_owner}" if job.lease_owner else ""
            error = f" error={job.error}" if job.error else ""
            ids = f" ids={list(job.knowledge_ids)}" if job.knowledge_ids else ""
            print(
                f"    {job.name:<10} {job.state:<10} "
                f"attempts={job.attempts}/{job.max_attempts}{lease}{ids}{error}"
            )


def main(argv: Sequence[str] | None = None) -> int:
    """Console entry point."""
    args = build_parser().parse_args(list(sys.argv[1:] if argv is None else argv))
    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    if args.retries < 0:
        print("error: --retries must be >= 0", file=sys.stderr)
        return 2
    if args.fleet is not None:
        if args.fleet < 1:
            print("error: --fleet must be >= 1", file=sys.stderr)
            return 2
        if args.run is None and args.resume is None:
            print("error: --fleet requires --run or --resume", file=sys.stderr)
            return 2
    metrics = MetricsRegistry() if args.metrics_json else None
    exit_code = 0
    try:
        with CampaignStore(args.store, metrics=metrics) as store:
            if args.submit:
                spec = load_campaign_file(args.submit)
                if args.max_attempts is not None:
                    spec.max_attempts = args.max_attempts
                campaign_id = store.submit(spec, args.db)
                counts = store.counts(campaign_id)
                total = sum(counts.values())
                print(
                    f"submitted campaign {campaign_id} ({spec.name}): "
                    f"{total} job(s), {counts['READY']} ready"
                )
            elif args.status:
                _print_status(store)
            elif args.cancel is not None:
                cancelled = store.cancel(args.cancel)
                print(f"cancelled {cancelled} queued job(s) of campaign {args.cancel}")
            elif args.fleet is not None:
                campaign_id = args.run if args.run is not None else args.resume
                if args.resume is not None:
                    # Claim every lease (now = inf) before any launcher is
                    # live; the fleet's own launchers then resolve the
                    # claimed jobs and re-run them.
                    store.reclaim(campaign_id, "fleet-resume", math.inf)
                fleet = LauncherFleet(
                    store,
                    campaign_id,
                    size=args.fleet,
                    workspace=args.workspace,
                    workers_per_launcher=args.workers,
                    min_workers=args.min_workers,
                    seed=args.seed,
                    lease_s=args.lease,
                    retries=args.retries,
                    partitions=(
                        [p for p in args.partitions.split(",") if p]
                        if args.partitions
                        else None
                    ),
                    metrics=metrics,
                    watch=print if args.watch else None,
                )
                if args.chaos_kill_every is not None:
                    fleet.killer = WorkerKiller(
                        fleet,
                        every_frames=args.chaos_kill_every,
                        metrics=metrics,
                        metric_name="fleet.chaos.faults_total",
                    )
                counts = fleet.run()
                summary = ", ".join(
                    f"{counts[s]} {s}" for s in JOB_STATES if counts[s]
                )
                print(
                    f"campaign {campaign_id} drained by {args.fleet} "
                    f"launcher(s): {summary} "
                    f"({fleet.respawns} respawn(s), {fleet.crash_loops} "
                    f"crash-loop(s))"
                )
                if counts["FAILED"]:
                    exit_code = 1
            else:
                campaign_id = args.run if args.run is not None else args.resume
                retry_policy = (
                    RetryPolicy(
                        max_attempts=args.retries + 1,
                        base_delay_s=0.05,
                        seed=args.seed,
                    )
                    if args.retries > 0
                    else None
                )
                launcher = Launcher(
                    store,
                    campaign_id,
                    workspace=args.workspace,
                    workers=args.workers,
                    seed=args.seed,
                    metrics=metrics,
                    retry_policy=retry_policy,
                    breaker=CircuitBreaker(metrics=metrics, name="campaign"),
                    lease_s=args.lease,
                )
                counts = launcher.run(resume=args.resume is not None)
                summary = ", ".join(
                    f"{counts[s]} {s}" for s in JOB_STATES if counts[s]
                )
                print(f"campaign {campaign_id} drained: {summary}")
                if counts["FAILED"]:
                    exit_code = 1
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        exit_code = 1
    finally:
        # Same parity rule as repro-cycle/repro-serve: the snapshot is
        # written even when the run failed or crashed mid-campaign.
        if args.metrics_json and metrics is not None:
            try:
                metrics.write_json(args.metrics_json)
            except OSError as exc:
                print(f"error: cannot write {args.metrics_json}: {exc}",
                      file=sys.stderr)
                return 1
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
