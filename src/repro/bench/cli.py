"""``repro-bench`` — time the repro runtime's own hot paths.

Usage::

    repro-bench service --out BENCH_service.json
    repro-bench service --objects 128 --reads 512 --worker-processes 4
    repro-bench scan --out BENCH_scan.json
    repro-bench scan --rows 20000 --shards 8
    repro-bench scenario --out BENCH_scenario.json
    repro-bench scenario --derivations 5000 --traces 96
    repro-bench campaign --out BENCH_campaign.json
    repro-bench campaign --jobs 96 --duration-ms 40

Each sub-benchmark writes a ``repro.bench/v1`` JSON report (and prints
a one-screen summary) whose ``host`` block records the cores, Python,
SQLite and platform it ran on, comparing the code paths it exercises — the
knowledge service in-process against the ``repro.wire/v1`` TCP link,
the columnar ``scan()`` pushdown against row-loop and batched Python
folds, the scenario engine's grammar expansion and period detection,
and campaign drain throughput at 1/2/4 competing launcher processes
plus lease-steal latency — so the cost of a transport or a refactor
lands in a diffable artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from typing import Sequence

from repro.bench.service_bench import host_info, run_service_bench
from repro.util.errors import ReproError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The repro-bench argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-bench", description="Benchmark the repro runtime itself."
    )
    sub = parser.add_subparsers(dest="bench", required=True)
    service = sub.add_parser(
        "service", help="knowledge service: in-process vs knowledge+tcp://"
    )
    service.add_argument(
        "--out", default="BENCH_service.json", metavar="PATH",
        help="where to write the repro.bench/v1 report (default: %(default)s)",
    )
    service.add_argument("--objects", type=int, default=64,
                         help="objects saved per mode (default: %(default)s)")
    service.add_argument("--reads", type=int, default=256,
                         help="single-object loads per mode (default: %(default)s)")
    service.add_argument("--batch", type=int, default=16,
                         help="ids per fetch_many call (default: %(default)s)")
    service.add_argument("--shards", type=int, default=2,
                         help="shards per store (default: %(default)s)")
    service.add_argument("--worker-processes", type=int, default=2,
                         help="TCP server worker processes (default: %(default)s)")
    service.add_argument("--store", default=None, metavar="DIR",
                         help="scratch directory (default: a temp dir)")
    scan = sub.add_parser(
        "scan", help="columnar scan() vs row-loop and fetch_many folds"
    )
    scan.add_argument(
        "--out", default="BENCH_scan.json", metavar="PATH",
        help="where to write the repro.bench/v1 report (default: %(default)s)",
    )
    scan.add_argument("--rows", type=int, default=10_000,
                      help="embedded store size (default: %(default)s)")
    scan.add_argument("--tcp-rows", type=int, default=512,
                      help="TCP value-identity store size (default: %(default)s)")
    scan.add_argument("--shards", type=int, default=4,
                      help="TCP server shards (default: %(default)s)")
    scan.add_argument("--worker-processes", type=int, default=2,
                      help="TCP server worker processes (default: %(default)s)")
    scan.add_argument("--store", default=None, metavar="DIR",
                      help="scratch directory (default: a temp dir)")
    scenario = sub.add_parser(
        "scenario", help="grammar expansion + period-detection throughput"
    )
    scenario.add_argument(
        "--out", default="BENCH_scenario.json", metavar="PATH",
        help="where to write the repro.bench/v1 report (default: %(default)s)",
    )
    scenario.add_argument("--derivations", type=int, default=2000,
                          help="derivations to expand (default: %(default)s)")
    scenario.add_argument("--traces", type=int, default=48,
                          help="throughput traces to diagnose (default: %(default)s)")
    scenario.add_argument("--windows", type=int, default=256,
                          help="windows per trace (default: %(default)s)")
    scenario.add_argument("--seed", type=int, default=42,
                          help="expansion seed (default: %(default)s)")
    scenario.add_argument("--store", default=None, metavar="DIR",
                          help="scratch directory (unused; default: a temp dir)")
    campaign = sub.add_parser(
        "campaign", help="campaign drain at 1/2/4 launchers + steal latency"
    )
    campaign.add_argument(
        "--out", default="BENCH_campaign.json", metavar="PATH",
        help="where to write the repro.bench/v1 report (default: %(default)s)",
    )
    campaign.add_argument("--jobs", type=int, default=60,
                          help="noop jobs per drain (default: %(default)s)")
    campaign.add_argument("--duration-ms", type=int, default=200,
                          help="wall-clock hold per job (default: %(default)s)")
    campaign.add_argument("--steals", type=int, default=64,
                          help="timed steal claims (default: %(default)s)")
    campaign.add_argument("--lease", type=float, default=5.0,
                          help="job lease seconds (default: %(default)s)")
    campaign.add_argument("--store", default=None, metavar="DIR",
                          help="scratch directory (default: a temp dir)")
    return parser


def _print_scan_summary(report: dict) -> None:
    print(f"repro-bench scan ({report['schema']})")
    timings = report["timings"]
    for strategy in ("row_loop_fold", "fetch_many_fold", "scan"):
        row = timings[strategy]
        extra = f"  ({row['source']})" if "source" in row else ""
        print(f"  {strategy:<16} {row['seconds'] * 1000:10.1f} ms{extra}")
    speedup = report["speedup"]
    print(
        f"  scan speedup: {speedup['scan_vs_row_loop']}x vs row loop, "
        f"{speedup['scan_vs_fetch_many']}x vs fetch_many fold"
    )
    identical = report["value_identical"]
    print(
        f"  value identical to fold: embedded={identical['embedded']}, "
        f"tcp={identical['tcp']}"
    )


def _print_scenario_summary(report: dict) -> None:
    print(f"repro-bench scenario ({report['schema']})")
    timings, rates = report["timings"], report["rates"]
    print(
        f"  expand   {timings['expand']['seconds'] * 1000:10.1f} ms  "
        f"({timings['expand']['derivations']} derivations, "
        f"{rates['derivations_per_s']:.0f}/s)"
    )
    print(
        f"  detect   {timings['detect']['seconds'] * 1000:10.1f} ms  "
        f"({timings['detect']['traces']} traces, "
        f"{rates['detect_ms_per_trace']:.2f} ms/trace, "
        f"{rates['windows_per_s']:.0f} windows/s)"
    )
    good = report["correctness"]
    print(
        f"  planted periods recovered: {good['planted_recovered']}/"
        f"{good['planted_total']}, aperiodic quiet: "
        f"{good['aperiodic_quiet']}, deterministic: {good['deterministic']}"
    )


def _print_campaign_summary(report: dict) -> None:
    print(f"repro-bench campaign ({report['schema']})")
    for key, row in sorted(report["drain"].items()):
        size = key.rsplit("_", 1)[1]
        print(
            f"  {size} launcher(s): {row['seconds']:8.2f} s  "
            f"{row['jobs_per_s']:8.2f} jobs/s"
        )
    ratios = ", ".join(f"{k.replace('_', ' ')} {v}x"
                       for k, v in sorted(report["speedup"].items()))
    print(f"  drain speedup: {ratios}")
    steal = report["steal"]
    print(
        f"  steal latency: p50 {steal['p50_us']:.1f} us, "
        f"p99 {steal['p99_us']:.1f} us ({steal['steals']:.0f} steals)"
    )
    good = report["correctness"]
    print(
        f"  exactly-once tokens unique: {good['tokens_unique']}, "
        f"all jobs DONE: {good['all_done']}"
    )


def _print_summary(report: dict) -> None:
    print(f"repro-bench service ({report['schema']})")
    for mode in ("in_process", "tcp"):
        stats = report["modes"][mode]
        print(f"  {mode}:")
        for op in ("save", "load", "fetch_many"):
            row = stats[op]
            print(
                f"    {op:<10} p50 {row['p50_us']:8.1f} us   "
                f"p99 {row['p99_us']:8.1f} us   "
                f"{row['ops_per_s']:8.1f} op/s"
            )
    ratios = ", ".join(
        f"{op} {report['overhead'][f'{op}_p50_ratio']}x"
        for op in ("save", "load", "fetch_many")
    )
    print(f"  tcp/in-process p50 ratio: {ratios}")
    heal = report.get("heal") or {}
    if heal:
        print(
            f"  supervised heal after SIGKILL: "
            f"{heal['time_to_heal_s'] * 1000:.1f} ms "
            f"({heal['respawns_total']:.0f} respawn(s))"
        )


def main(argv: Sequence[str] | None = None) -> int:
    """Console entry point."""
    args = build_parser().parse_args(list(sys.argv[1:] if argv is None else argv))
    if args.bench == "service":
        knobs, summarize = ("objects", "reads", "batch"), _print_summary

        def runner(scratch: str) -> dict:
            return run_service_bench(
                scratch, objects=args.objects, reads=args.reads,
                batch=args.batch, shards=args.shards,
                worker_processes=args.worker_processes,
            )
    elif args.bench == "scan":
        from repro.bench.scan_bench import run_scan_bench

        knobs, summarize = ("rows", "tcp_rows"), _print_scan_summary

        def runner(scratch: str) -> dict:
            return run_scan_bench(
                scratch, rows=args.rows, tcp_rows=args.tcp_rows,
                shards=args.shards,
                worker_processes=args.worker_processes,
            )
    elif args.bench == "scenario":
        from repro.bench.scenario_bench import run_scenario_bench

        knobs, summarize = ("derivations", "traces", "windows"), _print_scenario_summary

        def runner(scratch: str) -> dict:
            return run_scenario_bench(
                scratch, derivations=args.derivations, traces=args.traces,
                windows=args.windows, seed=args.seed,
            )
    else:
        from repro.bench.campaign_bench import run_campaign_bench

        knobs, summarize = ("jobs", "duration_ms", "steals"), _print_campaign_summary

        def runner(scratch: str) -> dict:
            return run_campaign_bench(
                scratch, jobs=args.jobs, duration_ms=args.duration_ms,
                lease_s=args.lease, steals=args.steals,
            )
    for name in knobs:
        if getattr(args, name) < 1:
            print(f"error: --{name.replace('_', '-')} must be >= 1",
                  file=sys.stderr)
            return 2
    try:
        if args.store is not None:
            report = runner(args.store)
        else:
            with tempfile.TemporaryDirectory(prefix="repro-bench-") as scratch:
                report = runner(scratch)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report["host"] = host_info()
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    summarize(report)
    print(f"report written to {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
