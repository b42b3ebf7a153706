#!/usr/bin/env python3
"""Run one workload of the end-to-end benchmark and print its result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cycle-io500 --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` runs the traced pass instead: the same fixed work on two
set-ups, step by step, one untraced and one with span wrappers on every
layer, and reports the per-layer self times and the tracing overhead.  Either way the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The environment, every
check that failed and (traced) the spans go to ``.perfbench/`` in the
checkout; all scratch state lives in temp directories there too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sqlite3
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Knowledge-cycle end-to-end benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    return parser.parse_args(argv)


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` (no subprocess); ``unknown`` outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(args: argparse.Namespace, sizes) -> dict[str, object]:
    import dataclasses

    import numpy
    from workloads import SHARDS, WRITE_SHARE

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sqlite": sqlite3.sqlite_version,
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": {**dataclasses.asdict(sizes), "shards": SHARDS, "write_share": WRITE_SHARE},
    }


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def measure(name: str, seed: int, seconds: float, sizes, scratch: Path):
    """The untraced run: set up several times, one timed window, then checks.

    Every time is scaled to the reference host speed by the probe times
    measured around it (see ``workloads.probe_s``).
    """
    from workloads import PROBE_REFERENCE_S, Tally, check_scans, make_workload, median, probe_s

    setup_times: list[float] = []
    setup_raw: list[float] = []
    warmups: list[list[str]] = []
    workload = None
    tally = Tally()
    try:
        for _ in range(sizes.setups):
            if workload is not None:
                workload.close()
                workload = None
            before = probe_s()
            start = time.perf_counter()
            workload = make_workload(name, seed, sizes, scratch)
            setup_raw.append(time.perf_counter() - start)
            setup_times.append(setup_raw[-1] * 2.0 * PROBE_REFERENCE_S / (before + probe_s()))
            if name != "campaign-tcp":
                warmups.append(workload.warmup.digests)
        workload.window(tally, seconds)
        rss = _peak_rss_mib()
        objects = workload.client.load_all()
        check_scans(workload, objects, tally)
        if name == "campaign-tcp":
            units = workload.jobs_drained()
            workload.check_tokens(objects, tally)
        else:
            units = len(tally.samples["revolution"])
            tally.check(
                all(w == warmups[0] for w in warmups) and bool(warmups[0]),
                "warm-up revolutions of same-seed set-ups differ",
            )
            measured = workload.warmup.digests + tally.digests[:1]
            workload.close()
            workload = make_workload(name, seed, sizes, scratch)
            replay = Tally()
            workload.write_unit(replay, time.sleep)
            tally.check(
                workload.warmup.digests + replay.digests == measured,
                "a same-seed replay gave other digests, revolution by revolution",
            )
    finally:
        if workload is not None:
            workload.close()
    samples = tally.samples
    write_s = sum(samples["write"])
    metrics = {
        "setup_s": (median(setup_times), "s"),
        "work_per_s": (units / write_s, "1/s"),
        "load_p50_us": (median(samples.get("load", [])) * 1e6, "us"),
        "fetch_many_p50_us": (median(samples.get("fetch_many", [])) * 1e6, "us"),
        "scan_summary_p50_ms": (median(samples.get("scan_summary", [])) * 1e3, "ms"),
        "scan_base_p50_ms": (median(samples.get("scan_base", [])) * 1e3, "ms"),
        "peak_rss_mib": (rss, "MiB"),
    }
    raw = tally.raw
    detail = {
        "setup_s_all": setup_times,
        "units": units,
        "sample_counts": {k: len(v) for k, v in samples.items()},
        "load_p99_us": _percentile(samples.get("load", [0.0]), 0.99) * 1e6,
        "host_speed": PROBE_REFERENCE_S * sum(raw["write"]) / write_s,
        "unscaled": {
            "setup_s": median(setup_raw),
            "work_per_s": units / sum(raw["write"]),
            **{f"{kind}_p50_s": median(raw.get(kind, []))
               for kind in ("load", "fetch_many", "scan_summary", "scan_base")},
        },
    }
    return metrics, tally, detail


def traced(name: str, seed: int, sizes, scratch: Path):
    """The traced run: the same fixed work on two set-ups, one of them traced.

    The steps alternate between the untraced and the traced set-up, so
    a host that changes speed slows both alike.  Each set-up has its own
    metrics registry, so both do the same work and only the tracer
    differs.  The wrapper's own cost, measured before every traced step,
    is taken out of each layer's self time and reported as
    ``trace.overhead_s``.
    """
    from tracing import UNATTRIBUTED, Tracer, calibrate, self_times, wrapper_seconds
    from workloads import Tally, check_scans, make_workload, median

    from repro.core.campaign.launcher import Launcher
    from repro.core.metrics import MetricsRegistry

    tally = Tally()
    reference = Tally()
    registry = MetricsRegistry()
    tracer = Tracer()
    calibrations = []
    plain = make_workload(name, seed, sizes, scratch, metrics=MetricsRegistry())
    workload = None
    try:
        workload = make_workload(name, seed, sizes, scratch, metrics=registry)
        poll_wait = tracer.wrap(time.sleep, "campaign.poll_wait", "campaign.poll_wait")
        step = tracer.wrap(workload.fixed_step, "trace.step", UNATTRIBUTED)
        untraced_s = 0.0
        for index in range(workload.fixed_steps):
            start = time.perf_counter()
            plain.fixed_step(index, reference)
            untraced_s += time.perf_counter() - start
            calibrations.append(calibrate())
            tracer.install()
            tracer.attach_threads_of(Launcher, "_worker_loop")
            tracer.attach()
            try:
                step(index, tally, sleep=poll_wait)
            finally:
                tracer.detach()
                tracer.remove()
        for checked, into in ((plain, reference), (workload, tally)):
            objects = checked.client.load_all()
            check_scans(checked, objects, into)
            if name == "campaign-tcp":
                checked.check_tokens(objects, into)
        if name != "campaign-tcp":
            tally.check(
                tally.digests == reference.digests,
                "the traced pass gave other digests than the untraced pass",
            )
    finally:
        plain.close()
        if workload is not None:
            workload.close()
    tally.attempted += reference.attempted
    tally.checks += reference.checks
    tally.failed += reference.failed
    tally.misses += reference.misses

    traced_s = sum(s[6] - s[5] for s in tracer.spans if s[3] == "trace.step")
    calls = tracer.calls()
    costs = (median([c[0] for c in calibrations]), median([c[1] for c in calibrations]))
    # The launcher's own loop, outside its workers' spans, is glue.
    spent = _fold(self_times(tracer.spans, waiting=frozenset({"campaign.drain"})))
    wrapper = _fold(wrapper_seconds(tracer.spans, calls, costs))
    layers = {layer: max(0.0, s - wrapper.get(layer, 0.0)) for layer, s in spent.items()}
    overhead_s = sum(spent.values()) - sum(layers.values())
    snapshot = registry.snapshot()
    jobs = [s[6] - s[5] for s in tracer.spans if s[3] == "campaign.job"]
    metrics = {
        "pfs.namespace.self_s": (layers.get("pfs.namespace", 0.0), "s"),
        "pfs.namespace.calls": (calls.get("pfs.namespace.calls", 0), "count"),
        "pfs.normalize_path.calls": (calls.get("pfs.normalize_path", 0), "count"),
        "pfs.perfmodel.self_s": (layers.get("pfs.perfmodel", 0.0), "s"),
        "pfs.perfmodel.calls": (calls.get("pfs.perfmodel.calls", 0), "count"),
        "iostack.self_s": (layers.get("iostack", 0.0), "s"),
        "iostack.calls": (calls.get("iostack.calls", 0), "count"),
        "benchmarks_io.self_s": (layers.get("benchmarks_io", 0.0), "s"),
        "benchmarks_io.render_s": (layers.get("benchmarks_io.render", 0.0), "s"),
        "jube.self_s": (layers.get("jube", 0.0), "s"),
        "extraction.s": (layers.get("extraction", 0.0), "s"),
        "extraction.objects": (tracer.objects.get("extraction.objects", 0), "count"),
        "persistence.s": (layers.get("persistence", 0.0), "s"),
        "persistence.rows": (calls.get("persistence.save", 0), "count"),
        "analysis.s": (layers.get("analysis", 0.0), "s"),
        "usage.anomaly-detection.s": (layers.get("usage.anomaly-detection", 0.0), "s"),
        "usage.recommendation.s": (layers.get("usage.recommendation", 0.0), "s"),
        "campaign.store.self_s": (layers.get("campaign.store", 0.0), "s"),
        "campaign.store.calls": (calls.get("campaign.store.calls", 0), "count"),
        "campaign.poll_wait_s": (layers.get("campaign.poll_wait", 0.0), "s"),
        "campaign.job_p50_s": (median(jobs), "s"),
        **{
            f"service.client.{op}.s": (layers.get(f"service.client.{op}", 0.0), "s")
            for op in ("save_many", "load", "fetch_many", "scan")
        },
        "service.codec.s": (layers.get("service.codec", 0.0), "s"),
        "service.transport.s": (layers.get("service.transport", 0.0), "s"),
        "service.wire.bytes": (_counter(snapshot, "service.transport.bytes_total"), "bytes"),
        "service.retries": (_counter(snapshot, "service.client.retries_total"), "count"),
        "unattributed.s": (layers.get(UNATTRIBUTED, 0.0), "s"),
        "trace.traced_s": (traced_s, "s"),
        "trace.untraced_s": (untraced_s, "s"),
        "trace.self_sum_s": (sum(layers.values()), "s"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.overhead_ratio": (traced_s / untraced_s, "ratio"),
        "trace.spans": (len(tracer.spans), "count"),
    }
    reported = sum(v for k, (v, unit) in metrics.items() if unit == "s" and _is_self(k))
    detail = {
        "layer_self_s": layers,
        "layer_self_s_with_wrapper": spent,
        "wrapper_s_per_call": {"span": costs[0], "nested": costs[1]},
        "calls": calls,
        "self_sum_s": reported,
        "self_sum_over_untraced": reported / untraced_s,
        "self_sum_matches_traced_s": (
            abs(reported + overhead_s - traced_s) <= 1e-6 * max(1.0, traced_s)
        ),
        "spans": tracer.spans,
    }
    tally.check(
        detail["self_sum_matches_traced_s"],
        f"layer self times sum to {reported} s and the wrapper to {overhead_s} s, "
        f"the traced window is {traced_s} s",
    )
    return metrics, tally, detail


def _fold(seconds: dict[str, float]) -> dict[str, float]:
    """``seconds`` with the ``campaign.drain`` layer counted as unattributed."""
    from tracing import UNATTRIBUTED

    folded = dict(seconds)
    folded[UNATTRIBUTED] = folded.get(UNATTRIBUTED, 0.0) + folded.pop("campaign.drain", 0.0)
    return folded


def _is_self(metric: str) -> bool:
    """Whether a metric is one of the layer self times that sum to the window."""
    return not metric.startswith("trace.") and metric != "campaign.job_p50_s"


def _counter(snapshot: dict, name: str) -> float:
    family = snapshot.get("counters", {}).get(name, {})
    return float(sum(row["value"] for row in family.get("series", [])))


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import SIZES, TINY_SIZES, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {WORKLOADS}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sizes = TINY_SIZES if args.tiny else SIZES
    scratch_root = OUT / "tmp"
    scratch_root.mkdir(parents=True, exist_ok=True)
    # Server workers and every tempfile user stay inside the checkout.
    os.environ["TMPDIR"] = str(scratch_root)
    tempfile.tempdir = str(scratch_root)
    with tempfile.TemporaryDirectory(prefix="run-", dir=scratch_root) as scratch:
        if args.trace:
            metrics, tally, detail = traced(args.workload, args.seed, sizes, Path(scratch))
        else:
            metrics, tally, detail = measure(
                args.workload, args.seed, args.seconds, sizes, Path(scratch)
            )
    env = _environment(args, sizes)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = detail.pop("spans", None)
    record = {
        "environment": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": tally.attempted,
        "failed": tally.failed,
        "checks": tally.checks,
        "failed_ratio": tally.failed / max(1, tally.attempted),
        "misses": tally.misses,
        "detail": detail,
    }
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if spans is not None:
        (OUT / f"spans-{stem}.json").write_text(
            json.dumps(
                {"fields": ["id", "parent", "thread", "name", "layer", "start", "end"],
                 "spans": spans}
            )
        )
    print(json.dumps({"environment": env}))
    for miss in tally.misses[:20]:
        print(f"check failed: {miss}")
    print(
        json.dumps(
            {
                "correct": not tally.misses,
                "attempted": max(1, tally.attempted),
                "failed": tally.failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
