"""Process-local metrics registry + span tracing for the knowledge cycle.

The paper treats the cycle as an *automated, long-running* workflow, so
the cycle's own behaviour must be observable data — exactly the
philosophy Darshan applies to application I/O.  This module provides
the self-profiling substrate:

* :class:`Counter` / :class:`Gauge` / :class:`Histogram` — the three
  instrument kinds, grouped into labelled families by a
  :class:`MetricsRegistry`.  Histogram bucket boundaries are *fixed and
  deterministic* (no adaptive binning), so two runs with the same seed
  produce byte-identical snapshots modulo wall-clock values.
* :class:`Span` — a named timed region.  ``registry.span(...)`` times a
  block and folds it into the ``span.duration_seconds`` histogram; the
  :class:`MetricsTracer` adapter unifies this span model with the
  existing :class:`~repro.iostack.tracing.Tracer` protocol, turning
  every I/O stack event (a micro-span) into op/byte counters.
* :class:`MetricsObserver` — the pipeline bridge: per-phase durations,
  attempts, retries and outcomes as metrics.

Snapshots (:meth:`MetricsRegistry.snapshot`) are plain sorted dicts
with a schema version, rendered by :meth:`MetricsRegistry.to_json` with
sorted keys — stable enough to diff across runs.  Families carrying
wall-clock time are flagged ``wallclock`` so :func:`scrub_wallclock`
can normalise a snapshot for byte-identical comparison; everything else
(retry counts, simulated I/O durations, rows written) is deterministic
under the repository-wide seed contract.
"""

from __future__ import annotations

import json
import threading
import time
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from repro.core.pipeline import CycleContext, Phase, PhaseObserver
from repro.iostack.tracing import Tracer, TraceEvent
from repro.util.errors import ConfigurationError

__all__ = [
    "SCHEMA",
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "Span",
    "MetricsRegistry",
    "MetricsTracer",
    "MetricsObserver",
    "scrub_wallclock",
    "render_metrics_report",
]

#: Snapshot schema identifier; bump on incompatible layout changes.
SCHEMA = "repro.metrics/v1"

#: Fixed deterministic histogram boundaries (seconds-flavoured but
#: unit-agnostic): roughly log-spaced from 1 ms to 60 s.  Fixed bucket
#: edges are what keeps snapshots comparable across runs and versions.
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 60.0,
)


def _label_key(labels: Mapping[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing value (counts, totals)."""

    __slots__ = ("labels", "value")

    def __init__(self, labels: tuple[tuple[str, str], ...]) -> None:
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ConfigurationError(f"counters only go up; got inc({amount})")
        self.value += amount


class Gauge:
    """A value that can go up and down (depths, states)."""

    __slots__ = ("labels", "value")

    def __init__(self, labels: tuple[tuple[str, str], ...]) -> None:
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` to the gauge."""
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount`` from the gauge."""
        self.value -= amount


class Histogram:
    """A distribution over fixed, deterministic bucket boundaries.

    ``bucket_counts[i]`` counts observations ``<= boundaries[i]``
    (non-cumulative); the final slot counts the overflow.  ``count`` and
    ``sum`` track totals exactly like Prometheus histograms.
    """

    __slots__ = ("labels", "boundaries", "bucket_counts", "count", "sum")

    def __init__(
        self,
        labels: tuple[tuple[str, str], ...],
        boundaries: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        bounds = tuple(float(b) for b in boundaries)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ConfigurationError(
                f"histogram boundaries must be strictly increasing, got {boundaries!r}"
            )
        self.labels = labels
        self.boundaries = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Fold one observation into the distribution."""
        self.bucket_counts[bisect_left(self.boundaries, value)] += 1
        self.count += 1
        self.sum += value

    def observe_many(self, values: Sequence[float] | np.ndarray) -> None:
        """Vectorized fold of a batch of observations (one numpy pass)."""
        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            return
        idx = np.searchsorted(self.boundaries, arr, side="left")
        for i, n in zip(*np.unique(idx, return_counts=True)):
            self.bucket_counts[int(i)] += int(n)
        self.count += int(arr.size)
        self.sum += float(arr.sum())


@dataclass(slots=True)
class Span:
    """One named timed region (the tracing unit of the cycle itself).

    A :class:`~repro.iostack.tracing.TraceEvent` is the I/O-stack
    special case of a span — name ``module.op``, duration ``end -
    start`` — which is exactly how :class:`MetricsTracer` folds stack
    events into the same histograms.
    """

    name: str
    labels: dict[str, str] = field(default_factory=dict)
    start_s: float = 0.0
    end_s: float = 0.0

    @property
    def duration_s(self) -> float:
        """Wall time covered by the span."""
        return self.end_s - self.start_s


class _Family:
    """One named metric family: a kind plus its labelled series."""

    __slots__ = ("name", "kind", "help", "wallclock", "boundaries", "series")

    def __init__(self, name, kind, help_text, wallclock, boundaries=None):
        self.name = name
        self.kind = kind
        self.help = help_text
        self.wallclock = wallclock
        self.boundaries = boundaries
        self.series: dict[tuple[tuple[str, str], ...], object] = {}


_NAME_OK = set("abcdefghijklmnopqrstuvwxyz0123456789._")


class MetricsRegistry:
    """Process-local registry of counters, gauges, histograms and spans.

    Instruments are created lazily on first use and identified by
    ``(family name, sorted labels)``; re-requesting the same series
    returns the same object.  ``clock`` is injectable (tests run spans
    in zero wall time).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._families: dict[str, _Family] = {}
        self._clock = clock
        # Guards family/series *creation* so concurrent service workers
        # can never overwrite each other's instruments.  Increments on
        # an existing instrument stay lock-free.
        self._create_lock = threading.Lock()
        self.spans_finished = 0

    # -- instrument factories ------------------------------------------
    def _family(self, name, kind, help_text, wallclock, boundaries=None) -> _Family:
        if not name or set(name) - _NAME_OK:
            raise ConfigurationError(
                f"metric name must be lowercase dotted ([a-z0-9._]), got {name!r}"
            )
        family = self._families.get(name)
        if family is None:
            family = _Family(name, kind, help_text, wallclock, boundaries)
            self._families[name] = family
        elif family.kind != kind:
            raise ConfigurationError(
                f"metric {name!r} is a {family.kind}, not a {kind}"
            )
        return family

    def counter(self, name: str, help: str = "", /, *, wallclock: bool = False,
                **labels: object) -> Counter:
        """Get or create the counter series ``name{labels}``."""
        key = _label_key({k: str(v) for k, v in labels.items()})
        with self._create_lock:
            family = self._family(name, "counter", help, wallclock)
            series = family.series.get(key)
            if series is None:
                series = family.series[key] = Counter(key)
        return series  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "", /, *, wallclock: bool = False,
              **labels: object) -> Gauge:
        """Get or create the gauge series ``name{labels}``."""
        key = _label_key({k: str(v) for k, v in labels.items()})
        with self._create_lock:
            family = self._family(name, "gauge", help, wallclock)
            series = family.series.get(key)
            if series is None:
                series = family.series[key] = Gauge(key)
        return series  # type: ignore[return-value]

    def histogram(self, name: str, help: str = "", /, *,
                  buckets: Sequence[float] = DEFAULT_BUCKETS,
                  wallclock: bool = False, **labels: object) -> Histogram:
        """Get or create the histogram series ``name{labels}``."""
        key = _label_key({k: str(v) for k, v in labels.items()})
        with self._create_lock:
            family = self._family(name, "histogram", help, wallclock, tuple(buckets))
            series = family.series.get(key)
            if series is None:
                series = family.series[key] = Histogram(key, family.boundaries)
        return series  # type: ignore[return-value]

    # -- span tracing --------------------------------------------------
    @contextmanager
    def span(self, name: str, **labels: object) -> Iterator[Span]:
        """Time a block as a :class:`Span`.

        The finished span lands in the ``span.duration_seconds``
        histogram and the ``span.calls_total`` counter, labelled with
        the span name plus any extra labels.
        """
        str_labels = {k: str(v) for k, v in labels.items()}
        span = Span(name=name, labels=str_labels, start_s=self._clock())
        try:
            yield span
        finally:
            span.end_s = self._clock()
            self.record_span(span)

    def record_span(self, span: Span) -> None:
        """Fold one finished span into the span metrics."""
        self.counter("span.calls_total", "finished spans", span=span.name,
                     **span.labels).inc()
        self.histogram("span.duration_seconds", "span wall time", wallclock=True,
                       span=span.name, **span.labels).observe(span.duration_s)
        self.spans_finished += 1

    # -- snapshots -----------------------------------------------------
    def snapshot(self) -> dict:
        """A plain, sorted, schema-versioned dict of everything observed.

        Deterministic layout: families sorted by name, series by label
        tuples.  Values in families flagged ``wallclock`` are the only
        run-to-run varying parts (see :func:`scrub_wallclock`).
        """
        out: dict = {"schema": SCHEMA, "counters": {}, "gauges": {}, "histograms": {}}
        for name in sorted(self._families):
            family = self._families[name]
            series_out = []
            for key in sorted(family.series):
                inst = family.series[key]
                row: dict = {"labels": dict(key)}
                if family.kind == "histogram":
                    row["buckets"] = [
                        [b, c] for b, c in zip(inst.boundaries, inst.bucket_counts)
                    ] + [["+inf", inst.bucket_counts[-1]]]
                    row["count"] = inst.count
                    row["sum"] = inst.sum
                else:
                    row["value"] = inst.value
                series_out.append(row)
            out[family.kind + "s"][name] = {
                "help": family.help,
                "wallclock": family.wallclock,
                "series": series_out,
            }
        return out

    def to_json(self) -> str:
        """The snapshot as stable JSON (sorted keys, trailing newline)."""
        return json.dumps(self.snapshot(), sort_keys=True, indent=2) + "\n"

    def write_json(self, path: str | Path) -> None:
        """Write the JSON snapshot to ``path``."""
        Path(path).write_text(self.to_json(), encoding="utf-8")


def scrub_wallclock(snapshot: dict) -> dict:
    """A deep copy of ``snapshot`` with wall-clock values normalised.

    Families flagged ``wallclock: true`` get their values, sums and
    bucket counts zeroed (observation *counts* stay: how many times a
    phase ran is deterministic; how long it took is not).  Two runs of
    the same seed must produce byte-identical JSON after scrubbing —
    the acceptance check CI enforces.
    """
    out = json.loads(json.dumps(snapshot))
    for kind in ("counters", "gauges", "histograms"):
        for family in out.get(kind, {}).values():
            if not family.get("wallclock"):
                continue
            for row in family["series"]:
                if "value" in row:
                    row["value"] = 0.0
                if "sum" in row:
                    row["sum"] = 0.0
                if "buckets" in row:
                    row["buckets"] = [[b, 0] for b, _ in row["buckets"]]
    return out


# ----------------------------------------------------------------------
# Tracer bridge: I/O stack events -> metrics
# ----------------------------------------------------------------------
class MetricsTracer(Tracer):
    """Adapter unifying the :class:`Tracer` protocol with the registry.

    Every stack event is a micro-span: op and byte counters per
    ``(module, op)`` plus a duration histogram over the *simulated*
    clock (deterministic, so these survive :func:`scrub_wallclock`).
    ``record_batch`` is vectorized — one numpy pass per batch, matching
    the hot-path contract of the counter-oriented tracers.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry

    def record(self, event: TraceEvent) -> None:
        """Fold one stack event into the I/O metric families."""
        reg = self.registry
        reg.counter("io.ops_total", "I/O operations observed",
                    module=event.module, op=event.op).inc(event.count)
        reg.counter("io.bytes_total", "bytes moved",
                    module=event.module, op=event.op).inc(event.length * event.count)
        reg.histogram("io.op_duration_seconds", "simulated op durations",
                      module=event.module, op=event.op).observe(event.duration)

    def record_batch(self, module, op, rank, path, offset0, nbytes,
                     durations, t0) -> None:
        """Vectorized fold of N identical back-to-back ops."""
        arr = np.asarray(durations, dtype=float)
        n = int(arr.size)
        if n == 0:
            return
        reg = self.registry
        reg.counter("io.ops_total", "I/O operations observed",
                    module=module, op=op).inc(n)
        reg.counter("io.bytes_total", "bytes moved",
                    module=module, op=op).inc(n * nbytes)
        reg.histogram("io.op_duration_seconds", "simulated op durations",
                      module=module, op=op).observe_many(arr)


# ----------------------------------------------------------------------
# Pipeline bridge: phase transitions -> metrics
# ----------------------------------------------------------------------
class MetricsObserver(PhaseObserver):
    """Pipeline observer that turns phase transitions into metrics.

    Per phase: run counts by outcome (``ok`` / ``error``), retry counts,
    deterministic backoff-sleep totals, artifact counts, and a
    wall-clock duration histogram.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry

    def on_phase_retry(self, phase: Phase, context: CycleContext, attempt: int,
                       error: BaseException, delay_s: float) -> None:
        """Count one retry and its (deterministic) backoff sleep."""
        self.registry.counter("pipeline.phase_retries_total",
                              "phase attempts that were retried",
                              phase=phase.name).inc()
        self.registry.counter("pipeline.retry_backoff_seconds_total",
                              "deterministic backoff slept before retries",
                              phase=phase.name).inc(delay_s)

    def on_phase_finish(self, phase: Phase, context: CycleContext,
                        duration_s: float, artifacts: int) -> None:
        """Count one completed phase run with its products."""
        self.registry.counter("pipeline.phase_runs_total", "phase executions",
                              phase=phase.name, outcome="ok").inc()
        self.registry.counter("pipeline.phase_artifacts_total",
                              "artifacts produced by phases",
                              phase=phase.name).inc(artifacts)
        self.registry.histogram("pipeline.phase_duration_seconds",
                                "phase wall time", wallclock=True,
                                phase=phase.name).observe(duration_s)

    def on_phase_error(self, phase: Phase, context: CycleContext,
                       duration_s: float, error: BaseException) -> None:
        """Count one exhausted phase failure."""
        self.registry.counter("pipeline.phase_runs_total", "phase executions",
                              phase=phase.name, outcome="error").inc()
        self.registry.histogram("pipeline.phase_duration_seconds",
                                "phase wall time", wallclock=True,
                                phase=phase.name).observe(duration_s)


# ----------------------------------------------------------------------
# text report (the knowledge-explorer `--metrics` view)
# ----------------------------------------------------------------------
def _fmt_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    return "{" + ", ".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"


def _fmt_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def _counter_total(snapshot: Mapping, name: str, **match: str) -> float:
    """Sum a counter family's series whose labels include ``match``."""
    family = snapshot.get("counters", {}).get(name)
    if not family:
        return 0.0
    total = 0.0
    for row in family["series"]:
        labels = row.get("labels", {})
        if all(labels.get(k) == v for k, v in match.items()):
            total += row["value"]
    return total


def _service_section(snapshot: Mapping) -> list[str]:
    """The knowledge-service digest: requests, shed load, transport.

    Rendered only when the snapshot carries ``service.*`` families —
    i.e. the run actually went through the serving layer.
    """
    names = [
        name
        for kind in ("counters", "gauges", "histograms")
        for name in snapshot.get(kind, {})
    ]
    if not any(name.startswith("service.") for name in names):
        return []
    shed = _counter_total(snapshot, "service.requests_total", outcome="shed")
    served = _counter_total(snapshot, "service.requests_total", outcome="ok")
    errors = _counter_total(snapshot, "service.requests_total", outcome="error")
    title = "Knowledge service"
    lines = [
        "",
        title,
        "-" * len(title),
        f"  requests         {_fmt_value(served)} ok, {_fmt_value(errors)} error(s), "
        f"{_fmt_value(shed)} shed (overload)",
    ]
    lines += _transport_lines(snapshot)
    lines += _supervisor_lines(snapshot)
    lines += _chaos_lines(snapshot)
    return lines


def _supervisor_lines(snapshot: Mapping) -> list[str]:
    """Self-healing digest, when the run was supervised.

    ``service.supervisor.*`` families come from the
    :class:`~repro.core.service.server.WorkerSupervisor`: respawned
    worker processes, crash-looped shard groups, and the time-to-heal
    histogram (detection to healthy, labeled by heal mode).
    """
    respawns = _counter_total(snapshot, "service.supervisor.respawns_total")
    crash_loops = _counter_total(
        snapshot, "service.supervisor.crash_loops_total"
    )
    heal = snapshot.get("histograms", {}).get("service.supervisor.heal_seconds")
    if not (respawns or crash_loops or (heal and heal["series"])):
        return []
    lines = [
        f"  worker respawns  {_fmt_value(respawns)} "
        f"({_fmt_value(crash_loops)} crash-looped group(s))",
    ]
    if heal and heal["series"]:
        count = sum(row["count"] for row in heal["series"])
        total = sum(row["sum"] for row in heal["series"])
        mean_ms = (total / count) * 1e3 if count else 0.0
        lines.append(
            f"  time to heal     {_fmt_value(count)} heal(s), "
            f"mean {mean_ms:.0f} ms"
        )
    return lines


def _chaos_lines(snapshot: Mapping) -> list[str]:
    """Injected-fault digest, when a chaos proxy was in the path."""
    family = snapshot.get("counters", {}).get("service.chaos.faults_total")
    if not family or not family["series"]:
        return []
    total = _counter_total(snapshot, "service.chaos.faults_total")
    by_kind = ", ".join(
        f"{row['labels'].get('kind', '?')}: {_fmt_value(row['value'])}"
        for row in sorted(
            family["series"], key=lambda r: r["labels"].get("kind", "")
        )
    )
    return [f"  chaos faults     {_fmt_value(total)} ({by_kind})"]


def _transport_lines(snapshot: Mapping) -> list[str]:
    """Wire-transport digest lines, when the run crossed a socket.

    The ``service.transport.*`` families are emitted by both sides of
    the ``repro.wire/v1`` link — :class:`~repro.core.service.server.
    KnowledgeServer` and ``TcpTransport`` share the metric names — so
    this renders the same shape for server and client snapshots.
    """
    names = [
        name
        for kind in ("counters", "gauges", "histograms")
        for name in snapshot.get(kind, {})
    ]
    if not any(name.startswith("service.transport.") for name in names):
        return []
    conns = _counter_total(snapshot, "service.transport.connections_total")
    frames_in = _counter_total(snapshot, "service.transport.frames_total",
                               direction="in")
    frames_out = _counter_total(snapshot, "service.transport.frames_total",
                                direction="out")
    bytes_in = _counter_total(snapshot, "service.transport.bytes_total",
                              direction="in")
    bytes_out = _counter_total(snapshot, "service.transport.bytes_total",
                               direction="out")
    retries = _counter_total(snapshot, "service.client.retries_total")
    lines = [
        f"  wire connections {_fmt_value(conns)}",
        f"  wire frames      {_fmt_value(frames_in)} in / "
        f"{_fmt_value(frames_out)} out "
        f"({_fmt_value(bytes_in)} B in / {_fmt_value(bytes_out)} B out)",
    ]
    if retries:
        kinds = snapshot.get("counters", {}).get("service.client.retries_total")
        by_kind = ", ".join(
            f"{row['labels'].get('kind', '?')}: {_fmt_value(row['value'])}"
            for row in sorted(kinds["series"],
                              key=lambda r: r["labels"].get("kind", ""))
        )
        lines.append(f"  client retries   {_fmt_value(retries)} ({by_kind})")
    latency = snapshot.get("histograms", {}).get(
        "service.transport.request_seconds"
    )
    if latency and latency["series"]:
        count = sum(row["count"] for row in latency["series"])
        total = sum(row["sum"] for row in latency["series"])
        mean_us = (total / count) * 1e6 if count else 0.0
        lines.append(
            f"  wire latency     {_fmt_value(count)} request(s), "
            f"mean {mean_us:.0f} us"
        )
    return lines


def _campaign_section(snapshot: Mapping) -> list[str]:
    """The campaign digest: per-state jobs, queue depth, reclaims.

    Rendered only when the snapshot carries ``campaign.*`` families —
    i.e. the run went through the campaign orchestrator.
    """
    names = [
        name
        for kind in ("counters", "gauges", "histograms")
        for name in snapshot.get(kind, {})
    ]
    if not any(name.startswith("campaign.") for name in names):
        return []
    states = {}
    jobs_family = snapshot.get("gauges", {}).get("campaign.jobs")
    if jobs_family:
        for row in jobs_family["series"]:
            states[row.get("labels", {}).get("state", "?")] = row["value"]
    state_text = ", ".join(
        f"{_fmt_value(states[s])} {s}"
        for s in ("DONE", "FAILED", "RUNNING", "READY", "RESTARTING", "CREATED")
        if s in states
    ) or "none recorded"
    transitions = _counter_total(snapshot, "campaign.transitions_total")
    retries = _counter_total(snapshot, "campaign.transitions_total", to="RESTARTING")
    reclaims = _counter_total(snapshot, "campaign.reclaims_total")
    title = "Campaign orchestrator"
    lines = [
        "",
        title,
        "-" * len(title),
        f"  jobs by state    {state_text}",
        f"  transitions      {_fmt_value(transitions)} total, "
        f"{_fmt_value(retries)} restart(s)",
        f"  lease reclaims   {_fmt_value(reclaims)}",
    ]
    lines += _fleet_lines(snapshot)
    return lines


def _fleet_lines(snapshot: Mapping) -> list[str]:
    """Fleet digest lines (only when ``fleet.*`` families are present)."""
    names = [
        name
        for kind in ("counters", "gauges", "histograms")
        for name in snapshot.get(kind, {})
    ]
    has_fleet = any(name.startswith("fleet.") for name in names)
    steals = _counter_total(snapshot, "campaign.steals_total")
    if not has_fleet and not steals:
        return []
    launchers_family = snapshot.get("gauges", {}).get("fleet.launchers")
    launchers = (
        launchers_family["series"][0]["value"]
        if launchers_family and launchers_family["series"]
        else 0
    )
    respawns = _counter_total(snapshot, "fleet.respawns_total")
    crash_loops = _counter_total(snapshot, "fleet.crash_loops_total")
    lost = _counter_total(snapshot, "fleet.leases_lost_total")
    kills = _counter_total(snapshot, "fleet.chaos.faults_total")
    return [
        f"  fleet            {_fmt_value(launchers)} launcher(s) live, "
        f"{_fmt_value(respawns)} respawn(s), "
        f"{_fmt_value(crash_loops)} crash-loop(s)",
        f"  lease steals     {_fmt_value(steals)} stolen, "
        f"{_fmt_value(lost)} abandoned by losers, "
        f"{_fmt_value(kills)} chaos kill(s)",
    ]


def render_metrics_report(snapshot: Mapping) -> str:
    """Render one metrics snapshot as a human-readable text report."""
    if not isinstance(snapshot, Mapping) or "schema" not in snapshot:
        raise ConfigurationError(
            "not a metrics snapshot: missing the 'schema' field "
            f"(expected {SCHEMA!r})"
        )
    schema = snapshot["schema"]
    lines = [f"Metrics snapshot ({schema})", "=" * 40]
    lines += _service_section(snapshot)
    lines += _campaign_section(snapshot)
    for kind, title in (("counters", "Counters"), ("gauges", "Gauges")):
        families = snapshot.get(kind, {})
        if not families:
            continue
        lines += ["", title, "-" * len(title)]
        for name in sorted(families):
            family = families[name]
            for row in family["series"]:
                label = f"{name}{_fmt_labels(row.get('labels', {}))}"
                lines.append(f"  {label:<58} {_fmt_value(row['value'])}")
    histograms = snapshot.get("histograms", {})
    if histograms:
        lines += ["", "Histograms", "-" * len("Histograms")]
        for name in sorted(histograms):
            family = histograms[name]
            for row in family["series"]:
                label = f"{name}{_fmt_labels(row.get('labels', {}))}"
                count, total = row["count"], row["sum"]
                mean = total / count if count else 0.0
                lines.append(
                    f"  {label:<58} count={count} sum={total:.6g} mean={mean:.6g}"
                )
    return "\n".join(lines)
