"""Metrics/observability layer: registry, spans, bridges, CLI snapshots.

Covers the ISSUE-3 acceptance criteria: deterministic snapshot layout,
wall-clock scrubbing for byte-identical same-seed comparison, the
tracer and pipeline bridges, persistence instrumentation, and the
``repro-cycle --metrics-json`` / ``repro-explore --metrics`` endpoints.
"""

import json
import sqlite3

import numpy as np
import pytest

from repro.core.cycle import KnowledgeCycle
from repro.core.metrics import (
    DEFAULT_BUCKETS,
    SCHEMA,
    MetricsObserver,
    MetricsRegistry,
    MetricsTracer,
    Span,
    render_metrics_report,
    scrub_wallclock,
)
from repro.core.persistence import KnowledgeDatabase
from repro.core.persistence.backend import ResilientBackend, transient_db_error
from repro.core.pipeline import FailurePolicy, PhasePipeline, PhaseRegistry
from repro.core.resilience import CircuitBreaker, RetryPolicy, retry
from repro.iostack.stack import Testbed
from repro.iostack.tracing import TraceEvent
from repro.util.errors import ConfigurationError, PersistenceUnavailableError
from repro.util.rng import stream


# ----------------------------------------------------------------------
# registry primitives
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_series_identity_and_labels(self):
        reg = MetricsRegistry()
        a = reg.counter("cycle.things_total", "things", kind="x")
        b = reg.counter("cycle.things_total", kind="x")
        assert a is b
        a.inc()
        a.inc(2.5)
        assert b.value == 3.5
        other = reg.counter("cycle.things_total", kind="y")
        assert other.value == 0.0

    def test_counters_only_go_up(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            reg.counter("a.b").inc(-1)

    def test_gauge_moves_both_ways(self):
        reg = MetricsRegistry()
        g = reg.gauge("queue.depth")
        g.set(5)
        g.dec(2)
        g.inc()
        assert g.value == 4.0

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x.y")
        with pytest.raises(ConfigurationError, match="counter"):
            reg.gauge("x.y")

    def test_name_validation(self):
        reg = MetricsRegistry()
        for bad in ("", "Upper.case", "with space", "dash-ed"):
            with pytest.raises(ConfigurationError):
                reg.counter(bad)

    def test_histogram_observe_and_bucket_edges(self):
        reg = MetricsRegistry()
        h = reg.histogram("t.s", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.1, 0.5, 5.0, 100.0):
            h.observe(v)
        # bisect_left: values equal to a boundary land in that bucket.
        assert h.bucket_counts == [2, 1, 1, 1]
        assert h.count == 5
        assert h.sum == pytest.approx(105.65)

    def test_histogram_vectorized_matches_scalar(self):
        values = stream(3, "metrics-test").random(200) * 30.0
        reg = MetricsRegistry()
        scalar = reg.histogram("a.b", buckets=DEFAULT_BUCKETS)
        vector = reg.histogram("a.c", buckets=DEFAULT_BUCKETS)
        for v in values:
            scalar.observe(float(v))
        vector.observe_many(values)
        assert vector.bucket_counts == scalar.bucket_counts
        assert vector.count == scalar.count
        assert vector.sum == pytest.approx(scalar.sum)

    def test_histogram_rejects_unsorted_buckets(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            reg.histogram("bad.h", buckets=(1.0, 0.5))
        with pytest.raises(ConfigurationError):
            reg.histogram("bad.h2", buckets=(1.0, 1.0))


class TestSpans:
    def test_span_context_manager_times_block(self):
        clock = {"t": 10.0}
        reg = MetricsRegistry(clock=lambda: clock["t"])
        with reg.span("phase.generation", phase="generation") as span:
            clock["t"] = 12.5
        assert span.duration_s == pytest.approx(2.5)
        assert reg.spans_finished == 1
        snap = reg.snapshot()
        calls = snap["counters"]["span.calls_total"]["series"][0]
        assert calls["value"] == 1
        assert calls["labels"]["span"] == "phase.generation"
        hist = snap["histograms"]["span.duration_seconds"]
        assert hist["wallclock"] is True
        assert hist["series"][0]["sum"] == pytest.approx(2.5)

    def test_span_records_even_on_exception(self):
        reg = MetricsRegistry(clock=lambda: 0.0)
        with pytest.raises(ValueError):
            with reg.span("doomed"):
                raise ValueError("x")
        assert reg.spans_finished == 1

    def test_record_span_directly(self):
        reg = MetricsRegistry()
        reg.record_span(Span(name="manual", start_s=1.0, end_s=3.0))
        snap = reg.snapshot()
        assert snap["histograms"]["span.duration_seconds"]["series"][0][
            "sum"
        ] == pytest.approx(2.0)


# ----------------------------------------------------------------------
# snapshots
# ----------------------------------------------------------------------
class TestSnapshots:
    def _populated(self):
        reg = MetricsRegistry(clock=lambda: 0.0)
        reg.counter("b.total", "b", site="z").inc(2)
        reg.counter("a.total", "a").inc()
        reg.gauge("g.depth").set(7)
        reg.histogram("h.seconds", buckets=(1.0,)).observe(0.5)
        return reg

    def test_snapshot_layout_is_sorted_and_versioned(self):
        snap = self._populated().snapshot()
        assert snap["schema"] == SCHEMA
        assert list(snap["counters"]) == ["a.total", "b.total"]
        row = snap["histograms"]["h.seconds"]["series"][0]
        assert row["buckets"] == [[1.0, 1], ["+inf", 0]]
        assert row["count"] == 1 and row["sum"] == 0.5

    def test_to_json_is_stable(self):
        a, b = self._populated(), self._populated()
        assert a.to_json() == b.to_json()
        assert a.to_json().endswith("\n")
        json.loads(a.to_json())  # parses

    def test_write_json(self, tmp_path):
        path = tmp_path / "m.json"
        self._populated().write_json(path)
        assert json.loads(path.read_text())["schema"] == SCHEMA

    def test_scrub_wallclock_zeroes_only_flagged_families(self):
        reg = MetricsRegistry(clock=lambda: 0.0)
        reg.counter("stable.total").inc(3)
        reg.counter("wall.seconds_total", wallclock=True).inc(1.23)
        reg.histogram("wall.hist", wallclock=True, buckets=(1.0,)).observe(0.4)
        scrubbed = scrub_wallclock(reg.snapshot())
        assert scrubbed["counters"]["stable.total"]["series"][0]["value"] == 3
        assert scrubbed["counters"]["wall.seconds_total"]["series"][0]["value"] == 0.0
        wall = scrubbed["histograms"]["wall.hist"]["series"][0]
        assert wall["sum"] == 0.0
        assert wall["buckets"] == [[1.0, 0], ["+inf", 0]]
        assert wall["count"] == 1  # observation counts stay: they are deterministic
        # The original snapshot is untouched (deep copy).
        original = reg.snapshot()
        assert original["counters"]["wall.seconds_total"]["series"][0]["value"] == 1.23


# ----------------------------------------------------------------------
# tracer bridge
# ----------------------------------------------------------------------
class TestMetricsTracer:
    def test_single_event_counts(self):
        reg = MetricsRegistry()
        tracer = MetricsTracer(reg)
        tracer.record(TraceEvent(module="POSIX", op="write", rank=0, path="/p",
                                 offset=0, length=1024, start=0.0, end=0.25, count=4))
        snap = reg.snapshot()
        ops = snap["counters"]["io.ops_total"]["series"][0]
        assert ops["labels"] == {"module": "POSIX", "op": "write"}
        assert ops["value"] == 4
        assert snap["counters"]["io.bytes_total"]["series"][0]["value"] == 4096
        # Simulated durations are deterministic: NOT flagged wallclock.
        assert snap["histograms"]["io.op_duration_seconds"]["wallclock"] is False

    def test_batch_is_vectorized_and_equivalent(self):
        durations = np.array([0.01, 0.02, 0.03])
        a, b = MetricsRegistry(), MetricsRegistry()
        MetricsTracer(a).record_batch("MPIIO", "read", 0, "/p", 0, 512, durations, 0.0)
        tr = MetricsTracer(b)
        t = 0.0
        for d in durations:
            tr.record(TraceEvent(module="MPIIO", op="read", rank=0, path="/p",
                                 offset=0, length=512, start=t, end=t + d))
            t += d
        assert a.snapshot() == b.snapshot()

    def test_empty_batch_is_noop(self):
        reg = MetricsRegistry()
        MetricsTracer(reg).record_batch("POSIX", "write", 0, "/p", 0, 1,
                                        np.array([]), 0.0)
        assert reg.snapshot()["counters"] == {}


# ----------------------------------------------------------------------
# pipeline + resilience bridges
# ----------------------------------------------------------------------
class _FlakyPhase:
    def __init__(self, name, failures):
        self.name = name
        self.failures = failures
        self.calls = 0

    def run(self, context):
        self.calls += 1
        if self.calls <= self.failures:
            exc = RuntimeError("boom")
            exc.transient = True
            raise exc
        return 3


def _context(tmp_path, db):
    cycle = KnowledgeCycle(Testbed.fuchs_csc(seed=300), db, workspace=tmp_path)
    return cycle._context("<unused/>")


class TestMetricsObserver:
    def test_phase_retries_and_outcomes_are_counted(self, tmp_path):
        reg = MetricsRegistry(clock=lambda: 0.0)
        flaky = _FlakyPhase("flaky", failures=2)
        policy = FailurePolicy(retry=RetryPolicy(max_attempts=3, base_delay_s=0.01, seed=5))
        with KnowledgeDatabase(":memory:") as db:
            PhasePipeline(
                PhaseRegistry([flaky]), [MetricsObserver(reg)],
                default_policy=policy, sleep=lambda s: None,
            ).run(_context(tmp_path, db))
        snap = reg.snapshot()
        retries = snap["counters"]["pipeline.phase_retries_total"]["series"][0]
        assert retries["labels"] == {"phase": "flaky"} and retries["value"] == 2
        backoff = snap["counters"]["pipeline.retry_backoff_seconds_total"]["series"][0]
        expected = sum(policy.retry.with_salt("phase:flaky").delays_s())
        assert backoff["value"] == pytest.approx(expected)
        runs = snap["counters"]["pipeline.phase_runs_total"]["series"][0]
        assert runs["labels"] == {"outcome": "ok", "phase": "flaky"}
        artifacts = snap["counters"]["pipeline.phase_artifacts_total"]["series"][0]
        assert artifacts["value"] == 3
        assert snap["histograms"]["pipeline.phase_duration_seconds"]["wallclock"] is True

    def test_exhausted_phase_counts_as_error(self, tmp_path):
        reg = MetricsRegistry(clock=lambda: 0.0)
        policy = FailurePolicy(
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter=0.0),
            on_exhausted="skip",
        )
        with KnowledgeDatabase(":memory:") as db:
            PhasePipeline(
                PhaseRegistry([_FlakyPhase("doomed", failures=99)]),
                [MetricsObserver(reg)], default_policy=policy, sleep=lambda s: None,
            ).run(_context(tmp_path, db))
        runs = reg.snapshot()["counters"]["pipeline.phase_runs_total"]["series"][0]
        assert runs["labels"]["outcome"] == "error" and runs["value"] == 1


class TestResilienceMetrics:
    def test_retry_counts_by_site(self):
        reg = MetricsRegistry()
        policy = RetryPolicy(max_attempts=3, base_delay_s=0.25, jitter=0.0)
        calls = {"n": 0}

        def fn():
            calls["n"] += 1
            if calls["n"] < 3:
                exc = RuntimeError("x")
                exc.transient = True
                raise exc
            return "ok"

        retry(fn, policy, sleep=lambda s: None, metrics=reg, site="unit-test")
        snap = reg.snapshot()
        retries = snap["counters"]["resilience.retries_total"]["series"][0]
        assert retries["labels"] == {"site": "unit-test"} and retries["value"] == 2
        backoff = snap["counters"]["resilience.backoff_seconds_total"]["series"][0]
        assert backoff["value"] == pytest.approx(0.25 + 0.5)

    def test_breaker_transitions_and_state_gauge(self):
        reg = MetricsRegistry()
        clock = {"t": 0.0}
        cb = CircuitBreaker(failure_threshold=1, reset_timeout_s=1.0,
                            clock=lambda: clock["t"], metrics=reg, name="db")
        cb.record_failure()  # closed -> open
        clock["t"] = 1.0
        assert cb.allow()  # open -> half-open (decay) + probe
        cb.record_success()  # half-open -> closed
        snap = reg.snapshot()
        transitions = {
            (row["labels"]["from"], row["labels"]["to"]): row["value"]
            for row in snap["counters"]["resilience.breaker_transitions_total"]["series"]
        }
        assert transitions == {
            ("closed", "open"): 1, ("open", "half-open"): 1, ("half-open", "closed"): 1,
        }
        state = snap["gauges"]["resilience.breaker_state"]["series"][0]
        assert state["labels"] == {"name": "db"} and state["value"] == 0.0


class _AlwaysLocked:
    """Backend stub whose writes always fail with a transient lock."""

    def __init__(self, db):
        self.db = db

    def execute(self, sql, params=()):
        if sql.lstrip().split(None, 1)[0].lower() in ("insert", "update", "delete"):
            raise sqlite3.OperationalError("database is locked")
        return self.db.execute(sql, params)

    def executemany(self, sql, rows):
        raise sqlite3.OperationalError("database is locked")

    def commit(self):
        self.db.commit()

    def rollback(self):
        self.db.rollback()

    def close(self):
        self.db.close()

    def transaction(self):
        return self.db.transaction()

    def table_count(self, table):
        return self.db.table_count(table)


class TestPersistenceMetrics:
    def _backend(self, inner, reg, reset_s):
        return ResilientBackend(
            inner,
            retry_policy=RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter=0.0,
                                     retryable=transient_db_error),
            breaker=CircuitBreaker(failure_threshold=1, reset_timeout_s=reset_s,
                                   metrics=reg, name="persistence"),
            sleep=lambda s: None,
            metrics=reg,
        )

    def test_wedged_writes_count_failed_and_refused(self):
        reg = MetricsRegistry()
        with KnowledgeDatabase(":memory:") as db:
            backend = self._backend(_AlwaysLocked(db), reg, reset_s=1e9)
            for _ in range(2):
                with pytest.raises(PersistenceUnavailableError):
                    backend.execute(
                        "INSERT INTO performances (benchmark, command) VALUES ('a', 'c')"
                    )
            snap = reg.snapshot()
            stmts = {
                (row["labels"]["kind"], row["labels"]["outcome"]): row["value"]
                for row in snap["counters"]["persistence.statements_total"]["series"]
            }
            assert stmts[("write", "failed")] == 1  # first write trips the breaker
            assert stmts[("write", "refused")] == 1  # the open breaker turns it away
            assert ("write", "ok") not in stmts
            assert "persistence.rows_written_total" not in snap["counters"]
            # Retries under the persistence site were counted too.
            retries = snap["counters"]["resilience.retries_total"]["series"][0]
            assert retries["labels"] == {"site": "persistence"}
            assert retries["value"] >= 1

    def test_healed_writes_count_ok_and_rows(self):
        reg = MetricsRegistry()
        with KnowledgeDatabase(":memory:") as db:
            inner = _AlwaysLocked(db)
            backend = self._backend(inner, reg, reset_s=0.0)
            sql = "INSERT INTO performances (benchmark, command) VALUES ('a', 'c')"
            with pytest.raises(PersistenceUnavailableError):
                backend.execute(sql)
            inner.execute = db.execute  # database heals
            backend.execute(sql)
            backend.commit()
            snap = reg.snapshot()
            stmts = {
                (row["labels"]["kind"], row["labels"]["outcome"]): row["value"]
                for row in snap["counters"]["persistence.statements_total"]["series"]
            }
            assert stmts[("write", "failed")] == 1
            assert stmts[("write", "ok")] == 1
            assert stmts[("commit", "ok")] == 1
            rows = snap["counters"]["persistence.rows_written_total"]["series"][0]
            assert rows["value"] == 1
            assert db.table_count("performances") == 1

    def test_database_statement_counters(self):
        reg = MetricsRegistry()
        with KnowledgeDatabase(":memory:", metrics=reg) as db:
            db.execute("INSERT INTO performances (benchmark, command) VALUES ('a', 'c')")
            db.execute("SELECT COUNT(*) FROM performances")
        snap = reg.snapshot()
        verbs = {
            (row["labels"]["verb"], row["labels"]["outcome"]): row["value"]
            for row in snap["counters"]["persistence.db_statements_total"]["series"]
        }
        assert verbs[("insert", "ok")] == 1
        assert verbs[("select", "ok")] >= 1


# ----------------------------------------------------------------------
# text report
# ----------------------------------------------------------------------
class TestReport:
    def test_report_lists_all_kinds(self):
        reg = MetricsRegistry(clock=lambda: 0.0)
        reg.counter("a.total", site="x").inc(3)
        reg.gauge("g.depth").set(2)
        reg.histogram("h.seconds", buckets=(1.0,)).observe(0.5)
        text = render_metrics_report(reg.snapshot())
        assert SCHEMA in text
        assert "a.total{site=x}" in text and " 3" in text
        assert "g.depth" in text
        assert "count=1" in text and "mean=0.5" in text

    def test_report_rejects_non_snapshot(self):
        with pytest.raises(ConfigurationError, match="schema"):
            render_metrics_report({"counters": {}})


# ----------------------------------------------------------------------
# end to end: CLI snapshot determinism + explorer report
# ----------------------------------------------------------------------
def _find_cli_fault_seed():
    """Smallest seed whose first cli-injected draw fires at p=0.5."""
    for seed in range(500):
        if stream(seed, "hard-fault", "cli-injected", 0).random() < 0.5:
            return seed
    raise AssertionError("no seed found")


class TestCliMetrics:
    def _run(self, tmp_path, tag, seed=42, extra=()):
        from repro.core.cycle import main

        path = tmp_path / f"metrics-{tag}.json"
        rc = main([
            "--workspace", str(tmp_path / f"ws-{tag}"),
            "--seed", str(seed),
            "--retries", "2",
            "--on-failure", "skip",
            "--metrics-json", str(path),
            *extra,
        ])
        assert rc == 0
        return json.loads(path.read_text())

    def test_same_seed_snapshots_identical_modulo_wallclock(self, tmp_path):
        a = self._run(tmp_path, "a")
        b = self._run(tmp_path, "b")
        sa = json.dumps(scrub_wallclock(a), sort_keys=True, indent=2)
        sb = json.dumps(scrub_wallclock(b), sort_keys=True, indent=2)
        assert sa == sb
        # The snapshot carries all three metric groups of the tentpole.
        assert a["schema"] == SCHEMA
        assert "pipeline.phase_runs_total" in a["counters"]
        assert "io.ops_total" in a["counters"]
        assert "persistence.statements_total" in a["counters"]
        assert "cycle.revolutions_total" in a["counters"]
        assert "pipeline.phase_duration_seconds" in a["histograms"]

    def test_injected_fault_reports_retries(self, tmp_path):
        seed = _find_cli_fault_seed()
        snap = self._run(tmp_path, "fault", seed=seed,
                         extra=("--inject-fault", "0.5"))
        retries = sum(
            row["value"]
            for row in snap["counters"]["pipeline.phase_retries_total"]["series"]
        )
        assert retries > 0

    def test_writes_without_retries_are_counted_by_the_resilient_backend(self, tmp_path):
        # There is one write path: without --retries the database is
        # still wrapped, with a one-attempt retry policy.
        from repro.core.cycle import main

        path = tmp_path / "metrics.json"
        assert main(["--workspace", str(tmp_path / "ws"),
                     "--metrics-json", str(path)]) == 0
        snap = json.loads(path.read_text())
        stmts = {
            (row["labels"]["kind"], row["labels"]["outcome"]): row["value"]
            for row in snap["counters"]["persistence.statements_total"]["series"]
        }
        assert stmts[("write", "ok")] > 0
        assert stmts[("commit", "ok")] > 0
        assert "resilience.retries_total" not in snap["counters"]

    def test_inject_fault_validation(self):
        from repro.core.cycle import main

        assert main(["--inject-fault", "0"]) == 2
        assert main(["--inject-fault", "1.5"]) == 2

    def test_explorer_metrics_report(self, tmp_path, capsys):
        from repro.core.explorer.cli import main as explore

        snap_path = tmp_path / "m.json"
        reg = MetricsRegistry()
        reg.counter("a.total").inc(5)
        reg.write_json(snap_path)
        assert explore(["--metrics", str(snap_path)]) == 0
        out = capsys.readouterr().out
        assert "Metrics snapshot" in out and "a.total" in out

    def test_explorer_requires_db_or_metrics(self, capsys):
        from repro.core.explorer.cli import main as explore

        assert explore([]) == 2
        assert "knowledge database" in capsys.readouterr().err

    def test_explorer_rejects_bad_snapshot(self, tmp_path, capsys):
        from repro.core.explorer.cli import main as explore

        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert explore(["--metrics", str(bad)]) == 1
        not_snapshot = tmp_path / "list.json"
        not_snapshot.write_text('{"no": "schema"}')
        assert explore(["--metrics", str(not_snapshot)]) == 1
