"""Resilience layer: retry/backoff, breaker, quarantine, fail-fast DB writes.

Covers the PR-2 acceptance criteria: deterministic backoff schedules,
circuit-breaker state transitions, quarantined revolutions that do not
poison later ones, a persistence backend that survives "database is
locked" bursts, and the end-to-end cycle demo with hard faults injected
at both the benchmark and the database layer.
"""

import sqlite3

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.cycle import KnowledgeCycle
from repro.core.knowledge import (
    FilesystemInfo,
    Knowledge,
    KnowledgeResult,
    KnowledgeSummary,
)
from repro.core.persistence import KnowledgeDatabase, KnowledgeRepository
from repro.core.persistence.backend import ResilientBackend, transient_db_error
from repro.core.persistence.scan import ScanQuery, fold_scan, scan_results_match
from repro.core.persistence.transfer import knowledge_to_dict
from repro.core.pipeline import (
    FailurePolicy,
    PhaseObserver,
    PhasePipeline,
    PhaseRegistry,
    TimingObserver,
)
from repro.core.resilience import CircuitBreaker, Deadline, RetryPolicy, retry
from repro.iostack.stack import Testbed
from repro.pfs.faults import Fault, FaultInjector, InjectedBenchmarkError
from repro.util.errors import (
    ConfigurationError,
    DeadlineError,
    PersistenceError,
    PersistenceUnavailableError,
    PipelineError,
)
from repro.util.rng import stream

CYCLE_XML = """
<jube>
  <benchmark name="resilience-test" outpath="ignored">
    <parameterset name="pattern">
      <parameter name="transfersize">1m</parameter>
      <parameter name="command">ior -a mpiio -b 4m -t $transfersize -s 4 -F -e -i 3 -o /scratch/rz/test -k</parameter>
      <parameter name="nodes">2</parameter>
      <parameter name="taskspernode">8</parameter>
    </parameterset>
    <step name="run" work="ior">
      <use>pattern</use>
    </step>
  </benchmark>
</jube>
"""


def _transient(msg="boom"):
    exc = RuntimeError(msg)
    exc.transient = True
    return exc


class _FlakyPhase:
    """Fails with a transient error a set number of times, then succeeds."""

    def __init__(self, name, failures, error_factory=_transient):
        self.name = name
        self.failures = failures
        self.error_factory = error_factory
        self.calls = 0

    def run(self, context):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error_factory()
        return 1


def _context(tmp_path, db, seed=300):
    cycle = KnowledgeCycle(Testbed.fuchs_csc(seed=seed), db, workspace=tmp_path)
    return cycle._context("<unused/>")


# ----------------------------------------------------------------------
# RetryPolicy / retry()
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_schedule_is_deterministic_for_fixed_seed(self, fault_seed):
        a = RetryPolicy(max_attempts=5, base_delay_s=0.1, seed=fault_seed)
        b = RetryPolicy(max_attempts=5, base_delay_s=0.1, seed=fault_seed)
        assert a.delays_s() == b.delays_s()
        assert len(a.delays_s()) == 4
        # Exponential envelope survives the +-10% jitter.
        for n, delay in enumerate(a.delays_s(), start=1):
            base = 0.1 * 2.0 ** (n - 1)
            assert base * 0.9 <= delay <= base * 1.1
        different = RetryPolicy(max_attempts=5, base_delay_s=0.1, seed=fault_seed + 1)
        assert different.delays_s() != a.delays_s()

    def test_max_delay_caps_backoff(self):
        p = RetryPolicy(max_attempts=10, base_delay_s=1.0, max_delay_s=2.0, jitter=0.0)
        assert p.delays_s() == [1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=1.0)

    def test_retry_sleeps_exact_schedule_then_succeeds(self):
        policy = RetryPolicy(max_attempts=4, base_delay_s=0.05, seed=9)
        calls = {"n": 0}

        def fn():
            calls["n"] += 1
            if calls["n"] < 4:
                raise _transient()
            return "done"

        slept = []
        assert retry(fn, policy, sleep=slept.append) == "done"
        assert slept == policy.delays_s()

    def test_retry_gives_up_after_max_attempts(self):
        policy = RetryPolicy(max_attempts=3, base_delay_s=0.0, jitter=0.0)
        slept = []
        with pytest.raises(RuntimeError):
            retry(lambda: (_ for _ in ()).throw(_transient()), policy, sleep=slept.append)
        assert len(slept) == 2  # two retries after the first attempt

    def test_permanent_error_is_not_retried(self):
        policy = RetryPolicy(max_attempts=5)
        slept = []

        def fn():
            raise ValueError("permanent")

        with pytest.raises(ValueError):
            retry(fn, policy, sleep=slept.append)
        assert slept == []

    def test_deadline_stops_retrying(self):
        clock = {"t": 0.0}
        deadline = Deadline(1.0, clock=lambda: clock["t"])
        policy = RetryPolicy(max_attempts=10, base_delay_s=0.0, jitter=0.0)

        def fn():
            clock["t"] += 0.6
            raise _transient()

        with pytest.raises(RuntimeError):
            retry(fn, policy, sleep=lambda s: None, deadline=deadline)
        assert clock["t"] == pytest.approx(1.2)  # two attempts, not ten

    def test_backoff_sleep_is_clamped_to_remaining_deadline(self):
        # Regression: with 0.3s left and a 2s backoff due, retry() used
        # to sleep the full 2s, overshooting the budget by 1.7s.
        clock = {"t": 0.0}
        deadline = Deadline(1.0, clock=lambda: clock["t"])
        policy = RetryPolicy(max_attempts=10, base_delay_s=2.0, jitter=0.0)
        slept = []

        def sleep(s):
            slept.append(s)
            clock["t"] += s  # the fake clock advances while we sleep

        def fn():
            clock["t"] += 0.7
            raise _transient()

        with pytest.raises(RuntimeError):
            retry(fn, policy, sleep=sleep, deadline=deadline)
        # First attempt ends at t=0.7 with 0.3s left: the 2s backoff is
        # clamped to 0.3s.  The second attempt ends past the budget and
        # re-raises with no parting sleep.
        assert slept == [pytest.approx(0.3)]
        assert clock["t"] == pytest.approx(1.7)  # 0.7 + 0.3 + 0.7, not +2.0

    def test_expired_deadline_reraises_without_sleeping(self):
        clock = {"t": 0.0}
        deadline = Deadline(0.5, clock=lambda: clock["t"])
        policy = RetryPolicy(max_attempts=10, base_delay_s=1.0, jitter=0.0)
        slept = []

        def fn():
            clock["t"] += 0.6  # single attempt blows the whole budget
            raise _transient()

        with pytest.raises(RuntimeError):
            retry(fn, policy, sleep=slept.append, deadline=deadline)
        assert slept == []

    def test_distinct_salts_decorrelate_schedules(self):
        # Regression: jitter was keyed by (seed, attempt) only, so every
        # call site sharing the default seed slept an identical schedule
        # — the thundering herd jitter exists to prevent.
        base = RetryPolicy(max_attempts=6, base_delay_s=0.1, seed=42)
        a = base.with_salt("phase:generation")
        b = base.with_salt("persistence")
        assert a.delays_s() != b.delays_s()
        # Same seed + same salt stays bit-reproducible.
        assert a.delays_s() == base.with_salt("phase:generation").delays_s()
        # And the unsalted policy is itself reproducible.
        assert base.delays_s() == RetryPolicy(
            max_attempts=6, base_delay_s=0.1, seed=42
        ).delays_s()


class TestDeadline:
    def test_budget_accounting(self):
        clock = {"t": 10.0}
        d = Deadline(2.0, clock=lambda: clock["t"])
        assert not d.expired and d.remaining_s == pytest.approx(2.0)
        clock["t"] = 11.5
        assert d.remaining_s == pytest.approx(0.5)
        clock["t"] = 12.5
        assert d.expired
        with pytest.raises(DeadlineError, match="phase 'x'"):
            d.check("phase 'x'")

    def test_unlimited_budget(self):
        d = Deadline(None)
        assert d.remaining_s == float("inf")
        d.check()  # never raises

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ConfigurationError):
            Deadline(0.0)


class TestCircuitBreaker:
    def test_opens_half_opens_closes(self):
        clock = {"t": 0.0}
        cb = CircuitBreaker(failure_threshold=3, reset_timeout_s=5.0, clock=lambda: clock["t"])
        assert cb.state == CircuitBreaker.CLOSED and cb.allow()
        cb.record_failure()
        cb.record_failure()
        assert cb.state == CircuitBreaker.CLOSED  # below threshold
        cb.record_failure()
        assert cb.state == CircuitBreaker.OPEN and not cb.allow()
        clock["t"] = 4.9
        assert cb.state == CircuitBreaker.OPEN
        clock["t"] = 5.0
        assert cb.state == CircuitBreaker.HALF_OPEN and cb.allow()
        cb.record_success()
        assert cb.state == CircuitBreaker.CLOSED
        assert cb.consecutive_failures == 0

    def test_failed_probe_reopens(self):
        clock = {"t": 0.0}
        cb = CircuitBreaker(failure_threshold=1, reset_timeout_s=1.0, clock=lambda: clock["t"])
        cb.record_failure()
        assert not cb.allow()
        clock["t"] = 1.0
        assert cb.state == CircuitBreaker.HALF_OPEN
        cb.record_failure()  # probe failed: snap back open
        assert cb.state == CircuitBreaker.OPEN
        clock["t"] = 1.5
        assert cb.state == CircuitBreaker.OPEN  # timer restarted at reopen

    def test_success_resets_failure_streak(self):
        cb = CircuitBreaker(failure_threshold=2)
        cb.record_failure()
        cb.record_success()
        cb.record_failure()
        assert cb.state == CircuitBreaker.CLOSED

    def test_half_open_admits_exactly_one_probe(self):
        # Regression: allow() used to admit *every* caller while
        # HALF_OPEN, stampeding the dependency with concurrent probes.
        clock = {"t": 0.0}
        cb = CircuitBreaker(failure_threshold=1, reset_timeout_s=1.0, clock=lambda: clock["t"])
        cb.record_failure()
        clock["t"] = 1.0
        assert cb.state == CircuitBreaker.HALF_OPEN
        assert cb.allow()  # first caller claims the probe slot
        assert not cb.allow()  # everyone else is rejected...
        assert not cb.allow()
        cb.record_success()  # ...until the probe reports back
        assert cb.state == CircuitBreaker.CLOSED
        assert cb.allow()

    def test_failed_probe_frees_slot_for_next_window(self):
        clock = {"t": 0.0}
        cb = CircuitBreaker(failure_threshold=1, reset_timeout_s=1.0, clock=lambda: clock["t"])
        cb.record_failure()
        clock["t"] = 1.0
        assert cb.allow() and not cb.allow()
        cb.record_failure()  # probe failed: snap back open
        assert cb.state == CircuitBreaker.OPEN and not cb.allow()
        clock["t"] = 2.0  # next half-open window gets a fresh slot
        assert cb.allow() and not cb.allow()

    def test_state_peek_does_not_claim_probe_slot(self):
        clock = {"t": 0.0}
        cb = CircuitBreaker(failure_threshold=1, reset_timeout_s=1.0, clock=lambda: clock["t"])
        cb.record_failure()
        clock["t"] = 1.0
        for _ in range(3):
            assert cb.state == CircuitBreaker.HALF_OPEN  # peeks are free
        assert cb.allow()  # the probe slot is still available


# ----------------------------------------------------------------------
# pipeline failure policies
# ----------------------------------------------------------------------
class TestPipelinePolicies:
    def test_transient_phase_failure_is_retried(self, tmp_path):
        flaky = _FlakyPhase("flaky", failures=2)
        policy = FailurePolicy(retry=RetryPolicy(max_attempts=3, base_delay_s=0.01, seed=5))
        timer = TimingObserver()
        slept = []
        with KnowledgeDatabase(":memory:") as db:
            pipeline = PhasePipeline(
                PhaseRegistry([flaky]), [timer],
                default_policy=policy, sleep=slept.append,
            )
            result = pipeline.run(_context(tmp_path, db))
        assert result.ok and flaky.calls == 3
        # The pipeline salts the policy per phase so concurrent phases
        # sharing a seed do not sleep in lockstep.
        assert slept == policy.retry.with_salt("phase:flaky").delays_s()
        assert [(t.phase, t.attempts) for t in timer.timings] == [("flaky", 3)]

    def test_identical_seed_identical_backoff_schedule(self, tmp_path, fault_seed):
        schedules = []
        for _ in range(2):
            flaky = _FlakyPhase("flaky", failures=3)
            policy = FailurePolicy(
                retry=RetryPolicy(max_attempts=4, base_delay_s=0.02, seed=fault_seed)
            )
            slept = []
            with KnowledgeDatabase(":memory:") as db:
                PhasePipeline(
                    PhaseRegistry([flaky]), default_policy=policy, sleep=slept.append
                ).run(_context(tmp_path, db))
            schedules.append(slept)
        assert schedules[0] == schedules[1] and len(schedules[0]) == 3

    def test_exhausted_retries_quarantine_with_skip(self, tmp_path):
        always = _FlakyPhase("doomed", failures=99)
        never = _FlakyPhase("never", failures=0)
        policy = FailurePolicy(
            retry=RetryPolicy(max_attempts=3, base_delay_s=0.0, jitter=0.0),
            on_exhausted="skip",
        )
        with KnowledgeDatabase(":memory:") as db:
            result = PhasePipeline(
                PhaseRegistry([always, never]),
                default_policy=policy, sleep=lambda s: None,
            ).run(_context(tmp_path, db))
        assert not result.ok and len(result.failures) == 1
        failure = result.failures[0]
        assert failure.phase == "doomed" and failure.attempts == 3
        assert "boom" in failure.error and failure.elapsed_s >= 0
        assert isinstance(failure.exception, RuntimeError)
        assert never.calls == 0  # revolution abandoned after quarantine
        assert "doomed" in str(failure)

    def test_abort_policy_propagates(self, tmp_path):
        policy = FailurePolicy(
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter=0.0),
            on_exhausted="abort",
        )
        with KnowledgeDatabase(":memory:") as db:
            with pytest.raises(RuntimeError, match="boom"):
                PhasePipeline(
                    PhaseRegistry([_FlakyPhase("doomed", failures=99)]),
                    default_policy=policy, sleep=lambda s: None,
                ).run(_context(tmp_path, db))

    def test_permanent_error_skips_retry_entirely(self, tmp_path):
        def permanent():
            return ValueError("not transient")

        phase = _FlakyPhase("perm", failures=99, error_factory=permanent)
        policy = FailurePolicy(
            retry=RetryPolicy(max_attempts=5, base_delay_s=0.0, jitter=0.0),
            on_exhausted="skip",
        )
        with KnowledgeDatabase(":memory:") as db:
            result = PhasePipeline(
                PhaseRegistry([phase]), default_policy=policy, sleep=lambda s: None
            ).run(_context(tmp_path, db))
        assert result.failures[0].attempts == 1 and phase.calls == 1

    def test_phase_timeout_becomes_deadline_failure(self, tmp_path):
        import time as _time

        class SlowPhase:
            name = "slow"

            def run(self, context):
                _time.sleep(0.05)
                return 1

        policy = FailurePolicy(timeout_s=0.01, on_exhausted="skip")
        with KnowledgeDatabase(":memory:") as db:
            result = PhasePipeline(
                PhaseRegistry([SlowPhase()]), default_policy=policy
            ).run(_context(tmp_path, db))
        assert "DeadlineError" in result.failures[0].error

    def test_cooperative_deadline_in_context(self, tmp_path):
        seen = {}

        class Cooperative:
            name = "coop"

            def run(self, context):
                seen["deadline"] = context.artifacts["deadline"]
                return 0

        with KnowledgeDatabase(":memory:") as db:
            PhasePipeline(
                PhaseRegistry([Cooperative()]),
                default_policy=FailurePolicy(timeout_s=30.0),
            ).run(_context(tmp_path, db))
        assert isinstance(seen["deadline"], Deadline)
        assert seen["deadline"].budget_s == 30.0

    def test_policy_for_unknown_phase_rejected(self):
        with pytest.raises(PipelineError, match="unknown phase"):
            PhasePipeline(
                PhaseRegistry([_FlakyPhase("a", 0)]),
                policies={"zz": FailurePolicy()},
            )

    def test_invalid_policy_rejected(self):
        with pytest.raises(PipelineError):
            FailurePolicy(on_exhausted="retry-forever")
        with pytest.raises(PipelineError):
            FailurePolicy(timeout_s=-1.0)

    def test_retry_observer_hook_fires(self, tmp_path):
        events = []

        class Watcher(PhaseObserver):
            def on_phase_retry(self, phase, context, attempt, error, delay_s):
                events.append((phase.name, attempt, str(error), delay_s))

        policy = FailurePolicy(
            retry=RetryPolicy(max_attempts=3, base_delay_s=0.5, jitter=0.0)
        )
        with KnowledgeDatabase(":memory:") as db:
            PhasePipeline(
                PhaseRegistry([_FlakyPhase("flaky", failures=2)]),
                [Watcher()], default_policy=policy, sleep=lambda s: None,
            ).run(_context(tmp_path, db))
        assert events == [("flaky", 1, "boom", 0.5), ("flaky", 2, "boom", 1.0)]

    def test_logging_observer_reports_retries(self, tmp_path, caplog):
        import logging

        policy = FailurePolicy(
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter=0.0)
        )
        from repro.core.pipeline import LoggingObserver

        with KnowledgeDatabase(":memory:") as db:
            with caplog.at_level(logging.WARNING, logger="repro.pipeline"):
                PhasePipeline(
                    PhaseRegistry([_FlakyPhase("flaky", failures=1)]),
                    [LoggingObserver()], default_policy=policy, sleep=lambda s: None,
                ).run(_context(tmp_path, db))
        assert any("retrying" in r.message for r in caplog.records)


# ----------------------------------------------------------------------
# hard faults from the injector
# ----------------------------------------------------------------------
def _find_seed(pattern, p, name="flaky"):
    """Smallest root seed whose draw sequence matches ``pattern``."""
    for seed in range(5000):
        draws = [
            stream(seed, "hard-fault", name, n).random() < p
            for n in range(len(pattern))
        ]
        if draws == pattern:
            return seed
    raise AssertionError("no seed found for pattern")


class TestHardFaults:
    def test_same_seed_same_failure_pattern(self, fault_seed):
        def pattern(seed):
            inj = FaultInjector(
                [Fault(name="flaky", fail_probability=0.5, error_kind="benchmark")],
                root_seed=seed,
            )
            out = []
            for _ in range(20):
                try:
                    inj.maybe_raise({"benchmark": "ior"})
                    out.append(0)
                except InjectedBenchmarkError:
                    out.append(1)
            return out

        assert pattern(fault_seed) == pattern(fault_seed)
        assert 0 < sum(pattern(fault_seed)) < 20  # p=0.5 fires sometimes, not always

    def test_transient_fault_clears_on_retry(self):
        # Seed chosen so the first draw fires and the second does not:
        # exactly the "transient fault survives one retry" shape.
        seed = _find_seed([True, False], 0.5)
        inj = FaultInjector(
            [Fault(name="flaky", fail_probability=0.5, error_kind="benchmark")],
            root_seed=seed,
        )
        with pytest.raises(InjectedBenchmarkError) as err:
            inj.maybe_raise({"benchmark": "ior"})
        assert err.value.transient and err.value.fault_name == "flaky"
        inj.maybe_raise({"benchmark": "ior"})  # retry: no raise

    def test_non_matching_tags_never_raise(self):
        inj = FaultInjector(
            [Fault(name="f", fail_probability=1.0, when={"benchmark": "mdtest"})]
        )
        inj.maybe_raise({"benchmark": "ior"})  # no raise

    def test_error_kind_and_scope_mapping(self):
        from repro.pfs.faults import (
            FaultScope,
            MetadataServiceError,
            ServerCrashError,
        )

        md = FaultInjector(
            [Fault(name="md", fail_probability=1.0, scope=FaultScope.METADATA)]
        )
        with pytest.raises(MetadataServiceError):
            md.maybe_raise({})
        srv = FaultInjector(
            [Fault(name="crash", fail_probability=1.0, scope=FaultScope.SERVER,
                   server="stor01", transient=False)]
        )
        with pytest.raises(ServerCrashError) as err:
            srv.maybe_raise({})
        assert not err.value.transient

    def test_ior_run_aborts_on_hard_fault(self):
        from repro.benchmarks_io.ior import parse_command, run_ior

        tb = Testbed.fuchs_csc(seed=11)
        tb.fs.faults.add(
            Fault(name="dead", fail_probability=1.0, error_kind="benchmark",
                  when={"benchmark": "ior"}, transient=False)
        )
        with pytest.raises(InjectedBenchmarkError):
            run_ior(
                parse_command("ior -a posix -b 2m -t 1m -i 1 -o /scratch/hf/t -w -k"),
                tb, 1, 4,
            )


# ----------------------------------------------------------------------
# resilient persistence backend
# ----------------------------------------------------------------------
class _LockedBackend:
    """Wraps a KnowledgeDatabase, failing writes with "database is locked".

    The first ``pass_writes`` write attempts succeed and the next
    ``fail_writes`` fail; :meth:`wedge` and :meth:`heal` move that window
    while a test runs.
    """

    def __init__(self, db, fail_writes=0, fail_commits=0, pass_writes=0):
        self.db = db
        self.fail_writes = fail_writes
        self.fail_commits = fail_commits
        self.pass_writes = pass_writes
        self.write_attempts = 0

    def wedge(self, after=0, commits=False):
        """Let ``after`` more writes through, then fail every write."""
        self.pass_writes = self.write_attempts + after
        self.fail_writes = 10**9
        self.fail_commits = 10**9 if commits else 0

    def heal(self):
        self.fail_writes = 0
        self.fail_commits = 0

    def _write_attempt(self):
        self.write_attempts += 1
        if self.pass_writes < self.write_attempts <= self.pass_writes + self.fail_writes:
            raise sqlite3.OperationalError("database is locked")

    def execute(self, sql, params=()):
        if sql.lstrip().split(None, 1)[0].lower() in ("insert", "update", "delete"):
            self._write_attempt()
        return self.db.execute(sql, params)

    def executemany(self, sql, rows):
        self._write_attempt()
        return self.db.executemany(sql, rows)

    def commit(self):
        if self.fail_commits > 0:
            self.fail_commits -= 1
            raise sqlite3.OperationalError("database is locked")
        self.db.commit()

    def rollback(self):
        self.db.rollback()

    def close(self):
        self.db.close()

    def transaction(self):
        return self.db.transaction()

    def table_count(self, table):
        return self.db.table_count(table)


def _knowledge(marker, summaries=1):
    """A knowledge object touching every per-object table."""
    k = Knowledge(
        benchmark="ior" if marker % 3 else "mdtest", command=f"ior -m {marker}",
        api="MPIIO", num_nodes=2, num_tasks=8, parameters={"marker": marker},
        system={"hostname": f"n{marker % 4}"},
    )
    for j in range(summaries):
        k.summaries.append(
            KnowledgeSummary(
                operation=("write", "read")[j % 2], api="MPIIO",
                bw_max=100.0 + marker, bw_min=90.0 + marker, bw_mean=95.0 + marker,
                bw_stddev=1.0, ops_max=30.0, ops_min=10.0, ops_mean=20.0,
                ops_stddev=5.0, iterations=1,
                results=[KnowledgeResult(iteration=0, bandwidth_mib=95.0 + marker, iops=7.0)],
            )
        )
    if marker % 2:
        k.filesystem = FilesystemInfo(fs_type="beegfs", num_targets=4)
    return k


def _scan_matches_fold(repo):
    """``scan()`` (served from ``agg_summaries``) equals the reference fold."""
    query = ScanQuery(metric="bw_mean", group_by=("benchmark", "operation"))
    return scan_results_match(repo.scan(query), fold_scan(query, repo.load_all()))


class TestTransientDbPredicate:
    def test_recognises_locked_and_transient(self):
        assert transient_db_error(sqlite3.OperationalError("database is locked"))
        assert transient_db_error(PersistenceError("database error on INSERT: database is locked"))
        assert transient_db_error(_transient())
        assert transient_db_error(PersistenceUnavailableError("wedged"))
        assert not transient_db_error(sqlite3.OperationalError("no such table: x"))
        assert not transient_db_error(ValueError("nope"))


_INSERT = "INSERT INTO performances (benchmark, command) VALUES ('a', 'c')"


class TestResilientBackend:
    def _resilient(self, inner, threshold=3, reset_s=0.0, clock=None):
        return ResilientBackend(
            inner,
            retry_policy=RetryPolicy(
                max_attempts=3, base_delay_s=0.0, jitter=0.0,
                retryable=transient_db_error,
            ),
            breaker=CircuitBreaker(
                failure_threshold=threshold, reset_timeout_s=reset_s,
                **({"clock": clock} if clock else {}),
            ),
            sleep=lambda s: None,
        )

    def test_survives_locked_burst_within_retry_budget(self):
        with KnowledgeDatabase(":memory:") as db:
            flaky = _LockedBackend(db, fail_writes=2)
            backend = self._resilient(flaky)
            repo = KnowledgeRepository(backend)
            ids = [repo.save(Knowledge(benchmark="ior")) for _ in range(3)]
            assert ids == [1, 2, 3]
            assert backend.breaker.state == CircuitBreaker.CLOSED
            assert backend.table_count("performances") == 3

    def test_long_burst_trips_breaker_and_raises(self):
        now = [0.0]
        with KnowledgeDatabase(":memory:") as db:
            # Each write retries 3x; a burst longer than that raises the
            # typed transient error and trips the breaker.
            flaky = _LockedBackend(db, fail_writes=10_000)
            backend = self._resilient(flaky, threshold=1, reset_s=5.0, clock=lambda: now[0])
            repo = KnowledgeRepository(backend)
            with pytest.raises(PersistenceUnavailableError) as failed:
                repo.save(Knowledge(benchmark="ior"))
            assert failed.value.transient
            assert backend.breaker.state == CircuitBreaker.OPEN
            # While OPEN, writes are refused without touching the database.
            attempts = flaky.write_attempts
            with pytest.raises(PersistenceUnavailableError) as refused:
                repo.save(Knowledge(benchmark="ior"))
            assert refused.value.retry_after_s == 5.0
            assert flaky.write_attempts == attempts
            assert backend.table_count("performances") == 0
            # The database heals and the window passes: the next save is
            # the half-open probe, succeeds, and closes the breaker.
            flaky.heal()
            now[0] += 5.0
            assert repo.save(Knowledge(benchmark="ior")) == 1
            assert backend.breaker.state == CircuitBreaker.CLOSED
            assert backend.table_count("performances") == 1
            assert repo.load(1).benchmark == "ior"

    def test_degraded_reads_still_pass_through(self):
        with KnowledgeDatabase(":memory:") as db:
            flaky = _LockedBackend(db, fail_writes=10_000)
            backend = self._resilient(flaky, threshold=1, reset_s=60.0)
            with pytest.raises(PersistenceUnavailableError):
                backend.execute(_INSERT)
            assert backend.breaker.state == CircuitBreaker.OPEN
            # Reads bypass the breaker entirely.
            rows = backend.execute("SELECT COUNT(*) AS n FROM performances").fetchone()
            assert rows["n"] == 0

    def test_close_with_open_breaker_writes_nothing(self, tmp_path):
        path = tmp_path / "resilient.db"
        db = KnowledgeDatabase(path)
        flaky = _LockedBackend(db, fail_writes=10_000)
        backend = self._resilient(flaky, threshold=1, reset_s=60.0)
        with pytest.raises(PersistenceUnavailableError):
            backend.execute(_INSERT)
        with pytest.raises(PersistenceUnavailableError):
            backend.execute(_INSERT)  # refused by the open breaker
        flaky.heal()
        backend.close()  # holds nothing back, so nothing to raise
        assert db.closed
        with KnowledgeDatabase(path) as check:
            assert check.table_count("performances") == 0

    def test_rollback_drops_uncommitted_writes(self):
        with KnowledgeDatabase(":memory:") as db:
            flaky = _LockedBackend(db, pass_writes=1, fail_writes=10_000)
            backend = self._resilient(flaky, threshold=1, reset_s=60.0)
            backend.execute(_INSERT)  # passes, not yet committed
            with pytest.raises(PersistenceUnavailableError):
                backend.execute(_INSERT)
            # The cut-off write took the uncommitted one with it, so no
            # later commit can make half an operation durable.
            assert not db.conn.in_transaction
            assert backend.table_count("performances") == 0
            # Inside a transaction, the transaction rolls back instead.
            flaky.wedge(after=1)
            backend.breaker.record_success()
            with pytest.raises(PersistenceUnavailableError):
                with backend.transaction():
                    backend.execute(_INSERT)
                    backend.execute(_INSERT)
            assert backend.table_count("performances") == 0

    def test_refused_commit_raises_and_rolls_back(self):
        with KnowledgeDatabase(":memory:") as db:
            flaky = _LockedBackend(db, fail_commits=10_000)
            backend = self._resilient(flaky, threshold=1, reset_s=60.0)
            backend.execute(_INSERT)
            with pytest.raises(PersistenceUnavailableError):
                backend.commit()
            assert backend.table_count("performances") == 0

    def test_transaction_commit_blocked_by_reader_raises_and_rolls_back(self, tmp_path):
        path = tmp_path / "locked.db"
        db = KnowledgeDatabase(path)
        db.conn.execute("PRAGMA busy_timeout = 20")
        backend = self._resilient(db, threshold=1, reset_s=0.0)
        reader = sqlite3.connect(path)
        try:
            reader.execute("BEGIN")
            reader.execute("SELECT COUNT(*) FROM performances").fetchone()
            # The open read transaction keeps the final commit from ever
            # getting its exclusive lock: retried, then typed and undone.
            with pytest.raises(PersistenceUnavailableError):
                with backend.transaction():
                    backend.execute(_INSERT)
            assert not db.conn.in_transaction
            reader.rollback()
            backend.commit()  # a later commit must not resurrect the group
            assert backend.table_count("performances") == 0
        finally:
            reader.close()
            db.close()

    def test_non_transient_error_propagates(self):
        with KnowledgeDatabase(":memory:") as db:
            backend = self._resilient(db)
            with pytest.raises(PersistenceError) as excinfo:
                backend.execute("INSERT INTO nonexistent_table (x) VALUES (1)")
            assert not isinstance(excinfo.value, PersistenceUnavailableError)


# ----------------------------------------------------------------------
# cut-off writes: a save/delete interrupted mid-object leaves no trace
# ----------------------------------------------------------------------
class TestCutOffWrites:
    def _setup(self, db):
        flaky = _LockedBackend(db)
        backend = ResilientBackend(
            flaky,
            retry_policy=RetryPolicy(
                max_attempts=2, base_delay_s=0.0, jitter=0.0,
                retryable=transient_db_error,
            ),
            breaker=CircuitBreaker(failure_threshold=3, reset_timeout_s=0.0),
            sleep=lambda s: None,
        )
        return flaky, backend, KnowledgeRepository(backend)

    def _assert_consistent(self, db, repo, live):
        assert db.table_count("performances") == len(live)
        assert db.table_count("summaries") == sum(len(k.summaries) for k in live)
        orphans = db.execute(
            "SELECT COUNT(*) AS n FROM performances p WHERE NOT EXISTS "
            "(SELECT 1 FROM summaries s WHERE s.performance_id = p.id)"
        ).fetchone()["n"]
        assert orphans == 0
        assert _scan_matches_fold(repo)

    def test_save_cut_off_after_performances_insert(self):
        with KnowledgeDatabase(":memory:") as db:
            flaky, backend, repo = self._setup(db)
            flaky.wedge(after=1)  # the performances INSERT passes
            with pytest.raises(PersistenceUnavailableError) as excinfo:
                repo.save(_knowledge(1))
            assert excinfo.value.transient
            flaky.heal()
            healed = _knowledge(2)
            repo.save(healed)
            backend.commit()
            self._assert_consistent(db, repo, [healed])

    def test_delete_cut_off_after_performances_delete(self):
        with KnowledgeDatabase(":memory:") as db:
            flaky, backend, repo = self._setup(db)
            kept = _knowledge(3)
            kid = repo.save(kept)
            flaky.wedge(after=1)  # the performances DELETE passes
            with pytest.raises(PersistenceUnavailableError) as excinfo:
                repo.delete(kid)
            assert excinfo.value.transient
            flaky.heal()
            healed = _knowledge(3)
            repo.save(healed)
            backend.commit()
            self._assert_consistent(db, repo, [kept, healed])


# ----------------------------------------------------------------------
# state machine: id assignment and atomicity against a flapping database
# ----------------------------------------------------------------------
_TABLES = ("performances", "summaries", "results", "filesystems", "systems",
           "agg_summaries", "sqlite_sequence")


def _fingerprint(k):
    data = knowledge_to_dict(k)
    data["system"] = (k.system or {}).get("hostname")
    return data


class WritePathMachine(RuleBasedStateMachine):
    """``save``/``save_many``/``delete`` while the database wedges and heals.

    The model maps each live id to its object's fingerprint.  A write
    either lands whole (ids strictly above every id ever handed out) or
    raises the typed transient error and leaves every table as it was.
    """

    def __init__(self):
        super().__init__()
        self.now = 0.0
        self.db = KnowledgeDatabase(":memory:")
        self.flaky = _LockedBackend(self.db)
        self.backend = ResilientBackend(
            self.flaky,
            retry_policy=RetryPolicy(
                max_attempts=2, base_delay_s=0.0, jitter=0.0,
                retryable=transient_db_error,
            ),
            breaker=CircuitBreaker(
                failure_threshold=2, reset_timeout_s=1.0, clock=lambda: self.now
            ),
            sleep=lambda s: None,
        )
        self.repo = KnowledgeRepository(self.backend)
        self.model = {}
        self.high_water = 0
        self.markers = 0

    def teardown(self):
        self.db.close()

    def _new(self, summaries):
        self.markers += 1
        return _knowledge(self.markers, summaries)

    def _tables(self):
        return {
            t: [tuple(r) for r in self.db.execute(f"SELECT * FROM {t} ORDER BY rowid")]
            for t in _TABLES
        }

    def _attempt(self, op):
        """Run one op; on the typed error check it changed nothing."""
        before = self._tables()
        try:
            return op()
        except PersistenceUnavailableError as exc:
            assert exc.transient and exc.retry_after_s >= 0.0
            assert not self.db.conn.in_transaction
            assert self._tables() == before
            return None

    def _record(self, ids, objects):
        assert ids == sorted(set(ids))
        if ids:
            assert ids[0] > self.high_water  # never reused, even after delete
            self.high_water = ids[-1]
        for kid, k in zip(ids, objects):
            assert k.knowledge_id == kid
            self.model[kid] = _fingerprint(k)

    @rule(summaries=st.integers(0, 2))
    def save(self, summaries):
        k = self._new(summaries)
        kid = self._attempt(lambda: self.repo.save(k))
        if kid is not None:
            self._record([kid], [k])

    @rule(sizes=st.lists(st.integers(0, 2), max_size=4))
    def save_many(self, sizes):
        batch = [self._new(n) for n in sizes]
        ids = self._attempt(lambda: self.repo.save_many(batch))
        if ids is not None:
            self._record(ids, batch)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete(self, data):
        kid = data.draw(st.sampled_from(sorted(self.model)))
        if self._attempt(lambda: self.repo.delete(kid) or True):
            del self.model[kid]

    @rule(after=st.integers(0, 6), commits=st.booleans())
    def wedge(self, after, commits):
        self.flaky.wedge(after, commits=commits)

    @rule()
    def heal(self):
        self.flaky.heal()

    @rule()
    def wait_out_breaker(self):
        self.now += 1.0

    @invariant()
    def reads_return_the_model(self):
        ids = sorted(self.model)
        assert self.repo.list_ids() == ids
        assert [_fingerprint(k) for k in self.repo.fetch_many(ids)] == [
            self.model[i] for i in ids
        ]
        for kid in ids[-2:]:
            assert _fingerprint(self.repo.load(kid)) == self.model[kid]
        assert _scan_matches_fold(self.repo)


TestWritePathMachine = WritePathMachine.TestCase
TestWritePathMachine.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)


# ----------------------------------------------------------------------
# end-to-end: the acceptance demo
# ----------------------------------------------------------------------
class TestEndToEndResilientCycle:
    def _run_cycle(self, tmp_path, root_seed, fail_writes=4):
        """One three-revolution run; returns (results, sleeps, db counts)."""
        tb = Testbed.fuchs_csc(seed=root_seed)
        # Transient benchmark fault: fires on its first draw, clears on a
        # later one (seed selected so retries eventually succeed).
        tb.fs.faults.add(
            Fault(name="flaky-bench", fail_probability=0.5, error_kind="benchmark",
                  when={"benchmark": "ior"})
        )
        slept = []
        timer = TimingObserver()
        policy = FailurePolicy(
            retry=RetryPolicy(max_attempts=4, base_delay_s=0.01, seed=root_seed),
            on_exhausted="skip",
        )
        db = KnowledgeDatabase(":memory:")
        flaky_db = _LockedBackend(db, fail_writes=fail_writes)
        backend = ResilientBackend(
            flaky_db,
            retry_policy=RetryPolicy(
                max_attempts=4, base_delay_s=0.0, jitter=0.0,
                retryable=transient_db_error,
            ),
            breaker=CircuitBreaker(failure_threshold=3, reset_timeout_s=0.0),
            sleep=lambda s: None,
        )
        cycle = KnowledgeCycle(
            tb, backend, workspace=tmp_path / f"ws{root_seed}",
            observers=[timer], default_policy=policy, sleep=slept.append,
        )
        results = [cycle.run_cycle(CYCLE_XML) for _ in range(3)]
        counts = backend.table_count("performances")
        db.close()
        return results, slept, counts, timer

    def test_faulty_revolutions_retry_and_healthy_knowledge_persists(self, tmp_path):
        # Seed chosen so the injected benchmark fault fires at least once
        # but a retry eventually clears it (draws: fail, ..., pass).
        seed = _find_seed([True, False], 0.5, name="flaky-bench")
        results, slept, count, timer = self._run_cycle(tmp_path, seed)
        # The transient fault forced at least one retry...
        assert len(slept) >= 1
        retried = [t for t in timer.timings if t.attempts > 1]
        assert retried and retried[0].phase == "generation"
        # ...and every revolution that completed persisted its knowledge
        # through the locked burst.
        completed = [r for r in results if r.ok]
        assert completed
        persisted = sum(len(r.knowledge_ids) for r in completed)
        assert persisted == count > 0
        # Quarantined revolutions (if any) carry full diagnostics.
        for r in results:
            for f in r.failures:
                assert f.attempts == 4 and f.phase == "generation"

    def test_unrecoverable_revolution_is_quarantined_but_later_ones_persist(
        self, tmp_path
    ):
        tb = Testbed.fuchs_csc(seed=21)
        policy = FailurePolicy(
            retry=RetryPolicy(max_attempts=3, base_delay_s=0.0, jitter=0.0),
            on_exhausted="skip",
        )
        with KnowledgeDatabase(":memory:") as db:
            cycle = KnowledgeCycle(
                tb, db, workspace=tmp_path / "ws",
                default_policy=policy, sleep=lambda s: None,
            )
            healthy_first = cycle.run_cycle(CYCLE_XML)
            assert healthy_first.ok and healthy_first.knowledge_ids

            # Revolution 2: a permanently failing benchmark exhausts its
            # retries and is quarantined instead of killing the run.
            tb.fs.faults.add(
                Fault(name="dead", fail_probability=1.0, error_kind="benchmark",
                      when={"benchmark": "ior"})
            )
            doomed = cycle.run_cycle(CYCLE_XML)
            assert not doomed.ok
            assert doomed.failures[0].phase == "generation"
            assert doomed.failures[0].attempts == 3
            assert "flaky" not in doomed.failures[0].error  # it names the fault
            assert "dead" in doomed.failures[0].error
            assert doomed.knowledge_ids == []

            # Revolution 3: system healed; the cycle keeps going.
            tb.fs.faults.clear()
            healed = cycle.run_cycle(CYCLE_XML)
            assert healed.ok and healed.knowledge_ids
            assert db.table_count("performances") == len(
                healthy_first.knowledge_ids
            ) + len(healed.knowledge_ids)

    def test_identical_seed_reproduces_identical_retry_schedule(self, tmp_path, fault_seed):
        a = self._run_cycle(tmp_path / "a", fault_seed)
        b = self._run_cycle(tmp_path / "b", fault_seed)
        assert a[1] == b[1]  # exact backoff sleep sequence
        assert a[2] == b[2]  # same persisted knowledge count
        assert [r.ok for r in a[0]] == [r.ok for r in b[0]]

    def test_cli_resilience_flags_exit_zero(self, tmp_path, capsys):
        from repro.core.cycle import main

        rc = main([
            "--workspace", str(tmp_path / "cli_ws"),
            "--repeat", "2",
            "--retries", "2",
            "--phase-timeout", "300",
            "--on-failure", "skip",
            "--modules", "anomaly-detection",
            "--timings",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "revolution 2/2" in out
        assert "attempt(s)" in out

    def test_cli_flag_validation(self, capsys):
        from repro.core.cycle import main

        assert main(["--retries", "-1"]) == 2
        assert main(["--phase-timeout", "0"]) == 2
