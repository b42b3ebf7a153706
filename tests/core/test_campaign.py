"""Campaign orchestrator: spec expansion, the job state machine, the
launcher worker pool, and the kill-and-resume exactly-once property."""

import itertools
import json
import sqlite3
import time

import pytest

from repro.core.campaign import (
    CampaignSpec,
    CampaignStore,
    Launcher,
    parse_campaign_toml,
)
from repro.core.campaign.cli import main as campaign_main
from repro.core.campaign.spec import job_jube_xml, load_campaign_file
from repro.core.campaign.store import ALLOWED_TRANSITIONS, JOB_STATES
from repro.core.metrics import MetricsRegistry, render_metrics_report
from repro.core.persistence.database import KnowledgeDatabase
from repro.core.persistence.repository import KnowledgeRepository
from repro.core.resilience import CircuitBreaker
from repro.core.service.client import ServiceClient
from repro.iostack.stack import Testbed
from repro.pfs.faults import Fault
from repro.util.errors import CampaignError, PersistenceError
from repro.util.rng import stream

SWEEP_TOML = """
[campaign]
name = "ior-xfersweep"
benchmark = "ior"
max_attempts = 3

[parameters]
transfersize = "1m,2m"

[fixed]
command = "ior -a mpiio -b 4m -t $transfersize -s 8 -F -e -i 3 -o /scratch/c/test -k"
nodes = "2"

[report]
x_axis = "transfersize"
metric = "bw_mean"
"""

NOOP_TOML = """
[campaign]
name = "noop-one"
benchmark = "noop"
max_attempts = 3

[parameters]
idx = "0"

[fixed]
duration_ms = "0"
"""


def _submit(tmp_path, toml=SWEEP_TOML, backend=None, **store_kwargs):
    store = CampaignStore(tmp_path / "campaigns.db", **store_kwargs)
    backend_url = backend or str(tmp_path / "knowledge.db")
    campaign_id = store.submit(parse_campaign_toml(toml), backend_url)
    return store, campaign_id, backend_url


def _launcher(store, campaign_id, tmp_path, tag="ws", **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("seed", 7)
    return Launcher(store, campaign_id, workspace=tmp_path / tag, **kwargs)


def _knowledge_rows(backend_url):
    if backend_url.startswith("knowledge+"):  # service:// and tcp:// alike
        with ServiceClient.open(backend_url) as client:
            return client.fetch_many(client.list_ids())
    with KnowledgeDatabase(backend_url) as db:
        return KnowledgeRepository(db).load_all()


class _InjectedCrash(RuntimeError):
    """Simulates the launcher process dying at a checkpoint."""


# ----------------------------------------------------------------------
# spec parsing and expansion
# ----------------------------------------------------------------------
class TestCampaignSpec:
    def test_expansion_builds_dag(self):
        spec = parse_campaign_toml(SWEEP_TOML)
        jobs = spec.expand()
        assert [j.name for j in jobs] == ["run-0000", "run-0001", "report"]
        assert jobs[0].kind == "benchmark" and jobs[2].kind == "report"
        assert jobs[2].depends == ("run-0000", "run-0001")
        # the fixed command is merged into every combination unexpanded
        assert all("-t $transfersize" in j.params["command"] for j in jobs[:2])
        assert sorted(j.params["transfersize"] for j in jobs[:2]) == ["1m", "2m"]

    def test_cartesian_product(self):
        spec = CampaignSpec(
            name="c", benchmark="ior",
            parameters={"transfersize": "1m,2m,4m", "nodes": "2,4"},
            fixed={"command": "ior -t $transfersize"},
        )
        assert len(spec.expand()) == 6  # no report table -> no report job

    def test_validation_errors(self):
        with pytest.raises(CampaignError, match="unknown benchmark"):
            CampaignSpec(name="c", benchmark="nope", parameters={"a": "1"})
        with pytest.raises(CampaignError, match="at least one"):
            parse_campaign_toml("[campaign]\nname='c'\nbenchmark='ior'\n")
        with pytest.raises(CampaignError, match="unknown campaign table"):
            parse_campaign_toml(
                "[campaign]\nname='c'\nbenchmark='ior'\n[typo]\na='1'\n"
            )
        with pytest.raises(CampaignError, match="max_attempts"):
            CampaignSpec(
                name="c", benchmark="ior", parameters={"a": "1"}, max_attempts=0
            )
        with pytest.raises(CampaignError, match="cannot read"):
            load_campaign_file("/nonexistent/campaign.toml")

    def test_job_xml_keeps_commas_single_valued(self):
        # IOR commands contain commas; the per-job XML must not expand
        # them into extra workpackages.
        from repro.jube.parameters import expand_parameter_space
        from repro.jube.steps import DEFAULT_WORK_REGISTRY
        from repro.jube.xmlconfig import load_benchmark

        xml = job_jube_xml(
            "c", "ior", {"command": "ior -b 1m,2m <odd>", "nodes": "2"}
        )
        benchmark, _ = load_benchmark(
            xml, DEFAULT_WORK_REGISTRY, outpath="unused",
            shared={"testbed": None},
        )
        combos = expand_parameter_space(list(benchmark.parameter_sets.values()))
        assert len(combos) == 1
        assert combos[0]["command"] == "ior -b 1m,2m <odd>"


# ----------------------------------------------------------------------
# the store state machine
# ----------------------------------------------------------------------
class TestCampaignStore:
    def test_submit_counts_and_persistence(self, tmp_path):
        store, cid, _ = _submit(tmp_path)
        counts = store.counts(cid)
        assert counts == {
            "CREATED": 1, "READY": 2, "RUNNING": 0,
            "DONE": 0, "FAILED": 0, "RESTARTING": 0,
        }
        store.close()
        # the DAG survives reopening the file
        reopened = CampaignStore(tmp_path / "campaigns.db")
        assert reopened.counts(cid)["READY"] == 2
        assert [j.name for j in reopened.jobs(cid)] == [
            "run-0000", "run-0001", "report",
        ]

    def test_terminal_states_have_no_exits(self):
        assert ALLOWED_TRANSITIONS["DONE"] == ()
        assert ALLOWED_TRANSITIONS["FAILED"] == ()
        assert set(ALLOWED_TRANSITIONS) == set(JOB_STATES)

    def test_acquire_lease_and_complete(self, tmp_path):
        store, cid, _ = _submit(tmp_path)
        job = store.acquire(cid, "w0", now=100.0, lease_s=60.0)
        assert job.name == "run-0000" and job.state == "RUNNING"
        assert job.lease_owner == "w0" and job.lease_expires_at == 160.0
        assert job.attempts == 1
        store.heartbeat(job.job_id, now=150.0, lease_s=60.0)
        assert store.job(job.job_id).lease_expires_at == 210.0
        done = store.complete(job.job_id, [5, 3])
        assert done.state == "DONE" and done.knowledge_ids == (3, 5)
        assert done.lease_owner is None

    def test_illegal_transition_rejected(self, tmp_path):
        store, cid, _ = _submit(tmp_path)
        job = store.acquire(cid, "w0", now=0.0, lease_s=1.0)
        store.complete(job.job_id, [])
        with pytest.raises(CampaignError, match="illegal transition"):
            store.complete(job.job_id, [])
        with pytest.raises(CampaignError, match="cannot heartbeat"):
            store.heartbeat(job.job_id, now=0.0, lease_s=1.0)

    def test_retry_budget(self, tmp_path):
        store, cid, _ = _submit(tmp_path)
        job = store.acquire(cid, "w0", now=0.0, lease_s=1.0)
        # attempts 1 and 2 requeue; attempt 3 (== max_attempts) fails for good
        assert store.fail(job.job_id, "boom", retryable=True).state == "READY"
        job = store.acquire(cid, "w0", now=0.0, lease_s=1.0)
        assert job.attempts == 2
        assert store.fail(job.job_id, "boom", retryable=True).state == "READY"
        job = store.acquire(cid, "w0", now=0.0, lease_s=1.0)
        assert job.attempts == 3
        assert store.fail(job.job_id, "boom", retryable=True).state == "FAILED"

    def test_permanent_failure_skips_budget(self, tmp_path):
        store, cid, _ = _submit(tmp_path)
        job = store.acquire(cid, "w0", now=0.0, lease_s=1.0)
        failed = store.fail(job.job_id, "config error", retryable=False)
        assert failed.state == "FAILED" and failed.attempts == 1

    def test_dependency_gating_and_cascade(self, tmp_path):
        store, cid, _ = _submit(tmp_path)
        report = next(j for j in store.jobs(cid) if j.kind == "report")
        assert report.state == "CREATED"  # gated on the runs
        first = store.acquire(cid, "w0", now=0.0, lease_s=1.0)
        store.complete(first.job_id, [1])
        assert store.job(report.job_id).state == "CREATED"  # one dep left
        second = store.acquire(cid, "w0", now=0.0, lease_s=1.0)
        store.fail(second.job_id, "x", retryable=False)
        cascaded = store.job(report.job_id)
        assert cascaded.state == "FAILED" and cascaded.error == "dependency failed"

    def test_reclaim_is_deterministic_in_the_clock(self, tmp_path):
        store, cid, _ = _submit(tmp_path)
        job = store.acquire(cid, "w0", now=100.0, lease_s=50.0)
        assert store.reclaim(cid, now=149.0) == []  # lease still live
        reclaimed = store.reclaim(cid, now=151.0)
        assert [j.job_id for j in reclaimed] == [job.job_id]
        assert store.job(job.job_id).state == "RESTARTING"

    def test_force_reclaim_ignores_live_lease(self, tmp_path):
        store, cid, _ = _submit(tmp_path)
        job = store.acquire(cid, "w0", now=100.0, lease_s=1000.0)
        assert store.reclaim(cid, now=101.0, force=True)[0].job_id == job.job_id

    def test_release_returns_the_attempt(self, tmp_path):
        store, cid, _ = _submit(tmp_path)
        job = store.acquire(cid, "w0", now=0.0, lease_s=1.0)
        assert job.attempts == 1
        released = store.release(job.job_id, "w0")
        assert released.state == "READY" and released.attempts == 0

    def test_cancel(self, tmp_path):
        store, cid, _ = _submit(tmp_path)
        running = store.acquire(cid, "w0", now=0.0, lease_s=10.0)
        assert store.cancel(cid) == 2  # the other run + the report
        assert store.is_cancelled(cid)
        assert store.job(running.job_id).state == "RUNNING"  # left to finish
        cancelled = [j for j in store.jobs(cid) if j.error == "cancelled"]
        assert len(cancelled) == 2

    def test_counts_are_exact_throughout(self, tmp_path):
        store, cid, _ = _submit(tmp_path)

        def check():
            counts = store.counts(cid)
            states = [j.state for j in store.jobs(cid)]
            assert counts == {s: states.count(s) for s in JOB_STATES}
            assert sum(counts.values()) == 3

        check()
        job = store.acquire(cid, "w0", now=0.0, lease_s=1.0)
        check()
        store.fail(job.job_id, "x", retryable=True)
        check()


# ----------------------------------------------------------------------
# the launcher
# ----------------------------------------------------------------------
class TestLauncher:
    def test_drains_campaign_to_done(self, tmp_path):
        store, cid, backend = _submit(tmp_path)
        counts = _launcher(store, cid, tmp_path).run()
        assert counts["DONE"] == 3 and counts["FAILED"] == 0
        report = next(j for j in store.jobs(cid) if j.kind == "report")
        assert "bw_mean" in (report.result_text or "")
        rows = _knowledge_rows(backend)
        tokens = [r.parameters["campaign_job"] for r in rows]
        assert sorted(tokens) == [f"campaign-{cid}/run-0000", f"campaign-{cid}/run-0001"]
        runs = [j for j in store.jobs(cid) if j.kind == "benchmark"]
        assert sorted(i for j in runs for i in j.knowledge_ids) == sorted(
            r.knowledge_id for r in rows
        )

    def test_transient_fault_exhausts_budget_and_cascades(self, tmp_path):
        store, cid, _ = _submit(tmp_path)

        def broken_testbed(job_seed):
            testbed = Testbed.fuchs_csc(seed=job_seed)
            testbed.fs.faults.add(
                Fault(name="always", fail_probability=1.0,
                      error_kind="benchmark", when={"benchmark": "ior"},
                      transient=True)
            )
            return testbed

        counts = _launcher(
            store, cid, tmp_path, workers=1, testbed_factory=broken_testbed
        ).run()
        assert counts["FAILED"] == 3 and counts["DONE"] == 0
        runs = [j for j in store.jobs(cid) if j.kind == "benchmark"]
        assert all(j.attempts == j.max_attempts for j in runs)
        report = next(j for j in store.jobs(cid) if j.kind == "report")
        assert report.error == "dependency failed"

    def test_open_breaker_pauses_without_burning_budget(self, tmp_path):
        class TickClock:
            """Advances 50 ms per reading: the open window spans a few
            acquire attempts, then decays to half-open."""

            def __init__(self):
                self.t = 0.0

            def __call__(self):
                self.t += 0.05
                return self.t

        metrics = MetricsRegistry()
        store, cid, _ = _submit(tmp_path, metrics=metrics)
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout_s=0.5, clock=TickClock()
        )
        breaker.record_failure()  # tripped before the campaign starts
        assert breaker.state == "open"
        counts = _launcher(store, cid, tmp_path, workers=1, breaker=breaker).run()
        # jobs acquired while the breaker was open were released (the
        # budget refunded), the half-open probe succeeded, and the
        # campaign still drained completely
        assert counts["DONE"] == 3
        assert all(j.attempts <= 1 for j in store.jobs(cid))
        snapshot = metrics.snapshot()
        released = sum(
            row["value"]
            for row in snapshot["counters"]["campaign.transitions_total"]["series"]
            if row["labels"] == {"from": "RUNNING", "to": "RESTARTING"}
        )
        assert released >= 1
        assert breaker.state == "closed"

    def test_wedged_knowledge_db_fails_job_retryably_then_heals(
        self, tmp_path, monkeypatch
    ):
        """A write refused by the open breaker must never mark a job DONE.

        The job is failed as retryable with nothing on disk; once the
        breaker's window passes, the rerun lands exactly one row
        carrying the job's token.
        """
        from repro.core.campaign import launcher as launcher_module

        store, cid, backend_url = _submit(tmp_path, toml=NOOP_TOML)
        now = [0.0]
        db_breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout_s=10.0, clock=lambda: now[0]
        )
        db_breaker.record_failure()  # the knowledge database is wedged
        real_open_sink = launcher_module.open_sink

        def wedged_sink(url, *, metrics=None):
            sink = real_open_sink(url, metrics=metrics)
            sink._backend.breaker = db_breaker
            return sink

        monkeypatch.setattr(launcher_module, "open_sink", wedged_sink)

        def rows_on_disk():
            conn = sqlite3.connect(backend_url)
            try:
                return [
                    json.loads(p)["campaign_job"]
                    for (p,) in conn.execute("SELECT parameters_json FROM performances")
                ]
            finally:
                conn.close()

        failures = []
        real_fail = store.fail

        def fail(job_id, error, *, retryable, owner=None):
            failures.append((error, retryable, rows_on_disk()))
            return real_fail(job_id, error, retryable=retryable, owner=owner)

        monkeypatch.setattr(store, "fail", fail)

        def sleep(delay_s):
            now[0] += delay_s

        # The launcher's own breaker trips on the failed job, so it backs
        # off (on the shared fake clock) instead of burning the budget.
        launcher_breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout_s=10.0, clock=lambda: now[0]
        )
        counts = _launcher(
            store, cid, tmp_path, workers=1, breaker=launcher_breaker,
            clock=lambda: now[0], sleep=sleep, poll_s=1.0,
        ).run()
        assert failures, "the refused write was reported as a completed job"
        assert len(failures) == 1
        error, retryable, rows = failures[0]
        assert "PersistenceUnavailableError" in error and retryable
        assert rows == []
        assert counts["DONE"] == len(store.jobs(cid)) and counts["FAILED"] == 0
        job = next(j for j in store.jobs(cid) if j.kind == "benchmark")
        assert job.attempts == 2
        assert rows_on_disk() == [job.token]
        assert db_breaker.state == CircuitBreaker.CLOSED

    def test_campaign_metrics_family(self, tmp_path):
        metrics = MetricsRegistry()
        store, cid, _ = _submit(tmp_path, metrics=metrics)
        _launcher(store, cid, tmp_path, metrics=metrics).run()
        snapshot = metrics.snapshot()
        assert "campaign.transitions_total" in snapshot["counters"]
        assert "campaign.jobs" in snapshot["gauges"]
        assert "campaign.job_seconds" in snapshot["histograms"]
        report = render_metrics_report(snapshot)
        assert "Campaign orchestrator" in report
        assert "3 DONE" in report


# ----------------------------------------------------------------------
# the kill-and-resume exactly-once property
# ----------------------------------------------------------------------
def _run_crash_resume(tmp_path, crash_at, backend=None, workers=1):
    """Crash the launcher at the ``crash_at``-th state-transition
    checkpoint (pre- and post-commit sides both counted), resume, and
    assert zero lost / zero duplicated knowledge rows."""
    store, cid, backend_url = _submit(tmp_path, backend=backend)
    calls = itertools.count(1)

    def hook(job, old, new, when):
        if next(calls) == crash_at:
            raise _InjectedCrash(f"at checkpoint {crash_at}: {old}->{new} ({when})")

    store.on_transition = hook
    crashed = False
    try:
        _launcher(store, cid, tmp_path, tag="ws1", workers=workers).run()
    except _InjectedCrash:
        crashed = True
    # --status-style counts are exact at the crash point too
    counts = store.counts(cid)
    assert sum(counts.values()) == 3
    assert counts == {
        s: [j.state for j in store.jobs(cid)].count(s) for s in JOB_STATES
    }
    if crashed:
        store.on_transition = None
        _launcher(store, cid, tmp_path, tag="ws2", workers=workers).run(resume=True)
    final = store.counts(cid)
    assert final["DONE"] == 3, (crash_at, final)
    rows = _knowledge_rows(backend_url)
    real = [r for r in rows if not r.parameters.get("campaign_marker")]
    tokens = [r.parameters["campaign_job"] for r in real]
    assert len(tokens) == len(set(tokens)) == 2, (crash_at, tokens)  # exactly once
    return crashed


class TestKillAndResume:
    def test_every_early_checkpoint(self, tmp_path):
        # The first few launcher transitions deterministically cover
        # acquire (pre/post), complete (pre/post) and the requeue path.
        crashed = [
            _run_crash_resume(tmp_path / f"k{k}", crash_at=k) for k in (1, 2, 3, 4)
        ]
        assert all(crashed)

    def test_seeded_checkpoint_matrix(self, tmp_path, fault_seed):
        # CI's REPRO_FAULT_SEED matrix moves the sampled crash points.
        rng = stream(fault_seed, "campaign-crash-points")
        points = sorted({int(rng.random() * 14) + 1 for _ in range(4)})
        for k in points:
            _run_crash_resume(tmp_path / f"k{k}", crash_at=k)

    def test_resume_through_service_backend(self, tmp_path, fault_seed):
        rng = stream(fault_seed, "campaign-service-crash")
        k = int(rng.random() * 10) + 1
        url = f"knowledge+service://{tmp_path}/svcstore?shards=2"
        _run_crash_resume(tmp_path, crash_at=k, backend=url)

    def test_resume_through_tcp_backend(self, tmp_path, fault_seed):
        """The same exactly-once guarantee with the knowledge base a
        network hop away: launcher crash, resume, zero lost / zero
        duplicated rows through a knowledge+tcp:// server whose shard
        groups live in separate worker processes."""
        from repro.core.service.server import KnowledgeServer

        rng = stream(fault_seed, "campaign-tcp-crash")
        k = int(rng.random() * 10) + 1
        server = KnowledgeServer(
            tmp_path / "tcpstore", shards=2, worker_processes=2
        )
        server.start()
        try:
            url = f"knowledge+tcp://{server.host}:{server.port}/"
            _run_crash_resume(tmp_path, crash_at=k, backend=url)
        finally:
            server.close()
        assert server.worker_returncodes == [0, 0]

    def test_resume_of_a_clean_campaign_is_a_no_op(self, tmp_path):
        store, cid, backend = _submit(tmp_path)
        _launcher(store, cid, tmp_path, tag="ws1").run()
        _launcher(store, cid, tmp_path, tag="ws2").run(resume=True)
        assert store.counts(cid)["DONE"] == 3
        assert len(_knowledge_rows(backend)) == 2  # nothing re-ran

    @pytest.mark.stress
    def test_soak_kill_resume_under_worker_pool(self, tmp_path, fault_seed):
        """CI campaign soak: a wider sweep, a multi-worker launcher
        killed mid-flight at seed-selected checkpoints, resumed, and
        checked for exactly-once knowledge rows."""
        toml = SWEEP_TOML.replace('transfersize = "1m,2m"', 'transfersize = "1m,2m,4m"')
        rng = stream(fault_seed, "campaign-soak")
        for trial in range(2):
            k = int(rng.random() * 20) + 1
            base = tmp_path / f"trial{trial}"
            store, cid, backend_url = _submit(base, toml=toml)
            calls = itertools.count(1)

            def hook(job, old, new, when, _calls=calls, _k=k):
                if next(_calls) == _k:
                    raise _InjectedCrash(f"soak checkpoint {_k}")

            store.on_transition = hook
            try:
                _launcher(store, cid, base, tag="ws1", workers=3).run()
            except _InjectedCrash:
                pass
            store.on_transition = None
            _launcher(store, cid, base, tag="ws2", workers=3).run(resume=True)
            assert store.counts(cid)["DONE"] == 4
            rows = [
                r for r in _knowledge_rows(backend_url)
                if not r.parameters.get("campaign_marker")
            ]
            tokens = [r.parameters["campaign_job"] for r in rows]
            assert len(tokens) == len(set(tokens)) == 3, (trial, k, tokens)

    @pytest.mark.stress
    @pytest.mark.timeout(600)
    def test_exactly_once_through_chaos_proxy(self, tmp_path, chaos_proxy,
                                              fault_seed):
        """CI chaos-soak: the campaign's exactly-once tokens survive a
        knowledge backend whose workers are SIGKILL'd on a seeded
        cadence mid-campaign — supervised respawn heals each kill, and
        the campaign-job idempotence check absorbs the ambiguity."""
        from repro.core.service.chaos import ChaosPolicy, WorkerKiller
        from repro.core.service.server import KnowledgeServer

        toml = SWEEP_TOML.replace("max_attempts = 3", "max_attempts = 8")
        metrics = MetricsRegistry()
        server = KnowledgeServer(
            tmp_path / "tcpstore", shards=2, worker_processes=2,
            metrics=metrics, supervisor_poll_s=0.05,
            crash_loop_threshold=10_000,
        )
        server.start()
        try:
            policy = ChaosPolicy(seed=fault_seed, kill_every=6)
            killer = WorkerKiller(server, every_frames=6, metrics=metrics)
            proxy = chaos_proxy(server.host, server.port, policy,
                                metrics=metrics, killer=killer)
            url = f"knowledge+tcp://{proxy.host}:{proxy.port}/"
            store, cid, _ = _submit(tmp_path, toml=toml, backend=url)
            for attempt in range(6):
                try:
                    _launcher(store, cid, tmp_path, tag=f"ws{attempt}").run(
                        resume=attempt > 0
                    )
                except Exception:  # noqa: BLE001 - a kill window; resume
                    continue
                if store.counts(cid)["DONE"] == 3:
                    break
            assert store.counts(cid)["DONE"] == 3
            # Verify after the chaos: the killer fires on proxied frames,
            # so a read through the proxy would keep killing workers
            # faster than the client's retries outlast a respawn.  Close
            # the proxy, let the supervisor heal the last kill, and read
            # the rows from the server directly.
            proxy.close()
            deadline = time.monotonic() + 30.0
            while server.health()["status"] != "healthy":
                assert time.monotonic() < deadline, server.health()
                time.sleep(0.05)
            rows = [
                r for r in _knowledge_rows(f"knowledge+tcp://{server.host}:{server.port}/")
                if not r.parameters.get("campaign_marker")
            ]
            tokens = [r.parameters["campaign_job"] for r in rows]
            assert len(tokens) == len(set(tokens)) == 2, tokens
            assert killer.kills >= 1
            respawns = sum(
                row["value"]
                for row in metrics.snapshot()["counters"][
                    "service.supervisor.respawns_total"
                ]["series"]
            )
            assert respawns >= 1
        finally:
            server.close()


# ----------------------------------------------------------------------
# the CLI
# ----------------------------------------------------------------------
class TestCampaignCLI:
    def test_submit_run_status_roundtrip(self, tmp_path, capsys):
        toml_file = tmp_path / "sweep.toml"
        toml_file.write_text(SWEEP_TOML, encoding="utf-8")
        store_file = str(tmp_path / "campaigns.db")
        metrics_file = tmp_path / "m.json"
        assert campaign_main(
            [store_file, "--submit", str(toml_file), "--db", str(tmp_path / "k.db")]
        ) == 0
        assert "submitted campaign 1" in capsys.readouterr().out
        assert campaign_main(
            [store_file, "--run", "1", "--workspace", str(tmp_path / "ws"),
             "--metrics-json", str(metrics_file)]
        ) == 0
        assert "3 DONE" in capsys.readouterr().out
        snapshot = json.loads(metrics_file.read_text(encoding="utf-8"))
        assert "campaign.transitions_total" in snapshot["counters"]
        assert campaign_main([store_file, "--status"]) == 0
        out = capsys.readouterr().out
        assert "3 DONE" in out and "run-0000" in out

    def test_cancel_and_failed_exit_code(self, tmp_path, capsys):
        toml_file = tmp_path / "sweep.toml"
        toml_file.write_text(SWEEP_TOML, encoding="utf-8")
        store_file = str(tmp_path / "campaigns.db")
        campaign_main(
            [store_file, "--submit", str(toml_file), "--db", str(tmp_path / "k.db")]
        )
        capsys.readouterr()
        assert campaign_main([store_file, "--cancel", "1"]) == 0
        assert "cancelled 3" in capsys.readouterr().out
        # a drained campaign with failures exits 1
        assert campaign_main(
            [store_file, "--run", "1", "--workspace", str(tmp_path / "ws")]
        ) == 1

    def test_bad_arguments(self, tmp_path):
        store_file = str(tmp_path / "campaigns.db")
        assert campaign_main([store_file, "--run", "1", "--workers", "0"]) == 2
        assert campaign_main([store_file, "--run", "1", "--retries", "-1"]) == 2
        assert campaign_main([store_file, "--run", "99"]) == 1  # unknown campaign


# ----------------------------------------------------------------------
# the repository satellites the launcher builds on
# ----------------------------------------------------------------------
class TestBatchedReads:
    def _seed_repo(self, tmp_path, n=3):
        from repro.core.knowledge import Knowledge, KnowledgeResult, KnowledgeSummary

        db = KnowledgeDatabase(tmp_path / "k.db")
        repo = KnowledgeRepository(db)
        ids = []
        for i in range(n):
            ids.append(repo.save(Knowledge(
                benchmark="ior", command=f"ior -t {i}m", api="MPIIO",
                num_nodes=2, num_tasks=4,
                parameters={"transfersize": f"{i}m", "campaign_job": f"tok-{i}"},
                summaries=[KnowledgeSummary(
                    operation="write", api="MPIIO", bw_max=2.0, bw_min=1.0,
                    bw_mean=1.5, bw_stddev=0.1, ops_max=2.0, ops_min=1.0,
                    ops_mean=1.5, ops_stddev=0.1, iterations=1,
                    results=[KnowledgeResult(
                        iteration=0, bandwidth_mib=1.5, iops=1.5, latency_s=0.1,
                        open_time_s=0.0, wrrd_time_s=0.1, close_time_s=0.0,
                        total_time_s=0.1,
                    )],
                )],
            )))
        return db, repo, ids

    def test_fetch_many_round_trips_in_order(self, tmp_path):
        db, repo, ids = self._seed_repo(tmp_path)
        fetched = repo.fetch_many([ids[2], ids[0]])
        assert [k.knowledge_id for k in fetched] == [ids[2], ids[0]]
        # identical to one-at-a-time loads, including nested rows
        for k in fetched:
            single = repo.load(k.knowledge_id)
            assert k.parameters == single.parameters
            assert len(k.summaries) == len(single.summaries) == 1
            assert k.summaries[0].results[0].bandwidth_mib == pytest.approx(
                single.summaries[0].results[0].bandwidth_mib
            )
        assert repo.fetch_many([]) == []
        db.close()

    def test_fetch_many_missing_id_raises(self, tmp_path):
        db, repo, ids = self._seed_repo(tmp_path)
        with pytest.raises(PersistenceError, match="999"):
            repo.fetch_many([ids[0], 999])
        db.close()

    def test_find_ids_by_parameter_verifies_matches(self, tmp_path):
        from repro.core.knowledge import Knowledge

        db, repo, ids = self._seed_repo(tmp_path)
        # a value that merely *contains* the needle must not match
        repo.save(Knowledge(
            benchmark="ior", parameters={"campaign_job": "tok-1-extended"},
        ))
        assert repo.find_ids_by_parameter("campaign_job", "tok-1") == [ids[1]]
        assert repo.find_ids_by_parameter("campaign_job", "absent") == []
        db.close()

    def test_service_fetch_many_and_find(self, tmp_path):
        from repro.core.knowledge import Knowledge

        url = f"knowledge+service://{tmp_path}/store?shards=2"
        with ServiceClient.open(url) as client:
            ids = client.save_many([
                Knowledge(benchmark="ior", command=f"c{i}",
                          parameters={"campaign_job": f"tok-{i}"})
                for i in range(4)
            ])
            fetched = client.fetch_many(list(reversed(ids)))
            assert [k.knowledge_id for k in fetched] == list(reversed(ids))
            # a second fetch, in another order, stays correct
            assert [
                k.knowledge_id for k in client.fetch_many(ids)
            ] == ids
            assert client.find_ids_by_parameter("campaign_job", "tok-2") == [ids[2]]
            assert client.find_ids_by_parameter("campaign_job", "tok") == []
