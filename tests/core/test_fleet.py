"""Launcher fleets: cross-process compare-and-set claims, lease
stealing, placement routing, elastic pools, heartbeat-through-backoff,
the supervised fleet coordinator, drain scaling, and the SIGKILL
exactly-once soak."""

import json
import sqlite3
import time

import pytest

from repro.core.campaign import CampaignSpec, CampaignStore, Launcher
from repro.core.campaign.cli import main as campaign_main
from repro.core.campaign.fleet import (
    ElasticBounds,
    ElasticController,
    LauncherFleet,
    render_fleet_view,
)
from repro.core.campaign.launcher import _HeartbeatObserver
from repro.core.campaign.store import RESTARTING, RUNNING, SCHEMA_VERSION
from repro.core.metrics import MetricsRegistry, render_metrics_report
from repro.core.resilience import RetryPolicy
from repro.core.service.chaos import WorkerKiller
from repro.util.errors import (
    CampaignError,
    ConfigurationError,
    LeaseLostError,
    PersistenceError,
)


def noop_spec(jobs, *, duration_ms=0, name="fleet-noop", max_attempts=3):
    return CampaignSpec(
        name=name,
        benchmark="noop",
        parameters={"idx": ",".join(str(i) for i in range(jobs))},
        fixed={"duration_ms": str(duration_ms)},
        max_attempts=max_attempts,
    )


def submit_noop(tmp_path, jobs, **spec_kwargs):
    store = CampaignStore(tmp_path / "campaigns.db")
    cid = store.submit(noop_spec(jobs, **spec_kwargs), str(tmp_path / "knowledge.db"))
    return store, cid


def knowledge_tokens(tmp_path):
    """Every idempotency token persisted to the noop knowledge backend."""
    conn = sqlite3.connect(str(tmp_path / "knowledge.db"))
    try:
        return [
            json.loads(row[0]).get("campaign_job")
            for row in conn.execute(
                "SELECT parameters_json FROM performances"
            ).fetchall()
        ]
    finally:
        conn.close()


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


# ----------------------------------------------------------------------
# the store's fleet primitives
# ----------------------------------------------------------------------
class TestFleetStore:
    def test_cross_connection_claims_are_disjoint(self, tmp_path):
        # Two launcher *processes* are two connections to one WAL file;
        # the CAS claim must hand every job to exactly one of them.
        store_a, cid = submit_noop(tmp_path, 6)
        store_b = CampaignStore(tmp_path / "campaigns.db")
        claims = {"a": [], "b": []}
        while True:
            job_a = store_a.acquire(cid, "launcher-a", 0.0, 60.0)
            job_b = store_b.acquire(cid, "launcher-b", 0.0, 60.0)
            if job_a is None and job_b is None:
                break
            if job_a is not None:
                claims["a"].append(job_a.job_id)
            if job_b is not None:
                claims["b"].append(job_b.job_id)
        assert not set(claims["a"]) & set(claims["b"])
        assert len(claims["a"]) + len(claims["b"]) == 6
        assert all(j.state == RUNNING for j in store_b.jobs(cid))
        store_b.close()
        store_a.close()

    def test_steal_order_longest_expired_then_lowest_id(self, tmp_path):
        metrics = MetricsRegistry()
        store = CampaignStore(tmp_path / "campaigns.db", metrics=metrics)
        cid = store.submit(noop_spec(3), str(tmp_path / "knowledge.db"))
        first = store.acquire(cid, "victim", 0.0, 10.0)  # expires at 10
        second = store.acquire(cid, "victim", 0.0, 5.0)  # expires at 5
        third = store.acquire(cid, "victim", 0.0, 5.0)  # expires at 5, higher id
        order = [store.steal(cid, "thief", 20.0).job_id for _ in range(3)]
        assert order == [second.job_id, third.job_id, first.job_id]
        stolen = store.job(second.job_id)
        assert stolen.state == RESTARTING
        assert stolen.lease_owner == "thief"
        assert "stolen by thief from victim" in stolen.error
        assert store.steal(cid, "thief", 20.0) is None  # nothing left
        steals = sum(
            row["value"]
            for row in metrics.snapshot()["counters"]["campaign.steals_total"][
                "series"
            ]
        )
        assert steals == 3
        store.close()

    def test_live_lease_is_not_stealable(self, tmp_path):
        store, cid = submit_noop(tmp_path, 1)
        store.acquire(cid, "victim", 0.0, 100.0)
        assert store.steal(cid, "thief", 50.0) is None
        store.close()

    def test_heartbeat_racing_the_steal_invalidates_the_claim(self, tmp_path):
        # The victim was slow, not dead: a heartbeat that lands between
        # the thief's candidate scan and its CAS claim changes the
        # guarded lease columns, so the claim must miss and the victim
        # must keep the job.
        store, cid = submit_noop(tmp_path, 1)
        job = store.acquire(cid, "victim", 0.0, 1.0)

        def hook(row, old, new, when):
            if new == RESTARTING and when == "pre":
                store.on_transition = None  # fire once
                store.heartbeat(job.job_id, 5.0, 10.0, owner="victim")

        store.on_transition = hook
        assert store.steal(cid, "thief", 2.0) is None
        survivor = store.job(job.job_id)
        assert survivor.state == RUNNING
        assert survivor.lease_owner == "victim"
        assert survivor.lease_expires_at == 15.0
        store.close()

    def test_victim_guarded_writes_fail_after_steal(self, tmp_path):
        store, cid = submit_noop(tmp_path, 1)
        job = store.acquire(cid, "victim", 0.0, 1.0)
        assert store.steal(cid, "thief", 2.0).job_id == job.job_id
        with pytest.raises(LeaseLostError):
            store.heartbeat(job.job_id, 2.0, 1.0, owner="victim")
        with pytest.raises(LeaseLostError):
            store.complete(job.job_id, [1], owner="victim")
        with pytest.raises(LeaseLostError):
            store.fail(job.job_id, "boom", retryable=True, owner="victim")
        # the thief's resolution path still works
        requeued = store.requeue(job.job_id)
        assert requeued.state == "READY" and requeued.lease_owner is None
        assert store.acquire(cid, "thief", 3.0, 1.0).attempts == 2
        store.close()

    def test_placement_routes_jobs_to_partition_launchers(self, tmp_path):
        store = CampaignStore(tmp_path / "campaigns.db")
        spec = CampaignSpec(
            name="placed",
            benchmark="noop",
            parameters={"part": "A,B"},
            fixed={"duration_ms": "0"},
            placement="part",
        )
        cid = store.submit(spec, str(tmp_path / "knowledge.db"))
        by_placement = {j.placement: j for j in store.jobs(cid)}
        assert set(by_placement) == {"A", "B"}
        # a partition-A launcher only sees A (and unplaced) jobs
        job_a = store.acquire(cid, "la-w0", 0.0, 60.0, partition="A")
        assert job_a.placement == "A"
        assert store.acquire(cid, "la-w0", 0.0, 60.0, partition="A") is None
        # a partition-less launcher acquires anything left
        job_b = store.acquire(cid, "any-w0", 0.0, 60.0)
        assert job_b.placement == "B"
        store.close()

    def test_placement_key_must_name_a_parameter(self):
        with pytest.raises(CampaignError, match="placement key"):
            CampaignSpec(
                name="bad", benchmark="noop",
                parameters={"idx": "0"}, placement="nope",
            )

    def test_unplaced_jobs_feed_every_partition(self, tmp_path):
        store, cid = submit_noop(tmp_path, 2)
        assert store.acquire(cid, "la-w0", 0.0, 60.0, partition="A") is not None
        assert store.acquire(cid, "lb-w0", 0.0, 60.0, partition="B") is not None
        store.close()

    def test_placements_lists_only_active_values(self, tmp_path):
        store = CampaignStore(tmp_path / "campaigns.db")
        spec = CampaignSpec(
            name="placed", benchmark="noop",
            parameters={"part": "A,B"},
            fixed={"duration_ms": "0"}, placement="part",
        )
        cid = store.submit(spec, str(tmp_path / "knowledge.db"))
        assert store.placements(cid) == ["A", "B"]
        job_a = store.acquire(cid, "w0", 0.0, 60.0, partition="A")
        store.complete(job_a.job_id, [], owner="w0")
        assert store.placements(cid) == ["B"]  # terminal jobs drop out
        store.close()

    def test_v1_store_migrates_in_place(self, tmp_path):
        # A store written before the placement column existed must open,
        # gain the column, and keep its jobs acquirable by anyone.
        path = tmp_path / "old.db"
        conn = sqlite3.connect(str(path))
        conn.executescript(
            """
            CREATE TABLE campaign_meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
            CREATE TABLE campaigns (
                id INTEGER PRIMARY KEY, name TEXT NOT NULL,
                benchmark TEXT NOT NULL, backend_url TEXT NOT NULL,
                spec_json TEXT NOT NULL, cancelled INTEGER NOT NULL DEFAULT 0
            );
            CREATE TABLE campaign_jobs (
                id INTEGER PRIMARY KEY,
                campaign_id INTEGER NOT NULL REFERENCES campaigns(id),
                name TEXT NOT NULL, kind TEXT NOT NULL DEFAULT 'benchmark',
                state TEXT NOT NULL DEFAULT 'CREATED',
                params_json TEXT NOT NULL, token TEXT NOT NULL UNIQUE,
                attempts INTEGER NOT NULL DEFAULT 0,
                max_attempts INTEGER NOT NULL DEFAULT 3,
                lease_owner TEXT, lease_expires_at REAL,
                knowledge_ids_json TEXT, result_text TEXT, error TEXT,
                UNIQUE (campaign_id, name)
            );
            INSERT INTO campaign_meta VALUES ('schema_version', '1');
            INSERT INTO campaigns VALUES (1, 'old', 'noop', 'k.db', '{}', 0);
            INSERT INTO campaign_jobs
                (id, campaign_id, name, state, params_json, token)
                VALUES (1, 1, 'run-0000', 'READY', '{"duration_ms": "0"}',
                        'campaign-1/run-0000');
            """
        )
        conn.commit()
        conn.close()
        with CampaignStore(path) as store:
            assert store.job(1).placement is None
            assert store.acquire(1, "w0", 0.0, 60.0, partition="A").job_id == 1
        conn = sqlite3.connect(str(path))
        version = conn.execute(
            "SELECT value FROM campaign_meta WHERE key = 'schema_version'"
        ).fetchone()[0]
        conn.close()
        assert int(version) == SCHEMA_VERSION == 2

    def test_future_schema_version_rejected(self, tmp_path):
        path = tmp_path / "future.db"
        CampaignStore(path).close()
        conn = sqlite3.connect(str(path))
        conn.execute("UPDATE campaign_meta SET value = '99' WHERE key = 'schema_version'")
        conn.commit()
        conn.close()
        with pytest.raises(PersistenceError, match="schema version"):
            CampaignStore(path)

    def test_expired_scans_use_a_covering_index(self, tmp_path):
        # The expired-lease claim behind steal and reclaim must be an
        # index search on (campaign_id, state, lease_expires_at) that
        # seeks the lease range (expired leases) or the NULL key (never
        # stamped), never a walk of every RUNNING row or a table sweep,
        # and needs no sort step for its order.
        store, cid = submit_noop(tmp_path, 2)
        statements = []
        store._conn.set_trace_callback(statements.append)
        store.steal(cid, "thief", 5.0)
        store._conn.set_trace_callback(None)
        for marker, seek in (("lease_expires_at <", "lease_expires_at<?"),
                             ("lease_expires_at IS NULL", "lease_expires_at=?")):
            [query] = [sql for sql in statements if marker in sql]
            plan = " ".join(
                row["detail"]
                for row in store._conn.execute("EXPLAIN QUERY PLAN " + query)
            )
            assert "SEARCH campaign_jobs USING" in plan, plan
            assert "INDEX idx_campaign_jobs_lease" in plan, plan
            assert seek in plan, plan
            assert "SCAN campaign_jobs" not in plan, plan
            assert "TEMP B-TREE" not in plan, plan
        store.close()

    def test_batched_reclaim_only_touches_expired(self, tmp_path):
        store, cid = submit_noop(tmp_path, 4)
        expired = store.acquire(cid, "dead", 0.0, 1.0)
        for _ in range(3):
            store.acquire(cid, "live", 0.0, 100.0)
        reclaimed = store.reclaim(cid, "recovery", now=50.0)
        assert [j.job_id for j in reclaimed] == [expired.job_id]
        assert store.counts(cid)[RUNNING] == 3
        store.close()

    def test_launcher_scoreboard_upsert_and_validation(self, tmp_path):
        store, cid = submit_noop(tmp_path, 1)
        store.report_launcher(
            cid, "fleet-l0", pid=123, state="running", jobs_done=2,
            pool_active=1, pool_max=2, started_at=100.0,
        )
        store.report_launcher(cid, "fleet-l0", jobs_done=5, steals=1)
        (row,) = store.launcher_rows(cid)
        assert row["jobs_done"] == 5 and row["steals"] == 1
        assert row["pid"] == 123  # untouched fields survive the upsert
        with pytest.raises(CampaignError, match="unknown launcher status field"):
            store.report_launcher(cid, "fleet-l0", throughput=9.0)
        store.close()

    def test_watch_view_renders_from_the_store_alone(self, tmp_path):
        store, cid = submit_noop(tmp_path, 4)
        done = store.acquire(cid, "fleet-l0-w0", 0.0, 60.0)
        store.complete(done.job_id, [], owner="fleet-l0-w0")
        store.report_launcher(
            cid, "fleet-l0", pid=321, state="running", placement="A",
            jobs_done=1, steals=2, pool_active=1, pool_max=2, started_at=0.0,
        )
        view = render_fleet_view(store, cid, now=10.0)
        assert "1/4 terminal" in view and "queue depth 3" in view
        assert "fleet-l0" in view and "A" in view
        assert "0.1/s" in view  # 1 job / 10 s
        store.close()

    def test_job_ids_in_state_rejects_unknown_state(self, tmp_path):
        store, cid = submit_noop(tmp_path, 1)
        with pytest.raises(CampaignError, match="unknown job state"):
            store.job_ids_in_state(cid, "LIMBO")
        store.close()


# ----------------------------------------------------------------------
# elastic pool sizing
# ----------------------------------------------------------------------
class TestElasticPolicy:
    def test_bounds_validation(self):
        with pytest.raises(ConfigurationError, match="min_workers"):
            ElasticBounds(min_workers=0)
        with pytest.raises(ConfigurationError, match="max_workers"):
            ElasticBounds(min_workers=4, max_workers=2)
        with pytest.raises(ConfigurationError, match="depth_per_worker"):
            ElasticBounds(depth_per_worker=0)

    def test_allowed_is_a_pure_clamp_of_queue_depth(self):
        metrics = MetricsRegistry()
        controller = ElasticController(
            ElasticBounds(min_workers=1, max_workers=4, depth_per_worker=2),
            metrics=metrics,
        )
        for depth, expected in [(0, 1), (1, 1), (2, 1), (4, 2), (8, 4), (100, 4)]:
            assert controller.allowed(depth) == expected, depth
        assert controller.last_allowed == 4
        gauge = metrics.snapshot()["gauges"]["fleet.pool_allowed"]["series"]
        assert gauge[0]["value"] == 4.0

    def test_launcher_parks_workers_above_the_allowed_size(self, tmp_path):
        class OneWorkerOnly:
            def allowed(self, queue_depth):
                return 1

        store, cid = submit_noop(tmp_path, 4)
        owners = []

        def hook(row, old, new, when):
            if old == "READY" and new == RUNNING and when == "post":
                owners.append(row.lease_owner)

        store.on_transition = hook
        launcher = Launcher(
            store, cid, workspace=tmp_path / "ws", workers=3, seed=7,
            name="el", elastic=OneWorkerOnly(), lease_s=60.0,
        )
        counts = launcher.run()
        assert counts["DONE"] == 4
        assert set(owners) == {"el-w0"}  # workers 1 and 2 stayed parked
        store.close()


# ----------------------------------------------------------------------
# heartbeat through retry backoff (the stolen-while-retrying regression)
# ----------------------------------------------------------------------
class TestHeartbeatThroughBackoff:
    def _observer(self, tmp_path, lease_s=4.0):
        store, cid = submit_noop(tmp_path, 1)
        clock = FakeClock()
        sleeps = []

        def probing_sleep(delay_s):
            clock.now += delay_s
            sleeps.append(delay_s)
            # the regression: at no instant during a long backoff may
            # the job be stealable
            assert store.steal(cid, "thief", clock.now) is None

        job = store.acquire(cid, "L-w0", clock.now, lease_s)
        launcher = Launcher(
            store, cid, workspace=tmp_path / "ws", name="L",
            lease_s=lease_s, clock=clock, sleep=probing_sleep,
        )
        heart = _HeartbeatObserver(launcher, job.job_id, "L-w0")
        return store, cid, clock, sleeps, job, heart

    def test_long_backoff_is_sliced_into_lease_refreshing_chunks(self, tmp_path):
        # A 20 s retry backoff against a 4 s lease: without slicing the
        # lease expires 4 s in and a peer steals the healthy job.
        store, cid, clock, sleeps, job, heart = self._observer(tmp_path)
        heart.guarded_sleep(20.0)
        assert sleeps == [1.0] * 20  # lease_s / 4 slices
        refreshed = store.job(job.job_id)
        assert refreshed.state == RUNNING and refreshed.lease_owner == "L-w0"
        assert refreshed.lease_expires_at == 24.0  # final beat at t=20
        store.close()

    def test_short_backoff_is_one_slice(self, tmp_path):
        store, cid, clock, sleeps, job, heart = self._observer(tmp_path)
        heart.guarded_sleep(0.5)
        assert sleeps == [0.5]
        assert store.job(job.job_id).lease_expires_at == 4.5
        store.close()

    def test_steal_mid_backoff_aborts_the_sleep(self, tmp_path):
        store, cid = submit_noop(tmp_path, 1)
        clock = FakeClock()
        job = store.acquire(cid, "L-w0", clock.now, 4.0)
        calls = []

        def stealing_sleep(delay_s):
            clock.now += delay_s
            calls.append(delay_s)
            if len(calls) == 3:  # a peer decides the launcher is dead
                assert store.steal(cid, "thief", clock.now + 100.0) is not None

        launcher = Launcher(
            store, cid, workspace=tmp_path / "ws", name="L",
            lease_s=4.0, clock=clock, sleep=stealing_sleep,
        )
        heart = _HeartbeatObserver(launcher, job.job_id, "L-w0")
        with pytest.raises(LeaseLostError):
            heart.guarded_sleep(20.0)
        assert len(calls) == 3  # the next beat aborted the backoff
        assert store.job(job.job_id).lease_owner == "thief"
        store.close()

    def test_pipeline_retry_backoff_keeps_the_lease(self, tmp_path):
        # End-to-end: an ior job whose generation phase always fails
        # transiently, retried under an 8 s backoff with a 4 s lease.
        # Every backoff sleep probes that the job is never stealable.
        from repro.iostack.stack import Testbed
        from repro.pfs.faults import Fault

        store = CampaignStore(tmp_path / "campaigns.db")
        spec = CampaignSpec(
            name="retrying", benchmark="ior",
            parameters={"transfersize": "1m"},
            fixed={"command": "ior -a mpiio -b 4m -t $transfersize -s 2 -F "
                             "-i 1 -o /scratch/c/t -k"},
            max_attempts=2,
        )
        cid = store.submit(spec, str(tmp_path / "knowledge.db"))
        clock = FakeClock()
        probes = []

        def probing_sleep(delay_s):
            clock.now += delay_s
            probes.append(delay_s)
            assert store.steal(cid, "thief", clock.now) is None

        def broken_testbed(job_seed):
            testbed = Testbed.fuchs_csc(seed=job_seed)
            testbed.fs.faults.add(
                Fault(name="always", fail_probability=1.0,
                      error_kind="benchmark", when={"benchmark": "ior"},
                      transient=True)
            )
            return testbed

        launcher = Launcher(
            store, cid, workspace=tmp_path / "ws", workers=1, seed=7,
            name="L", lease_s=4.0, clock=clock, sleep=probing_sleep,
            retry_policy=RetryPolicy(max_attempts=2, base_delay_s=8.0, seed=7),
            testbed_factory=broken_testbed,
        )
        counts = launcher.run()
        assert counts["FAILED"] == 1  # budget exhausted, never stolen
        # the retry backoff (> lease_s) really was sliced sub-lease
        assert probes and max(probes) <= 1.0
        store.close()


# ----------------------------------------------------------------------
# the fleet coordinator
# ----------------------------------------------------------------------
class TestLauncherFleet:
    def test_size_validation(self, tmp_path):
        store, cid = submit_noop(tmp_path, 1)
        with pytest.raises(CampaignError, match="fleet size"):
            LauncherFleet(store, cid, size=0, workspace=tmp_path / "ws")
        store.close()

    def test_uncovered_placement_refuses_to_start(self, tmp_path):
        # A placement no launcher serves would stall the drain loop
        # forever; the coordinator must fail before the first spawn.
        store = CampaignStore(tmp_path / "campaigns.db")
        spec = CampaignSpec(
            name="placed", benchmark="noop",
            parameters={"part": "A,B"},
            fixed={"duration_ms": "0"}, placement="part",
        )
        cid = store.submit(spec, str(tmp_path / "knowledge.db"))
        fleet = LauncherFleet(
            store, cid, size=1, workspace=tmp_path / "ws", partitions=["A"],
        )
        with pytest.raises(CampaignError, match="no launcher serves"):
            fleet.run()
        assert fleet.uncovered_placements == ["B"]
        assert store.counts(cid)["READY"] == 2  # nothing was touched
        # A fleet smaller than its partition list deals only the head
        # round-robin — the undealt tail is just as uncovered.
        undersized = LauncherFleet(
            store, cid, size=1, workspace=tmp_path / "ws",
            partitions=["A", "B"],
        )
        with pytest.raises(CampaignError, match="no launcher serves"):
            undersized.run()
        assert undersized.uncovered_placements == ["B"]
        store.close()

    @pytest.mark.timeout(120)
    def test_fleet_drains_with_live_watch_and_scoreboard(self, tmp_path):
        metrics = MetricsRegistry()
        store = CampaignStore(tmp_path / "campaigns.db", metrics=metrics)
        cid = store.submit(
            noop_spec(8, duration_ms=20), str(tmp_path / "knowledge.db")
        )
        frames = []
        fleet = LauncherFleet(
            store, cid, size=2, workspace=tmp_path / "ws",
            workers_per_launcher=1, lease_s=5.0, poll_s=0.01,
            supervise_interval_s=0.02, metrics=metrics,
            watch=frames.append, watch_interval_s=0.0,
        )
        counts = fleet.run()
        assert counts["DONE"] == 8 and counts["FAILED"] == 0
        tokens = knowledge_tokens(tmp_path)
        assert len(tokens) == len(set(tokens)) == 8
        rows = {r["launcher"]: r for r in store.launcher_rows(cid)}
        assert set(rows) == {"fleet-l0", "fleet-l1"}
        assert sum(int(r["jobs_done"]) for r in rows.values()) == 8
        assert frames and "campaign 1:" in frames[0]
        report = render_metrics_report(metrics.snapshot())
        assert "launcher(s) live" in report
        store.close()

    @pytest.mark.timeout(180)
    def test_sigkill_matrix_zero_lost_zero_duplicated(self, tmp_path):
        # The acceptance property in miniature: launchers SIGKILLed on
        # a deterministic cadence mid-drain; every job must end DONE
        # with exactly one knowledge row carrying its token.
        metrics = MetricsRegistry()
        store, cid = submit_noop(tmp_path, 30, duration_ms=40, max_attempts=6)
        fleet = LauncherFleet(
            store, cid, size=3, workspace=tmp_path / "ws",
            workers_per_launcher=1, lease_s=0.5, poll_s=0.01,
            supervise_interval_s=0.05, metrics=metrics,
            crash_loop_threshold=100,
        )
        fleet.killer = WorkerKiller(
            fleet, every_frames=15, metrics=metrics,
            metric_name="fleet.chaos.faults_total",
        )
        counts = fleet.run()
        assert counts["DONE"] == 30 and counts["FAILED"] == 0
        tokens = knowledge_tokens(tmp_path)
        assert len(tokens) == len(set(tokens)) == 30  # exactly once
        assert fleet.killer.kills >= 1
        assert fleet.respawns >= 1
        snapshot = metrics.snapshot()
        assert "fleet.chaos.faults_total" in snapshot["counters"]
        assert "fleet.respawns_total" in snapshot["counters"]
        store.close()

    @pytest.mark.timeout(120)
    def test_crash_loop_tombstones_the_slot_and_surfaces(self, tmp_path):
        # A launcher that exits non-zero on every spawn (its knowledge
        # backend path is unusable) must be tombstoned after the
        # threshold, and a fleet with no live launcher must raise.
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory", encoding="utf-8")
        store = CampaignStore(tmp_path / "campaigns.db")
        cid = store.submit(noop_spec(2), str(blocker / "k.db"))
        fleet = LauncherFleet(
            store, cid, size=1, workspace=tmp_path / "ws",
            supervise_interval_s=0.01, crash_loop_threshold=2,
            respawn_policy=RetryPolicy(max_attempts=5, base_delay_s=0.0, seed=1),
        )
        with pytest.raises(CampaignError, match="retired or crash-looping"):
            fleet.run()
        assert fleet.crash_loops == 1
        assert fleet.workers[0].supervision.crash_looped
        assert fleet.workers[0].process is None
        store.close()

    def test_worker_killer_routes_metric_and_round_robins(self):
        class FakeProcess:
            def __init__(self):
                self.kills = 0

            def kill(self):
                self.kills += 1

            def poll(self):
                return None

        class FakeSlot:
            def __init__(self):
                self.process = FakeProcess()

            @property
            def alive(self):
                return True

        class FakeFleet:
            workers = [FakeSlot(), FakeSlot()]

        metrics = MetricsRegistry()
        fleet = FakeFleet()
        killer = WorkerKiller(
            fleet, every_frames=2, metrics=metrics,
            metric_name="fleet.chaos.faults_total",
        )
        killer.on_frame(1)
        assert killer.kills == 0
        killer.on_frame(2)
        killer.on_frame(4)
        assert killer.kills == 2
        assert [s.process.kills for s in fleet.workers] == [1, 1]
        counters = metrics.snapshot()["counters"]
        assert "fleet.chaos.faults_total" in counters
        assert "service.chaos.faults_total" not in counters


# ----------------------------------------------------------------------
# the CLIs
# ----------------------------------------------------------------------
NOOP_TOML = """
[campaign]
name = "noop-fleet"
benchmark = "noop"

[parameters]
idx = "0,1,2,3,4,5"

[fixed]
duration_ms = "10"
"""


class TestFleetCLI:
    def _submit(self, tmp_path, capsys):
        toml_file = tmp_path / "noop.toml"
        toml_file.write_text(NOOP_TOML, encoding="utf-8")
        store_file = str(tmp_path / "campaigns.db")
        assert campaign_main(
            [store_file, "--submit", str(toml_file),
             "--db", str(tmp_path / "knowledge.db")]
        ) == 0
        capsys.readouterr()
        return store_file

    @pytest.mark.timeout(120)
    def test_run_fleet_with_watch(self, tmp_path, capsys):
        store_file = self._submit(tmp_path, capsys)
        metrics_file = tmp_path / "m.json"
        assert campaign_main(
            [store_file, "--run", "1", "--fleet", "2", "--watch",
             "--workers", "1", "--lease", "5",
             "--workspace", str(tmp_path / "ws"),
             "--metrics-json", str(metrics_file)]
        ) == 0
        out = capsys.readouterr().out
        assert "drained by 2 launcher(s)" in out and "6 DONE" in out
        assert "queue depth" in out  # at least one watch frame rendered
        snapshot = json.loads(metrics_file.read_text(encoding="utf-8"))
        assert "fleet.launchers" in snapshot["gauges"]

    @pytest.mark.timeout(120)
    def test_resume_fleet_reclaims_a_dead_launcher_first(self, tmp_path, capsys):
        store_file = self._submit(tmp_path, capsys)
        # a "dead launcher" left one job RUNNING under an eternal lease
        with CampaignStore(store_file) as store:
            assert store.acquire(1, "dead-w0", 0.0, 10_000_000.0) is not None
        assert campaign_main(
            [store_file, "--resume", "1", "--fleet", "1", "--workers", "2",
             "--lease", "5", "--workspace", str(tmp_path / "ws")]
        ) == 0
        assert "6 DONE" in capsys.readouterr().out
        tokens = knowledge_tokens(tmp_path)
        assert len(tokens) == len(set(tokens)) == 6

    def test_bad_fleet_arguments(self, tmp_path):
        store_file = str(tmp_path / "campaigns.db")
        assert campaign_main([store_file, "--run", "1", "--fleet", "0"]) == 2
        assert campaign_main([store_file, "--status", "--fleet", "2"]) == 2


# ----------------------------------------------------------------------
# drain scaling: more launchers, more throughput
# ----------------------------------------------------------------------
@pytest.mark.stress
@pytest.mark.timeout(300)
def test_four_launchers_drain_twice_as_fast_as_one(tmp_path):
    """60 noop jobs of 200 ms each, drained by fleets of 1 and 4
    launcher processes with one worker each: 4 launchers finish in at
    most half the time, every job DONE with its token on exactly one
    knowledge row.  The jobs hold wall-clock rather than CPU, so the
    ratio holds on a 2-core host too.  Then every steal of an
    expired-lease job claims one."""
    elapsed = {}
    for size in (1, 4):
        scratch = tmp_path / f"fleet{size}"
        scratch.mkdir()
        store, cid = submit_noop(scratch, 60, duration_ms=200)
        with store:
            fleet = LauncherFleet(
                store, cid, size=size, workspace=scratch / "ws",
                workers_per_launcher=1, lease_s=5.0, poll_s=0.005,
                supervise_interval_s=0.02,
            )
            started = time.perf_counter()
            counts = fleet.run()
            elapsed[size] = time.perf_counter() - started
        assert counts["DONE"] == sum(counts.values()) == 60, counts
        tokens = knowledge_tokens(scratch)
        assert len(tokens) == len(set(tokens)) == 60
    assert elapsed[1] >= 2.0 * elapsed[4], elapsed

    store, cid = submit_noop(tmp_path, 64)
    with store:
        for _ in range(64):
            assert store.acquire(cid, "dead-launcher", 1000.0, lease_s=1.0) is not None
        stolen = [store.steal(cid, "thief", 1010.0) for _ in range(64)]
        assert None not in stolen
        assert len({job.job_id for job in stolen}) == 64
        assert store.steal(cid, "thief", 1010.0) is None


# ----------------------------------------------------------------------
# the CI fleet soak (pytest face of the 10k-job acceptance run)
# ----------------------------------------------------------------------
@pytest.mark.stress
@pytest.mark.timeout(600)
def test_fleet_soak_under_scheduled_sigkills(tmp_path, fault_seed):
    """A wider SIGKILL soak: 200 jobs, 4 launchers, kills on a seeded
    cadence — zero lost, zero duplicated, every token exactly once.
    (CI's fleet-soak job runs the full 10k-job version through the
    repro-campaign CLI; this keeps the property in the pytest matrix.)"""
    metrics = MetricsRegistry()
    store, cid = submit_noop(tmp_path, 200, duration_ms=5, max_attempts=8)
    fleet = LauncherFleet(
        store, cid, size=4, workspace=tmp_path / "ws",
        workers_per_launcher=2, lease_s=1.0, poll_s=0.01,
        seed=fault_seed, supervise_interval_s=0.05,
        crash_loop_threshold=1000, metrics=metrics,
    )
    # The killer is fed the campaign's DONE count: one kill per 25 DONE
    # jobs, about 7 over the drain.  Each kill comes only after progress,
    # so a slow cold start delays kills instead of stalling the drain.
    fleet.killer = WorkerKiller(
        fleet, every_frames=25, metrics=metrics,
        metric_name="fleet.chaos.faults_total",
    )
    counts = fleet.run()
    assert counts["DONE"] == 200, counts
    assert counts["FAILED"] == 0
    tokens = knowledge_tokens(tmp_path)
    assert len(tokens) == len(set(tokens)) == 200
    assert fleet.killer.kills >= 1 and fleet.respawns >= 1
    store.close()
