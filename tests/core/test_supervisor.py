"""Self-healing knowledge server: supervised respawn, breaker heal via
half-open probe, crash-loop demotion, startup deadlines, the health op,
the client honoring server-supplied ``retry_after`` hints, and the
dead-child step both supervisors share, on a fake clock."""

import socket
import time
from types import SimpleNamespace

import pytest

from repro.core.knowledge import (
    Knowledge,
    KnowledgeResult,
    KnowledgeSummary,
)
from repro.core.metrics import MetricsRegistry, render_metrics_report
from repro.core.resilience import CircuitBreaker, RetryPolicy
from repro.core.service.client import ServiceClient, open_service
from repro.core.service.server import (
    CrashLoopedHandle,
    KnowledgeServer,
    WorkerHandle,
)
from repro.core.service.wire import error_body, error_code, raise_wire_error
from repro.core.supervise import SupervisedSlot
from repro.util.errors import (
    ServiceError,
    ServiceTransportError,
    WorkerStartupError,
)


def make_knowledge(marker: int, host: str = "node1") -> Knowledge:
    return Knowledge(
        benchmark="ior", command=f"ior -m {marker}", api="MPIIO",
        num_nodes=2, num_tasks=8,
        parameters={"marker": marker},
        summaries=[
            KnowledgeSummary(
                operation="write", api="MPIIO",
                bw_max=101.0, bw_min=99.0, bw_mean=100.0, bw_stddev=1.0,
                ops_max=3.0, ops_min=1.0, ops_mean=2.0, ops_stddev=0.5,
                iterations=1,
                results=[
                    KnowledgeResult(iteration=0, bandwidth_mib=100.0, iops=2.0)
                ],
            )
        ],
        system={"hostname": host},
    )


def _url(server) -> str:
    return f"knowledge+tcp://{server.host}:{server.port}/"


def _counter(metrics: MetricsRegistry, name: str) -> float:
    family = metrics.snapshot().get("counters", {}).get(name)
    if not family:
        return 0.0
    return sum(row["value"] for row in family["series"])


# ----------------------------------------------------------------------
# the shared dead-child step (server supervisor and launcher fleet)
# ----------------------------------------------------------------------
class TestRespawnStep:
    def test_backoff_respawn_and_crash_loop_on_a_fake_clock(self):
        clock = SimpleNamespace(now=100.0)
        policy = RetryPolicy(
            max_attempts=4, base_delay_s=1.0, multiplier=2.0, max_delay_s=60.0,
            jitter=0.0, salt="respawn-step",
        )
        slot = SupervisedSlot()
        spawned = []

        def step(spawn_ok):
            def spawn():
                spawned.append(clock.now)
                if not spawn_ok:
                    raise OSError("injected: fork failed")

            return slot.respawn_dead(
                lambda: clock.now, spawn, policy=policy, window_s=30.0, threshold=2
            )

        # A failing spawn backs off by the policy's delay for attempt 1.
        assert step(spawn_ok=False) is None
        assert spawned == [100.0]
        assert (slot.unhealthy_since, slot.attempt) == (100.0, 1)
        assert slot.next_attempt_at == 100.0 + policy.delay_s(1) == 101.0
        # Inside the backoff gate nothing is spawned.
        clock.now = 100.5
        assert step(spawn_ok=True) is None
        assert spawned == [100.0]
        # Once the gate lapses the respawn succeeds: budget reset, healed.
        clock.now = 101.0
        assert step(spawn_ok=True) == pytest.approx(1.0)
        assert spawned == [100.0, 101.0]
        assert (slot.attempt, slot.next_attempt_at, slot.respawns) == (0, 0.0, 1)
        assert (slot.unhealthy_since, slot.last_heal_at) == (None, 101.0)
        assert not slot.crash_looped
        # The child dies again inside the window: two attempts are
        # already in it, so the third crosses threshold 2 and is a crash
        # loop; nothing is spawned.
        clock.now = 110.0
        assert step(spawn_ok=True) is None
        assert spawned == [100.0, 101.0]
        assert slot.crash_looped and slot.respawns == 1

    def test_attempts_outside_the_window_do_not_count(self):
        clock = SimpleNamespace(now=0.0)
        policy = RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter=0.0)
        slot = SupervisedSlot()
        for now in (0.0, 40.0, 80.0, 120.0):  # one death per 40 s, window 30 s
            clock.now = now
            heal_s = slot.respawn_dead(
                lambda: clock.now, lambda: None, policy=policy,
                window_s=30.0, threshold=1,
            )
            assert heal_s == 0.0
        assert slot.respawns == 4 and not slot.crash_looped


# ----------------------------------------------------------------------
# the acceptance path: SIGKILL'd worker respawns and serves again
# ----------------------------------------------------------------------
class TestSupervisedRespawn:
    def test_sigkilled_worker_respawns_and_serves_all_shards(self, tmp_path):
        metrics = MetricsRegistry()
        server = KnowledgeServer(
            tmp_path / "store", shards=2, worker_processes=2,
            metrics=metrics, request_timeout_s=15.0, supervisor_poll_s=0.05,
        )
        server.start()
        try:
            with ServiceClient.open(_url(server)) as client:
                objs = [make_knowledge(m, host=f"n{m}") for m in range(8)]
                ids = client.save_many(objs)
                victim = server.workers[0]
                old_pid = victim.process.pid
                unhealthy_at = time.monotonic()
                victim.process.kill()
                victim.process.wait()

                deadline = time.monotonic() + 30.0
                healed = False
                while time.monotonic() < deadline:
                    try:
                        if client.count() == 8:
                            healed = True
                            break
                    except ServiceError:
                        pass
                    time.sleep(0.05)
                assert healed, "server never returned to serving all shards"
                time_to_heal = time.monotonic() - unhealthy_at
                assert time_to_heal < 30.0

                # zero lost, zero duplicated rows: the respawned worker
                # reopened the same durable shards
                assert client.list_ids() == sorted(ids)
                successor = server.workers[0]
                assert successor.process.pid != old_pid
                assert successor.owned_shards == victim.owned_shards

                health = client.health()
                assert health["status"] == "healthy"
                assert health["supervised"] is True
                by_worker = {w["worker"]: w for w in health["workers"]}
                assert by_worker[0]["respawns"] >= 1
                assert by_worker[0]["pid"] == successor.process.pid
                assert by_worker[0]["breaker"] == "closed"
                assert by_worker[0]["last_heal_s_ago"] is not None
        finally:
            server.close()
        assert _counter(metrics, "service.supervisor.respawns_total") >= 1
        heal = metrics.snapshot()["histograms"].get(
            "service.supervisor.heal_seconds"
        )
        assert heal and sum(row["count"] for row in heal["series"]) >= 1
        report = render_metrics_report(metrics.snapshot())
        assert "worker respawns" in report
        assert "time to heal" in report

    def test_breaker_heals_without_respawn_via_single_probe(self, tmp_path):
        """A quarantined-but-alive worker is readmitted through exactly
        one half-open probe — no process churn."""
        metrics = MetricsRegistry()
        server = KnowledgeServer(
            tmp_path / "store", shards=2, worker_processes=2,
            metrics=metrics, supervisor_poll_s=3600.0,  # tick by hand
        )
        server.start()
        try:
            victim = server.workers[0]
            pid = victim.process.pid
            for _ in range(victim.breaker.failure_threshold):
                victim.breaker.record_failure()
            assert victim.breaker.state == CircuitBreaker.OPEN
            with pytest.raises(ServiceTransportError) as excinfo:
                victim.call("ping", {})
            assert excinfo.value.wire_code == "quarantine"
            assert excinfo.value.retry_after_s > 0  # honest hint

            server.supervisor.tick()  # sees OPEN inside its window: waits
            assert victim.breaker.state == CircuitBreaker.OPEN
            assert server.workers[0] is victim

            time.sleep(victim.breaker.reset_timeout_s + 0.1)
            assert victim.breaker.state == CircuitBreaker.HALF_OPEN
            server.supervisor.tick()  # one ping through the probe slot

            assert victim.breaker.state == CircuitBreaker.CLOSED
            assert server.workers[0] is victim  # same handle,
            assert victim.process.pid == pid  # same process
            slot = server.supervisor.slot_info(0)
            assert slot["respawns"] == 0
            assert slot["crash_looped"] is False
            assert slot["last_heal_s_ago"] is not None
            assert slot["unhealthy_for_s"] is None

            # exactly one probe: one open->half-open and one
            # half-open->closed transition, nothing more
            transitions = metrics.snapshot()["counters"][
                "resilience.breaker_transitions_total"
            ]["series"]
            worker0 = {
                (r["labels"]["from"], r["labels"]["to"]): r["value"]
                for r in transitions
                if r["labels"].get("name") == "service-worker-0"
            }
            assert worker0[("open", "half-open")] == 1
            assert worker0[("half-open", "closed")] == 1
            heal = metrics.snapshot()["histograms"][
                "service.supervisor.heal_seconds"
            ]
            probe_rows = [
                r for r in heal["series"] if r["labels"].get("mode") == "probe"
            ]
            assert sum(r["count"] for r in probe_rows) == 1
        finally:
            server.close()
        assert _counter(metrics, "service.supervisor.respawns_total") == 0

    def test_crash_loop_demotes_group_with_typed_retry_after(self, tmp_path):
        metrics = MetricsRegistry()
        server = KnowledgeServer(
            tmp_path / "store", shards=2, worker_processes=2,
            metrics=metrics, supervisor_poll_s=3600.0,
            crash_loop_threshold=2, crash_loop_window_s=30.0,
            respawn_policy=RetryPolicy(
                max_attempts=3, base_delay_s=0.0, jitter=0.0,
                salt="test-supervisor",
            ),
        )
        server.start()
        try:
            victim = server.workers[0]
            owned = victim.owned_shards
            victim.process.kill()
            victim.process.wait()

            def failing_respawn(index):
                raise ServiceError("injected: worker cannot come back up")

            server._respawn_worker = failing_respawn
            for _ in range(4):  # threshold 2 -> third attempt demotes
                server.supervisor.tick()

            tombstone = server.workers[0]
            assert isinstance(tombstone, CrashLoopedHandle)
            assert tombstone.owned_shards == owned
            assert server.router._owner[owned[0]] is tombstone
            with pytest.raises(ServiceTransportError) as excinfo:
                tombstone.call("ping", {})
            assert excinfo.value.wire_code == "crash_loop"
            assert excinfo.value.retry_after_s > 0
            assert excinfo.value.transient  # retry *after the hint* is sane

            # over the wire: typed crash_loop error, no hang
            policy = RetryPolicy(max_attempts=1, salt="t")
            with ServiceClient.open(_url(server), retry_policy=policy) as c:
                with pytest.raises(ServiceTransportError) as wired:
                    c.count()
                assert wired.value.wire_code == "crash_loop"
                assert wired.value.retry_after_s > 0
                health = c.health()
                assert health["status"] == "degraded"
                by_worker = {w["worker"]: w for w in health["workers"]}
                assert by_worker[0]["crash_looped"] is True
                assert by_worker[0]["pid"] is None
                assert by_worker[0]["breaker"] == "crash-loop"

            # demoted means *stopped*: further ticks never respawn
            before = _counter(metrics, "service.supervisor.crash_loops_total")
            server.supervisor.tick()
            assert _counter(
                metrics, "service.supervisor.crash_loops_total"
            ) == before == 1
        finally:
            server.close()


# ----------------------------------------------------------------------
# startup deadline (satellite 1)
# ----------------------------------------------------------------------
class TestStartupDeadline:
    def test_hung_handshake_raises_typed_worker_startup_error(self):
        parent, child = socket.socketpair()
        fake_process = SimpleNamespace(
            poll=lambda: None, kill=lambda: None,
            wait=lambda timeout=None: 0, pid=4242,
        )
        handle = WorkerHandle(
            0, (0,), fake_process, [parent],
            breaker=CircuitBreaker(failure_threshold=3, reset_timeout_s=1.0),
            request_timeout_s=0.2,
        )
        start = time.monotonic()
        with pytest.raises(WorkerStartupError) as excinfo:
            handle.handshake(deadline_s=0.4)  # nobody ever answers hello
        assert time.monotonic() - start < 5.0  # bounded, not a hang
        assert excinfo.value.transient  # the supervisor may retry
        assert error_code(excinfo.value) == "worker-startup"
        child.close()
        handle.close_channels()

    def test_boot_respects_deadline_when_unsupervised(self, tmp_path,
                                                      monkeypatch):
        real_spawn = KnowledgeServer._spawn_worker

        def hung_spawn(self, worker_index, owned, *args):
            handle = real_spawn(self, worker_index, owned, *args)
            handle.process.kill()  # dies before it can answer hello
            handle.process.wait()
            return handle

        monkeypatch.setattr(KnowledgeServer, "_spawn_worker", hung_spawn)
        with pytest.raises(WorkerStartupError):
            KnowledgeServer(
                tmp_path / "store", shards=2, worker_processes=2,
                supervise=False, startup_deadline_s=2.0,
            )


# ----------------------------------------------------------------------
# retry_after plumbing (satellite 3) + wire round trip
# ----------------------------------------------------------------------
class _QuarantineOnceTransport:
    """Fails the first call with a hinted quarantine, then succeeds."""

    metrics = None

    def __init__(self, hint_s: float) -> None:
        self.hint_s = hint_s
        self.calls = 0

    def call(self, op, payload, *, timeout_s=None):
        self.calls += 1
        if self.calls == 1:
            exc = ServiceTransportError("quarantined", retryable=True)
            exc.wire_code = "quarantine"
            exc.retry_after_s = self.hint_s
            raise exc
        return {}

    def close(self):
        pass


class TestRetryAfterHint:
    def test_error_frame_round_trips_retry_after(self):
        exc = ServiceTransportError("worker 0 quarantined", retryable=True)
        exc.wire_code = "quarantine"
        exc.retry_after_s = 2.5
        body = error_body(exc)
        assert body["retry_after"] == 2.5
        assert body["retryable"] is True
        with pytest.raises(ServiceTransportError) as excinfo:
            raise_wire_error(body)
        assert excinfo.value.wire_code == "quarantine"
        assert excinfo.value.retry_after_s == 2.5
        assert excinfo.value.transient

    def test_crash_loop_code_reconstructs_transport_error(self):
        body = {"code": "crash_loop", "message": "shards dark",
                "retryable": True, "retry_after": 30.0}
        with pytest.raises(ServiceTransportError) as excinfo:
            raise_wire_error(body)
        assert excinfo.value.wire_code == "crash_loop"
        assert excinfo.value.retry_after_s == 30.0

    def test_client_sleeps_the_server_hint_not_its_own_schedule(self):
        sleeps = []
        client = ServiceClient(
            _QuarantineOnceTransport(hint_s=0.123),
            retry_policy=RetryPolicy(
                max_attempts=4, base_delay_s=5.0, jitter=0.0, salt="t",
            ),
            sleep=sleeps.append,
        )
        assert client.ping() is True
        assert sleeps == [0.123]  # the hint, not the 5 s policy delay

    def test_hint_is_still_clamped_to_the_request_deadline(self):
        sleeps = []
        client = ServiceClient(
            _QuarantineOnceTransport(hint_s=60.0),
            retry_policy=RetryPolicy(
                max_attempts=4, base_delay_s=0.001, jitter=0.0, salt="t",
            ),
            sleep=sleeps.append,
            timeout_s=0.5,
        )
        assert client.ping() is True
        assert len(sleeps) == 1
        assert sleeps[0] <= 0.5  # deadline clamp beats the hint


# ----------------------------------------------------------------------
# the health op (satellite 2)
# ----------------------------------------------------------------------
class TestHealthOp:
    def test_embedded_service_answers_a_minimal_stub(self, tmp_path):
        with ServiceClient(open_service(str(tmp_path / "emb"))) as client:
            health = client.health()
        assert health["status"] == "healthy"
        assert health["supervised"] is False
        assert health["workers"] == []

    def test_health_answers_while_draining(self, tmp_path):
        server = KnowledgeServer(tmp_path / "store", shards=2)
        server.start()
        try:
            with ServiceClient.open(_url(server)) as client:
                assert client.health()["status"] == "healthy"
                server.initiate_drain()
                health = client.health()  # not a typed draining error
                assert health["status"] == "draining"
        finally:
            server.close()
