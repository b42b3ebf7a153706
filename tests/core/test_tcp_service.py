"""knowledge+tcp:// end to end: parity, retries, drain, kill, soak.

The networked half of the service contract: a :class:`KnowledgeServer`
with shard groups in separate worker processes must behave exactly like
the embedded service through the same :class:`ServiceClient` — same
results, same ordering, same typed errors — and die well: graceful
drain flushes every worker (exit 0), a SIGKILL'd server surfaces typed
transport errors in clients instead of hangs.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.knowledge import (
    FilesystemInfo,
    Knowledge,
    KnowledgeResult,
    KnowledgeSummary,
)
from repro.core.metrics import MetricsRegistry
from repro.core.persistence.scan import ScanQuery
from repro.core.resilience import RetryPolicy
from repro.core.service.client import ServiceClient, parse_tcp_url
from repro.core.service.server import KnowledgeServer
from repro.core.service.service import KnowledgeService
from repro.core.service.shard import KnowledgeShardMap, decode_knowledge_id
from repro.core.service.wire import PROTOCOL, error_code
from repro.util.errors import (
    PersistenceError,
    ServiceError,
    ServiceTransportError,
    WireProtocolError,
)


def make_knowledge(marker: int, host: str = "nodeA", benchmark: str = "ior") -> Knowledge:
    return Knowledge(
        benchmark=benchmark, command=f"{benchmark} -m {marker}", api="MPIIO",
        num_nodes=2, num_tasks=8,
        parameters={"marker": marker, "xfersize_bytes": 1 << 20},
        summaries=[
            KnowledgeSummary(
                operation="write", api="MPIIO",
                bw_max=100.0 + marker, bw_min=90.0 + marker, bw_mean=95.0 + marker,
                bw_stddev=1.0, ops_max=30.0, ops_min=10.0, ops_mean=20.0,
                ops_stddev=5.0, iterations=2,
                results=[
                    KnowledgeResult(iteration=i, bandwidth_mib=95.0 + marker, iops=7.0)
                    for i in range(2)
                ],
            )
        ],
        system={"hostname": host},
    )


@pytest.fixture()
def server(tmp_path):
    srv = KnowledgeServer(
        tmp_path / "store", shards=2, worker_processes=2,
        metrics=MetricsRegistry(), request_timeout_s=15.0,
    )
    srv.start()
    yield srv
    srv.close()


def _url(server) -> str:
    return f"knowledge+tcp://{server.host}:{server.port}/"


# ----------------------------------------------------------------------
# parity with the embedded service
# ----------------------------------------------------------------------
class TestTcpParity:
    def test_crud_round_trip_and_id_assignment(self, server):
        with ServiceClient.open(_url(server)) as client:
            first = make_knowledge(1, host="n1")
            gid = client.save(first)
            assert first.knowledge_id == gid  # id assigned on the caller's object
            loaded = client.load(gid)
            assert loaded.parameters["marker"] == 1
            assert loaded.summaries[0].bw_mean == 96.0

            batch = [make_knowledge(m, host=f"n{m}") for m in range(2, 8)]
            ids = client.save_many(batch)
            assert [k.knowledge_id for k in batch] == ids
            # objects really spread across both shard-group processes
            shards = {decode_knowledge_id(i)[1] for i in ids + [gid]}
            assert shards == {0, 1}

            assert client.count() == 7
            assert client.list_ids() == sorted(ids + [gid])
            fetched = client.fetch_many(ids[::-1])
            assert [k.parameters["marker"] for k in fetched] == [7, 6, 5, 4, 3, 2]
            # int-valued parameter queried as a string stays a miss —
            # same contract as the embedded path
            assert client.find_ids_by_parameter("marker", "3") == []
            assert [k.parameters["marker"] for k in client.load_all()] == [
                k.parameters["marker"]
                for k in sorted(batch + [first], key=lambda k: k.knowledge_id)
            ]

            tagged = make_knowledge(42, host="n1")
            tagged.parameters["tag"] = "blue"
            client.save(tagged)
            assert client.find_ids_by_parameter("tag", "blue") == [
                tagged.knowledge_id
            ]

            client.delete(gid)
            assert client.exists(gid) is False
            assert client.exists(3) is False  # undecodable plain id -> False
            assert client.count() == 7

    def test_matches_embedded_service_results(self, server, tmp_path):
        objs = [make_knowledge(m, host=f"h{m % 3}") for m in range(6)]
        with ServiceClient.open(_url(server)) as remote:
            remote.save_many([make_knowledge(m, host=f"h{m % 3}") for m in range(6)])
            remote_rows = [
                (k.parameters["marker"], decode_knowledge_id(k.knowledge_id)[1])
                for k in remote.load_all()
            ]
        shard_map = KnowledgeShardMap(tmp_path / "embedded", num_shards=2)
        with ServiceClient(KnowledgeService(shard_map)) as local:
            local.save_many(objs)
            local_rows = [
                (k.parameters["marker"], decode_knowledge_id(k.knowledge_id)[1])
                for k in local.load_all()
            ]
        assert remote_rows == local_rows  # same placement, same ordering

    def test_stats_keys_and_row_totals_match_count(self, server, tmp_path):
        shard_map = KnowledgeShardMap(tmp_path / "embedded", num_shards=2)
        with ServiceClient(KnowledgeService(shard_map)) as local, \
                ServiceClient.open(_url(server)) as remote:
            for client in (local, remote):
                client.save_many([make_knowledge(m, host=f"h{m}") for m in range(6)])
                client.delete(client.list_ids()[0])
                assert client.count() == 5
            embedded, merged = local.stats(), remote.stats()
            assert set(embedded) == {"shards", "owned_shards", "rows_per_shard"}
            assert set(merged) == {
                "shards", "worker_processes", "shard_groups", "rows_per_shard",
            }
            for client, stats in ((local, embedded), (remote, merged)):
                assert stats["shards"] == 2
                assert sorted(stats["rows_per_shard"]) == ["0", "1"]
                assert sum(stats["rows_per_shard"].values()) == client.count()

    def test_typed_errors_cross_the_wire(self, server):
        with ServiceClient.open(_url(server)) as client:
            k = make_knowledge(9)
            client.save(k)
            client.delete(k.knowledge_id)
            with pytest.raises(PersistenceError) as excinfo:
                client.load(k.knowledge_id)
            assert excinfo.value.wire_code == "persistence"
            with pytest.raises(ServiceError):
                client.transport.call("not-an-op", {})
            with pytest.raises(WireProtocolError):  # bad-request from the router
                client.transport.call("load", {"junk": True})

    def test_op_error_leaves_the_worker_channel_serving(self, tmp_path):
        """One worker, one channel: the failing op runs on the worker's
        channel thread, comes back as a typed error frame, and the same
        channel (same process) answers the next request."""
        srv = KnowledgeServer(
            tmp_path / "store", shards=1, worker_processes=1,
            channels_per_worker=1, request_timeout_s=15.0,
        ).start()
        try:
            pid = srv.health()["workers"][0]["pid"]
            with ServiceClient.open(_url(srv) + "?pool=1") as client:
                gid = client.save(make_knowledge(1))
                client.delete(gid)
                with pytest.raises(PersistenceError) as excinfo:
                    client.load(gid)
                assert excinfo.value.wire_code == "persistence"
                assert client.count() == 0
                kept = client.save(make_knowledge(2))
                assert client.load(kept).parameters["marker"] == 2
            worker = srv.health()["workers"][0]
            assert worker["pid"] == pid and worker["alive"]
            assert worker["breaker"] == "closed"
        finally:
            srv.close()

    def test_hello_negotiation_and_server_info(self, server):
        with ServiceClient.open(_url(server)) as client:
            assert client.ping() is True
            info = client.server_info
            assert info["protocol"] == PROTOCOL
            assert info["shards"] == 2 and info["worker_processes"] == 2
            stats = client.stats()
            assert stats["worker_processes"] == 2
            assert sorted(s for g in stats["shard_groups"] for s in g) == [0, 1]

    def test_transport_metrics_counted(self, server):
        client_metrics = MetricsRegistry()
        with ServiceClient.open(_url(server), metrics=client_metrics) as client:
            client.save(make_knowledge(4))
            client.list_ids()
        for snapshot in (client_metrics.snapshot(), server.metrics.snapshot()):
            counters = snapshot["counters"]
            assert "service.transport.connections_total" in counters
            assert "service.transport.frames_total" in counters
            assert "service.transport.bytes_total" in counters
            assert "service.transport.request_seconds" in snapshot["histograms"]

    def test_url_options_reach_the_transport(self, server):
        url = _url(server) + "?pool=2&timeout_ms=5000&connect_timeout_ms=1000"
        host, port, options = parse_tcp_url(url)
        assert (host, port) == (server.host, server.port)
        assert options == {"pool": 2, "timeout_ms": 5000, "connect_timeout_ms": 1000}
        with ServiceClient.open(url) as client:
            assert client.transport.pool_size == 2
            assert client.transport.timeout_s == 5.0
            assert client.ping() is True


# ----------------------------------------------------------------------
# transport parity: the in-process pass-through against the wire codec
# ----------------------------------------------------------------------
def _parity_rows() -> list[Knowledge]:
    """One row set covering the object shapes the read builder handles."""
    rows = [make_knowledge(m, host=f"h{m % 3}") for m in range(6)]
    rows[1].filesystem = FilesystemInfo(
        entry_type="file", entry_id="1-A-1", metadata_node="meta01",
        stripe_pattern="RAID0", chunk_size="512K", num_targets=4,
    )
    rows[2].system = None
    rows[3].summaries = []
    rows[4].summaries[0].results = []
    rows[5].benchmark = "hacc-io"
    return rows


def _scribble(knowledge: Knowledge) -> None:
    """Change every mutable layer of a read object in place."""
    knowledge.parameters["marker"] = "mutated"
    knowledge.summaries.clear()
    if knowledge.system is not None:
        knowledge.system["hostname"] = "elsewhere"


class TestTransportParity:
    """``knowledge+service://`` hands the caller the objects the shard's
    repository built; ``knowledge+tcp://`` rebuilds them from the wire
    codec.  Both must answer alike."""

    @pytest.fixture()
    def clients(self, server, tmp_path):
        shard_map = KnowledgeShardMap(tmp_path / "embedded", num_shards=2)
        local = ServiceClient(KnowledgeService(shard_map), sleep=lambda s: None)
        remote = ServiceClient.open(_url(server))
        try:
            ids = [client.save_many(_parity_rows()) for client in (local, remote)]
            assert ids[0] == ids[1]  # same placement, same global ids
            yield local, remote, ids[0]
        finally:
            local.close()
            remote.close()

    def test_parity_of_reads(self, clients):
        local, remote, ids = clients
        for gid in ids:
            assert local.load(gid) == remote.load(gid)
        assert local.fetch_many(ids[::-1]) == remote.fetch_many(ids[::-1])
        assert local.load_all() == remote.load_all()
        assert local.load_all("hacc-io") == remote.load_all("hacc-io")
        for query in (
            ScanQuery(group_by=("operation",)),
            ScanQuery(benchmark="ior", group_by=("num_nodes",), percentiles=(50.0,)),
        ):
            assert local.scan(query) == remote.scan(query)
        assert local.ping() is remote.ping() is True
        assert local.health()["status"] == remote.health()["status"] == "healthy"
        assert local.stats()["rows_per_shard"] == remote.stats()["rows_per_shard"]

    def test_parity_of_a_missing_id(self, clients):
        local, remote, ids = clients
        failures = []
        for client in (local, remote):
            client.delete(ids[0])
            for read in (lambda: client.load(ids[0]), lambda: client.fetch_many(ids)):
                with pytest.raises(PersistenceError) as excinfo:
                    read()
                failures.append((type(excinfo.value), error_code(excinfo.value)))
        assert failures == [(PersistenceError, "persistence")] * 4

    def test_parity_of_repeated_ids_gives_independent_objects(self, clients):
        local, remote, ids = clients
        wanted = [ids[0], ids[2], ids[0], ids[1], ids[2]]
        fetched = {}
        for name, client in (("local", local), ("remote", remote)):
            got = client.fetch_many(wanted)
            assert [k.knowledge_id for k in got] == wanted
            assert got[0] == got[2] and got[1] == got[4]
            _scribble(got[0])
            _scribble(got[1])
            fetched[name] = got
        assert fetched["local"][2:] == fetched["remote"][2:]
        assert fetched["local"][2] == local.load(ids[0])
        assert fetched["local"][4] == local.load(ids[2])

    def test_parity_of_a_malformed_save(self, clients):
        local, remote, _ = clients
        payload = {"knowledge": {"data": {"type": "knowledge"}, "id": None}}
        for client in (local, remote):
            with pytest.raises(WireProtocolError) as excinfo:
                client.transport.call("save", payload)
            assert error_code(excinfo.value) == "bad-request"
        assert local.count() == remote.count() == len(_parity_rows())


# ----------------------------------------------------------------------
# retry classification and deadlines (S1)
# ----------------------------------------------------------------------
class _ScriptedTransport:
    """Raises a scripted error per call until the script runs out."""

    def __init__(self, errors):
        self.errors = list(errors)
        self.calls = 0
        self.metrics = MetricsRegistry()

    def call(self, op, payload, *, timeout_s=None):
        self.calls += 1
        if self.errors:
            raise self.errors.pop(0)
        return {}

    def close(self):
        pass


class TestRetryClassification:
    def test_transient_transport_fault_is_retried_and_counted(self):
        transport = _ScriptedTransport(
            [ServiceTransportError("reset", retryable=True)] * 2
        )
        client = ServiceClient(transport, sleep=lambda s: None)
        assert client.ping() is True
        assert transport.calls == 3
        snapshot = transport.metrics.snapshot()
        series = snapshot["counters"]["service.client.retries_total"]["series"]
        assert {row["labels"]["kind"]: row["value"] for row in series} == {
            "transport": 2.0
        }

    def test_non_retryable_transport_fault_surfaces_first_try(self):
        transport = _ScriptedTransport(
            [ServiceTransportError("post-send save", retryable=False)] * 5
        )
        client = ServiceClient(transport, sleep=lambda s: None)
        with pytest.raises(ServiceTransportError, match="post-send"):
            client.ping()
        assert transport.calls == 1  # at-most-once: no blind replay

    def test_retry_sleeps_clamped_to_deadline(self):
        sleeps = []
        transport = _ScriptedTransport(
            [ServiceTransportError("flaky", retryable=True)] * 50
        )
        client = ServiceClient(
            transport,
            retry_policy=RetryPolicy(
                max_attempts=50, base_delay_s=0.05, max_delay_s=0.5,
                salt="test", retryable=lambda exc: True,
            ),
            sleep=sleeps.append,
            timeout_s=0.2,
        )
        with pytest.raises(ServiceTransportError):
            client.ping()
        # the policy's 0.5 s exponential ceiling never survives the
        # clamp: no single backoff may exceed the 0.2 s request budget
        assert sleeps and max(sleeps) <= 0.2


# ----------------------------------------------------------------------
# lifecycle: drain, kill, real subprocess
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_graceful_drain_flushes_workers(self, server, tmp_path):
        with ServiceClient.open(_url(server)) as client:
            client.save_many([make_knowledge(m, host=f"n{m}") for m in range(4)])
        server.initiate_drain()
        server.close()
        assert server.worker_returncodes == [0, 0]
        # the drain flushed: a fresh embedded open sees every row
        shard_map = KnowledgeShardMap(tmp_path / "store")
        with ServiceClient(KnowledgeService(shard_map)) as reopened:
            assert reopened.count() == 4

    def test_draining_server_answers_typed_error(self, server):
        client = ServiceClient.open(
            _url(server),
            retry_policy=RetryPolicy(max_attempts=2, base_delay_s=0.001,
                                     retryable=lambda exc: False),
        )
        try:
            client.ping()  # pre-drain: pools a healthy connection
            server.initiate_drain()
            with pytest.raises(ServiceTransportError) as excinfo:
                client.count()
            assert excinfo.value.wire_code == "draining"
            assert excinfo.value.transient  # a retrying client may wait it out
        finally:
            client.close()

    def test_sigkilled_workers_surface_typed_errors_not_hangs(self, tmp_path):
        """SIGKILL every shard-group worker mid-session: requests fail
        fast with typed transport errors and the breaker quarantines.
        (``supervise=False`` — with the supervisor on, the workers would
        be respawned before the quarantine could be observed.)"""
        server = KnowledgeServer(
            tmp_path / "store", shards=2, worker_processes=2,
            metrics=MetricsRegistry(), request_timeout_s=15.0,
            supervise=False,
        )
        server.start()
        self._kill_and_observe(server)
        server.close()

    def _kill_and_observe(self, server):
        policy = RetryPolicy(max_attempts=2, base_delay_s=0.001,
                             retryable=lambda exc: False)
        with ServiceClient.open(_url(server), retry_policy=policy) as client:
            k = make_knowledge(1)
            client.save(k)
            for worker in server.workers:
                worker.process.kill()
                worker.process.wait()
            start = time.monotonic()
            with pytest.raises(ServiceTransportError):
                client.load(k.knowledge_id)
            # breaker now open for the dead worker: instant quarantine
            with pytest.raises(ServiceTransportError) as excinfo:
                client.load(k.knowledge_id)
            assert excinfo.value.wire_code in ("quarantine", "unavailable")
            assert time.monotonic() - start < 60.0


class TestScatterGather:
    """Multi-worker reads send to every owning worker before reading
    any reply; these pin the two rules that make that safe."""

    def test_mixed_order_gathers_on_one_channel_do_not_deadlock(self, tmp_path):
        """One channel per worker and ids naming the workers in both
        orders: a gather that sent in first-seen order would hold one
        worker's only channel while waiting for the other's, and two
        such threads would stall until the channel timeout."""
        timeout_s = 20.0
        server = KnowledgeServer(
            tmp_path / "store", shards=2, worker_processes=2,
            channels_per_worker=1, request_timeout_s=timeout_s,
        )
        server.start()
        try:
            url = _url(server)
            with ServiceClient.open(url) as client:
                ids = client.save_many(
                    [make_knowledge(m, host=f"n{m}") for m in range(8)]
                )
                expected_scan = client.scan(ScanQuery(group_by=("operation",)))
            by_shard: dict[int, list[int]] = {}
            for gid in ids:
                by_shard.setdefault(decode_knowledge_id(gid)[1], []).append(gid)
            assert set(by_shard) == {0, 1}
            markers = dict(zip(ids, range(8)))
            errors: list[BaseException] = []
            lock = threading.Lock()

            def reader(thread_id: int) -> None:
                first, second = (0, 1) if thread_id % 2 else (1, 0)
                wanted = by_shard[first] + by_shard[second]
                try:
                    with ServiceClient.open(url, timeout_s=2 * timeout_s) as client:
                        for _ in range(25):
                            fetched = client.fetch_many(wanted)
                            assert [k.parameters["marker"] for k in fetched] == [
                                markers[gid] for gid in wanted
                            ]
                            assert client.scan(
                                ScanQuery(group_by=("operation",))
                            ) == expected_scan
                except BaseException as exc:  # noqa: BLE001 - collected for assert
                    with lock:
                        errors.append(exc)

            threads = [threading.Thread(target=reader, args=(t,)) for t in range(6)]
            start = time.monotonic()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=3 * timeout_s)
            elapsed = time.monotonic() - start
            assert not errors, errors
            assert not any(t.is_alive() for t in threads)
            assert elapsed < timeout_s / 2, f"gathers took {elapsed:.1f}s"
        finally:
            server.close()

    def test_partial_failure_raises_typed_and_frees_the_survivor(self, tmp_path):
        """SIGKILL one worker: gathers spanning both fail with a typed
        retryable error, the survivor's channels all go back to its
        pool, and a request to the survivor alone is served at once."""
        server = KnowledgeServer(
            tmp_path / "store", shards=2, worker_processes=2,
            request_timeout_s=15.0, supervise=False,
        )
        server.start()
        policy = RetryPolicy(max_attempts=1, base_delay_s=0.001,
                             retryable=lambda exc: False)
        try:
            with ServiceClient.open(_url(server), retry_policy=policy) as client:
                ids = client.save_many(
                    [make_knowledge(m, host=f"n{m}") for m in range(8)]
                )
                survivor_ids = [g for g in ids if decode_knowledge_id(g)[1] == 0]
                assert survivor_ids and len(survivor_ids) < len(ids)
                victim = server.workers[1].process
                victim.kill()
                victim.wait()
                for attempt in (
                    lambda: client.fetch_many(ids),
                    lambda: client.scan(ScanQuery()),
                ):
                    with pytest.raises(ServiceTransportError) as excinfo:
                        attempt()
                    assert excinfo.value.transient
                survivor = server.workers[0]
                assert survivor._pool.qsize() == survivor.channel_count
                start = time.monotonic()
                fetched = client.fetch_many(survivor_ids)
                assert [k.knowledge_id for k in fetched] == survivor_ids
                assert time.monotonic() - start < 1.0
        finally:
            server.close()


def _spawn_serve(tmp_path, *extra):
    """Start a real ``repro-serve --listen`` subprocess; returns (proc, url)."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.core.service.serve",
         str(tmp_path / "served"), "--listen", "127.0.0.1:0",
         "--worker-processes", "2", *extra],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    line = proc.stdout.readline()
    assert "listening on knowledge+tcp://" in line, line
    url = line.split("listening on ", 1)[1].split(" ")[0]
    return proc, url


class TestRealServerSubprocess:
    def test_sigterm_drains_real_server(self, tmp_path):
        proc, url = _spawn_serve(tmp_path)
        try:
            with ServiceClient.open(url) as client:
                client.save_many([make_knowledge(m, host=f"n{m}") for m in range(3)])
                assert client.count() == 3
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
            assert proc.returncode == 0, out
            assert "drained; worker exit codes [0, 0]" in out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    def test_sigkill_mid_stress_clients_fail_typed_not_hang(self, tmp_path):
        """CI's tcp-smoke scenario in miniature: soak a real server,
        SIGKILL it mid-stress, and require every client thread to come
        back with a typed error (or clean success) — never a hang."""
        proc, url = _spawn_serve(tmp_path)
        outcomes: list[str] = []
        lock = threading.Lock()
        policy = RetryPolicy(max_attempts=3, base_delay_s=0.005,
                             max_delay_s=0.05, salt="kill-soak")

        def hammer(worker_id: int) -> None:
            try:
                with ServiceClient.open(
                    url, retry_policy=policy, timeout_s=20.0
                ) as client:
                    # long enough to still be mid-flight when the kill
                    # lands; the dead server ends the loop with an error
                    for i in range(5000):
                        k = make_knowledge(worker_id * 10000 + i,
                                           host=f"w{worker_id}")
                        client.save(k)
                        client.load(k.knowledge_id)
                outcome = "ok"
            except (ServiceError, OSError) as exc:
                outcome = f"typed:{type(exc).__name__}"
            except Exception as exc:  # noqa: BLE001 - the failure we test for
                outcome = f"WRONG:{type(exc).__name__}:{exc}"
            with lock:
                outcomes.append(outcome)

        threads = [threading.Thread(target=hammer, args=(t,)) for t in range(4)]
        try:
            for thread in threads:
                thread.start()
            time.sleep(0.3)  # let the soak get going
            proc.kill()
            proc.wait()
            deadline = time.monotonic() + 60.0
            for thread in threads:
                thread.join(timeout=max(0.0, deadline - time.monotonic()))
            hung = [t for t in threads if t.is_alive()]
            assert not hung, f"{len(hung)} client thread(s) hung after SIGKILL"
            assert all(
                outcome == "ok" or outcome.startswith("typed:")
                for outcome in outcomes
            ), outcomes
            # at least one client actually saw the kill
            assert any(outcome.startswith("typed:") for outcome in outcomes), outcomes
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


# ----------------------------------------------------------------------
# concurrency soak over TCP (CI stress job)
# ----------------------------------------------------------------------
@pytest.mark.stress
@pytest.mark.timeout(180)
class TestTcpStressSoak:
    N_WRITERS = 8
    N_READERS = 8
    SAVES_PER_WRITER = 6

    def test_sixteen_thread_soak_over_tcp(self, server):
        url = _url(server)
        errors: list[BaseException] = []
        written: list[int] = []
        lock = threading.Lock()
        stop = threading.Event()

        def writer(worker_id: int) -> None:
            try:
                with ServiceClient.open(url, timeout_s=60.0) as client:
                    for i in range(self.SAVES_PER_WRITER):
                        k = make_knowledge(worker_id * 1000 + i,
                                           host=f"w{worker_id}")
                        gid = client.save(k)
                        with lock:
                            written.append(gid)
            except BaseException as exc:  # noqa: BLE001 - collected for assert
                with lock:
                    errors.append(exc)

        def reader() -> None:
            try:
                with ServiceClient.open(url, timeout_s=60.0) as client:
                    while not stop.is_set():
                        with lock:
                            ids = list(written)
                        if ids:
                            loaded = client.load(ids[len(ids) // 2])
                            assert loaded.parameters["marker"] >= 0
                        client.count()
            except BaseException as exc:  # noqa: BLE001 - collected for assert
                with lock:
                    errors.append(exc)

        writers = [threading.Thread(target=writer, args=(t,))
                   for t in range(self.N_WRITERS)]
        readers = [threading.Thread(target=reader) for _ in range(self.N_READERS)]
        for thread in writers + readers:
            thread.start()
        for thread in writers:
            thread.join()
        stop.set()
        for thread in readers:
            thread.join()
        assert not errors, errors
        with ServiceClient.open(url) as client:
            ids = client.list_ids()
            expected = self.N_WRITERS * self.SAVES_PER_WRITER
            assert len(ids) == len(set(ids)) == expected  # zero lost, zero dup
            assert sorted(written) == ids
            markers = sorted(k.parameters["marker"] for k in client.fetch_many(ids))
            assert markers == sorted(
                w * 1000 + i
                for w in range(self.N_WRITERS)
                for i in range(self.SAVES_PER_WRITER)
            )
        assert all(worker.alive for worker in server.workers)
