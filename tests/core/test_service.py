"""Tests for the knowledge service (shards, admission, client).

Covers the serving-layer contract: deterministic shard placement,
global-id routing, reads that see writes made through another service
on the same store, admission control (typed overload, never a hang), client backoff with
deterministic jitter, wedged-shard quarantine via the circuit breaker,
rebalancing, and the ``repro-serve`` / ``repro-explore --service``
CLIs.  The ``stress``-marked soak at the bottom is the acceptance run:
16 client threads over 2 shards, zero lost or duplicated rows.
"""

import sys
import threading
import time

import pytest

from repro.core.knowledge import Knowledge, KnowledgeResult, KnowledgeSummary
from repro.core.metrics import MetricsRegistry, render_metrics_report
from repro.core.persistence.transfer import export_json
from repro.core.resilience import CircuitBreaker, RetryPolicy
from repro.core.service import (
    KnowledgeService,
    KnowledgeShardMap,
    MAX_SHARDS,
    ServiceClient,
    decode_knowledge_id,
    encode_knowledge_id,
    group_by_owner,
    is_service_url,
    open_service,
    parse_service_url,
    shard_key,
)
from repro.core.service.serve import main as serve_main
from repro.core.explorer.cli import main as explore_main
from repro.util.errors import (
    PersistenceError,
    ServiceError,
    ServiceOverloadError,
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
def service(tmp_path):
    metrics = MetricsRegistry()
    shard_map = KnowledgeShardMap(tmp_path / "store", num_shards=2, metrics=metrics)
    svc = KnowledgeService(shard_map, queue_size=64, metrics=metrics)
    yield svc
    svc.close()


@pytest.fixture()
def client(service):
    return ServiceClient(service, sleep=lambda s: None)


# ----------------------------------------------------------------------
# global ids + placement determinism
# ----------------------------------------------------------------------
def test_global_id_round_trip():
    for local, shard in [(1, 0), (1, 1), (7, 1023), (12345, 17)]:
        assert decode_knowledge_id(encode_knowledge_id(local, shard)) == (local, shard)


def test_global_id_rejects_bad_parts():
    with pytest.raises(ServiceError):
        encode_knowledge_id(0, 0)  # local rowids start at 1
    with pytest.raises(ServiceError):
        encode_knowledge_id(1, MAX_SHARDS)
    with pytest.raises(ServiceError):
        decode_knowledge_id(5)  # a plain single-database id


def test_shard_assignment_is_deterministic_across_maps(tmp_path):
    keys = [f"ior/node{i}" for i in range(32)] + ["hacc-io/cluster/x"]
    with KnowledgeShardMap(tmp_path / "a", num_shards=4) as left, \
            KnowledgeShardMap(tmp_path / "b", num_shards=4) as right:
        assert [left.shard_index_for_key(k) for k in keys] == \
            [right.shard_index_for_key(k) for k in keys]


def test_shard_key_uses_benchmark_and_system():
    k = make_knowledge(1, host="n7", benchmark="ior")
    assert shard_key(k) == "ior/n7"
    k.system = None
    assert shard_key(k) == "ior/"


def test_manifest_discovery_and_conflict(tmp_path):
    root = tmp_path / "store"
    KnowledgeShardMap(root, num_shards=3).close()
    discovered = KnowledgeShardMap(root)  # no count: discovered from manifest
    assert discovered.num_shards == 3
    assert [row["path"] for row in discovered.manifest()] == [
        "shard-000.db", "shard-001.db", "shard-002.db"
    ]
    discovered.close()
    with pytest.raises(ServiceError, match="rebalance"):
        KnowledgeShardMap(root, num_shards=5)


# ----------------------------------------------------------------------
# URL resolution
# ----------------------------------------------------------------------
def test_parse_service_url_absolute_and_options():
    root, options = parse_service_url(
        "knowledge+service:///var/lib/repro/store?shards=4&queue=8"
    )
    assert root == "/var/lib/repro/store"
    assert options == {"shards": 4, "queue": 8}


def test_parse_service_url_relative():
    # Mirrors the sqlite:// resolver: fewer than three slashes in the
    # URL means a relative path (so only a single segment stays relative).
    root, options = parse_service_url("knowledge+service://devstore")
    assert root == "devstore"
    assert options == {}
    assert parse_service_url("knowledge+service://stores/dev")[0] == "/stores/dev"


def test_parse_service_url_rejects_bad_input():
    assert not is_service_url("sqlite:///x.db")
    with pytest.raises(ServiceError, match="unknown service URL option"):
        parse_service_url("knowledge+service:///s?shard=2")
    with pytest.raises(ServiceError, match="unknown service URL option 'cache'"):
        parse_service_url("knowledge+service:///s?cache=16")
    with pytest.raises(ServiceError, match="not an integer"):
        parse_service_url("knowledge+service:///s?shards=two")
    with pytest.raises(ServiceError, match="no store directory"):
        parse_service_url("knowledge+service://")


def test_open_service_from_url(tmp_path):
    url = f"knowledge+service://{tmp_path}/store?shards=3&queue=8"
    with open_service(url) as svc:
        assert svc.shard_map.num_shards == 3
        assert svc.queue_size == 8


# ----------------------------------------------------------------------
# CRUD through the client
# ----------------------------------------------------------------------
def test_save_load_round_trip(client):
    gid = client.save(make_knowledge(7))
    loaded = client.load(gid)
    assert loaded.knowledge_id == gid
    assert loaded.parameters["marker"] == 7
    assert loaded.summary("write").bw_mean == pytest.approx(102.0)
    assert loaded.system["hostname"] == "nodeA"


def test_list_count_exists_delete(client):
    ids = [client.save(make_knowledge(i, host=f"n{i}")) for i in range(5)]
    assert client.count() == 5
    assert sorted(ids) == client.list_ids()
    assert client.count("ior") == 5 and client.count("mdtest") == 0
    assert client.exists(ids[0]) and not client.exists(encode_knowledge_id(999, 0))
    assert not client.exists(3)  # undecodable plain id: absent, not an error
    client.delete(ids[0])
    assert client.count() == 4
    with pytest.raises(PersistenceError):
        client.load(ids[0])


def test_save_many_spans_shards_and_keeps_order(client):
    objects = [make_knowledge(i, host=f"n{i % 5}") for i in range(10)]
    ids = client.save_many(objects)
    assert len(ids) == 10
    shards = {decode_knowledge_id(g)[1] for g in ids}
    assert len(shards) > 1, "keys should spread over both shards"
    for gid, obj in zip(ids, objects):
        assert obj.knowledge_id == gid
        assert client.load(gid).parameters["marker"] == obj.parameters["marker"]


def test_load_all_matches_individual_loads(client):
    ids = [client.save(make_knowledge(i, host=f"n{i}")) for i in range(4)]
    everything = client.load_all()
    assert sorted(k.knowledge_id for k in everything) == sorted(ids)


# ----------------------------------------------------------------------
# two services on one store (two fleet launchers)
# ----------------------------------------------------------------------
def test_two_clients_on_one_store_see_each_others_writes(tmp_path):
    url = f"knowledge+service://{tmp_path}/store?shards=2"
    with ServiceClient.open(url) as a, ServiceClient.open(url) as b:
        assert b.count() == 0 and b.list_ids() == []
        ids = a.save_many([make_knowledge(i, host=f"n{i}") for i in range(4)])
        assert len({decode_knowledge_id(g)[1] for g in ids}) == 2
        assert b.count() == 4
        assert sorted(b.list_ids()) == sorted(ids)
        victim = ids[0]
        assert b.exists(victim)
        assert b.load(victim).parameters["marker"] == 0
        a.delete(victim)
        assert not b.exists(victim)
        with pytest.raises(PersistenceError):
            b.load(victim)
        assert b.count() == 3


# ----------------------------------------------------------------------
# admission control + client backoff
# ----------------------------------------------------------------------
def _fill_in_flight_cap(service, op, *args):
    """Start ``queue_size`` threads running ``op`` and wait until every
    one is in flight, blocked on a shard lock the caller holds; returns
    the threads and the list their results land in."""
    results: list[object] = []

    def run() -> None:
        results.append(service.execute(op, *args))

    threads = [threading.Thread(target=run, name=f"cap-filler-{i}", daemon=True)
               for i in range(service.queue_size)]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + 10
    while service._in_flight < service.queue_size:
        assert time.monotonic() < deadline, "cap fillers never got in flight"
        time.sleep(0.001)
    return threads, results


@pytest.mark.timeout(30)
def test_overload_sheds_with_typed_error(tmp_path):
    metrics = MetricsRegistry()
    shard_map = KnowledgeShardMap(tmp_path / "store", num_shards=1, metrics=metrics)
    with KnowledgeService(shard_map, queue_size=2, metrics=metrics) as svc:
        client = ServiceClient(svc, sleep=lambda s: None)
        gid = client.save(make_knowledge(1))
        shard = shard_map.shards[0]
        shard.lock.acquire()
        try:
            threads, results = _fill_in_flight_cap(svc, "load", gid)
            with pytest.raises(ServiceOverloadError):
                svc.execute("load", gid)
        finally:
            shard.lock.release()
        # Never a hang: every admitted request completes once unblocked.
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert [k.parameters["marker"] for k in results] == [1, 1]
        snap = metrics.snapshot()
        shed = [
            row["value"]
            for row in snap["counters"]["service.requests_total"]["series"]
            if row["labels"]["outcome"] == "shed"
        ]
        assert sum(shed) >= 1


@pytest.mark.timeout(30)
def test_client_backs_off_and_recovers(tmp_path):
    shard_map = KnowledgeShardMap(tmp_path / "store", num_shards=1)
    with KnowledgeService(shard_map, queue_size=1) as svc:
        seed_client = ServiceClient(svc, sleep=lambda s: None)
        gid = seed_client.save(make_knowledge(1))
        shard = shard_map.shards[0]
        slept: list[float] = []
        policy = RetryPolicy(max_attempts=4, base_delay_s=0.01,
                             salt="service-client",
                             retryable=lambda e: isinstance(e, ServiceOverloadError))

        def sleep_and_release(delay: float) -> None:
            slept.append(delay)
            try:
                shard.lock.release()  # unwedge the shard on the first backoff
            except RuntimeError:
                pass  # already released on an earlier attempt
            for thread in threads:
                thread.join(timeout=10)  # let the in-flight request finish

        client = ServiceClient(svc, retry_policy=policy, sleep=sleep_and_release)
        shard.lock.acquire()
        threads, _ = _fill_in_flight_cap(svc, "load", gid)
        # The client sees the cap full, backs off once (deterministic
        # jitter), the sleep hook unwedges the shard, and the retry lands.
        result = client.load(gid)
        assert result.parameters["marker"] == 1
        assert slept and slept[0] == pytest.approx(policy.delay_s(1))


@pytest.mark.timeout(60)
def test_in_flight_count_survives_thread_contention(tmp_path):
    # More threads than the cap and than cores, switching often: a lost
    # update to the in-flight count would leave it non-zero or let more
    # than the cap run at once.
    metrics = MetricsRegistry()
    shard_map = KnowledgeShardMap(tmp_path / "store", num_shards=1, metrics=metrics)
    with KnowledgeService(shard_map, queue_size=3, metrics=metrics) as svc:
        svc.execute("save", make_knowledge(1))
        peak = [0]
        count = svc._op_count

        def observed_count(benchmark=None):
            peak[0] = max(peak[0], svc._in_flight)
            return count(benchmark)

        svc._ops["count"] = observed_count
        outcomes: list[str] = []

        def hammer() -> None:
            for _ in range(150):
                try:
                    svc.execute("count", None)
                    outcomes.append("ok")
                except ServiceOverloadError:
                    outcomes.append("shed")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=50)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(outcomes) == 8 * 150
        assert svc._in_flight == 0
        assert 1 <= peak[0] <= svc.queue_size
        requests, _ = _accounting(metrics)
        assert requests[("count", "ok")] == outcomes.count("ok")
        assert requests.get(("count", "shed"), 0) == outcomes.count("shed")


def test_backoff_schedule_is_deterministic():
    policy = RetryPolicy(max_attempts=5, base_delay_s=0.01, salt="service-client")
    again = RetryPolicy(max_attempts=5, base_delay_s=0.01, salt="service-client")
    assert policy.delays_s() == again.delays_s()


def test_submit_rejects_unknown_op_and_closed_service(tmp_path):
    # Every request is submitted through ``execute``, the service's one
    # entry point; it refuses an op it does not know and a closed service.
    shard_map = KnowledgeShardMap(tmp_path / "store", num_shards=1)
    svc = KnowledgeService(shard_map, queue_size=1)
    with pytest.raises(ServiceError, match="unknown service operation"):
        svc.execute("drop_tables")
    svc.close()
    svc.close()  # idempotent
    with pytest.raises(ServiceError, match="closed"):
        svc.execute("count", None)


def test_close_without_submit_needs_no_workers(tmp_path):
    shard_map = KnowledgeShardMap(tmp_path / "store", num_shards=1)
    svc = KnowledgeService(shard_map, queue_size=1)
    svc.close()  # nothing ever ran: nothing to stop, no hang
    assert svc.closed
    assert not [t.name for t in threading.enumerate()
                if t.name.startswith("knowledge-service-")]
    with pytest.raises(ServiceError, match="closed"):
        svc.execute("count", None)


def _accounting(metrics: MetricsRegistry) -> tuple[dict, dict]:
    """``requests_total`` by (op, outcome) and ``request_seconds`` sample
    counts by op, from one metrics snapshot."""
    snap = metrics.snapshot()
    requests = {
        (row["labels"]["op"], row["labels"]["outcome"]): row["value"]
        for row in snap["counters"]["service.requests_total"]["series"]
    }
    samples = {
        row["labels"]["op"]: row["count"]
        for row in snap["histograms"]["service.request_seconds"]["series"]
    }
    return requests, samples


def test_execute_and_client_keep_the_same_accounting(tmp_path):
    def drive(run) -> tuple[dict, dict]:
        metrics = MetricsRegistry()
        shard_map = KnowledgeShardMap(tmp_path / f"store-{run}", num_shards=2,
                                      metrics=metrics)
        with KnowledgeService(shard_map, metrics=metrics) as svc:
            if run == "execute":
                call = svc.execute
            else:
                client = ServiceClient(svc, sleep=lambda s: None)

                def call(op, *args):
                    return getattr(client, op)(*args)
            gid = call("save", make_knowledge(1))
            ids = call("save_many", [make_knowledge(m, host=f"n{m}") for m in range(2, 6)])
            assert [k.parameters["marker"] for k in call("fetch_many", ids)] == [2, 3, 4, 5]
            assert call("count", None) == 5
            call("delete", gid)
            with pytest.raises(PersistenceError):
                call("load", gid)  # the op error is counted, then raised
            assert call("exists", gid) is False
        return _accounting(metrics)

    executed, served = drive("execute"), drive("client")
    assert executed == served
    requests, samples = executed
    assert requests[("load", "error")] == 1
    assert samples["load"] == 1 and samples["save_many"] == 1


def test_embedded_service_starts_no_threads(tmp_path):
    def service_threads() -> list[str]:
        return [t.name for t in threading.enumerate()
                if t.name.startswith("knowledge-service-")]

    shard_map = KnowledgeShardMap(tmp_path / "store", num_shards=1)
    with KnowledgeService(shard_map) as svc:
        gid = svc.execute("save", make_knowledge(1))
        assert svc.execute("load", gid).parameters["marker"] == 1
        client = ServiceClient(svc, sleep=lambda s: None)
        assert client.count() == 1
        assert client.load(gid).parameters["marker"] == 1
        assert service_threads() == []
    assert service_threads() == []


def test_group_by_owner_keeps_positions_in_sorted_owner_order():
    groups = group_by_owner(["b1", "a1", "c1", "a2", "b2"], lambda s: s[0])
    assert list(groups) == ["a", "b", "c"]
    assert groups == {
        "a": [(1, "a1"), (3, "a2")],
        "b": [(0, "b1"), (4, "b2")],
        "c": [(2, "c1")],
    }
    assert group_by_owner([], len) == {}


# ----------------------------------------------------------------------
# wedged-shard quarantine (circuit breaker, fail-fast writes)
# ----------------------------------------------------------------------
@pytest.mark.timeout(30)
def test_wedged_shard_quarantines_and_heals(tmp_path):
    now = [0.0]
    breakers = {}

    def breaker_factory(index):
        breakers[index] = CircuitBreaker(
            failure_threshold=3, reset_timeout_s=1.0,
            clock=lambda: now[0], name=f"shard-{index}",
        )
        return breakers[index]

    shard_map = KnowledgeShardMap(tmp_path / "store", num_shards=2,
                                  breaker_factory=breaker_factory)
    with KnowledgeService(shard_map) as svc:
        client = ServiceClient(svc, sleep=lambda s: None)
        healthy_gid = client.save(make_knowledge(1, host="other"))
        target = shard_map.shard_for(make_knowledge(2, host="wedge"))
        # Trip the target shard's breaker: it is now quarantined.
        for _ in range(3):
            breakers[target.index].record_failure()
        assert breakers[target.index].state == CircuitBreaker.OPEN
        rows = target.backend.table_count("performances")
        # A write to the wedged shard fails fast with a typed transient
        # error that says how long the quarantine lasts; nothing lands.
        with pytest.raises(PersistenceError) as excinfo:
            client.save(make_knowledge(2, host="wedge"))
        assert excinfo.value.transient
        assert excinfo.value.retry_after_s > 0
        assert target.backend.table_count("performances") == rows
        # Other shards are untouched.
        assert client.load(healthy_gid).parameters["marker"] == 1
        # Heal: past the reset timeout the retried write is the half-open
        # probe, lands, and closes the breaker.
        now[0] += 2.0
        healed_gid = client.save(make_knowledge(2, host="wedge"))
        assert breakers[target.index].state == CircuitBreaker.CLOSED
        assert client.load(healed_gid).parameters["marker"] == 2
        assert target.backend.table_count("performances") == rows + 1


# ----------------------------------------------------------------------
# rebalance
# ----------------------------------------------------------------------
def test_rebalance_preserves_content(tmp_path):
    root = tmp_path / "store"
    with open_service(str(root), shards=2) as svc:
        client = ServiceClient(svc, sleep=lambda s: None)
        client.save_many([make_knowledge(i, host=f"n{i}") for i in range(8)])
    shard_map = KnowledgeShardMap(root)
    assert shard_map.rebalance(3) == 8
    assert shard_map.num_shards == 3 and sum(shard_map.counts()) == 8
    shard_map.close()
    with open_service(str(root)) as svc:
        client = ServiceClient(svc, sleep=lambda s: None)
        markers = sorted(k.parameters["marker"] for k in client.load_all())
        assert markers == list(range(8))


# ----------------------------------------------------------------------
# metrics report section
# ----------------------------------------------------------------------
def test_metrics_report_gains_service_section(service, client):
    gid = client.save(make_knowledge(1))
    client.load(gid)
    client.load(gid)
    report = render_metrics_report(service.metrics.snapshot())
    assert "Knowledge service" in report
    assert "requests         3 ok, 0 error(s)" in report
    assert "shed (overload)" in report


def test_metrics_report_omits_section_without_service_traffic():
    registry = MetricsRegistry()
    registry.counter("pipeline.phase_runs_total", "x", phase="generation").inc()
    assert "Knowledge service" not in render_metrics_report(registry.snapshot())


# ----------------------------------------------------------------------
# CLIs
# ----------------------------------------------------------------------
def test_serve_cli_ingest_list_exercise(tmp_path, capsys):
    store = tmp_path / "store"
    payload = tmp_path / "knowledge.json"
    export_json([make_knowledge(i, host=f"n{i}") for i in range(4)], payload)
    assert serve_main([str(store), "--shards", "2", "--ingest", str(payload)]) == 0
    assert "ingested 4 knowledge object(s)" in capsys.readouterr().out
    assert serve_main([str(store), "--list"]) == 0
    out = capsys.readouterr().out
    assert "total: 4 object(s) in 2 shard(s)" in out and "shard-001.db" in out
    metrics_path = tmp_path / "serve.metrics.json"
    assert serve_main([str(store), "--exercise", "8",
                       "--metrics-json", str(metrics_path)]) == 0
    out = capsys.readouterr().out
    assert "exercise: 8 read(s) over 4 object(s)" in out
    assert metrics_path.exists()


def test_serve_cli_rebalance(tmp_path, capsys):
    store = tmp_path / "store"
    payload = tmp_path / "knowledge.json"
    export_json([make_knowledge(i, host=f"n{i}") for i in range(6)], payload)
    assert serve_main([str(store), "--ingest", str(payload)]) == 0
    capsys.readouterr()
    assert serve_main([str(store), "--rebalance", "4", "--list"]) == 0
    out = capsys.readouterr().out
    assert "rebalanced 6 object(s) across 4 shard(s)" in out
    assert "total: 6 object(s) in 4 shard(s)" in out


def test_explore_cli_service_mode(tmp_path, capsys):
    store = tmp_path / "store"
    with open_service(str(store), shards=2) as svc:
        client = ServiceClient(svc, sleep=lambda s: None)
        gid = client.save(make_knowledge(3))
    url = f"knowledge+service://{store}"
    assert explore_main([url, "--list"]) == 0
    out = capsys.readouterr().out
    assert "1 knowledge object(s)" in out and "served from 2 shard(s)" in out
    assert explore_main([str(store), "--service", "--view", str(gid)]) == 0
    assert "ior" in capsys.readouterr().out


def test_explore_cli_service_mode_rejects_missing_store(tmp_path, capsys):
    assert explore_main([str(tmp_path / "nope"), "--service", "--list"]) == 1
    assert "not a knowledge-service store" in capsys.readouterr().err


def test_explore_cli_service_mode_rejects_io500(tmp_path, capsys):
    store = tmp_path / "store"
    open_service(str(store), shards=1).close()
    assert explore_main([str(store), "--service", "--io500", "1"]) == 2
    assert "not available through the knowledge service" in capsys.readouterr().err


# ----------------------------------------------------------------------
# stress soak (CI stress job: pytest -m stress)
# ----------------------------------------------------------------------
N_WRITERS = 8
N_READERS = 8
SAVES_PER_WRITER = 6


@pytest.mark.stress
@pytest.mark.timeout(120)
def test_sixteen_thread_soak_two_shards(tmp_path, fault_seed):
    """The acceptance soak: 16 mixed client threads over a 2-shard service.

    Asserts zero lost or duplicated rows, a typed overload under forced
    pressure, and seed-stable shard placement.
    """
    metrics = MetricsRegistry()
    shard_map = KnowledgeShardMap(tmp_path / "store", num_shards=2, metrics=metrics)
    svc = KnowledgeService(shard_map, queue_size=32, metrics=metrics)
    stop = threading.Event()
    errors: list[BaseException] = []
    saved_ids: list[list[int]] = [[] for _ in range(N_WRITERS)]

    def writer(slot: int) -> None:
        client = ServiceClient(svc, timeout_s=60.0)
        try:
            for n in range(SAVES_PER_WRITER):
                marker = slot * SAVES_PER_WRITER + n
                # Two hostnames -> traffic on both shards, with readers
                # racing the writes on each.
                gid = client.save(make_knowledge(marker, host=f"n{marker % 2}"))
                saved_ids[slot].append(gid)
        except BaseException as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    def reader(slot: int) -> None:
        client = ServiceClient(svc, timeout_s=60.0)
        try:
            while not stop.is_set():
                ids = client.list_ids()
                for gid in ids[: 4 + slot % 3]:
                    try:
                        loaded = client.load(gid)
                    except PersistenceError:
                        continue  # raced a delete/rebalance window; fine
                    assert loaded.knowledge_id == gid
                client.count()
        except BaseException as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=writer, args=(i,), name=f"soak-writer-{i}")
        for i in range(N_WRITERS)
    ] + [
        threading.Thread(target=reader, args=(i,), name=f"soak-reader-{i}")
        for i in range(N_READERS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads[:N_WRITERS]:
        thread.join(timeout=90)
    stop.set()
    for thread in threads[N_WRITERS:]:
        thread.join(timeout=30)
    try:
        assert not any(t.is_alive() for t in threads), "soak thread hung"
        assert not errors, f"soak thread failed: {errors[0]!r}"

        # Zero lost or duplicated rows: every writer's ids exist exactly
        # once, and the store holds exactly the union.
        all_ids = [gid for slot in saved_ids for gid in slot]
        assert len(all_ids) == N_WRITERS * SAVES_PER_WRITER
        assert len(set(all_ids)) == len(all_ids), "duplicated global ids"
        client = ServiceClient(svc, sleep=lambda s: None)
        assert client.count() == len(all_ids), "lost rows"
        assert sorted(all_ids) == client.list_ids()
        markers = sorted(k.parameters["marker"] for k in client.load_all())
        assert markers == list(range(N_WRITERS * SAVES_PER_WRITER)), \
            "lost or duplicated row content"

        # Forced overload sheds with the typed error, never a hang or a
        # raw sqlite3.OperationalError: every flooded read must take the
        # (held) shard lock.
        shard = shard_map.shards[0]
        shard.lock.acquire()
        try:
            fillers, _ = _fill_in_flight_cap(svc, "count", None)
            with pytest.raises(ServiceOverloadError):
                svc.execute("count", None)
        finally:
            shard.lock.release()
        for thread in fillers:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in fillers)
        overloads = sum(
            row["value"]
            for row in metrics.snapshot()["counters"]["service.requests_total"]["series"]
            if row["labels"]["outcome"] == "shed"
        )
        assert overloads >= 1
    finally:
        svc.close()

    # Same-seed determinism: an independent map places every key on the
    # same shard this run chose (fault_seed pins the CI matrix entry).
    with KnowledgeShardMap(tmp_path / f"replay-{fault_seed}",
                           num_shards=2) as replay:
        for slot in range(N_WRITERS):
            for n in range(SAVES_PER_WRITER):
                marker = slot * SAVES_PER_WRITER + n
                key = f"ior/n{marker % 2}"
                expected = replay.shard_index_for_key(key)
                gid = saved_ids[slot][n]
                assert decode_knowledge_id(gid)[1] == expected, \
                    f"shard placement drifted for key {key!r}"
