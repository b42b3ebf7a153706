"""Columnar scan layer: sketches, pushdown, chunking, LIKE escaping.

The contract under test everywhere: ``repo.scan(query)`` must be
value-identical to the plain-Python reference fold
:func:`~repro.core.persistence.scan.fold_scan` over ``load_all()`` —
exactly for counts/min/max/percentiles (same order-independent sketch
on both sides), to 1e-9 relative for mean/stddev (float summation
order) — whatever the backing transport.
"""

import json
import math
import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analytics import synthesize_fleet
from repro.core.knowledge import Knowledge, KnowledgeResult, KnowledgeSummary
from repro.core.persistence.database import KnowledgeDatabase
from repro.core.persistence.repository import KnowledgeRepository
from repro.core.persistence.scan import (
    SKETCH_GAMMA,
    SQL_VARIABLE_CHUNK,
    AggregateState,
    PercentileSketch,
    ScanQuery,
    chunked,
    escape_like,
    fold_scan,
    merge_partial_payloads,
)
from repro.core.service.client import ServiceClient
from repro.core.service.service import KnowledgeService
from repro.core.service.shard import KnowledgeShardMap
from repro.util.errors import PersistenceError


def make_knowledge(marker=0, benchmark="ior", api="POSIX", num_nodes=2,
                   num_tasks=8, operations=("write",), bw=500.0, ops=4000.0,
                   parameters=None):
    return Knowledge(
        benchmark, command=f"{benchmark} -m {marker}", api=api,
        num_nodes=num_nodes, num_tasks=num_tasks,
        parameters=dict(parameters or {}, marker=marker),
        summaries=[
            KnowledgeSummary(
                operation=op, api=api,
                bw_max=bw + 10, bw_min=bw - 10, bw_mean=bw, bw_stddev=2.0,
                ops_max=ops + 100, ops_min=ops - 100, ops_mean=ops,
                ops_stddev=40.0, iterations=2,
                results=[KnowledgeResult(iteration=i, bandwidth_mib=bw, iops=ops)
                         for i in range(2)],
            )
            for op in operations
        ],
        system={"hostname": "n0"},
    )


def assert_results_equal(scan_result, fold_result, rel_tol=1e-9):
    """Group-by-group, value-by-value equality (mean/stddev tolerant)."""
    assert [r.group for r in scan_result.rows] == [
        r.group for r in fold_result.rows
    ]
    for a, b in zip(scan_result.rows, fold_result.rows):
        assert set(a.values) == set(b.values)
        for key, va in a.values.items():
            vb = b.values[key]
            if key in ("mean", "stddev"):
                assert math.isclose(va, vb, rel_tol=rel_tol, abs_tol=1e-12), (
                    a.group, key, va, vb)
            else:
                assert va == vb, (a.group, key, va, vb)


# ----------------------------------------------------------------------
# building blocks: chunking, escaping, sketch, aggregate state
# ----------------------------------------------------------------------
class TestBuildingBlocks:
    def test_chunked_covers_every_item_in_order(self):
        items = list(range(1203))
        chunks = list(chunked(items, 500))
        assert [len(c) for c in chunks] == [500, 500, 203]
        assert [x for c in chunks for x in c] == items

    def test_chunked_empty_yields_nothing(self):
        assert list(chunked([], 500)) == []

    @pytest.mark.parametrize("raw,expected", [
        ("100%", "100\\%"),
        ("a_b", "a\\_b"),
        ("50\\%", "50\\\\\\%"),
        ("plain", "plain"),
    ])
    def test_escape_like_neutralises_wildcards(self, raw, expected):
        assert escape_like(raw) == expected

    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1,
                    max_size=200),
           st.integers(min_value=1, max_value=5))
    @settings(max_examples=50, deadline=None)
    def test_sketch_merge_is_order_independent(self, values, parts):
        whole = PercentileSketch()
        for v in values:
            whole.add(v)
        merged = PercentileSketch()
        for i in range(parts):
            part = PercentileSketch()
            for v in values[i::parts]:
                part.add(v)
            merged.merge(part)
        for q in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert whole.quantile(q) == merged.quantile(q)

    def test_sketch_quantile_relative_accuracy(self):
        sketch = PercentileSketch()
        values = [1.0 + 0.37 * i for i in range(1000)]
        for v in values:
            sketch.add(v)
        values.sort()
        for q in (0.05, 0.5, 0.95):
            exact = values[round(q * (len(values) - 1))]
            assert math.isclose(sketch.quantile(q), exact, rel_tol=0.03)

    def test_sketch_payload_round_trip(self):
        sketch = PercentileSketch()
        for v in (-3.0, 0.0, 0.0, 2.5, 1e9):
            sketch.add(v)
        clone = PercentileSketch.from_payload(sketch.to_payload())
        for q in (0.0, 0.5, 1.0):
            assert clone.quantile(q) == sketch.quantile(q)

    def test_aggregate_state_matches_population_stats(self):
        values = [3.0, 7.0, 7.0, 11.0, 42.0]
        state = AggregateState()
        for v in values:
            state.add(v)
        out = state.finalize(())
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / len(values)
        assert out["count"] == len(values)
        assert out["min"] == min(values) and out["max"] == max(values)
        assert math.isclose(out["mean"], mean, rel_tol=1e-12)
        assert math.isclose(out["stddev"], math.sqrt(var), rel_tol=1e-9)

    def test_aggregate_payload_round_trip_and_merge(self):
        a, b = AggregateState(), AggregateState()
        for v in (1.0, 2.0):
            a.add(v)
        for v in (3.0, 4.0):
            b.add(v)
        restored = AggregateState.from_payload(a.to_payload())
        restored.merge(b)
        whole = AggregateState()
        for v in (1.0, 2.0, 3.0, 4.0):
            whole.add(v)
        assert restored.finalize(()) == pytest.approx(whole.finalize(()))

    def test_merge_partial_payloads_unions_groups(self):
        a, b = AggregateState(), AggregateState()
        a.add(1.0)
        b.add(5.0)
        merged = merge_partial_payloads([
            {'["ior"]': a.to_payload()},
            {'["ior"]': b.to_payload(), '["mdtest"]': b.to_payload()},
        ])
        assert set(merged) == {'["ior"]', '["mdtest"]'}
        ior = AggregateState.from_payload(merged['["ior"]']).finalize(())
        assert ior["count"] == 2 and ior["max"] == 5.0


class TestScanQueryValidation:
    def test_unknown_metric_rejected(self):
        with pytest.raises(PersistenceError, match="metric"):
            ScanQuery(metric="latency_p99")

    def test_unknown_group_rejected(self):
        with pytest.raises(PersistenceError, match="group"):
            ScanQuery(group_by=("hostname",))

    def test_percentile_out_of_range_rejected(self):
        with pytest.raises(PersistenceError, match="percentile"):
            ScanQuery(percentiles=(101.0,))

    def test_payload_round_trip(self):
        query = ScanQuery(
            metric="ops_mean", benchmark="ior", api="POSIX",
            num_nodes_min=2, num_tasks_max=64,
            parameter=("stripe_pattern", "8x1M"),
            group_by=("benchmark", "operation"), percentiles=(50.0, 99.0),
        )
        assert ScanQuery.from_payload(query.to_payload()) == query


# ----------------------------------------------------------------------
# embedded repository: pushdown == fold, fast path, maintenance
# ----------------------------------------------------------------------
@pytest.fixture()
def fleet_repo(tmp_path):
    with KnowledgeDatabase(tmp_path / "fleet.db") as db:
        repo = KnowledgeRepository(db)
        runs, _ = synthesize_fleet(1234, runs=60, io500_runs=0)
        for k in runs:
            repo.save(k)
        yield repo


SCAN_QUERIES = [
    ScanQuery(),
    ScanQuery(group_by=("benchmark", "operation")),
    ScanQuery(metric="ops_mean", group_by=("benchmark",),
              percentiles=(50.0, 95.0)),
    ScanQuery(benchmark="ior", group_by=("num_nodes",), percentiles=(75.0,)),
    ScanQuery(api="POSIX", num_nodes_min=2, num_nodes_max=8,
              group_by=("benchmark", "num_nodes")),
    ScanQuery(num_tasks_min=16, metric="bw_max", group_by=("operation",)),
    ScanQuery(parameter=("raid_scheme", "RAID6"),
              group_by=("benchmark", "operation"), percentiles=(50.0,)),
]

#: The evaluation path each of SCAN_QUERIES takes, embedded or served.
SCAN_SOURCES = [
    "summary-table",
    "summary-table",
    "base-tables",
    "base-tables",
    "base-tables",
    "base-tables",
    "base-tables",
]


class TestEmbeddedScan:
    @pytest.mark.parametrize("query", SCAN_QUERIES,
                             ids=lambda q: q.metric + "/" + ",".join(q.group_by))
    def test_scan_equals_reference_fold(self, fleet_repo, query):
        assert_results_equal(
            fleet_repo.scan(query), fold_scan(query, fleet_repo.load_all())
        )

    @pytest.mark.parametrize("query,source", list(zip(SCAN_QUERIES, SCAN_SOURCES)),
                             ids=lambda v: v if isinstance(v, str) else v.metric)
    def test_source_names_the_evaluation_path(self, fleet_repo, query, source):
        assert fleet_repo.scan(query).source == source

    def test_summary_table_fast_path_is_used_and_correct(self, fleet_repo):
        query = ScanQuery(group_by=("benchmark", "api", "operation"))
        result = fleet_repo.scan(query)
        assert result.source == "summary-table"
        assert_results_equal(result, fold_scan(query, fleet_repo.load_all()))

    def test_percentiles_force_base_tables(self, fleet_repo):
        result = fleet_repo.scan(ScanQuery(group_by=("benchmark",),
                                           percentiles=(50.0,)))
        assert result.source == "base-tables"

    def test_parameter_filter_forces_base_tables(self, fleet_repo):
        result = fleet_repo.scan(
            ScanQuery(parameter=("raid_scheme", "RAID0"))
        )
        assert result.source == "base-tables"
        assert result.single()["count"] > 0

    def test_empty_store_scans_to_no_rows(self, tmp_path):
        with KnowledgeDatabase(tmp_path / "empty.db") as db:
            repo = KnowledgeRepository(db)
            assert not repo.scan(ScanQuery()).rows
            assert not repo.scan(ScanQuery(group_by=("benchmark",))).rows

    def test_delete_rebuilds_summary_table(self, fleet_repo):
        victim = fleet_repo.list_ids()[0]
        fleet_repo.delete(victim)
        query = ScanQuery(group_by=("benchmark", "operation"))
        result = fleet_repo.scan(query)
        assert result.source == "summary-table"
        assert_results_equal(result, fold_scan(query, fleet_repo.load_all()))

    def test_delete_missing_id_is_typed_error(self, fleet_repo):
        with pytest.raises(PersistenceError, match="no knowledge"):
            fleet_repo.delete(999_999)


class TestRowLoopRegressions:
    def test_fetch_many_survives_two_thousand_ids(self, tmp_path):
        # Regression: a single "IN (?,?,...)" with 2k ids used to raise
        # sqlite3.OperationalError: too many SQL variables.
        with KnowledgeDatabase(tmp_path / "big.db") as db:
            repo = KnowledgeRepository(db)
            ids = [repo.save(make_knowledge(i, bw=400.0 + i % 50))
                   for i in range(2000)]
            fetched = repo.fetch_many(ids)
            assert [k.knowledge_id for k in fetched] == ids
            assert fetched[1500].parameters["marker"] == 1500

    def test_fetch_many_missing_id_still_detected_across_chunks(self, tmp_path):
        with KnowledgeDatabase(tmp_path / "big.db") as db:
            repo = KnowledgeRepository(db)
            ids = [repo.save(make_knowledge(i)) for i in range(600)]
            with pytest.raises(PersistenceError, match="777777"):
                repo.fetch_many(ids + [777_777])

    def test_load_all_equals_per_id_loads(self, fleet_repo):
        batched = fleet_repo.load_all()
        looped = [fleet_repo.load(i) for i in fleet_repo.list_ids()]
        assert batched == looped

    def test_find_ids_by_parameter_escapes_like_wildcards(self, tmp_path):
        # "100%" must not glob onto "100x" (nor "a_b" onto "axb").
        with KnowledgeDatabase(tmp_path / "like.db") as db:
            repo = KnowledgeRepository(db)
            pct = repo.save(make_knowledge(1, parameters={"hint": "100%"}))
            repo.save(make_knowledge(2, parameters={"hint": "100x"}))
            under = repo.save(make_knowledge(3, parameters={"hint": "a_b"}))
            repo.save(make_knowledge(4, parameters={"hint": "axb"}))
            assert repo.find_ids_by_parameter("hint", "100%") == [pct]
            assert repo.find_ids_by_parameter("hint", "a_b") == [under]

    def test_scan_parameter_filter_with_wildcard_value(self, tmp_path):
        with KnowledgeDatabase(tmp_path / "like.db") as db:
            repo = KnowledgeRepository(db)
            repo.save(make_knowledge(1, parameters={"hint": "100%"}, bw=100.0))
            repo.save(make_knowledge(2, parameters={"hint": "100x"}, bw=900.0))
            query = ScanQuery(parameter=("hint", "100%"))
            result = repo.scan(query)
            assert result.single()["count"] == 1
            assert result.single()["mean"] == pytest.approx(100.0)
            assert_results_equal(result, fold_scan(query, repo.load_all()))


# ----------------------------------------------------------------------
# bucket edges: the SQL sketch bucket against PercentileSketch._bucket
# ----------------------------------------------------------------------
def _edge_values():
    """Values on sketch bucket edges, their float neighbours, zeros and
    negatives."""
    values = [0.0, -0.0, 0.0]
    for k in (-700, -37, -1, 0, 1, 2, 35, 36, 350):
        edge = SKETCH_GAMMA**k
        for v in (edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf)):
            values += [v, -v]
    return values


class _NoMathConnection(sqlite3.Connection):
    """A connection whose SQLite seems built without math functions."""

    def execute(self, sql, *args):
        if sql == "SELECT ln(1)":
            raise sqlite3.OperationalError("no such function: ln")
        return super().execute(sql, *args)


@pytest.fixture(params=["native", "python"])
def edge_repo(request, tmp_path, monkeypatch):
    """A repository of bucket-edge rows, on SQLite's own ``ln``/``floor``
    or on the Python fallback the database registers without them."""
    if request.param == "python":
        real_connect = sqlite3.connect
        monkeypatch.setattr(
            sqlite3, "connect",
            lambda *args, **kwargs: real_connect(*args, factory=_NoMathConnection, **kwargs),
        )
    with KnowledgeDatabase(tmp_path / "edges.db") as db:
        if request.param == "python":
            with pytest.raises(sqlite3.OperationalError):
                db.conn.execute("SELECT ln(0)")  # math.log, not SQLite's NULL
        else:
            assert db.conn.execute("SELECT ln(0)").fetchone()[0] is None
        repo = KnowledgeRepository(db)
        values = _edge_values()
        repo.save_many([
            make_knowledge(i, num_nodes=1 + i % 3, bw=v,
                           parameters={"edge": "yes"})
            for i, v in enumerate(values)
        ])
        # Enough tagged filler that the parameter filter spans id chunks.
        repo.save_many([
            make_knowledge(10_000 + i, num_nodes=4, bw=SKETCH_GAMMA ** (i % 90),
                           parameters={"edge": "yes" if i % 4 else "no"})
            for i in range(2 * SQL_VARIABLE_CHUNK)
        ])
        yield repo


EDGE_QUERIES = [
    ScanQuery(percentiles=tuple(float(q) for q in range(1, 100))),
    ScanQuery(group_by=("num_nodes",), percentiles=(1.0, 10.0, 50.0, 90.0, 99.0)),
    ScanQuery(parameter=("edge", "yes"), group_by=("num_nodes",),
              percentiles=tuple(float(q) for q in range(1, 100))),
    ScanQuery(parameter=("edge", "yes")),
]


class TestBucketEdges:
    @pytest.mark.parametrize("query", EDGE_QUERIES,
                             ids=["all", "by-nodes", "param-chunked", "param-plain"])
    def test_bucketed_scan_equals_fold(self, edge_repo, query):
        objects = edge_repo.load_all()
        if query.parameter is not None:
            assert len(edge_repo.find_ids_by_parameter(*query.parameter)) > \
                SQL_VARIABLE_CHUNK
        assert_results_equal(edge_repo.scan(query), fold_scan(query, objects))
        # Every bucket, not just the sampled ranks: the SQL sketch holds
        # exactly the counts PercentileSketch.add gives each value.
        if query.wants_sketch:
            expected: dict[tuple, PercentileSketch] = {}
            for knowledge in objects:
                if query.parameter and knowledge.parameters.get("edge") != "yes":
                    continue
                key = tuple(getattr(knowledge, d) for d in query.group_by)
                expected.setdefault(key, PercentileSketch()).add(
                    knowledge.summaries[0].bw_mean
                )
            partials = edge_repo.scan_partial(query)
            assert len(partials) == len(expected)
            assert any(s.zeros for s in expected.values())
            assert any(s.neg for s in expected.values())
            for key, payload in partials.items():
                got = AggregateState.from_payload(payload).sketch
                want = expected[tuple(json.loads(key))]
                assert (got.zeros, got.pos, got.neg) == (want.zeros, want.pos, want.neg)


# ----------------------------------------------------------------------
# service transports: embedded service and knowledge+tcp://
# ----------------------------------------------------------------------
class TestServiceScan:
    def test_embedded_service_scan_equals_fold(self, tmp_path):
        shard_map = KnowledgeShardMap(tmp_path / "store", num_shards=3)
        service = KnowledgeService(shard_map)
        try:
            with ServiceClient(service) as client:
                runs, _ = synthesize_fleet(99, runs=40, io500_runs=0)
                for k in runs:
                    client.save(k)
                for query, source in zip(SCAN_QUERIES, SCAN_SOURCES, strict=True):
                    result = client.scan(query)
                    assert result.source == source
                    assert_results_equal(
                        result, fold_scan(query, client.load_all())
                    )
        finally:
            service.close()
            shard_map.close()

    def test_scan_result_reflects_new_saves(self, tmp_path):
        shard_map = KnowledgeShardMap(tmp_path / "store", num_shards=2)
        service = KnowledgeService(shard_map)
        try:
            with ServiceClient(service) as client:
                client.save(make_knowledge(1, bw=100.0))
                first = client.scan(ScanQuery())
                assert first.single()["count"] == 1
                client.save(make_knowledge(2, bw=300.0))
                second = client.scan(ScanQuery())
                assert second.single()["count"] == 2
                assert second.single()["mean"] == pytest.approx(200.0)
        finally:
            service.close()
            shard_map.close()

    def test_tcp_scan_equals_fold_across_worker_partials(self, tmp_path):
        from repro.core.service.server import KnowledgeServer

        server = KnowledgeServer(tmp_path / "store", shards=4,
                                 worker_processes=2)
        server.start()
        try:
            url = f"knowledge+tcp://{server.host}:{server.port}/"
            with ServiceClient.open(url) as client:
                runs, _ = synthesize_fleet(7, runs=48, io500_runs=0)
                for k in runs:
                    client.save(k)
                for query, source in zip(SCAN_QUERIES, SCAN_SOURCES, strict=True):
                    result = client.scan(query)
                    assert result.source == source
                    assert_results_equal(
                        result, fold_scan(query, client.load_all())
                    )
        finally:
            server.close()
