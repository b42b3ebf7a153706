"""Batched ``save_many``: one ``executemany`` per table instead of one
``INSERT`` round-trip per row, with exact parity against the per-row
path."""

import math

import pytest

from repro.core.knowledge import (
    FilesystemInfo,
    Knowledge,
    KnowledgeResult,
    KnowledgeSummary,
)
from repro.core.persistence.database import KnowledgeDatabase
from repro.core.persistence.repository import KnowledgeRepository
from repro.core.persistence.scan import ScanQuery, fold_scan, scan_results_match


def make_knowledge(i, *, results_per_summary=2):
    results = [
        KnowledgeResult(
            iteration=j, bandwidth_mib=100.0 + i % 17 + j, iops=10.0, latency_s=0.1,
            open_time_s=0.01, wrrd_time_s=0.5, close_time_s=0.02, total_time_s=0.6,
        )
        for j in range(results_per_summary)
    ]
    summary = KnowledgeSummary(
        operation="write", api="MPIIO", bw_max=110.0 + i % 17, bw_min=90.0,
        bw_mean=100.0 + i % 17, bw_stddev=5.0, ops_max=12.0, ops_min=8.0,
        ops_mean=10.0, ops_stddev=1.0, iterations=results_per_summary,
        results=results,
    )
    k = Knowledge(
        benchmark="ior", command=f"ior -b {i % 31}m", api="MPIIO", test_file="/t",
        file_per_proc=False, num_nodes=2, num_tasks=8, tasks_per_node=4,
        start_time=float(i), end_time=float(i) + 1.0, parameters={"i": str(i)},
    )
    k.summaries.append(summary)
    if i % 2 == 0:
        k.filesystem = FilesystemInfo(
            fs_type="lustre", entry_type="dir", entry_id="x", metadata_node="m",
            stripe_pattern="raid0", chunk_size="1m", num_targets=4,
            raid_scheme="raid6", storage_pool="p",
        )
    if i % 3 == 0:
        k.system = {"hostname": f"n{i}", "system_name": "sys",
                    "processor_model": "x", "architecture": "x86_64",
                    "processor_cores": 64, "processor_mhz": 2000.0,
                    "cache_size_bytes": 1024, "memory_bytes": 1 << 30}
    return k


class CountingBackend:
    """Delegating backend that counts statement round-trips."""

    def __init__(self, inner):
        self.inner = inner
        self.execute_calls = 0
        self.executemany_calls = 0

    def execute(self, sql, params=()):
        self.execute_calls += 1
        return self.inner.execute(sql, params)

    def executemany(self, sql, seq_of_params):
        self.executemany_calls += 1
        return self.inner.executemany(sql, seq_of_params)

    def commit(self):
        self.inner.commit()

    def rollback(self):
        self.inner.rollback()

    def close(self):
        self.inner.close()

    def transaction(self):
        return self.inner.transaction()

    def table_count(self, table):
        return self.inner.table_count(table)


class TestBatchedSaveMany:
    def test_parity_with_per_row_save(self):
        with KnowledgeDatabase(":memory:") as db_row, KnowledgeDatabase(":memory:") as db_batch:
            repo_row, repo_batch = KnowledgeRepository(db_row), KnowledgeRepository(db_batch)
            ids_row = [repo_row.save(make_knowledge(i)) for i in range(40)]
            batch = [make_knowledge(i) for i in range(40)]
            ids_batch = repo_batch.save_many(batch)
            assert ids_row == ids_batch
            assert [k.knowledge_id for k in batch] == ids_batch
            for i in ids_row:
                a, b = repo_row.load(i), repo_batch.load(i)
                assert a.command == b.command
                assert len(a.summaries) == len(b.summaries)
                assert [r.bandwidth_mib for r in a.summaries[0].results] == [
                    r.bandwidth_mib for r in b.summaries[0].results
                ]
                assert (a.filesystem is None) == (b.filesystem is None)
                assert (a.system is None) == (b.system is None)
            # the pre-aggregated table must match to the float
            rows_a = db_row.execute(
                "SELECT * FROM agg_summaries ORDER BY metric").fetchall()
            rows_b = db_batch.execute(
                "SELECT * FROM agg_summaries ORDER BY metric").fetchall()
            assert len(rows_a) == len(rows_b) > 0
            for x, y in zip(rows_a, rows_b):
                for column in x.keys():
                    if isinstance(x[column], float):
                        assert math.isclose(x[column], y[column], rel_tol=1e-9)
                    else:
                        assert x[column] == y[column]

    def test_scan_sees_batched_rows(self):
        with KnowledgeDatabase(":memory:") as db:
            repo = KnowledgeRepository(db)
            repo.save_many([make_knowledge(i) for i in range(25)])
            result = repo.scan(ScanQuery(metric="bw_mean", operation="write"))
            assert result.single()["count"] == 25

    def test_ten_thousand_rows_bounded_round_trips(self):
        """The 10k-row regression: row count must not drive statement count."""
        n = 10_000
        with KnowledgeDatabase(":memory:") as db:
            counting = CountingBackend(db)
            repo = KnowledgeRepository(counting)
            ids = repo.save_many(
                [make_knowledge(i, results_per_summary=1) for i in range(n)]
            )
            assert len(ids) == n and ids[0] == 1 and ids[-1] == n
            # id probes + sqlite_master checks, not one INSERT per row
            assert counting.execute_calls < 10, counting.execute_calls
            # performances, summaries, results, filesystems, systems, agg
            assert counting.executemany_calls <= 6, counting.executemany_calls
            assert db.table_count("performances") == n
            assert db.table_count("results") == n

    def test_empty_batch(self):
        with KnowledgeDatabase(":memory:") as db:
            assert KnowledgeRepository(db).save_many([]) == []

    def test_ids_not_reused_after_delete(self):
        with KnowledgeDatabase(":memory:") as db:
            repo = KnowledgeRepository(db)
            first = repo.save_many([make_knowledge(i) for i in range(5)])
            repo.delete(first[-1])
            second = repo.save_many([make_knowledge(10), make_knowledge(11)])
            assert second[0] > first[-1]  # AUTOINCREMENT promise kept
            single = repo.save(make_knowledge(12))
            assert single == second[-1] + 1  # implicit path continues cleanly

    def test_mid_batch_failure_rolls_everything_back(self):
        with KnowledgeDatabase(":memory:") as db:
            repo = KnowledgeRepository(db)
            bad = make_knowledge(1)
            bad.summaries[0] = None  # poison one object mid-batch
            with pytest.raises(AttributeError):
                repo.save_many([make_knowledge(0), bad, make_knowledge(2)])
            assert db.table_count("performances") == 0
            assert db.table_count("agg_summaries") == 0

    @pytest.mark.stress
    @pytest.mark.timeout(600)
    def test_hundred_thousand_rows_end_to_end(self, tmp_path):
        """Fleet-scale ingest: 100k objects through save_many in chunks
        against a file-backed store, with ``scan()`` agreeing with the
        reference Python fold to the float."""
        n, chunk = 100_000, 10_000
        with KnowledgeDatabase(tmp_path / "bulk.db") as db:
            repo = KnowledgeRepository(db)
            ids = []
            for start in range(0, n, chunk):
                ids.extend(
                    repo.save_many(
                        [
                            make_knowledge(i, results_per_summary=1)
                            for i in range(start, start + chunk)
                        ]
                    )
                )
            assert len(ids) == n and ids[0] == 1 and ids[-1] == n
            assert db.table_count("performances") == n
            assert db.table_count("agg_summaries") > 0
            query = ScanQuery(
                metric="bw_mean", operation="write", group_by=("benchmark",)
            )
            assert scan_results_match(
                repo.scan(query), fold_scan(query, repo.load_all())
            )
