"""Tests for Phase-III persistence: schema, round trips, queries."""

import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.knowledge import (
    FilesystemInfo,
    IO500Knowledge,
    IO500Testcase,
    Knowledge,
    KnowledgeResult,
    KnowledgeSummary,
)
from repro.core.persistence import (
    IO500Repository,
    KnowledgeDatabase,
    KnowledgeQueries,
    KnowledgeRepository,
    TABLES,
    resolve_database_target,
)
from repro.core.persistence.transfer import knowledge_from_dict, knowledge_to_dict
from repro.util.errors import PersistenceError
from tests.core.test_transfer_codec import filesystems, floats, ints, results, scalars, text


# Knowledge objects in the shapes the tables can hold: filesystem and
# system each absent or present (a system dict has the systems table's
# keys), zero or more summaries, each with zero or more results in
# iteration order (the order the results table hands them back in).
stored_summaries = st.builds(
    KnowledgeSummary,
    operation=text, api=text,
    bw_max=floats, bw_min=floats, bw_mean=floats, bw_stddev=floats,
    ops_max=floats, ops_min=floats, ops_mean=floats, ops_stddev=floats,
    iterations=ints,
    results=st.lists(results, max_size=5, unique_by=lambda r: r.iteration).map(
        lambda rs: sorted(rs, key=lambda r: r.iteration)
    ),
)
stored_systems = st.none() | st.fixed_dictionaries({
    "hostname": text, "system_name": text, "processor_model": text,
    "architecture": text, "processor_cores": ints, "processor_mhz": floats,
    "cache_size_bytes": ints, "memory_bytes": ints,
})
stored_knowledge = st.builds(
    Knowledge,
    benchmark=st.text(min_size=1, max_size=8), command=text, api=text, test_file=text,
    file_per_proc=st.booleans(), num_nodes=ints, num_tasks=ints, tasks_per_node=ints,
    start_time=floats, end_time=floats,
    parameters=st.dictionaries(text, scalars, max_size=4),
    summaries=st.lists(stored_summaries, max_size=4),
    filesystem=filesystems,
    system=stored_systems,
)


@pytest.fixture()
def db():
    with KnowledgeDatabase(":memory:") as database:
        yield database


def make_knowledge(bw_mean=2850.0, n_iters=3, **kw):
    results = [
        KnowledgeResult(iteration=i, bandwidth_mib=bw_mean + i, iops=10.0 * (i + 1),
                        latency_s=0.01, wrrd_time_s=1.0, total_time_s=1.1)
        for i in range(n_iters)
    ]
    summary = KnowledgeSummary(
        operation="write", api="MPIIO",
        bw_max=bw_mean + n_iters - 1, bw_min=bw_mean, bw_mean=bw_mean,
        bw_stddev=1.0, ops_max=30.0, ops_min=10.0, ops_mean=20.0, ops_stddev=5.0,
        iterations=n_iters, results=results,
    )
    defaults = dict(
        benchmark="ior",
        command="ior -a mpiio -b 4m -t 2m -o /scratch/t",
        api="MPIIO",
        test_file="/scratch/t",
        file_per_proc=True,
        num_nodes=4,
        num_tasks=80,
        tasks_per_node=20,
        start_time=100.0,
        end_time=200.0,
        parameters={"xfersize": "2 MiB", "xfersize_bytes": 2097152},
        summaries=[summary],
        filesystem=FilesystemInfo(
            entry_type="file", entry_id="1-A-1", metadata_node="meta01",
            stripe_pattern="RAID0", chunk_size="512K", num_targets=4,
            raid_scheme="RAID0", storage_pool="Default",
        ),
        system={"hostname": "fuchs0000", "system_name": "FUCHS-CSC",
                "processor_model": "Xeon", "architecture": "x86_64",
                "processor_cores": 20, "processor_mhz": 2500.0,
                "cache_size_bytes": 25 * 1024 * 1024, "memory_bytes": 128 * 1024**3},
    )
    defaults.update(kw)
    return Knowledge(**defaults)


class TestDatabase:
    def test_all_tables_created(self, db):
        names = {
            r["name"]
            for r in db.execute("SELECT name FROM sqlite_master WHERE type='table'")
        }
        assert set(TABLES) <= names

    def test_url_resolution(self):
        assert resolve_database_target(":memory:") == ":memory:"
        assert resolve_database_target("sqlite:///tmp/x.db") == "/tmp/x.db"
        assert resolve_database_target("local.db") == "local.db"

    def test_url_resolution_relative_vs_absolute(self):
        # Two slashes -> relative path, three or more -> absolute.
        assert resolve_database_target("sqlite://rel.db") == "rel.db"
        assert resolve_database_target("sqlite:///abs.db") == "/abs.db"
        assert resolve_database_target("sqlite:///var/lib/k.db") == "/var/lib/k.db"
        assert resolve_database_target("sqlite3:///tmp/x.db") == "/tmp/x.db"

    def test_path_object_passes_through(self, tmp_path):
        target = tmp_path / "k.db"
        assert resolve_database_target(target) == str(target)

    def test_bad_scheme_rejected(self):
        with pytest.raises(PersistenceError, match="unsupported database URL scheme"):
            resolve_database_target("postgres://host/db")
        with pytest.raises(PersistenceError):
            resolve_database_target("mysql://host/db")

    def test_empty_url_path_rejected(self):
        # No path at all, and slashes-only paths, are both rejected.
        with pytest.raises(PersistenceError, match="has no path"):
            resolve_database_target("sqlite://")
        with pytest.raises(PersistenceError, match="has no path"):
            resolve_database_target("sqlite:///")
        with pytest.raises(PersistenceError, match="has no path"):
            resolve_database_target("sqlite3://")

    def test_close_is_idempotent(self):
        db = KnowledgeDatabase(":memory:")
        db.close()
        db.close()
        assert db.closed

    def test_context_exit_after_close(self):
        # close() inside the with-block must not break __exit__.
        with KnowledgeDatabase(":memory:") as db:
            db.close()
        assert db.closed

    def test_use_after_close_raises_persistence_error(self):
        db = KnowledgeDatabase(":memory:")
        db.close()
        with pytest.raises(PersistenceError, match="closed"):
            db.execute("SELECT 1")
        with pytest.raises(PersistenceError, match="closed"):
            db.executemany("SELECT ?", [(1,)])
        with pytest.raises(PersistenceError, match="closed"):
            db.table_count("performances")

    def test_file_database_round_trip(self, tmp_path):
        target = tmp_path / "knowledge.db"
        with KnowledgeDatabase(target) as db:
            KnowledgeRepository(db).save(make_knowledge())
        with KnowledgeDatabase(target) as db:
            assert KnowledgeRepository(db).list_ids() == [1]

    def test_failed_transaction_commit_rolls_back(self, tmp_path):
        # A reader's shared lock makes the final commit fail; the failed
        # save must not stay pending for the next commit() to make durable.
        target = tmp_path / "knowledge.db"
        with KnowledgeDatabase(target) as db:
            db.execute("PRAGMA busy_timeout = 100")
            repo = KnowledgeRepository(db)
            reader = sqlite3.connect(target)
            reader.execute("BEGIN")
            reader.execute("SELECT COUNT(*) FROM performances").fetchall()
            with pytest.raises(PersistenceError, match="commit"):
                with db.transaction():
                    repo.save(make_knowledge())
            reader.rollback()
            reader.close()
            assert not db.conn.in_transaction
            db.commit()
            assert repo.list_ids() == []

    def test_bad_table_name(self, db):
        with pytest.raises(PersistenceError):
            db.table_count("evil; DROP")


class TestKnowledgeRepository:
    def test_full_round_trip(self, db):
        repo = KnowledgeRepository(db)
        original = make_knowledge()
        kid = repo.save(original)
        assert original.knowledge_id == kid
        loaded = repo.load(kid)
        assert loaded.command == original.command
        assert loaded.parameters == original.parameters
        assert loaded.filesystem == original.filesystem
        assert loaded.system["processor_cores"] == 20
        ls, os_ = loaded.summary("write"), original.summary("write")
        assert ls.bw_mean == os_.bw_mean
        assert [r.bandwidth_mib for r in ls.results] == [
            r.bandwidth_mib for r in os_.results
        ]

    def test_load_missing(self, db):
        with pytest.raises(PersistenceError):
            KnowledgeRepository(db).load(404)

    @settings(max_examples=80, deadline=None)
    @given(stored_knowledge)
    def test_read_builder_matches_the_codec_round_trip(self, k):
        # load and fetch_many share one positional row builder; what it
        # builds equals what the wire codec would hand a remote caller.
        with KnowledgeDatabase(":memory:") as db:
            repo = KnowledgeRepository(db)
            kid = repo.save(k)
            expected = knowledge_from_dict(knowledge_to_dict(k))
            expected.knowledge_id = kid
            assert repo.load(kid) == repo.fetch_many([kid])[0] == expected

    def test_fetch_many_builds_one_object_per_position(self, db):
        repo = KnowledgeRepository(db)
        kid = repo.save(make_knowledge())
        first, second = repo.fetch_many([kid, kid])
        assert first == second
        first.summaries[0].results.pop()
        first.parameters["xfersize"] = "mutated"
        first.system["hostname"] = "elsewhere"
        assert second == repo.load(kid)

    def test_delete_cascades(self, db):
        repo = KnowledgeRepository(db)
        kid = repo.save(make_knowledge())
        repo.delete(kid)
        assert db.table_count("summaries") == 0
        assert db.table_count("results") == 0
        assert db.table_count("filesystems") == 0
        assert db.table_count("systems") == 0

    def test_delete_missing(self, db):
        with pytest.raises(PersistenceError):
            KnowledgeRepository(db).delete(7)

    def test_list_filter_by_benchmark(self, db):
        repo = KnowledgeRepository(db)
        repo.save(make_knowledge())
        repo.save(make_knowledge(benchmark="hacc-io"))
        assert len(repo.list_ids()) == 2
        assert len(repo.list_ids("ior")) == 1

    @settings(max_examples=20, deadline=None)
    @given(
        bw=st.floats(min_value=0.1, max_value=1e6),
        n=st.integers(min_value=1, max_value=8),
        fpp=st.booleans(),
    )
    def test_round_trip_property(self, bw, n, fpp):
        # Property: save → load is the identity on the stored fields.
        with KnowledgeDatabase(":memory:") as db:
            repo = KnowledgeRepository(db)
            k = make_knowledge(bw_mean=bw, n_iters=n, file_per_proc=fpp)
            loaded = repo.load(repo.save(k))
            assert loaded.file_per_proc == fpp
            assert loaded.summary("write").iterations == n
            assert loaded.summary("write").bw_mean == pytest.approx(bw)


class TestIO500Repository:
    def make_io500(self):
        return IO500Knowledge(
            score_total=3.0, score_bw=1.0, score_md=9.0,
            num_nodes=2, num_tasks=40, timestamp=1e9, version="sc22",
            testcases=[
                IO500Testcase(name="ior-easy-write", value=2.9, unit="GiB/s",
                              time_s=10.0, options={"blockSize": "64m"}),
                IO500Testcase(name="find", value=300.0, unit="kIOPS", time_s=0.5),
            ],
            system={"hostname": "fuchs0000", "processor_cores": 20},
        )

    def test_round_trip(self, db):
        repo = IO500Repository(db)
        original = self.make_io500()
        iofh = repo.save(original)
        loaded = repo.load(iofh)
        assert loaded.score_total == 3.0
        assert loaded.num_tasks == 40
        assert loaded.value("ior-easy-write") == pytest.approx(2.9)
        assert loaded.testcase("ior-easy-write").options == {"blockSize": "64m"}
        assert loaded.system["processor_cores"] == 20

    def test_delete_cascades(self, db):
        repo = IO500Repository(db)
        iofh = repo.save(self.make_io500())
        repo.delete(iofh)
        for table in ("IOFHsScores", "IOFHsTestcases", "IOFHsOptions", "IOFHsResults"):
            assert db.table_count(table) == 0

    def test_load_missing(self, db):
        with pytest.raises(PersistenceError):
            IO500Repository(db).load(99)


class TestQueries:
    def test_summary_rows_and_filters(self, db):
        repo = KnowledgeRepository(db)
        repo.save(make_knowledge(bw_mean=1000.0, api="POSIX"))
        repo.save(make_knowledge(bw_mean=3000.0))
        q = KnowledgeQueries(db)
        assert len(q.summary_rows()) == 2
        assert len(q.summary_rows(api="POSIX")) == 1
        best = q.best_configuration("write")
        assert best.bw_mean == 3000.0

    def test_best_configuration_empty(self, db):
        with pytest.raises(PersistenceError):
            KnowledgeQueries(db).best_configuration("write")

    def test_similar_knowledge(self, db):
        repo = KnowledgeRepository(db)
        a = repo.save(make_knowledge())
        b = repo.save(make_knowledge())
        c = repo.save(make_knowledge(num_tasks=8))
        q = KnowledgeQueries(db)
        assert q.similar_knowledge(a) == [b]
        assert set(q.similar_knowledge(a, same_tasks=False)) == {b, c}

    def test_similar_missing(self, db):
        with pytest.raises(PersistenceError):
            KnowledgeQueries(db).similar_knowledge(5)

    def test_database_report(self, db):
        KnowledgeRepository(db).save(make_knowledge())
        report = KnowledgeQueries(db).database_report()
        assert report["performances"] == 1
        assert report["results"] == 3


class TestReadQueryPlans:
    """Every SELECT on the read path searches an index, never scans.

    Each statement ``load``/``fetch_many`` runs is recorded with its
    bound parameters and re-planned with ``EXPLAIN QUERY PLAN``; a
    ``SCAN <table>`` step means a child-table foreign key lacks its
    index, a cost that grows with the store.
    """

    @staticmethod
    def _read_plans(db, read):
        statements = []
        execute = db.execute

        def recording(sql, params=()):
            if sql.lstrip().upper().startswith("SELECT"):
                statements.append((sql, params))
            return execute(sql, params)

        db.execute = recording
        try:
            read()
        finally:
            db.execute = execute
        assert statements
        return {
            " ".join(sql.split()): [
                row[3] for row in db.conn.execute("EXPLAIN QUERY PLAN " + sql, params)
            ]
            for sql, params in statements
        }

    @staticmethod
    def _assert_no_scan(plans):
        for sql, plan in plans.items():
            assert not [step for step in plan if step.startswith("SCAN ")], (sql, plan)

    def test_knowledge_reads_use_indexes(self, db):
        repo = KnowledgeRepository(db)
        ids = [repo.save(make_knowledge(bw_mean=100.0 + i)) for i in range(12)]
        plans = self._read_plans(db, lambda: (repo.load(ids[3]), repo.fetch_many(ids[2:7])))
        steps = [step for plan in plans.values() for step in plan]
        for index in (
            "idx_summaries_perf", "idx_results_summary",
            "idx_filesystems_perf", "idx_systems_perf",
        ):
            assert any(index in step for step in steps), index
        self._assert_no_scan(plans)

    def test_io500_reads_use_indexes(self, db):
        repo = IO500Repository(db)
        ids = [repo.save(TestIO500Repository().make_io500()) for _ in range(12)]
        plans = self._read_plans(db, lambda: (repo.load(ids[3]), repo.fetch_many(ids[2:7])))
        for table in ("systems", "IOFHsScores", "IOFHsOptions", "IOFHsResults"):
            assert any(table in sql for sql in plans), table
        self._assert_no_scan(plans)

    def test_existing_store_gains_indexes_on_open(self, tmp_path):
        target = tmp_path / "k.db"
        with KnowledgeDatabase(target) as db:
            KnowledgeRepository(db).save(make_knowledge())
        conn = sqlite3.connect(target)
        conn.execute("DROP INDEX idx_systems_perf")
        conn.commit()
        conn.close()
        with KnowledgeDatabase(target) as db:
            names = {
                row[0]
                for row in db.conn.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'index'"
                )
            }
            assert "idx_systems_perf" in names
            assert KnowledgeRepository(db).load(1).system["hostname"] == "fuchs0000"
