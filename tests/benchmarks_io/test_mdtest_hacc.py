"""Tests for mdtest and HACC-IO."""

import pytest

from repro.benchmarks_io.hacc_io import BYTES_PER_PARTICLE, HaccIOConfig, run_hacc_io
from repro.benchmarks_io.mdtest import HARD_WRITE_BYTES, MdtestConfig, run_mdtest
from repro.iostack.stack import Testbed
from repro.util.errors import (
    BenchmarkError,
    ConfigurationError,
    FileExistsInPFSError,
    FileNotFoundInPFSError,
)


@pytest.fixture()
def tb():
    return Testbed.fuchs_csc(seed=13)


@pytest.fixture()
def jobctx(tb):
    return tb.start_job("md", num_nodes=1, tasks_per_node=8)


class TestMdtestConfig:
    def test_paths(self):
        cfg = MdtestConfig(base_dir="/scratch/md")
        assert cfg.task_dir(3) == "/scratch/md/task3"
        assert cfg.item_path(3, 7) == "/scratch/md/task3/file.mdtest.3.7"

    def test_shared_dir(self):
        cfg = MdtestConfig(base_dir="/scratch/md", unique_dir_per_task=False)
        assert cfg.task_dir(0) == cfg.task_dir(5) == "/scratch/md/shared"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MdtestConfig(num_items=0)
        with pytest.raises(ConfigurationError):
            MdtestConfig(phases=("create", "fly"))
        with pytest.raises(ConfigurationError):
            MdtestConfig(write_bytes=10, read_bytes=20, phases=("create", "read"))


class TestRunMdtest:
    def test_all_phases(self, jobctx):
        cfg = MdtestConfig(num_items=50, base_dir="/scratch/md1")
        res = run_mdtest(cfg, jobctx)
        rates = res.rates()
        assert set(rates) == {"create", "stat", "read", "remove"}
        assert all(v > 0 for v in rates.values())
        # stats are cheaper than creates on any metadata server
        assert rates["stat"] > rates["create"]

    def test_namespace_cleaned_after_remove(self, jobctx):
        cfg = MdtestConfig(num_items=10, base_dir="/scratch/md2")
        run_mdtest(cfg, jobctx)
        nfiles, _ = jobctx.fs.namespace.count_entries("/scratch/md2")
        assert nfiles == 0

    def test_hard_slower_than_easy(self, tb):
        ctx = tb.start_job("cmp", 1, 8)
        easy = run_mdtest(
            MdtestConfig(num_items=60, base_dir="/scratch/easy", phases=("create",)), ctx
        )
        hard = run_mdtest(
            MdtestConfig(
                num_items=60,
                base_dir="/scratch/hard",
                unique_dir_per_task=False,
                write_bytes=HARD_WRITE_BYTES,
                phases=("create",),
            ),
            ctx,
        )
        assert hard.rate("create") < easy.rate("create")

    def test_phase_order_enforced(self, jobctx):
        cfg = MdtestConfig(num_items=5, base_dir="/scratch/md3", phases=("stat",))
        with pytest.raises(BenchmarkError):
            run_mdtest(cfg, jobctx)

    def test_stat_after_remove_finds_no_files(self, jobctx):
        cfg = MdtestConfig(
            num_items=5, base_dir="/scratch/md5", phases=("create", "remove", "stat")
        )
        with pytest.raises(FileNotFoundInPFSError, match="^/scratch/md5/task0/file.mdtest.0.0$"):
            run_mdtest(cfg, jobctx)

    def test_create_twice_names_the_item_and_changes_nothing(self, jobctx):
        cfg = MdtestConfig(num_items=5, base_dir="/scratch/md6", phases=("create",))
        run_mdtest(cfg, jobctx)
        entries = jobctx.fs.namespace.walk_files("/scratch/md6")
        with pytest.raises(FileExistsInPFSError, match="^/scratch/md6/task0/file.mdtest.0.0$"):
            run_mdtest(cfg, jobctx)
        assert jobctx.fs.namespace.walk_files("/scratch/md6") == entries

    def test_hard_create_sizes_every_item(self, jobctx):
        cfg = MdtestConfig(
            num_items=7,
            base_dir="/scratch/md7",
            unique_dir_per_task=False,
            write_bytes=HARD_WRITE_BYTES,
            phases=("create",),
        )
        run_mdtest(cfg, jobctx)
        sizes = [e.size for _, e in jobctx.fs.namespace.walk_files("/scratch/md7")]
        assert sizes == [HARD_WRITE_BYTES] * (7 * 8)

    def test_rate_lookup_missing(self, jobctx):
        cfg = MdtestConfig(num_items=5, base_dir="/scratch/md4", phases=("create",))
        res = run_mdtest(cfg, jobctx)
        with pytest.raises(BenchmarkError):
            res.rate("remove")


class TestHaccIO:
    def test_bytes_per_rank(self):
        cfg = HaccIOConfig(num_particles=1000)
        assert cfg.bytes_per_rank == 1000 * BYTES_PER_PARTICLE

    def test_modes_file_naming(self):
        ssf = HaccIOConfig(mode="single-shared-file", out_file="/scratch/h/c")
        assert ssf.file_for_rank(0) == ssf.file_for_rank(9) == "/scratch/h/c"
        fpp = HaccIOConfig(mode="file-per-process", out_file="/scratch/h/c")
        assert fpp.file_for_rank(2) == "/scratch/h/c.00000002"
        fpg = HaccIOConfig(mode="file-per-group", group_size=4, out_file="/scratch/h/c")
        assert fpg.file_for_rank(0) == fpg.file_for_rank(3)
        assert fpg.file_for_rank(4) != fpg.file_for_rank(3)

    def test_ranks_sharing(self):
        cfg = HaccIOConfig(mode="file-per-group", group_size=4)
        assert cfg.ranks_sharing(10, 0) == 4
        assert cfg.ranks_sharing(10, 9) == 2  # last partial group

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            HaccIOConfig(mode="striped")
        with pytest.raises(ConfigurationError):
            HaccIOConfig(api="HDF5")
        with pytest.raises(ConfigurationError):
            HaccIOConfig(num_particles=0)

    def test_checkpoint_restart(self, tb):
        ctx = tb.start_job("hacc", 1, 8)
        cfg = HaccIOConfig(num_particles=100_000, mode="file-per-process", out_file="/scratch/h1/c")
        res = run_hacc_io(cfg, ctx)
        w, r = res.phase("write"), res.phase("read")
        assert w.bandwidth_mib > 0 and r.bandwidth_mib > 0
        assert w.data_moved_bytes == 8 * cfg.bytes_per_rank

    def test_fpp_faster_than_shared_for_small_buffered_checkpoints(self, tb):
        # With sub-chunk client buffering, N-to-1 checkpoints pay the
        # shared-file penalty that independent files avoid.
        ctx = tb.start_job("hacc2", 2, 10)
        shared = run_hacc_io(
            HaccIOConfig(num_particles=200_000, mode="single-shared-file",
                         transfer_size=256 * 1024, out_file="/scratch/h2/s"), ctx, run_id=1
        )
        fpp = run_hacc_io(
            HaccIOConfig(num_particles=200_000, mode="file-per-process",
                         transfer_size=256 * 1024, out_file="/scratch/h2/f"), ctx, run_id=2
        )
        assert fpp.phase("write").bandwidth_mib > shared.phase("write").bandwidth_mib

    def test_no_restart(self, tb):
        ctx = tb.start_job("hacc3", 1, 4)
        cfg = HaccIOConfig(num_particles=10_000, restart=False, out_file="/scratch/h3/c")
        res = run_hacc_io(cfg, ctx)
        with pytest.raises(BenchmarkError):
            res.phase("read")
