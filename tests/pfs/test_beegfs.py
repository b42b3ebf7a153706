"""Tests for the BeeGFS façade: namespace ops, data path, getentryinfo."""

import pytest

from repro.pfs.beegfs import BeeGFS, BeeGFSSpec
from repro.pfs.perfmodel import PhaseContext
from repro.util.errors import ConfigurationError, FileSystemError
from repro.util.units import MIB


@pytest.fixture()
def fs():
    return BeeGFS(root_seed=3)


def wctx(tags=None):
    return PhaseContext(
        active_procs=4, procs_per_node=4, node_factors=(1.0,), access="write", tags=tags or {}
    )


def rctx():
    return PhaseContext(
        active_procs=4, procs_per_node=4, node_factors=(1.0,), access="read"
    )


class TestSpec:
    def test_default_topology(self, fs):
        assert len(fs.servers) == 4
        assert len(fs.pool.targets) == 8
        assert fs.namespace.exists("/scratch")

    def test_rejects_excessive_default_targets(self):
        with pytest.raises(ConfigurationError):
            BeeGFSSpec(num_storage_servers=1, targets_per_server=1, default_num_targets=4)


class TestNamespaceOps:
    def test_create_write_read_round_trip(self, fs):
        entry, c_create = fs.create("/scratch/a", wctx())
        assert c_create > 0
        c_write = fs.write(entry, 0, 2 * MIB, wctx())
        assert c_write > 0
        assert entry.size == 2 * MIB
        c_read = fs.read(entry, 0, 2 * MIB, rctx())
        assert c_read > 0

    def test_read_past_eof(self, fs):
        entry, _ = fs.create("/scratch/a", wctx())
        fs.write(entry, 0, 100, wctx())
        with pytest.raises(FileSystemError):
            fs.read(entry, 50, 100, rctx())

    def test_write_under_read_ctx_rejected(self, fs):
        entry, _ = fs.create("/scratch/a", wctx())
        with pytest.raises(FileSystemError):
            fs.write(entry, 0, 10, rctx())

    def test_makedirs_idempotent(self, fs):
        fs.makedirs("/scratch/x/y/z")
        fs.makedirs("/scratch/x/y/z")
        assert fs.namespace.exists("/scratch/x/y/z")

    def test_unlink_and_stat(self, fs):
        fs.create("/scratch/gone", wctx())
        assert fs.stat("/scratch/gone", rctx()) > 0
        fs.unlink("/scratch/gone", wctx())
        assert not fs.namespace.exists("/scratch/gone")

    def test_io_many_extends_size(self, fs):
        entry, _ = fs.create("/scratch/a", wctx())
        durations, _ = fs.phase_io("write", [entry], 1 * MIB, 10, wctx(), ranks=[2])
        assert durations.shape == (1, 10)
        assert entry.size == 10 * MIB

    def test_io_many_read_checks_size(self, fs):
        entry, _ = fs.create("/scratch/a", wctx())
        fs.phase_io("write", [entry], 1 * MIB, 4, wctx())
        with pytest.raises(FileSystemError):
            fs.phase_io("read", [entry], 1 * MIB, 5, rctx())

    def test_round_robin_file_placement(self, fs):
        # Consecutive files must start on different target slots so
        # file-per-process covers the whole pool.
        e1, _ = fs.create("/scratch/f1", wctx())
        e2, _ = fs.create("/scratch/f2", wctx())
        assert e1.layout.target_ids != e2.layout.target_ids


class TestEntryInfo:
    def test_getentryinfo_file_format(self, fs):
        fs.create("/scratch/data", wctx())
        text = fs.getentryinfo("/scratch/data")
        assert "Entry type: file" in text
        assert "EntryID:" in text
        assert "Metadata node: meta01" in text
        assert "Stripe pattern details:" in text
        assert "+ Type: RAID0" in text
        assert "+ Chunksize: 512K" in text
        assert "desired: 4; actual: 4" in text
        assert "+ Storage Pool: 1 (Default)" in text

    def test_getentryinfo_directory(self, fs):
        text = fs.getentryinfo("/scratch")
        assert "Entry type: directory" in text

    def test_unique_entry_ids(self, fs):
        e1, _ = fs.create("/scratch/f1", wctx())
        e2, _ = fs.create("/scratch/f2", wctx())
        assert e1.entry_id != e2.entry_id


class TestAdministration:
    def test_degrade_and_restore_server(self, fs):
        fs.degrade_server("stor01", 0.1)
        assert all(t.health == 0.1 for t in fs.server("stor01").targets)
        fs.restore_all()
        assert all(t.health == 1.0 for t in fs.server("stor01").targets)

    def test_unknown_server(self, fs):
        with pytest.raises(ConfigurationError):
            fs.server("stor99")

    def test_df(self, fs):
        entry, _ = fs.create("/scratch/a", wctx())
        fs.write(entry, 0, 5 * MIB, wctx())
        df = fs.df()
        assert df["used_bytes"] == 5 * MIB
        assert df["num_targets"] == 8
        assert df["raid_scheme"] == "RAID0"
