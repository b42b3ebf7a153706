"""Tests for the analytic performance model — the simulator's heart.

These tests pin the *qualitative shapes* the paper's experiments rely
on (Fig. 3 impact factors): bigger transfers are faster, contention
hurts, shared-file small writes pay a penalty that collective buffering
lifts, faults slow exactly the tagged phases, and noise is
deterministic under a seed.
"""

import numpy as np
import pytest

from repro.benchmarks_io.io500 import IO500Config, run_io500
from repro.benchmarks_io.ior import parse_command, run_ior
from repro.cluster.interconnect import Interconnect
from repro.iostack.stack import Testbed
from repro.pfs.beegfs import BeeGFS
from repro.pfs.faults import Fault, FaultInjector, FaultScope
from repro.pfs.layout import StripeLayout
from repro.pfs.perfmodel import PerfModel, PhaseContext
from repro.util.errors import ConfigurationError
from repro.util.units import KIB, MIB


@pytest.fixture()
def fs():
    return BeeGFS(interconnect=Interconnect(), root_seed=7)


def ctx(access="write", procs=80, ppn=20, shared=False, collective=False, fsync=False, tags=None):
    return PhaseContext(
        active_procs=procs,
        procs_per_node=ppn,
        node_factors=(1.0,) * max(1, procs // ppn),
        access=access,
        collective=collective,
        shared_file=shared,
        fsync=fsync,
        tags=tags or {},
    )


def layout(fs):
    return fs.default_layout()


class TestEfficiencies:
    def test_size_efficiency_monotone(self, fs):
        m = fs.model
        effs = [m.size_efficiency(s) for s in (4 * KIB, 64 * KIB, 1 * MIB, 16 * MIB)]
        assert effs == sorted(effs)
        assert 0 < effs[0] < effs[-1] < 1

    def test_size_efficiency_rejects_zero(self, fs):
        with pytest.raises(ConfigurationError):
            fs.model.size_efficiency(0)

    def test_contention_monotone(self, fs):
        m = fs.model
        effs = [m.contention_efficiency(p) for p in (1, 8, 80, 800)]
        assert effs == sorted(effs, reverse=True)
        assert all(0 < e <= 1 for e in effs)

    def test_shared_penalty_small_transfers(self, fs):
        m = fs.model
        small = m.shared_file_penalty(47008, 512 * KIB, collective=False)
        large = m.shared_file_penalty(2 * MIB, 512 * KIB, collective=False)
        assert small < large == 1.0
        assert small >= m.params.shared_small_floor

    def test_collective_lifts_small_shared_penalty(self, fs):
        m = fs.model
        indep = m.shared_file_penalty(47008, 512 * KIB, collective=False)
        coll = m.shared_file_penalty(47008, 512 * KIB, collective=True)
        assert coll > indep
        assert coll == pytest.approx(m.params.collective_efficiency)

    def test_collective_never_hurts_aligned(self, fs):
        m = fs.model
        assert m.shared_file_penalty(2 * MIB, 512 * KIB, collective=True) == 1.0


class TestBandwidthShapes:
    def test_larger_transfers_faster_per_byte(self, fs):
        lo = layout(fs)
        t_small = fs.model.transfer_time_s(64 * KIB, lo, ctx()) / (64 * KIB)
        t_large = fs.model.transfer_time_s(4 * MIB, lo, ctx()) / (4 * MIB)
        assert t_large < t_small

    def test_read_faster_than_write(self, fs):
        lo = layout(fs)
        bw_w = fs.model.per_rank_bandwidth_bps(2 * MIB, lo, ctx("write"))
        bw_r = fs.model.per_rank_bandwidth_bps(2 * MIB, lo, ctx("read"))
        assert bw_r > bw_w

    def test_contention_reduces_per_rank_bw(self, fs):
        lo = layout(fs)
        bw_few = fs.model.per_rank_bandwidth_bps(2 * MIB, lo, ctx(procs=20, ppn=20))
        bw_many = fs.model.per_rank_bandwidth_bps(2 * MIB, lo, ctx(procs=160, ppn=20))
        assert bw_many < bw_few

    def test_aggregate_saturates_but_grows_initially(self, fs):
        lo = layout(fs)

        def agg(procs, nodes):
            c = PhaseContext(
                active_procs=procs,
                procs_per_node=procs // nodes,
                node_factors=(1.0,) * nodes,
                access="write",
            )
            return procs * fs.model.per_rank_bandwidth_bps(2 * MIB, lo, c)

        a1, a8, a64 = agg(1, 1), agg(8, 2), agg(64, 16)
        assert a1 < a8  # scales up before saturation
        assert a64 < a8 * 2  # but saturates (not linear forever)

    def test_shared_file_slower_than_fpp_for_small_writes(self, fs):
        lo = layout(fs)
        bw_fpp = fs.model.per_rank_bandwidth_bps(47008, lo, ctx(shared=False))
        bw_shared = fs.model.per_rank_bandwidth_bps(47008, lo, ctx(shared=True))
        assert bw_shared < bw_fpp

    def test_fsync_derates_writes_only(self, fs):
        lo = layout(fs)
        assert fs.model.per_rank_bandwidth_bps(2 * MIB, lo, ctx(fsync=True)) < (
            fs.model.per_rank_bandwidth_bps(2 * MIB, lo, ctx(fsync=False))
        )
        assert fs.model.per_rank_bandwidth_bps(2 * MIB, lo, ctx("read", fsync=True)) == (
            fs.model.per_rank_bandwidth_bps(2 * MIB, lo, ctx("read", fsync=False))
        )

    def test_more_stripe_targets_help_single_stream(self, fs):
        narrow = StripeLayout(chunk_size=512 * KIB, target_ids=(101,))
        wide = StripeLayout(chunk_size=512 * KIB, target_ids=(101, 102, 103, 104))
        c = ctx(procs=1, ppn=1)
        assert fs.model.per_rank_bandwidth_bps(8 * MIB, wide, c) > (
            fs.model.per_rank_bandwidth_bps(8 * MIB, narrow, c)
        )

    def test_degraded_target_slows_stripe(self, fs):
        lo = layout(fs)
        c = ctx(procs=1, ppn=1)
        before = fs.model.per_rank_bandwidth_bps(8 * MIB, lo, c)
        fs.pool.target(lo.target_ids[0]).degrade(0.1)
        after = fs.model.per_rank_bandwidth_bps(8 * MIB, lo, c)
        assert after < before


class TestRooflineCache:
    def test_reused_context_follows_every_state_change(self, fs):
        # One context kept across every kind of storage-state change must
        # answer what a model seeing the state for the first time answers.
        # Each step moves the answer, so a roofline kept past any one of
        # them fails here.
        lo = layout(fs)
        server = fs.pool.target(lo.target_ids[0]).server
        c = ctx(procs=1, ppn=1)

        def fresh():
            m = fs.model
            model = PerfModel(m.pool, m.mds, m.interconnect, m.params, m.faults, m.root_seed)
            return model.per_rank_bandwidth_bps(8 * MIB, lo, ctx(procs=1, ppn=1))

        steps = [
            lambda: fs.pool.target(lo.target_ids[0]).degrade(0.1),
            lambda: fs.pool.target(lo.target_ids[0]).restore(),
            lambda: fs.degrade_server(server, 0.3),
            lambda: fs.faults.add(
                Fault(name="broken", factor=0.5, scope=FaultScope.SERVER, server=server)
            ),
            fs.faults.clear,
        ]
        previous = fs.model.per_rank_bandwidth_bps(8 * MIB, lo, c)
        for step in steps:
            step()
            value = fs.model.per_rank_bandwidth_bps(8 * MIB, lo, c)
            assert value == fresh()
            assert value != previous
            previous = value

    def test_layout_outside_pool_is_a_configuration_error(self, fs):
        stray = StripeLayout(chunk_size=512 * KIB, target_ids=(101, 999))
        with pytest.raises(ConfigurationError, match="target 999 not in pool"):
            fs.model.per_rank_bandwidth_bps(2 * MIB, stray, ctx())


def _bandwidth_queries(testbed, run):
    """(context, transfer size, layout) of every bandwidth query ``run``
    makes, and of every rank's transfers it prices (one per row of a
    phase call, which queries each distinct layout once)."""
    model = testbed.fs.model
    queries, rows = [], []
    real, real_phase = model.per_rank_bandwidth_bps, model.phase_times_s

    def spy(transfer_size, lo, c):
        queries.append((c, transfer_size, lo))
        return real(transfer_size, lo, c)

    def spy_phase(nbytes, layouts, c, *args, **kwargs):
        rows.extend((c, nbytes, lo) for lo in layouts)
        return real_phase(nbytes, layouts, c, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "per_rank_bandwidth_bps", spy)
        mp.setattr(model, "phase_times_s", spy_phase)
        run()
    return queries, rows


def _priced_and_queried(queries, rows, keep):
    """The ``(size, layout)`` of every kept rank row and of every kept query."""
    return (
        [(size, lo) for c, size, lo in rows if keep(c)],
        {(size, lo) for c, size, lo in queries if keep(c)},
    )


class TestBindingAtCalibrationPoints:
    """The paper's calibration points are bound by the resource it blames."""

    # §V-E1's command with two iterations; the second one is Fig. 5's.
    COMMAND = "ior -a mpiio -b 4m -t 2m -s 40 -F -C -e -i 2 -o /scratch/test80 -k"

    @pytest.fixture(scope="class")
    def ior_writes(self):
        testbed = Testbed.fuchs_csc(seed=2022)
        testbed.fs.faults.add(
            Fault(name="degraded-iter2", factor=0.44,
                  when={"benchmark": "ior", "iteration": 1, "op": "write"})
        )
        queries, rows = _bandwidth_queries(
            testbed,
            lambda: run_ior(parse_command(self.COMMAND), testbed, num_nodes=4, tasks_per_node=20),
        )
        writes = {0: [], 1: []}
        for c, size, lo in queries:
            if c.access == "write":
                writes[c.tags["iteration"]].append((testbed.fs.model.roofline(c), size, lo))
        priced = {
            i: _priced_and_queried(
                queries, rows, lambda c, i=i: c.access == "write" and c.tags["iteration"] == i
            )
            for i in (0, 1)
        }
        return writes, priced

    def test_section_v_e1_write_is_pool_bound(self, ior_writes):
        writes, priced = ior_writes
        ranks, queried = priced[0]
        assert len(ranks) == 80 and set(ranks) == queried
        assert {rl.binding(size, lo) for rl, size, lo in writes[0]} == {"pool"}
        rl, size, lo = writes[0][0]
        aggregate_mib = [t * rl.active_procs / MIB for t in rl.terms(size, lo)]
        assert aggregate_mib == pytest.approx([2936, 137173, 91553, 25940, 25749], abs=1)

    def test_fig5_degraded_iteration_is_pool_bound(self, ior_writes):
        writes, priced = ior_writes
        ranks, queried = priced[1]
        assert len(ranks) == 80 and set(ranks) == queried
        # Storage-side, as the paper's degraded-storage reading needs.
        assert {rl.binding(size, lo) for rl, size, lo in writes[1]} == {"pool"}

    def test_fig6_broken_server_read_is_pool_bound(self):
        testbed = Testbed.fuchs_csc(seed=650)
        testbed.fs.faults.add(
            Fault(name="broken-node", factor=0.35, scope="server", server="stor01",
                  when={"op": "read"})
        )
        queries, rows = _bandwidth_queries(
            testbed,
            lambda: run_io500(IO500Config(workdir="/scratch/io500/broken"), testbed,
                              num_nodes=2, tasks_per_node=20, run_id=99),
        )
        easy_reads = [
            (testbed.fs.model.roofline(c), size, lo)
            for c, size, lo in queries
            if c.tags.get("phase") == "ior-easy-read"
        ]
        ranks, queried = _priced_and_queried(
            queries, rows, lambda c: c.tags.get("phase") == "ior-easy-read"
        )
        assert len(ranks) == 40 and set(ranks) == queried
        # Some ranks stripe over the broken server, some do not.
        assert any("stor01" in {testbed.fs.pool.target(t).server for t in lo.target_ids}
                   for _, _, lo in easy_reads)
        # Storage-side, where the paper puts the "broken node".
        assert {rl.binding(size, lo) for rl, size, lo in easy_reads} == {"pool"}


class TestFaults:
    def test_filesystem_fault_applies_by_tags(self, fs):
        fs.faults.add(
            Fault(name="iter2", factor=0.44, when={"iteration": 2})
        )
        lo = layout(fs)
        bw_ok = fs.model.per_rank_bandwidth_bps(2 * MIB, lo, ctx(tags={"iteration": 1}))
        bw_bad = fs.model.per_rank_bandwidth_bps(2 * MIB, lo, ctx(tags={"iteration": 2}))
        assert bw_bad == pytest.approx(bw_ok * 0.44, rel=0.01)

    def test_server_fault_hits_only_its_targets(self, fs):
        fs.faults.add(
            Fault(name="broken", factor=0.2, scope=FaultScope.SERVER, server="stor01")
        )
        on_broken = StripeLayout(chunk_size=512 * KIB, target_ids=(101, 102))
        on_healthy = StripeLayout(chunk_size=512 * KIB, target_ids=(103, 104))
        c = ctx(procs=1, ppn=1)
        assert fs.model.per_rank_bandwidth_bps(8 * MIB, on_broken, c) < (
            fs.model.per_rank_bandwidth_bps(8 * MIB, on_healthy, c)
        )

    def test_metadata_fault(self, fs):
        fs.faults.add(Fault(name="mdslow", factor=0.5, scope=FaultScope.METADATA))
        slow = fs.model.metadata_time_s("create", ctx())
        fs.faults.clear()
        fast = fs.model.metadata_time_s("create", ctx())
        assert slow > fast

    def test_fault_validation(self):
        with pytest.raises(ConfigurationError):
            Fault(name="x", factor=1.5)
        with pytest.raises(ConfigurationError):
            Fault(name="x", factor=0.5, scope="targets")
        with pytest.raises(ConfigurationError):
            Fault(name="x", factor=0.5, scope="server")

    def test_injector_active_listing(self):
        inj = FaultInjector([Fault(name="a", factor=0.5, when={"run": 1})])
        assert [f.name for f in inj.active({"run": 1})] == ["a"]
        assert inj.active({"run": 2}) == []

    def test_unknown_when_tag_rejected_with_key_name(self):
        # A typo'd condition key used to silently match nothing; now the
        # offending key is named loudly at construction time.
        with pytest.raises(ConfigurationError, match="'iteraton'"):
            Fault(name="typo", factor=0.5, when={"iteraton": 2})

    def test_custom_when_tag_can_be_registered(self):
        from repro.pfs.faults import register_when_tag

        with pytest.raises(ConfigurationError):
            Fault(name="x", factor=0.5, when={"campaign": "night"})
        register_when_tag("campaign")
        assert Fault(name="x", factor=0.5, when={"campaign": "night"}).matches(
            {"campaign": "night"}
        )

    def test_fault_str_is_readable(self):
        soft = Fault(name="slow-srv", factor=0.2, scope=FaultScope.SERVER,
                     server="stor01", when={"op": "read"})
        assert str(soft) == "fault 'slow-srv' [server stor01] slowdown x0.2 when op='read'"
        hard = Fault(name="flaky", fail_probability=0.25, transient=False)
        assert "fails p=0.25 (permanent)" in str(hard)
        both = Fault(name="b", factor=0.5, fail_probability=0.1)
        assert "slowdown x0.5 + fails p=0.1 (transient)" in str(both)

    def test_do_nothing_fault_rejected(self):
        with pytest.raises(ConfigurationError, match="does nothing"):
            Fault(name="noop")


class TestNoiseDeterminism:
    def test_same_seed_same_times(self):
        a = BeeGFS(root_seed=5)
        b = BeeGFS(root_seed=5)
        c = ctx(tags={"run": 1})
        ta = a.model.transfer_times_s(2 * MIB, a.default_layout(), c, 10, rank=3)
        tb = b.model.transfer_times_s(2 * MIB, b.default_layout(), c, 10, rank=3)
        assert np.allclose(ta, tb)

    def test_different_rank_different_noise(self, fs):
        c = ctx(tags={"run": 1})
        lo = layout(fs)
        t0 = fs.model.transfer_times_s(2 * MIB, lo, c, 10, rank=0)
        t1 = fs.model.transfer_times_s(2 * MIB, lo, c, 10, rank=1)
        assert not np.allclose(t0, t1)

    def test_phase_noise_write_wider_than_read(self, fs):
        # Fig. 6 shape: write variance >> read variance.
        writes = [
            fs.model.phase_noise_factor(ctx("write", tags={"run": i})) for i in range(200)
        ]
        reads = [
            fs.model.phase_noise_factor(ctx("read", tags={"run": i})) for i in range(200)
        ]
        assert np.std(writes) > 2 * np.std(reads)

    def test_metadata_times_positive(self, fs):
        times = fs.model.metadata_times_s("create", ctx(), 100, rank=0)
        assert (times > 0).all()
