"""Property-based tests of the performance model's global invariants.

These pin the physics of the simulator with hypothesis: bandwidth is
always positive and bounded by the hardware ceilings, costs are
monotone in size, adding load never helps, and every penalty factor
stays in (0, 1].  The per-phase roofline is also held to a plain
transcription of the per-call bandwidth formula it replaced, bit for
bit, under target health changes and faults.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pfs.beegfs import BeeGFS, BeeGFSSpec
from repro.pfs.faults import Fault, FaultScope
from repro.pfs.layout import StripeLayout
from repro.pfs.perfmodel import PhaseContext
from repro.pfs.pool import RAIDScheme
from repro.util.units import KIB, MIB

_FS = BeeGFS(root_seed=99)
_LAYOUT = _FS.default_layout()

sizes = st.integers(min_value=1, max_value=64 * MIB)
procs = st.integers(min_value=1, max_value=512)
ppn = st.integers(min_value=1, max_value=40)


def ctx(active_procs=8, procs_per_node=8, access="write", **kw):
    return PhaseContext(
        active_procs=active_procs,
        procs_per_node=min(procs_per_node, active_procs),
        node_factors=(1.0,) * max(1, active_procs // max(1, procs_per_node)),
        access=access,
        **kw,
    )


class TestBandwidthInvariants:
    @settings(max_examples=60, deadline=None)
    @given(size=sizes, p=procs, n=ppn, access=st.sampled_from(["read", "write"]))
    def test_positive_and_bounded(self, size, p, n, access):
        bw = _FS.model.per_rank_bandwidth_bps(size, _LAYOUT, ctx(p, n, access))
        assert bw > 0
        # Never above the single-client ceiling or the device raw sum.
        assert bw <= _FS.model.params.client_stream_bw_bps + 1e-6
        raw = sum(t.spec.bandwidth_bps(access) for t in _FS.pool.targets)
        assert bw <= raw

    @settings(max_examples=40, deadline=None)
    @given(size=sizes, p=procs)
    def test_more_procs_never_increase_per_rank_bw(self, size, p):
        a = _FS.model.per_rank_bandwidth_bps(size, _LAYOUT, ctx(p, min(p, 20)))
        b = _FS.model.per_rank_bandwidth_bps(size, _LAYOUT, ctx(p * 2, min(p * 2, 20)))
        assert b <= a + 1e-6

    @settings(max_examples=40, deadline=None)
    @given(small=sizes, factor=st.integers(min_value=2, max_value=16))
    def test_transfer_time_monotone_in_size(self, small, factor):
        t_small = _FS.model.transfer_time_s(small, _LAYOUT, ctx())
        t_big = _FS.model.transfer_time_s(small * factor, _LAYOUT, ctx())
        assert t_big > t_small

    @settings(max_examples=40, deadline=None)
    @given(size=sizes)
    def test_every_modifier_is_a_slowdown(self, size):
        base = _FS.model.per_rank_bandwidth_bps(size, _LAYOUT, ctx())
        for kw in (
            {"shared_file": True},
            {"fsync": True},
            {"random_access": True},
        ):
            modified = _FS.model.per_rank_bandwidth_bps(size, _LAYOUT, ctx(**kw))
            assert modified <= base + 1e-6


class TestFactorRanges:
    @settings(max_examples=50, deadline=None)
    @given(size=sizes)
    def test_size_efficiency_in_unit_interval(self, size):
        assert 0 < _FS.model.size_efficiency(size) < 1

    @settings(max_examples=50, deadline=None)
    @given(p=procs)
    def test_contention_efficiency_in_unit_interval(self, p):
        assert 0 < _FS.model.contention_efficiency(p) <= 1

    @settings(max_examples=50, deadline=None)
    @given(
        transfer=st.integers(min_value=1, max_value=8 * MIB),
        chunk=st.sampled_from([64 * KIB, 512 * KIB, 1 * MIB]),
        collective=st.booleans(),
    )
    def test_shared_penalty_in_unit_interval(self, transfer, chunk, collective):
        p = _FS.model.shared_file_penalty(transfer, chunk, collective)
        assert 0 < p <= 1
        if collective:
            assert p >= _FS.model.params.collective_efficiency - 1e-12


class TestMetadataInvariants:
    @settings(max_examples=40, deadline=None)
    @given(p=procs, op=st.sampled_from(["create", "stat", "remove", "open"]))
    def test_costs_positive(self, p, op):
        assert _FS.model.metadata_time_s(op, ctx(p, min(p, 20))) > 0

    @settings(max_examples=40, deadline=None)
    @given(p=st.integers(min_value=2, max_value=256))
    def test_shared_dir_never_cheaper(self, p):
        c = ctx(p, min(p, 20))
        private = _FS.model.metadata_time_s("create", c, shared_dir=False)
        shared = _FS.model.metadata_time_s("create", c, shared_dir=True)
        assert shared >= private

    @settings(max_examples=40, deadline=None)
    @given(p=procs)
    def test_stat_cheaper_than_create(self, p):
        c = ctx(p, min(p, 20))
        assert _FS.model.metadata_time_s("stat", c) < _FS.model.metadata_time_s("create", c)


class TestNoiseInvariants:
    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(min_value=1, max_value=200), rank=st.integers(min_value=0, max_value=100))
    def test_batched_times_positive_and_deterministic(self, n, rank):
        c = ctx(tags={"t": 1})
        a = _FS.model.transfer_times_s(1 * MIB, _LAYOUT, c, n, rank)
        b = _FS.model.transfer_times_s(1 * MIB, _LAYOUT, c, n, rank)
        assert (a > 0).all()
        assert (a == b).all()


# ----------------------------------------------------------------------
# the roofline against the per-call formula it replaced
# ----------------------------------------------------------------------
def reference_bandwidth_bps(model, transfer_size, layout, ctx):
    """The per-call roofline walk, written out term by term."""
    p = model.params
    size_eff = transfer_size / (transfer_size + p.size_half)
    fs_factor = model.faults.filesystem_factor(ctx.tags)

    pool_agg = 0.0
    for t in model.pool.targets:
        tf = model.faults.target_factor(t.target_id, t.server, ctx.tags)
        pool_agg += t.effective_bandwidth_bps(ctx.access) * tf
    if ctx.access == "write":
        pool_agg *= RAIDScheme.WRITE_EFFICIENCY[model.pool.raid_scheme]
    streams_per_target = ctx.active_procs / len(model.pool.targets)
    contention = 1.0 / (1.0 + p.contention_alpha * math.log1p(streams_per_target))
    pool_agg *= size_eff * contention * fs_factor
    per_rank_pool = pool_agg / ctx.active_procs

    slowest = math.inf
    for tid in layout.target_ids:
        target = model.pool.target(tid)
        tf = model.faults.target_factor(tid, target.server, ctx.tags)
        slowest = min(slowest, target.effective_bandwidth_bps(ctx.access) * tf)
    span = layout.num_targets * slowest * size_eff * fs_factor

    nic_share = (
        model.interconnect.spec.link_bandwidth_bps * min(ctx.node_factors) / ctx.procs_per_node
    )
    fabric_share = model.interconnect.fabric_ceiling_bps() / ctx.active_procs

    bw = min(per_rank_pool, span, p.client_stream_bw_bps, nic_share, fabric_share)

    if ctx.shared_file:
        floor = p.shared_small_floor
        penalty = floor + (1.0 - floor) * min(1.0, transfer_size / layout.chunk_size)
        if ctx.collective:
            penalty = max(penalty, p.collective_efficiency)
        bw *= penalty
    if ctx.random_access:
        bw *= p.random_penalty_write if ctx.access == "write" else p.random_penalty_read
    if ctx.fsync and ctx.access == "write":
        bw *= p.fsync_bw_factor
    return bw


_TARGET_IDS = tuple(range(101, 109))  # BeeGFS defaults: 4 servers x 2 targets
_SERVERS = ("stor01", "stor02", "stor03", "stor04")

healths = st.one_of(st.just(1.0), st.floats(min_value=0.05, max_value=0.99))
slowdowns = st.floats(min_value=0.05, max_value=0.99)
# A phase is tagged with one of two iterations; a fault conditioned on
# the other one must not touch it.
whens = st.sampled_from([{}, {"iteration": 1}, {"iteration": 2}])


@st.composite
def faults(draw):
    scope = draw(st.sampled_from([FaultScope.FILESYSTEM, FaultScope.TARGETS, FaultScope.SERVER]))
    extra = {}
    if scope == FaultScope.TARGETS:
        ids = draw(st.lists(st.sampled_from(_TARGET_IDS), min_size=1, max_size=3, unique=True))
        extra["target_ids"] = tuple(ids)
    elif scope == FaultScope.SERVER:
        extra["server"] = draw(st.sampled_from(_SERVERS))
    return Fault(
        name=f"f{draw(st.integers(0, 10**6))}",
        factor=draw(slowdowns),
        scope=scope,
        when=draw(whens),
        **extra,
    )


@st.composite
def layouts(draw):
    ids = draw(st.lists(st.sampled_from(_TARGET_IDS), min_size=1, max_size=8, unique=True))
    chunk = draw(st.sampled_from([64 * KIB, 512 * KIB, 1 * MIB, 4 * MIB]))
    return StripeLayout(chunk_size=chunk, target_ids=tuple(ids))


@st.composite
def contexts(draw):
    active = draw(st.integers(min_value=1, max_value=512))
    per_node = draw(st.integers(min_value=1, max_value=40))
    nodes = draw(st.lists(healths, min_size=1, max_size=8))
    return PhaseContext(
        active_procs=active,
        procs_per_node=per_node,
        node_factors=tuple(nodes),
        access=draw(st.sampled_from(["read", "write"])),
        collective=draw(st.booleans()),
        shared_file=draw(st.booleans()),
        fsync=draw(st.booleans()),
        random_access=draw(st.booleans()),
        tags={"benchmark": "ior", "iteration": draw(st.sampled_from([1, 2]))},
    )


def _system(raid, target_healths, fault_list):
    fs = BeeGFS(BeeGFSSpec(raid_scheme=raid), root_seed=99)
    for t, h in zip(fs.pool.targets, target_healths):
        if h < 1.0:
            t.degrade(h)
    for f in fault_list:
        fs.faults.add(f)
    return fs


class TestRooflineMatchesPerCallFormula:
    @settings(max_examples=150, deadline=None)
    @given(
        raid=st.sampled_from(RAIDScheme.ALL),
        target_healths=st.lists(healths, min_size=8, max_size=8),
        fault_list=st.lists(faults(), max_size=3),
        size=sizes,
        layout=layouts(),
        c=contexts(),
    )
    def test_fresh_context(self, raid, target_healths, fault_list, size, layout, c):
        fs = _system(raid, target_healths, fault_list)
        got = fs.model.per_rank_bandwidth_bps(size, layout, c)
        assert got == reference_bandwidth_bps(fs.model, size, layout, c)

    @settings(max_examples=150, deadline=None)
    @given(
        target_healths=st.lists(healths, min_size=8, max_size=8),
        fault_list=st.lists(faults(), max_size=2),
        size=sizes,
        layout=layouts(),
        c=contexts(),
        degraded=st.sampled_from(_TARGET_IDS),
        health=slowdowns,
        added=faults(),
    )
    def test_same_context_after_degrade_and_fault(
        self, target_healths, fault_list, size, layout, c, degraded, health, added
    ):
        fs = _system(RAIDScheme.RAID0, target_healths, fault_list)
        fs.model.per_rank_bandwidth_bps(size, layout, c)  # keeps the roofline on c
        fs.pool.target(degraded).degrade(health)
        assert fs.model.per_rank_bandwidth_bps(size, layout, c) == (
            reference_bandwidth_bps(fs.model, size, layout, c)
        )
        fs.faults.add(added)
        assert fs.model.per_rank_bandwidth_bps(size, layout, c) == (
            reference_bandwidth_bps(fs.model, size, layout, c)
        )
