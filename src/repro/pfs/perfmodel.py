"""Analytic I/O performance model.

Every timing number in the simulator comes from here.  The model is a
roofline over the shared resources on the path from a compute process
to the storage devices, multiplied by pattern-dependent efficiency
factors and deterministic lognormal noise:

* **Device side** — the storage pool's health-weighted aggregate
  bandwidth, derated by a transfer-size efficiency (small requests
  cannot keep devices busy) and a client-contention efficiency
  (server-side scheduling overhead grows with concurrent streams),
  fair-shared across active processes.  A single stream is additionally
  capped by the bandwidth of the targets its file stripes over and by a
  per-client streaming limit.
* **Network side** — the per-node NIC fair-shared across the processes
  on that node, and the aggregate fabric section between compute and
  storage.
* **Pattern factors** — non-collective small writes into one shared
  file pay a lock/false-sharing penalty that scales with how far the
  transfer size falls below the stripe chunk; collective buffering
  (MPI-IO aggregators) lifts that penalty back to a fixed aggregation
  efficiency; fsync derates the write path slightly and adds a flush
  latency per sync.
* **Noise** — per-operation and per-phase multiplicative lognormal
  factors with write noise wider than read noise (matching the large
  write variance vs. flat reads of the paper's Fig. 6), all drawn from
  seed-derived streams so runs are exactly reproducible.

Calibration constants (target bandwidths, efficiency half-points) are
chosen so that the paper's Fig. 5 workload lands near its reported
~2850 MiB/s healthy write throughput on the FUCHS-CSC preset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.cluster.interconnect import Interconnect
from repro.pfs.faults import FaultInjector
from repro.pfs.layout import StripeLayout
from repro.pfs.metadata import MetadataServer
from repro.pfs.pool import RAIDScheme, StoragePool
from repro.util.errors import ConfigurationError
from repro.util.rng import RankSeeds, lognormal_factor, stream

__all__ = ["PerfModelParams", "PhaseContext", "PhaseRoofline", "ROOFLINE_TERMS", "PerfModel"]


@dataclass(frozen=True, slots=True)
class PerfModelParams:
    """Tunable constants of the analytic model (see module docstring)."""

    size_half: int = 1024 * 1024  # transfer size at 50% device efficiency
    contention_alpha: float = 0.07  # stream-contention derating strength
    client_stream_bw_bps: float = 1.2e9  # single-stream client ceiling
    shared_small_floor: float = 0.12  # worst-case shared-file penalty
    collective_efficiency: float = 0.78  # aggregated shared-file efficiency
    collective_latency_s: float = 120e-6  # two-phase exchange per op
    fsync_bw_factor: float = 0.985  # write-path derating with fsync
    fsync_latency_s: float = 2e-3  # cost of one fsync call
    sigma_op_write: float = 0.02  # per-op noise (write)
    sigma_op_read: float = 0.015  # per-op noise (read)
    sigma_phase_write: float = 0.055  # per-phase noise (write)
    sigma_phase_read: float = 0.015  # per-phase noise (read)
    sigma_metadata: float = 0.03  # per-phase metadata noise
    random_penalty_write: float = 0.8  # random offsets defeat write-back
    random_penalty_read: float = 0.55  # random offsets defeat prefetch

    def __post_init__(self) -> None:
        if self.size_half <= 0:
            raise ConfigurationError("size_half must be positive")
        if not 0 < self.shared_small_floor <= 1:
            raise ConfigurationError("shared_small_floor must be in (0, 1]")
        if not 0 < self.collective_efficiency <= 1:
            raise ConfigurationError("collective_efficiency must be in (0, 1]")


@dataclass(frozen=True, slots=True)
class PhaseContext:
    """Everything the model needs to know about the running I/O phase."""

    active_procs: int
    procs_per_node: int
    node_factors: tuple[float, ...]
    access: str  # 'read' or 'write'
    collective: bool = False
    shared_file: bool = False
    fsync: bool = False
    random_access: bool = False
    tags: Mapping[str, object] = field(default_factory=dict)
    # The performance model's per-phase memos: its roofline and the hashed
    # prefixes of the per-rank noise keys.  They die with the context, and
    # a context derived with ``dataclasses.replace`` starts without them.
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.active_procs <= 0:
            raise ConfigurationError(f"active_procs must be >= 1, got {self.active_procs}")
        if self.procs_per_node <= 0:
            raise ConfigurationError(f"procs_per_node must be >= 1, got {self.procs_per_node}")
        if self.access not in ("read", "write"):
            raise ConfigurationError(f"access must be 'read' or 'write', got {self.access!r}")
        if not self.node_factors:
            raise ConfigurationError("node_factors must name at least one node")

    def noise_key(self, *extra: object) -> tuple[object, ...]:
        """Deterministic key identifying this phase for noise streams."""
        return (tuple(sorted((str(k), repr(v)) for k, v in self.tags.items())), self.access, *extra)


def _size_efficiency(transfer_size: int, size_half: int) -> float:
    if transfer_size <= 0:
        raise ConfigurationError(f"transfer size must be positive, got {transfer_size}")
    return transfer_size / (transfer_size + size_half)


def _shared_file_penalty(
    params: PerfModelParams, transfer_size: int, chunk_size: int, collective: bool
) -> float:
    floor = params.shared_small_floor
    align = min(1.0, transfer_size / chunk_size)
    penalty = floor + (1.0 - floor) * align
    if collective:
        return max(penalty, params.collective_efficiency)
    return penalty


#: Names of the per-rank ceilings, in the order :class:`PhaseRoofline` takes their ``min``.
ROOFLINE_TERMS = ("pool", "span", "client", "nic", "fabric")


@dataclass(frozen=True, slots=True)
class PhaseRoofline:
    """The bandwidth ceilings of one phase, computed once per :class:`PhaseContext`.

    Every term that depends only on the phase and the storage state is
    held here; a call adds the transfer size and the stripe layout.
    The ceilings, per rank:

    * ``pool`` — the pool aggregate, derated by transfer size and
      contention, fair-shared over the active processes;
    * ``span`` — the file's stripe targets, paced by the slowest one;
    * ``client`` — the single-stream client limit;
    * ``nic`` — the worst node's NIC, fair-shared on the node;
    * ``fabric`` — the fabric section, fair-shared over active processes.

    Built by :meth:`PerfModel.roofline`.
    """

    params: PerfModelParams
    pool_name: str
    active_procs: int
    fs_factor: float  # filesystem-scoped fault slowdown
    target_bw: Mapping[int, float]  # per target, after health and target/server faults
    pool_bw: float  # target_bw summed in pool order, after the RAID write cost
    contention: float  # client-contention efficiency
    nic_share: float
    fabric_share: float
    shared_file: bool
    collective: bool
    random_factor: float  # random-offset penalty; 1.0 for sequential access
    fsync_factor: float  # fsync write-path derating; 1.0 without

    def terms(self, transfer_size: int, layout: StripeLayout) -> tuple[float, ...]:
        """The per-rank ceilings in bytes/s, in :data:`ROOFLINE_TERMS` order."""
        size_eff = _size_efficiency(transfer_size, self.params.size_half)
        pool = self.pool_bw * (size_eff * self.contention * self.fs_factor) / self.active_procs
        # One stream only reaches its file's targets, and a balanced
        # RAID0 stripe finishes when its *slowest* target does.
        try:
            slowest = min([self.target_bw[tid] for tid in layout.target_ids])
        except KeyError as exc:
            raise ConfigurationError(
                f"target {exc.args[0]} not in pool {self.pool_name!r}"
            ) from None
        span = layout.num_targets * slowest * size_eff * self.fs_factor
        return (pool, span, self.params.client_stream_bw_bps, self.nic_share, self.fabric_share)

    def bandwidth_bps(self, transfer_size: int, layout: StripeLayout) -> float:
        """Deterministic bandwidth one process achieves in this phase."""
        bw = min(self.terms(transfer_size, layout))
        if self.shared_file:
            bw *= _shared_file_penalty(
                self.params, transfer_size, layout.chunk_size, self.collective
            )
        return bw * self.random_factor * self.fsync_factor

    def binding(self, transfer_size: int, layout: StripeLayout) -> str:
        """Name of the ceiling that bounds one process (see :data:`ROOFLINE_TERMS`)."""
        terms = self.terms(transfer_size, layout)
        return ROOFLINE_TERMS[terms.index(min(terms))]


class PerfModel:
    """Cost oracle combining pool, metadata, fabric, faults and noise."""

    def __init__(
        self,
        pool: StoragePool,
        metadata_server: MetadataServer,
        interconnect: Interconnect,
        params: PerfModelParams | None = None,
        faults: FaultInjector | None = None,
        root_seed: int = 42,
    ) -> None:
        self.pool = pool
        self.mds = metadata_server
        self.interconnect = interconnect
        self.params = params or PerfModelParams()
        self.faults = faults or FaultInjector()
        self.root_seed = root_seed

    # ------------------------------------------------------------------
    # efficiency factors
    # ------------------------------------------------------------------
    def size_efficiency(self, transfer_size: int) -> float:
        """Device efficiency of one request of ``transfer_size`` bytes."""
        return _size_efficiency(transfer_size, self.params.size_half)

    def contention_efficiency(self, active_procs: int) -> float:
        """Server-side efficiency under ``active_procs`` concurrent streams."""
        streams_per_target = active_procs / len(self.pool.targets)
        return 1.0 / (1.0 + self.params.contention_alpha * math.log1p(streams_per_target))

    def shared_file_penalty(self, transfer_size: int, chunk_size: int, collective: bool) -> float:
        """Bandwidth factor for N-to-1 (single shared file) access.

        Non-collective small unaligned writes serialize on extent locks;
        collective buffering re-aggregates them into chunk-aligned
        requests at a fixed aggregation efficiency.  The better of the
        two applies when collectives are on (aggregation never hurts a
        pattern that was already aligned).
        """
        return _shared_file_penalty(self.params, transfer_size, chunk_size, collective)

    # ------------------------------------------------------------------
    # bandwidth rooflines
    # ------------------------------------------------------------------
    def roofline(self, ctx: PhaseContext) -> PhaseRoofline:
        """The phase's roofline, built once and kept on the context.

        The kept roofline is stamped with the target healths and the
        fault list it was built from, and is rebuilt as soon as either
        changes, so a degrade, restore or fault added between two calls
        with the same context shows in the next one.
        """
        healths = [t.health for t in self.pool.targets]
        held = ctx.memo.get(self)
        if held is not None and held[0] == healths and held[1] == self.faults.faults:
            return held[2]
        roofline = self._build_roofline(ctx)
        ctx.memo[self] = (healths, list(self.faults.faults), roofline)
        return roofline

    def _build_roofline(self, ctx: PhaseContext) -> PhaseRoofline:
        p = self.params
        access = ctx.access
        target_bw: dict[int, float] = {}
        pool_bw = 0.0
        for t in self.pool.targets:
            bw = t.effective_bandwidth_bps(access) * self.faults.target_factor(
                t.target_id, t.server, ctx.tags
            )
            # As in StoragePool.target, the first target with an id answers for it.
            target_bw.setdefault(t.target_id, bw)
            pool_bw += bw
        if access == "write":
            pool_bw *= RAIDScheme.WRITE_EFFICIENCY[self.pool.raid_scheme]
        random_penalty = p.random_penalty_write if access == "write" else p.random_penalty_read
        return PhaseRoofline(
            params=p,
            pool_name=self.pool.name,
            active_procs=ctx.active_procs,
            fs_factor=self.faults.filesystem_factor(ctx.tags),
            target_bw=target_bw,
            pool_bw=pool_bw,
            contention=self.contention_efficiency(ctx.active_procs),
            nic_share=(
                self.interconnect.spec.link_bandwidth_bps
                * min(ctx.node_factors)
                / ctx.procs_per_node
            ),
            fabric_share=self.interconnect.fabric_ceiling_bps() / ctx.active_procs,
            shared_file=ctx.shared_file,
            collective=ctx.collective,
            random_factor=random_penalty if ctx.random_access else 1.0,
            fsync_factor=p.fsync_bw_factor if ctx.fsync and access == "write" else 1.0,
        )

    def per_rank_bandwidth_bps(
        self, transfer_size: int, layout: StripeLayout, ctx: PhaseContext
    ) -> float:
        """Deterministic bandwidth one process achieves in this phase."""
        return self.roofline(ctx).bandwidth_bps(transfer_size, layout)

    def transfer_time_s(self, nbytes: int, layout: StripeLayout, ctx: PhaseContext) -> float:
        """Deterministic wall time of one transfer by one process."""
        bw = self.per_rank_bandwidth_bps(nbytes, layout, ctx)
        latency = self.pool.targets[0].spec.op_latency_s + self.interconnect.message_latency_s()
        if ctx.collective:
            latency += self.params.collective_latency_s
        return latency + nbytes / bw

    def transfer_times_s(
        self,
        nbytes: int,
        layout: StripeLayout,
        ctx: PhaseContext,
        n_ops: int,
        rank: int = 0,
    ) -> np.ndarray:
        """Vectorized per-op times for ``n_ops`` identical transfers.

        Applies per-op lognormal noise from a stream keyed by the phase
        tags and the rank, so reruns are bit-identical.
        """
        if n_ops <= 0:
            raise ConfigurationError(f"n_ops must be >= 1, got {n_ops}")
        base = self.transfer_time_s(nbytes, layout, ctx)
        sigma = (
            self.params.sigma_op_write if ctx.access == "write" else self.params.sigma_op_read
        )
        rng = self._rank_seeds(ctx, "op").stream(rank)
        return base * lognormal_factor(rng, sigma, n_ops)

    def _rank_seeds(self, ctx: PhaseContext, *head: object) -> RankSeeds:
        """Seeds of the streams keyed ``(*head, ctx.noise_key("rank", rank))``."""
        key = (self.root_seed, *head)
        seeds = ctx.memo.get(key)
        if seeds is None:
            seeds = ctx.memo[key] = RankSeeds(
                self.root_seed, *head, tail=ctx.noise_key("rank")
            )
        return seeds

    def phase_noise_factor(self, ctx: PhaseContext, kind: str = "data") -> float:
        """Whole-phase noise factor (system-state variation between runs)."""
        if kind == "metadata":
            sigma = self.params.sigma_metadata
        elif ctx.access == "write":
            sigma = self.params.sigma_phase_write
        else:
            sigma = self.params.sigma_phase_read
        rng = stream(self.root_seed, "phase", kind, ctx.noise_key())
        return float(lognormal_factor(rng, sigma))

    # ------------------------------------------------------------------
    # metadata
    # ------------------------------------------------------------------
    def metadata_time_s(self, op: str, ctx: PhaseContext, shared_dir: bool = False) -> float:
        """Deterministic wall time of one metadata op by one process."""
        factor = self.faults.metadata_factor(ctx.tags)
        base = self.mds.op_cost_s(op, ctx.active_procs, shared_dir) / factor
        return base + self.interconnect.message_latency_s()

    def metadata_times_s(
        self,
        op: str,
        ctx: PhaseContext,
        n_ops: int,
        rank: int = 0,
        shared_dir: bool = False,
    ) -> np.ndarray:
        """Vectorized per-op metadata times with deterministic noise."""
        if n_ops <= 0:
            raise ConfigurationError(f"n_ops must be >= 1, got {n_ops}")
        base = self.metadata_time_s(op, ctx, shared_dir)
        rng = self._rank_seeds(ctx, "md", op).stream(rank)
        return base * lognormal_factor(rng, self.params.sigma_metadata, n_ops)

    def fsync_time_s(self) -> float:
        """Cost of one fsync call."""
        return self.params.fsync_latency_s
