"""Testbed assembly: cluster + file system + jobs + layered I/O.

A :class:`Testbed` is the simulated equivalent of "FUCHS-CSC with its
BeeGFS scratch system": it owns the cluster, the Slurm-like resource
manager and the file system.  Benchmarks ask it for an
:class:`IOJobContext` (an exclusive allocation with a communicator and
an instrumented I/O stack), run their phases against it, and hand it
back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.cluster.machine import Cluster, ClusterSpec, make_cluster
from repro.cluster.slurm import Job, JobRequest, SlurmManager
from repro.cluster.sysinfo import SystemInfo, collect_system_info
from repro.iostack.hdf5 import HDF5Layer
from repro.iostack.mpiio import MPIIOLayer
from repro.iostack.posix import PosixLayer
from repro.iostack.tracing import NullTracer, RankOrderTracer, TeeTracer, Tracer
from repro.mpi.comm import Communicator
from repro.mpi.hints import MPIIOHints
from repro.pfs.beegfs import BeeGFS, BeeGFSSpec
from repro.pfs.perfmodel import PerfModelParams, PhaseContext
from repro.util.errors import ConfigurationError

__all__ = ["IOJobContext", "Testbed", "APIS"]

APIS = ("POSIX", "MPIIO", "HDF5")


@dataclass(slots=True)
class IOJobContext:
    """An exclusive allocation plus the I/O machinery a benchmark needs."""

    testbed: "Testbed"
    job: Job
    comm: Communicator
    tracer: Tracer

    @property
    def fs(self) -> BeeGFS:
        """The file system visible to the job."""
        return self.testbed.fs

    @property
    def num_nodes(self) -> int:
        """Nodes in the allocation."""
        return self.job.allocation.num_nodes  # type: ignore[union-attr]

    @property
    def tasks_per_node(self) -> int:
        """MPI tasks per node."""
        return self.job.allocation.tasks_per_node  # type: ignore[union-attr]

    def node_factors(self) -> tuple[float, ...]:
        """Health factors of the allocated compute nodes."""
        alloc = self.job.allocation
        assert alloc is not None
        return tuple(
            self.testbed.cluster.node(i).performance_factor for i in alloc.node_indices
        )

    def phase_ctx(
        self,
        access: str,
        shared_file: bool = False,
        collective: bool = False,
        fsync: bool = False,
        random_access: bool = False,
        tags: Mapping[str, object] | None = None,
        active_procs: int | None = None,
    ) -> PhaseContext:
        """Build the performance-model context for one I/O phase."""
        return PhaseContext(
            active_procs=active_procs or self.comm.size,
            procs_per_node=self.tasks_per_node,
            node_factors=self.node_factors(),
            access=access,
            collective=collective,
            shared_file=shared_file,
            fsync=fsync,
            random_access=random_access,
            tags=dict(tags or {}),
        )

    def layer(self, api: str, hints: MPIIOHints | None = None, phase: bool = False
              ) -> PosixLayer | MPIIOLayer | HDF5Layer:
        """Instantiate the requested stack layer with this job's tracer.

        A ``phase`` layer reports through a :class:`RankOrderTracer` for
        its ``*_all`` calls; flush its tracer when the phase ends.
        """
        name = api.upper()
        tracer = self.tracer
        if phase and not isinstance(tracer, NullTracer):
            tracer = RankOrderTracer(tracer)
        if name == "POSIX":
            return PosixLayer(self.fs, tracer)
        if name == "MPIIO":
            return MPIIOLayer(self.fs, tracer, hints)
        if name == "HDF5":
            return HDF5Layer(self.fs, tracer, hints)
        raise ConfigurationError(f"unknown I/O API {api!r}; known: {APIS}")


class Testbed:
    """A complete simulated system: cluster, scheduler and file system."""

    __test__ = False  # not a pytest test class despite the name

    def __init__(
        self,
        cluster: Cluster | ClusterSpec | str = "fuchs-csc",
        fs_spec: BeeGFSSpec | None = None,
        perf_params: PerfModelParams | None = None,
        seed: int = 42,
        fs_flavor: str = "beegfs",
    ) -> None:
        if fs_flavor not in ("beegfs", "lustre", "gpfs"):
            raise ConfigurationError(
                f"unknown fs flavor {fs_flavor!r}; known: beegfs, lustre, gpfs"
            )
        self.cluster = cluster if isinstance(cluster, Cluster) else make_cluster(cluster)
        self.slurm = SlurmManager(self.cluster)
        self.fs = BeeGFS(
            spec=fs_spec,
            interconnect=self.cluster.interconnect,
            params=perf_params,
            faults=None,
            root_seed=seed,
        )
        self.fs_flavor = fs_flavor
        self.seed = seed
        #: Default tracer attached to every job (e.g. a metrics bridge);
        #: combined with any per-job tracer via a TeeTracer.
        self.tracer: Tracer | None = None

    @classmethod
    def fuchs_csc(cls, seed: int = 42) -> "Testbed":
        """The paper's evaluation system (§V-E)."""
        return cls("fuchs-csc", seed=seed)

    def fs_info_capture(self, path: str) -> dict[str, str]:
        """Administrative file-system output for ``path``, by flavor.

        Returns {capture filename: text} in the dialect of the
        configured flavor — what a generation step stores alongside the
        benchmark output for the extractor (BeeGFS ``getentryinfo``,
        Lustre ``lfs getstripe``, or GPFS ``mmlsattr``+``mmlsfs``).
        """
        if self.fs_flavor == "lustre":
            from repro.pfs.lustre import LustreView

            return {"lustre_getstripe.txt": LustreView(self.fs).getstripe(path)}
        if self.fs_flavor == "gpfs":
            from repro.pfs.gpfs import GPFSView

            view = GPFSView(self.fs)
            return {
                "gpfs_mmlsattr.txt": view.mmlsattr(path),
                "gpfs_mmlsfs.txt": view.mmlsfs(),
            }
        return {"beegfs_entryinfo.txt": self.fs.getentryinfo(path)}

    def system_info(self) -> SystemInfo:
        """System information of the first node, via the /proc round trip."""
        return collect_system_info(self.cluster)

    def start_job(
        self,
        name: str,
        num_nodes: int,
        tasks_per_node: int,
        tracer: Tracer | None = None,
    ) -> IOJobContext:
        """Submit an exclusive job and wrap it into an I/O context.

        The job's tracer is the per-job ``tracer`` combined with the
        testbed-wide default (:attr:`tracer`): both see every event
        when both are set.
        """
        job = self.slurm.submit(
            JobRequest(name=name, num_nodes=num_nodes, tasks_per_node=tasks_per_node)
        )
        assert job.allocation is not None
        comm = Communicator(
            job.allocation,
            fabric_latency_s=self.cluster.interconnect.spec.latency_s,
        )
        if tracer is not None and self.tracer is not None:
            combined: Tracer = TeeTracer(tracer, self.tracer)
        else:
            combined = tracer or self.tracer or NullTracer()
        return IOJobContext(testbed=self, job=job, comm=comm, tracer=combined)

    def finish_job(self, ctx: IOJobContext, failed: bool = False) -> float:
        """Complete the job; returns its simulated wall time."""
        elapsed = ctx.comm.max_time()
        self.slurm.complete(ctx.job, elapsed, failed=failed)
        return elapsed
