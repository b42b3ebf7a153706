"""BeeGFS-like parallel file system façade.

Composes the namespace, storage pool, metadata server and performance
model into the object the I/O stack talks to.  Besides the data-path
operations (create/open/read/write/fsync/unlink/...), it renders
``beegfs-ctl --getentryinfo``-style text — the exact format the
knowledge extractor parses for the file-system part of a knowledge
object (Entry type, EntryID, Metadata node, Stripe pattern details).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.cluster.interconnect import Interconnect
from repro.pfs.faults import FaultInjector
from repro.pfs.file import DirEntry, FileEntry, Namespace, normalize_path, split_path
from repro.pfs.layout import StripeLayout, StripePattern
from repro.pfs.metadata import MetadataServer, MetadataSpec
from repro.pfs.perfmodel import PerfModel, PerfModelParams, PhaseContext, PhaseRoofline
from repro.pfs.pool import RAIDScheme, StoragePool
from repro.pfs.target import StorageServer, StorageTarget, TargetSpec
from repro.util.errors import ConfigurationError, FileNotFoundInPFSError, FileSystemError
from repro.util.units import KIB, TIB

__all__ = ["BeeGFSSpec", "BeeGFS"]


@dataclass(frozen=True, slots=True)
class BeeGFSSpec:
    """Static description of one BeeGFS installation."""

    name: str = "beegfs"
    mount_point: str = "/scratch"
    num_storage_servers: int = 4
    targets_per_server: int = 2
    target: TargetSpec = field(default_factory=TargetSpec)
    metadata: MetadataSpec = field(default_factory=MetadataSpec)
    default_chunk_size: int = 512 * KIB
    default_num_targets: int = 4
    raid_scheme: str = RAIDScheme.RAID0
    pool_name: str = "Default"
    target_capacity_bytes: int = 20 * TIB

    def __post_init__(self) -> None:
        if self.num_storage_servers <= 0 or self.targets_per_server <= 0:
            raise ConfigurationError("BeeGFS needs >= 1 storage server and target")
        if self.default_num_targets > self.num_storage_servers * self.targets_per_server:
            raise ConfigurationError(
                "default_num_targets exceeds the total number of targets"
            )

    @property
    def num_targets(self) -> int:
        """Total storage targets in the installation."""
        return self.num_storage_servers * self.targets_per_server


class BeeGFS:
    """A running file system instance with a cost model attached."""

    def __init__(
        self,
        spec: BeeGFSSpec | None = None,
        interconnect: Interconnect | None = None,
        params: PerfModelParams | None = None,
        faults: FaultInjector | None = None,
        root_seed: int = 42,
    ) -> None:
        self.spec = spec or BeeGFSSpec()
        self.servers: list[StorageServer] = []
        targets: list[StorageTarget] = []
        tid = itertools.count(101)
        for s in range(self.spec.num_storage_servers):
            server = StorageServer(name=f"stor{s + 1:02d}")
            for _ in range(self.spec.targets_per_server):
                t = StorageTarget(target_id=next(tid), spec=self.spec.target, server=server.name)
                server.targets.append(t)
                targets.append(t)
            self.servers.append(server)
        self.pool = StoragePool(
            name=self.spec.pool_name,
            targets=targets,
            raid_scheme=self.spec.raid_scheme,
            default_num_targets=self.spec.default_num_targets,
        )
        self.mds = MetadataServer(name="meta01", spec=self.spec.metadata)
        self.namespace = Namespace(
            root_entry_id=self.mds.next_entry_ids(1)[0], metadata_node=self.mds.name
        )
        self.faults = faults or FaultInjector(root_seed=root_seed)
        self.model = PerfModel(
            pool=self.pool,
            metadata_server=self.mds,
            interconnect=interconnect or Interconnect(),
            params=params,
            faults=self.faults,
            root_seed=root_seed,
        )
        self._file_slot = itertools.count(0)
        self.makedirs(self.spec.mount_point)

    # ------------------------------------------------------------------
    # namespace operations (each returns the entry and/or its time cost)
    # ------------------------------------------------------------------
    def default_layout(self) -> StripeLayout:
        """Stripe layout a newly created file receives."""
        start = next(self._file_slot)
        return StripeLayout(
            chunk_size=self.spec.default_chunk_size,
            target_ids=self.pool.pick_targets(self.spec.default_num_targets, start),
            pattern=StripePattern.RAID0,
        )

    def mkdir(self, path: str, ctx: PhaseContext | None = None) -> tuple[DirEntry, float]:
        """Create one directory; parent must exist."""
        entry = DirEntry(name="", entry_id=self.mds.next_entry_ids(1)[0],
                         metadata_node=self.mds.name)
        self.namespace.add(path, entry)
        cost = self.model.metadata_time_s("mkdir", ctx) if ctx else 0.0
        return entry, cost

    def makedirs(self, path: str, ctx: PhaseContext | None = None) -> float:
        """Create a directory path recursively (``mkdir -p``)."""
        norm = normalize_path(path)
        cost = 0.0
        if norm == "/":
            return cost
        partial = ""
        for part in norm[1:].split("/"):
            partial += "/" + part
            if not self.namespace.exists(partial):
                _, c = self.mkdir(partial, ctx)
                cost += c
        return cost

    def create_files(self, directory: DirEntry, names: Sequence[str],
                     layout: StripeLayout | None = None, size: int = 0) -> list[FileEntry]:
        """Create the regular files ``names`` (distinct) of ``size`` bytes
        in a resolved ``directory``, all striped as ``layout`` (default:
        one :meth:`default_layout`), with entry ids in ``names`` order.
        The caller has checked them free (:meth:`Namespace.check_free`),
        so a failed check takes no entry id or stripe slot."""
        layout = layout or self.default_layout()
        node, pool = self.mds.name, self.pool.name
        entries = [FileEntry(name, entry_id, node, layout, pool, size)
                   for name, entry_id in zip(names, self.mds.next_entry_ids(len(names)))]
        self.namespace.link(directory, names, entries)
        return entries

    def create(
        self,
        path: str,
        ctx: PhaseContext | None = None,
        layout: StripeLayout | None = None,
        shared_dir: bool = False,
    ) -> tuple[FileEntry, float]:
        """Create a regular file and return ``(entry, time cost)``."""
        parent_path, name = split_path(path)
        directory = self.namespace.lookup_dir(parent_path)
        self.namespace.check_free(directory, [name], dir_path=parent_path)
        entry = self.create_files(directory, [name], layout)[0]
        cost = self.model.metadata_time_s("create", ctx, shared_dir) if ctx else 0.0
        return entry, cost

    def open(self, path: str, ctx: PhaseContext | None = None) -> tuple[FileEntry, float]:
        """Open an existing file and return ``(entry, time cost)``."""
        entry = self.namespace.lookup_file(path)
        cost = self.model.metadata_time_s("open", ctx) if ctx else 0.0
        return entry, cost

    def stat(self, path: str, ctx: PhaseContext | None = None, shared_dir: bool = False) -> float:
        """Stat a path; raises if it does not exist."""
        self.namespace.resolve(path)
        return self.model.metadata_time_s("stat", ctx, shared_dir) if ctx else 0.0

    def unlink(self, path: str, ctx: PhaseContext | None = None, shared_dir: bool = False) -> float:
        """Remove a regular file."""
        self.namespace.remove_file(path)
        return self.model.metadata_time_s("remove", ctx, shared_dir) if ctx else 0.0

    def rmdir(self, path: str, ctx: PhaseContext | None = None) -> float:
        """Remove an empty directory."""
        self.namespace.remove_dir(path)
        return self.model.metadata_time_s("remove", ctx) if ctx else 0.0

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def open_all(self, paths: Sequence[str], create: bool = False,
                 layouts: Sequence[StripeLayout | None] | None = None
                 ) -> tuple[list[FileEntry], list[bool]]:
        """Look up each path's file in order; with ``create``, create a
        missing one (striped as ``layouts[i]``, default
        :meth:`default_layout`).  Returns the entries and which were
        created; consecutive paths in one directory resolve it once."""
        entries, created = [], []
        dir_path = directory = None
        for i, path in enumerate(paths):
            parent, name = split_path(path)
            if parent != dir_path:
                dir_path, directory = parent, self.namespace.lookup_dir(parent)
            entry = directory.children.get(name)
            created.append(entry is None and create)
            if created[-1]:
                entry = self.create_files(directory, [name], layouts[i] if layouts else None)[0]
            elif not isinstance(entry, FileEntry):
                raise FileNotFoundInPFSError(
                    path if entry is None else f"{path} is a directory, not a file"
                )
            entries.append(entry)
        return entries, created

    def phase_io(self, op: str, entries: Sequence[FileEntry], nbytes: int, n_ops: int,
                 ctx: PhaseContext, ranks: Sequence[int] | None = None,
                 offsets: Sequence[int] | None = None) -> tuple[np.ndarray, PhaseRoofline]:
        """Cost of ``n_ops`` sequential ``nbytes`` transfers per file, file
        ``i`` from ``offsets[i]`` (default 0): :meth:`PerfModel.phase_times_s`,
        with per-rank noise when ``ranks`` are given.  Writes extend a file
        only past its current end; reads must stay within EOF."""
        if op != ctx.access:
            raise FileSystemError(f"{op} issued under a {ctx.access}-phase context")
        span = n_ops * nbytes
        for i, entry in enumerate(entries):
            end = (0 if offsets is None else offsets[i]) + span
            if op == "write":
                entry.extend_to(end)
            elif end > entry.size:
                raise FileSystemError(f"read of {span} bytes at offset {end - span} exceeds "
                                      f"the size {entry.size} of {entry.name!r}")
        return self.model.phase_times_s(nbytes, [e.layout for e in entries], ctx, n_ops, ranks)

    def write(self, entry: FileEntry, offset: int, nbytes: int, ctx: PhaseContext) -> float:
        """Write ``nbytes`` at ``offset``; extends the file; returns seconds."""
        return float(self.phase_io("write", [entry], nbytes, 1, ctx, offsets=[offset])[0][0, 0])

    def read(self, entry: FileEntry, offset: int, nbytes: int, ctx: PhaseContext) -> float:
        """Read ``nbytes`` at ``offset``; must be within EOF; returns seconds."""
        return float(self.phase_io("read", [entry], nbytes, 1, ctx, offsets=[offset])[0][0, 0])

    # ------------------------------------------------------------------
    # administration / introspection
    # ------------------------------------------------------------------
    def server(self, name: str) -> StorageServer:
        """Look up a storage server by name."""
        for s in self.servers:
            if s.name == name:
                return s
        raise ConfigurationError(f"unknown storage server {name!r}")

    def degrade_server(self, name: str, factor: float) -> None:
        """Degrade every target on one storage server (broken node)."""
        self.server(name).degrade(factor)

    def restore_all(self) -> None:
        """Restore all servers/targets and drop injected faults."""
        for s in self.servers:
            s.restore()
        self.faults.clear()

    def getentryinfo(self, path: str) -> str:
        """Render ``beegfs-ctl --getentryinfo`` output for a path."""
        entry = self.namespace.resolve(path)
        lines = [
            f"Entry type: {entry.entry_type}",
            f"EntryID: {entry.entry_id}",
            f"Metadata node: {entry.metadata_node} [ID: {self.mds.node_id}]",
            "Stripe pattern details:",
        ]
        if isinstance(entry, FileEntry):
            layout = entry.layout
            lines += [
                f"+ Type: {layout.pattern}",
                f"+ Chunksize: {layout.describe_chunk_size()}",
                f"+ Number of storage targets: desired: {layout.num_targets}; "
                f"actual: {layout.num_targets}",
                "+ Storage targets:",
            ]
            for tid in layout.target_ids:
                lines.append(f"  + {tid} @ {self.pool.target(tid).server}")
            lines.append(f"+ Storage Pool: {self.pool.pool_id} ({self.pool.name})")
        else:
            lines += [
                f"+ Type: {StripePattern.RAID0}",
                f"+ Chunksize: {StripeLayout(chunk_size=self.spec.default_chunk_size, target_ids=(0,)).describe_chunk_size()}",
                f"+ Number of storage targets: desired: {self.spec.default_num_targets}",
                f"+ Storage Pool: {self.pool.pool_id} ({self.pool.name})",
            ]
        return "\n".join(lines) + "\n"

    def df(self) -> dict[str, object]:
        """Capacity summary (``beegfs-df``-style)."""
        ntargets = len(self.pool.targets)
        total = ntargets * self.spec.target_capacity_bytes
        return {
            "filesystem": self.spec.name,
            "mount_point": self.spec.mount_point,
            "num_targets": ntargets,
            "capacity_bytes": total,
            "used_bytes": self.namespace.used_bytes,
            "raid_scheme": self.pool.raid_scheme,
            "storage_pool": self.pool.name,
        }
