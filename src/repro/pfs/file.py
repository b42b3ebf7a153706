"""File-system namespace: directories, files, and path resolution.

The namespace tracks structure and sizes (not data contents — the
simulator models time, not bytes).  Every entry carries the metadata
the extractor later reads back through ``beegfs-ctl``: entry id, owning
metadata server, stripe layout and storage pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.pfs.layout import StripeLayout
from repro.util.errors import (
    ConfigurationError,
    DirectoryNotEmptyError,
    FileExistsInPFSError,
    FileNotFoundInPFSError,
    NotADirectoryInPFSError,
)

__all__ = ["FileEntry", "DirEntry", "Namespace", "split_path", "normalize_path"]


def normalize_path(path: str) -> str:
    """Normalise to an absolute, ``/``-separated path without dots."""
    if not path or not path.startswith("/"):
        raise ConfigurationError(f"paths must be absolute, got {path!r}")
    # Already canonical: the fold below only rewrites empty, ``.`` and
    # ``..`` components and a trailing slash, and this path has none.
    if "//" not in path and "/." not in path and (path == "/" or path[-1] != "/"):
        return path
    parts: list[str] = []
    for part in path.split("/"):
        if part in ("", "."):
            continue
        if part == "..":
            if parts:
                parts.pop()
            continue
        parts.append(part)
    return "/" + "/".join(parts)


def split_path(path: str) -> tuple[str, str]:
    """Split a normalised path into ``(parent, name)``."""
    norm = normalize_path(path)
    if norm == "/":
        raise ConfigurationError("cannot split the root path")
    parent, _, name = norm.rpartition("/")
    return (parent or "/", name)


@dataclass(slots=True)
class FileEntry:
    """A regular file: size, striping, and ownership metadata."""

    name: str
    entry_id: str
    metadata_node: str
    layout: StripeLayout
    pool_name: str
    size: int = 0
    ctime: float = 0.0
    mtime: float = 0.0

    entry_type: str = field(default="file", init=False)

    def extend_to(self, offset_end: int) -> None:
        """Grow the file to cover writes ending at ``offset_end``."""
        if offset_end < 0:
            raise ConfigurationError("file size cannot be negative")
        self.size = max(self.size, offset_end)


@dataclass(slots=True)
class DirEntry:
    """A directory holding child entries by name."""

    name: str
    entry_id: str
    metadata_node: str
    children: dict[str, "FileEntry | DirEntry"] = field(default_factory=dict)
    ctime: float = 0.0

    entry_type: str = field(default="directory", init=False)


class Namespace:
    """The directory tree of one file system instance."""

    def __init__(self, root_entry_id: str = "root", metadata_node: str = "meta01") -> None:
        self.root = DirEntry(name="/", entry_id=root_entry_id, metadata_node=metadata_node)

    def resolve(self, path: str) -> FileEntry | DirEntry:
        """Return the entry at ``path`` or raise a not-found error."""
        norm = normalize_path(path)
        entry: FileEntry | DirEntry = self.root
        if norm == "/":
            return entry
        for part in norm[1:].split("/"):
            if not isinstance(entry, DirEntry):
                raise NotADirectoryInPFSError(f"{part!r} crossed through a file in {path!r}")
            try:
                entry = entry.children[part]
            except KeyError:
                raise FileNotFoundInPFSError(path) from None
        return entry

    def _lookup_parent(self, path: str) -> tuple[DirEntry, str]:
        """Resolve the parent directory of ``path`` in one walk and
        return it with the final component's name."""
        parent_path, name = split_path(path)
        return self.lookup_dir(parent_path), name

    def exists(self, path: str) -> bool:
        """Whether an entry exists at ``path``."""
        try:
            self.resolve(path)
            return True
        except (FileNotFoundInPFSError, NotADirectoryInPFSError):
            return False

    def lookup_dir(self, path: str) -> DirEntry:
        """Resolve ``path`` and require it to be a directory."""
        entry = self.resolve(path)
        if not isinstance(entry, DirEntry):
            raise NotADirectoryInPFSError(path)
        return entry

    def lookup_file(self, path: str) -> FileEntry:
        """Resolve ``path`` and require it to be a regular file."""
        entry = self.resolve(path)
        if not isinstance(entry, FileEntry):
            raise FileNotFoundInPFSError(f"{path} is a directory, not a file")
        return entry

    def add_child(
        self,
        parent: DirEntry,
        name: str,
        entry: FileEntry | DirEntry,
        exist_ok: bool = False,
        *,
        path: str | None = None,
    ) -> None:
        """Insert ``entry`` as ``name`` under the directory ``parent``.

        ``exist_ok`` lets a file replace a file of the same name; a
        directory is never replaced.  Errors name ``path`` when given,
        else ``name``.
        """
        existing = parent.children.get(name)
        if existing is not None and (not exist_ok or isinstance(existing, DirEntry)):
            raise FileExistsInPFSError(path or name)
        entry.name = name
        parent.children[name] = entry

    def add(self, path: str, entry: FileEntry | DirEntry, exist_ok: bool = False) -> None:
        """Insert ``entry`` at ``path`` under an existing parent directory."""
        parent, name = self._lookup_parent(path)
        self.add_child(parent, name, entry, exist_ok, path=path)

    def remove_child(self, parent: DirEntry, name: str, *, path: str | None = None) -> FileEntry:
        """Unlink the regular file ``name`` from ``parent`` and return it.

        Errors name ``path`` when given, else ``name``.
        """
        entry = parent.children.get(name)
        if entry is None:
            raise FileNotFoundInPFSError(path or name)
        if not isinstance(entry, FileEntry):
            raise FileNotFoundInPFSError(f"{path or name} is a directory; use rmdir")
        del parent.children[name]
        return entry

    def remove_file(self, path: str) -> FileEntry:
        """Unlink a regular file and return its entry."""
        parent, name = self._lookup_parent(path)
        return self.remove_child(parent, name, path=path)

    def remove_dir(self, path: str) -> DirEntry:
        """Remove an empty directory and return its entry."""
        parent, name = self._lookup_parent(path)
        entry = parent.children.get(name)
        if entry is None:
            raise FileNotFoundInPFSError(path)
        if not isinstance(entry, DirEntry):
            raise NotADirectoryInPFSError(path)
        if entry.children:
            raise DirectoryNotEmptyError(path)
        del parent.children[name]
        return entry

    def listdir(self, path: str) -> list[str]:
        """Sorted child names of a directory."""
        return sorted(self.lookup_dir(path).children)

    def walk_files(self, path: str = "/") -> list[tuple[str, FileEntry]]:
        """All (path, file) pairs under ``path``, depth-first sorted."""
        result: list[tuple[str, FileEntry]] = []

        def _walk(prefix: str, d: DirEntry) -> None:
            for name in sorted(d.children):
                child = d.children[name]
                child_path = f"{prefix.rstrip('/')}/{name}"
                if isinstance(child, DirEntry):
                    _walk(child_path, child)
                else:
                    result.append((child_path, child))

        _walk(normalize_path(path), self.lookup_dir(path))
        return result

    def iter_files(self, path: str = "/") -> Iterator[FileEntry]:
        """Every file under ``path``, in no set order, without building paths."""
        stack = [self.lookup_dir(path)]
        while stack:
            for child in stack.pop().children.values():
                if isinstance(child, DirEntry):
                    stack.append(child)
                else:
                    yield child

    def count_entries(self, path: str = "/") -> tuple[int, int]:
        """Return ``(num_files, num_dirs)`` under ``path`` (excl. itself)."""
        nfiles = ndirs = 0

        def _walk(d: DirEntry) -> None:
            nonlocal nfiles, ndirs
            for child in d.children.values():
                if isinstance(child, DirEntry):
                    ndirs += 1
                    _walk(child)
                else:
                    nfiles += 1

        _walk(self.lookup_dir(path))
        return nfiles, ndirs
