"""Tests for the PFS namespace (path resolution and tree operations)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.pfs.beegfs import BeeGFS
from repro.pfs.file import DirEntry, FileEntry, Namespace, normalize_path, split_path
from repro.pfs.layout import StripeLayout
from repro.util.errors import (
    ConfigurationError,
    DirectoryNotEmptyError,
    FileExistsInPFSError,
    FileNotFoundInPFSError,
    NotADirectoryInPFSError,
)


def make_file(name="f"):
    return FileEntry(
        name=name,
        entry_id="1-ABC-1",
        metadata_node="meta01",
        layout=StripeLayout(),
        pool_name="Default",
    )


def make_dir(name="d"):
    return DirEntry(name=name, entry_id="2-ABC-1", metadata_node="meta01")


class TestPathHelpers:
    @pytest.mark.parametrize(
        "raw,norm",
        [
            ("/", "/"),
            ("/a/b", "/a/b"),
            ("/a//b/", "/a/b"),
            ("/a/./b", "/a/b"),
            ("/a/../b", "/b"),
            ("/../a", "/a"),
        ],
    )
    def test_normalize(self, raw, norm):
        assert normalize_path(raw) == norm

    def test_relative_rejected(self):
        with pytest.raises(ConfigurationError):
            normalize_path("a/b")

    def test_split(self):
        assert split_path("/a/b/c") == ("/a/b", "c")
        assert split_path("/a") == ("/", "a")

    def test_split_root_rejected(self):
        with pytest.raises(ConfigurationError):
            split_path("/")


class TestNamespace:
    def test_add_and_resolve(self):
        ns = Namespace()
        ns.add("/scratch", make_dir())
        ns.add("/scratch/file1", make_file())
        assert ns.lookup_file("/scratch/file1").entry_type == "file"
        assert ns.lookup_dir("/scratch").entry_type == "directory"

    def test_missing_raises(self):
        ns = Namespace()
        with pytest.raises(FileNotFoundInPFSError):
            ns.resolve("/nope")

    def test_duplicate_create_raises(self):
        ns = Namespace()
        ns.add("/f", make_file())
        with pytest.raises(FileExistsInPFSError):
            ns.add("/f", make_file())

    def test_exist_ok(self):
        ns = Namespace()
        ns.add("/f", make_file())
        replacement = make_file()
        ns.add("/f", replacement, exist_ok=True)
        assert ns.lookup_file("/f") is replacement

    def test_exist_ok_never_replaces_a_directory(self):
        ns = Namespace()
        ns.add("/d", make_dir())
        ns.add("/d/f", make_file())
        with pytest.raises(FileExistsInPFSError, match="^/d$"):
            ns.add("/d", make_file(), exist_ok=True)
        with pytest.raises(FileExistsInPFSError):
            ns.add_child(ns.root, "d", make_file(), exist_ok=True)
        assert ns.lookup_dir("/d").children.keys() == {"f"}

    def test_file_in_path_raises(self):
        ns = Namespace()
        ns.add("/f", make_file())
        with pytest.raises(NotADirectoryInPFSError):
            ns.resolve("/f/child")

    def test_lookup_file_on_dir_raises(self):
        ns = Namespace()
        ns.add("/d", make_dir())
        with pytest.raises(FileNotFoundInPFSError):
            ns.lookup_file("/d")

    def test_remove_file(self):
        ns = Namespace()
        ns.add("/f", make_file())
        ns.remove_file("/f")
        assert not ns.exists("/f")

    def test_remove_missing_file(self):
        ns = Namespace()
        with pytest.raises(FileNotFoundInPFSError):
            ns.remove_file("/f")

    def test_rmdir_non_empty(self):
        ns = Namespace()
        ns.add("/d", make_dir())
        ns.add("/d/f", make_file())
        with pytest.raises(DirectoryNotEmptyError):
            ns.remove_dir("/d")
        ns.remove_file("/d/f")
        ns.remove_dir("/d")
        assert not ns.exists("/d")

    def test_listdir_sorted(self):
        ns = Namespace()
        ns.add("/d", make_dir())
        for name in ("c", "a", "b"):
            ns.add(f"/d/{name}", make_file(name))
        assert ns.listdir("/d") == ["a", "b", "c"]

    def test_walk_and_count(self):
        ns = Namespace()
        ns.add("/d", make_dir())
        ns.add("/d/sub", make_dir())
        ns.add("/d/f1", make_file())
        ns.add("/d/sub/f2", make_file())
        files = ns.walk_files("/")
        assert [p for p, _ in files] == ["/d/f1", "/d/sub/f2"]
        assert ns.count_entries("/") == (2, 2)

    def test_extend_to(self):
        f = make_file()
        f.extend_to(100)
        f.extend_to(50)
        assert f.size == 100
        with pytest.raises(ConfigurationError):
            f.extend_to(-1)


class TestHandleForms:
    def test_add_child_and_remove_child_by_handle(self):
        ns = Namespace()
        ns.add("/d", make_dir())
        d = ns.lookup_dir("/d")
        entry = make_file("ignored")
        ns.add_child(d, "f", entry)
        assert entry.name == "f"
        assert ns.lookup_file("/d/f") is entry
        assert ns.remove_child(d, "f") is entry
        assert not ns.exists("/d/f")

    def test_handle_form_errors_name_the_bare_name(self):
        ns = Namespace()
        ns.add("/d", make_dir())
        d = ns.lookup_dir("/d")
        ns.add_child(d, "f", make_file())
        with pytest.raises(FileExistsInPFSError, match="^f$"):
            ns.add_child(d, "f", make_file())
        with pytest.raises(FileNotFoundInPFSError, match="^g$"):
            ns.remove_child(d, "g")

    def test_path_form_errors_name_the_full_path(self):
        ns = Namespace()
        ns.add("/d", make_dir())
        ns.add("/d/sub", make_dir())
        ns.add("/d/f", make_file())
        with pytest.raises(FileExistsInPFSError, match="^/d/f$"):
            ns.add("/d/f", make_file())
        with pytest.raises(FileNotFoundInPFSError, match="^/d/g$"):
            ns.remove_file("/d/g")
        with pytest.raises(FileNotFoundInPFSError, match="^/d/sub is a directory"):
            ns.remove_file("/d/sub")

    def test_missing_or_file_parent(self):
        ns = Namespace()
        ns.add("/f", make_file())
        with pytest.raises(FileNotFoundInPFSError, match="^/nope$"):
            ns.add("/nope/x", make_file())
        with pytest.raises(NotADirectoryInPFSError, match="^/f$"):
            ns.add("/f/x", make_file())
        with pytest.raises(NotADirectoryInPFSError):
            ns.remove_dir("/f/x/y")
        with pytest.raises(ConfigurationError):
            ns.remove_dir("/")


def reference_fold(path: str) -> str:
    """The component-by-component fold ``normalize_path`` must equal."""
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


_components = st.sampled_from(["a", "b", ".", "..", ".x", "...", ""])


class TestNamespaceProperties:
    @given(st.lists(_components, max_size=8), st.booleans())
    def test_normalize_path_equals_reference_fold(self, parts, trailing):
        path = "/" + "/".join(parts) + ("/" if trailing else "")
        assert normalize_path(path) == reference_fold(path)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["create", "extend", "remove", "create_many", "remove_many",
                                 "replace", "extend_unlinked"]),
                st.sampled_from(["/scratch/a", "/scratch/b", "/scratch/d/c", "/scratch/d/e"]),
                st.integers(min_value=0, max_value=1 << 20),
            ),
            max_size=25,
        )
    )
    def test_df_used_bytes_equals_walk_sum(self, ops):
        fs = BeeGFS()
        fs.makedirs("/scratch/d")
        unlinked = []
        for op, path, size in ops:
            present = fs.namespace.exists(path)
            parent, name = split_path(path)
            directory = fs.namespace.lookup_dir(parent)
            siblings = [n for n in ("c", "e", "x") if n not in directory.children]
            if op == "create" and not present:
                fs.create(path)
            elif op == "extend" and present:
                fs.namespace.lookup_file(path).extend_to(size)
            elif op == "remove" and present:
                unlinked.append(fs.namespace.remove_file(path))
            elif op == "create_many" and siblings:
                fs.create_files(directory, siblings, size=size)
            elif op == "remove_many":
                files = sorted(n for n, e in directory.children.items() if isinstance(e, FileEntry))
                unlinked += fs.namespace.remove_children(directory, files)
            elif op == "replace" and present:
                unlinked.append(fs.namespace.lookup_file(path))
                replacement = make_file()
                replacement.extend_to(size)
                fs.namespace.add(path, replacement, exist_ok=True)
            elif op == "extend_unlinked" and unlinked:
                unlinked[size % len(unlinked)].extend_to(size)
        walked = sum(e.size for _, e in fs.namespace.walk_files("/"))
        assert fs.df()["used_bytes"] == walked

    @given(st.lists(st.sampled_from("abcde"), min_size=1, max_size=5, unique=True))
    def test_add_then_listdir_round_trip(self, names):
        ns = Namespace()
        ns.add("/d", make_dir())
        for n in names:
            ns.add(f"/d/{n}", make_file(n))
        assert ns.listdir("/d") == sorted(names)
        nfiles, _ = ns.count_entries("/")
        assert nfiles == len(names)
