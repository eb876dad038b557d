"""Property-based tests: VFS path algebra and filesystem invariants."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel import MemoryFilesystem
from repro.kernel.vfs import (
    basename,
    is_subpath,
    join_path,
    normalize_path,
    parent_path,
    split_path,
)

# path components without separators or dots-only names
component = st.text(alphabet=string.ascii_lowercase + string.digits + "_-",
                    min_size=1, max_size=8).filter(lambda s: s not in (".", ".."))
components = st.lists(component, min_size=0, max_size=6)
raw_path = st.text(alphabet=string.ascii_lowercase + "./", min_size=1,
                   max_size=40)
# separators, dot components and one name, in any order
dotty_path = st.lists(st.sampled_from(["/", ".", "..", "a"]), min_size=1,
                      max_size=16).map("".join)


def normalize_by_components(path):
    """Reference: drop empty and "." components, let ".." pop one."""
    parts = []
    for part in path.split("/"):
        if part in ("", "."):
            continue
        if part == "..":
            if parts:
                parts.pop()
            continue
        parts.append(part)
    return "/" + "/".join(parts)


class TestPathAlgebra:
    @given(raw_path)
    def test_normalize_idempotent(self, path):
        once = normalize_path("/" + path)
        assert normalize_path(once) == once

    @given(dotty_path)
    def test_normalize_matches_component_walk(self, path):
        # the early return for canonical paths must agree with the walk
        assert normalize_path(path) == normalize_by_components(path)

    @given(raw_path)
    def test_normalize_always_absolute(self, path):
        norm = normalize_path("/" + path)
        assert norm.startswith("/")
        assert ".." not in split_path(norm)
        assert "." not in split_path(norm)

    @given(components)
    def test_split_join_roundtrip(self, comps):
        path = "/" + "/".join(comps)
        assert split_path(path) == comps
        assert join_path("/", *comps) == normalize_path(path)

    @given(components, component)
    def test_parent_of_child_is_path(self, comps, leaf):
        base = "/" + "/".join(comps)
        child = join_path(base, leaf)
        assert parent_path(child) == normalize_path(base)
        assert basename(child) == leaf

    @given(components, components)
    def test_subpath_reflexive_and_prefix(self, a, b):
        base = "/" + "/".join(a)
        assert is_subpath(base, base)
        deeper = join_path(base, *b) if b else base
        assert is_subpath(deeper, base)

    @given(components, component)
    def test_sibling_names_not_subpaths(self, comps, leaf):
        base = join_path("/", *comps) if comps else "/"
        a = join_path(base, leaf + "a")
        b = join_path(base, leaf + "ab")
        assert not is_subpath(b, a)  # prefix of the *name* is not a subpath

    @given(raw_path)
    def test_dotdot_cannot_escape_root(self, path):
        norm = normalize_path("/../" * 3 + path)
        assert norm.startswith("/")


class TestFilesystemInvariants:
    @settings(max_examples=40)
    @given(st.lists(st.tuples(components.filter(bool), st.binary(max_size=64)),
                    min_size=1, max_size=12, unique_by=lambda t: tuple(t[0])))
    def test_write_read_roundtrip_many(self, files):
        from repro.errors import IsADirectory, NotADirectory
        fs = MemoryFilesystem()
        written = {}
        for comps, data in files:
            path = "/" + "/".join(comps)
            parent = parent_path(path)
            try:
                if not fs.exists(parent):
                    fs.mkdir(parent, parents=True)
                fs.write(path, data)
            except (IsADirectory, NotADirectory):
                continue  # component clash: a file where a dir is needed
            written[normalize_path(path)] = data
        for path, data in written.items():
            assert fs.read(path) == data

    @settings(max_examples=40)
    @given(st.binary(max_size=256), st.integers(min_value=0, max_value=300))
    def test_truncate_is_prefix(self, data, size):
        fs = MemoryFilesystem()
        fs.write("/f", data)
        fs.truncate("/f", size)
        assert fs.read("/f") == data[:size]

    @settings(max_examples=40)
    @given(st.lists(st.binary(max_size=32), min_size=1, max_size=8))
    def test_append_concatenates(self, chunks):
        fs = MemoryFilesystem()
        fs.write("/log", b"")
        for chunk in chunks:
            fs.write("/log", chunk, append=True)
        assert fs.read("/log") == b"".join(chunks)

    @settings(max_examples=30)
    @given(st.lists(component, min_size=1, max_size=8, unique=True))
    def test_readdir_matches_created_entries(self, names):
        fs = MemoryFilesystem()
        fs.mkdir("/d")
        for name in names:
            fs.write(f"/d/{name}", b"x")
        assert fs.readdir("/d") == sorted(names)

    @settings(max_examples=30)
    @given(st.lists(component, min_size=1, max_size=8, unique=True))
    def test_walk_visits_every_file_exactly_once(self, names):
        fs = MemoryFilesystem()
        for i, name in enumerate(names):
            fs.mkdir(f"/d{i % 3}", parents=True) if not fs.exists(f"/d{i % 3}") else None
            fs.write(f"/d{i % 3}/{name}", b"x")
        seen = [f"{d}/{f}" for d, _, fnames in fs.walk("/") for f in fnames]
        assert len(seen) == len(set(seen)) == len(names)

    @settings(max_examples=30)
    @given(component, component, st.binary(max_size=32))
    def test_rename_preserves_content(self, a, b, data):
        fs = MemoryFilesystem()
        fs.write(f"/{a}", data)
        dst = f"/renamed-{b}"
        fs.rename(f"/{a}", dst)
        assert fs.read(dst) == data
        if normalize_path(f"/{a}") != normalize_path(dst):
            assert not fs.exists(f"/{a}")
