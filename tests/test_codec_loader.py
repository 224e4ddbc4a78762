"""The build cache of the compiled kernels: one compile per source, reuse
on later imports, a rebuild when the source changes that keeps the few
most recently used builds of the same interpreter, and no half-built
module left behind; and no unused parameter or variable in the kernels."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from multimagic import _codec


@pytest.fixture
def compiles(tmp_path, monkeypatch):
    """The compiler calls made with the cache under tmp_path; each call
    copies the module this process already loaded instead of running gcc."""
    calls = []

    def fake_compile(c_file, module):
        assert "int decode(" in Path(c_file).read_text()  # cffi's C embeds the kernel
        calls.append(Path(module))
        shutil.copy(_codec._module.__file__, module)

    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_codec, "_compile", fake_compile)
    return calls


def test_second_import_reuses_the_build(tmp_path, compiles):
    first = _codec._load()
    second = _codec._load()
    assert len(compiles) == 1
    assert Path(first.__file__) == Path(second.__file__)
    assert Path(first.__file__).parent.parent == tmp_path / "multimagic"
    values, lines = second.ffi.new("int64_t[2]"), second.ffi.new("int64_t[2]")
    counts = second.ffi.new("size_t[4]")
    assert second.lib.decode(b" 1 -2\n", 6, 6, values, 2, lines, 2, counts) == 0
    assert list(counts)[:2] == [2, 2] and list(values) == [1, -2]
    # the temporary build directory was renamed into place
    assert [p.name for p in (tmp_path / "multimagic").iterdir()] \
        == [Path(first.__file__).parent.name]


def _changed_source(tmp_path, monkeypatch, mark: bytes) -> None:
    changed = tmp_path / f"_codec{len(mark)}.c"
    changed.write_bytes(_codec._SOURCE.read_bytes() + b"/* " + mark + b" */\n")
    monkeypatch.setattr(_codec, "_SOURCE", changed)


def test_changed_source_rebuilds(tmp_path, compiles, monkeypatch):
    first = Path(_codec._load().__file__).parent
    _changed_source(tmp_path, monkeypatch, b"changed")
    second = Path(_codec._load().__file__).parent
    assert len(compiles) == 2
    assert compiles[0].parent.name != compiles[1].parent.name
    # the earlier build is kept: another tree may still load it
    assert sorted(p.name for p in (tmp_path / "multimagic").iterdir()) \
        == sorted([first.name, second.name])


def test_alternating_sources_compile_once_each(tmp_path, compiles, monkeypatch):
    # a checkout and its parent sharing one cache, run in turns
    source = _codec._SOURCE
    for _ in range(3):
        monkeypatch.setattr(_codec, "_SOURCE", source)
        _codec._load()
        _changed_source(tmp_path, monkeypatch, b"parent")
        _codec._load()
    assert len(compiles) == 2


def test_prune_keeps_the_most_recently_used(tmp_path):
    cache = tmp_path / "multimagic"
    tag = sys.implementation.cache_tag
    builds = [cache / f"codec-{tag}-{i:016x}" for i in range(7)]
    others = [cache / "codec-otherpy-311-0123456789abcdef", cache / "build-abc"]
    for i, build in enumerate(builds + others):
        build.mkdir(parents=True)
        os.utime(build, (1000 + i, 1000 + i))  # builds[6] used last
    _codec._prune(builds[6])
    keep = builds[7 - _codec._KEEP:] + others
    assert sorted(cache.iterdir()) == sorted(keep)
    # the build at where stays even when _KEEP others were used later
    newer = cache / f"codec-{tag}-{7:016x}"
    newer.mkdir()
    os.utime(builds[6], (0, 0))
    _codec._prune(builds[6])
    assert sorted(cache.glob(f"codec-{tag}-*")) == sorted(builds[3:] + [newer])


def test_rebuild_keeps_other_interpreters_builds(tmp_path, compiles, monkeypatch):
    first = Path(_codec._load().__file__).parent
    tag = sys.implementation.cache_tag
    assert first.name.startswith(f"codec-{tag}-")
    cache = tmp_path / "multimagic"
    others = [cache / "codec-otherpy-311-0123456789abcdef",
              cache / f"codec-{tag}x-0123456789abcdef",
              cache / "codec-0123456789abcdef"]  # named before the tag was added
    for other in others:
        other.mkdir()
        (other / "module.so").write_bytes(b"")
    _changed_source(tmp_path, monkeypatch, b"changed")
    second = Path(_codec._load().__file__).parent
    assert len(compiles) == 2
    assert sorted(p.name for p in cache.iterdir()) \
        == sorted([first.name, second.name] + [other.name for other in others])
    assert all((other / "module.so").is_file() for other in others)
    # a later load of the same source builds nothing and removes nothing
    assert Path(_codec._load().__file__).parent == second
    assert len(compiles) == 2 and len(list(cache.iterdir())) == 5


def test_failed_build_names_the_tools(tmp_path, monkeypatch):
    def no_compiler(c_file, module):
        raise FileNotFoundError("[Errno 2] No such file or directory: 'gcc'")

    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_codec, "_compile", no_compiler)
    with pytest.raises(ImportError, match="gcc and cffi"):
        _codec._load()
    assert list((tmp_path / "multimagic").iterdir()) == []


def test_kernels_leave_nothing_unused():
    # the kernels alone: a parameter or variable that a change to a kernel
    # leaves unused is an error; other warnings vary with gcc's version
    done = subprocess.run(["gcc", "-O3", "-c", "-o", os.devnull, "-Werror=unused-parameter",
                           "-Werror=unused-variable", "-Werror=unused-but-set-variable",
                           str(_codec._SOURCE)], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
