"""The build cache of the compiled text codec: one compile per source,
reuse on later imports, a rebuild when the source changes, and no
half-built module left behind."""

import shutil
from pathlib import Path

import pytest

from multimagic import _codec


@pytest.fixture
def compiles(tmp_path, monkeypatch):
    """The compiler calls made with the cache under tmp_path; each call
    copies the module this process already loaded instead of running gcc."""
    calls = []

    def fake_compile(c_file, module):
        assert "int check(" in Path(c_file).read_text()  # cffi's C embeds the kernel
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
    counts = second.ffi.new("size_t[2]")
    assert second.lib.check(b" 1 -2\n", 6, 6, counts) == 0
    assert list(counts) == [2, 1]
    # the temporary build directory was renamed into place
    assert [p.name for p in (tmp_path / "multimagic").iterdir()] \
        == [Path(first.__file__).parent.name]


def test_changed_source_rebuilds(tmp_path, compiles, monkeypatch):
    _codec._load()
    changed = tmp_path / "_codec.c"
    changed.write_bytes(_codec._SOURCE.read_bytes() + b"/* changed */\n")
    monkeypatch.setattr(_codec, "_SOURCE", changed)
    _codec._load()
    assert len(compiles) == 2
    assert compiles[0].parent.name != compiles[1].parent.name
    assert len(list((tmp_path / "multimagic").iterdir())) == 2


def test_failed_build_names_the_tools(tmp_path, monkeypatch):
    def no_compiler(c_file, module):
        raise FileNotFoundError("[Errno 2] No such file or directory: 'gcc'")

    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_codec, "_compile", no_compiler)
    with pytest.raises(ImportError, match="gcc and cffi"):
        _codec._load()
    assert list((tmp_path / "multimagic").iterdir()) == []
