"""The compiled kernels: ``_codec.c``, built with cffi in API mode.

The library holds the text codec of io.py, the grid square's rows and
the int64 member pass of the large-set and SDLOA checks in oa.py, the
power sums of verify.py, and the bit seen-map that verify.py and oa.py
both mark.  It is built on
first import into the per-user cache (``$XDG_CACHE_HOME/multimagic``, else
``~/.cache/multimagic``), in a directory ``codec-<abi>-<key>`` named by the
interpreter's cache tag and by checksums of the C source, its
declarations, the compiler flags and the Python ABI; later imports load it
from there, and mark it used by touching the directory.  A build goes to a
temporary directory that is renamed into place, so concurrent first
imports do not see a half-written module.  After a build, the builds of
the same interpreter tag beyond the _KEEP most recently used are removed:
two source trees that share the cache, such as a checkout and its parent,
each keep their build instead of recompiling at every start.  There is no
pure-Python fallback: without gcc and cffi the import fails.

The modules that call the kernels (io, oa and verify) import this
module, so the first import of one of them pays the compile once rather
than the first check, read or write; ``import multimagic`` alone loads
neither it nor numpy.  cffi releases the interpreter lock during each
call, so the kernels scale on the worker pool.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import zlib
from pathlib import Path

_NAME = "_multimagic_codec"
_SOURCE = Path(__file__).with_name("_codec.c")
_DECLARATIONS = """
#define BAD_BYTE ...
#define BAD_SIGN ...
int check(const char *text, size_t size, size_t cut, size_t *counts);
int parse(const char *text, size_t size, size_t cut, int64_t *values,
          size_t n_values, int64_t *lines, size_t n_lines, size_t *bad);
size_t encode(const int64_t *entries, size_t rows, size_t cols, char *out);
void grid_rows(const int16_t *table, const int64_t *a, size_t k, int64_t q,
               const int32_t *index, size_t n, size_t r0, size_t r1, int64_t *work,
               int64_t *out);
void members(const void *data, const void *ref, ptrdiff_t sm, ptrdiff_t si, ptrdiff_t sj,
             size_t first, size_t last, size_t k, size_t n, int64_t v, const int64_t *rows,
             unsigned char *rows_ok, const int64_t *cols, unsigned char *cols_ok,
             int64_t *codes);
void sums(const int64_t *block, size_t rows, size_t n, size_t r0, int64_t base,
          const uint64_t *odd, size_t count, const unsigned char *reduce, size_t top,
          const size_t *needs, uint64_t *work, int64_t *rows_out, int64_t *cols_out,
          int64_t *diag, int64_t *back, int64_t *lohi);
size_t mark(const int64_t *entries, size_t count, int64_t base, uint64_t limit,
            unsigned char *bits);
"""
_FLAGS = ("-O3", "-shared", "-fPIC")
_SUFFIX = importlib.machinery.EXTENSION_SUFFIXES[0]


def _cache() -> Path:
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(root) / "multimagic"


def _key(source: bytes) -> str:
    import _cffi_backend  # the extension's runtime

    abi = (f"{sys.implementation.cache_tag} {_SUFFIX} {_cffi_backend.__version__} "
           f"{_FLAGS} {_DECLARATIONS}")
    # zlib's two checksums, not hashlib, which would load OpenSSL (3 MB)
    data = source + abi.encode()
    return f"{zlib.crc32(data):08x}{zlib.adler32(data):08x}"


def _compile(c_file: Path, module: Path) -> None:
    """Compile the C that cffi emitted into the extension module."""
    import subprocess
    import sysconfig

    done = subprocess.run(["gcc", *_FLAGS, "-I", sysconfig.get_paths()["include"],
                           "-o", str(module), str(c_file)],
                          capture_output=True, text=True, errors="replace")
    if done.returncode:
        raise ImportError(f"gcc failed:\n{done.stderr}")


def _build(source: bytes, where: Path) -> None:
    import shutil
    import tempfile

    from cffi import FFI
    from cffi.recompiler import make_c_source

    ffi = FFI()
    ffi.cdef(_DECLARATIONS)
    where.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="build-", dir=where.parent))
    try:
        c_file = tmp / f"{_NAME}.c"
        make_c_source(ffi, _NAME, source.decode("ascii"), str(c_file))
        _compile(c_file, tmp / f"{_NAME}{_SUFFIX}")
        c_file.unlink()
        try:
            os.replace(tmp, where)
        except OSError:
            if not (where / f"{_NAME}{_SUFFIX}").is_file():
                raise
            # another process put its build in place first
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# Builds kept per interpreter tag: enough for a few source trees that
# share one cache.
_KEEP = 4


def _used(build: Path) -> float:
    """When build was last loaded or built; 0 if it is gone."""
    try:
        return build.stat().st_mtime
    except OSError:
        return 0.0


def _prune(where: Path) -> None:
    """Remove the builds for this interpreter tag but the _KEEP most
    recently used, keeping the one at where."""
    import shutil

    builds = sorted(where.parent.glob(f"codec-{sys.implementation.cache_tag}-*"),
                    key=_used, reverse=True)
    for old in builds[_KEEP:]:
        if old != where:
            shutil.rmtree(old, ignore_errors=True)


def _load():
    """The extension module, built first if the cache lacks it."""
    source = _SOURCE.read_bytes()
    where = _cache() / f"codec-{sys.implementation.cache_tag}-{_key(source)}"
    module = where / f"{_NAME}{_SUFFIX}"
    if not module.is_file():
        try:
            _build(source, where)
        except (ImportError, OSError) as exc:
            raise ImportError(f"multimagic builds its C kernels with gcc and cffi "
                              f"into {where}: {exc}") from exc
        _prune(where)
    else:
        try:
            os.utime(where)  # marks the build used, for _prune
        except OSError:
            pass  # a read-only cache is still usable
    spec = importlib.util.spec_from_file_location(_NAME, module)
    loaded = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loaded)
    return loaded


_module = _load()
ffi, lib = _module.ffi, _module.lib
