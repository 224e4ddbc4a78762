"""The shared worker pool: its map, and agreement of every pooled pass
with the serial run, on built and corrupted inputs."""

import importlib
import inspect
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from multimagic import _pool, cli, construct, io, linalg, oa, verify
from multimagic.errors import ConstructionError, FormatError
from multimagic.verify import MagicSquare, verify_cms, verify_ms

from conftest import GOLDEN_CMS9, GOLDEN_LOA
from text_oracle import text_rows

POOL_SIZES = (1, 2, 3)
BLOCK_ROWS = (1, 2, 3, 7)
TRACED = ("gf", "linalg", "construct", "oa", "verify", "io")


class TestOrderedMap:
    @pytest.mark.parametrize("size", POOL_SIZES)
    def test_results_in_order(self, pool_size, size):
        pool_size(size)

        def slow_square(i):
            time.sleep(0.001 * (i % 3))
            return i * i

        assert list(_pool.ordered_map(slow_square, range(40))) == [i * i for i in range(40)]

    @pytest.mark.parametrize("size", (2, 3))
    def test_window_is_bounded(self, pool_size, size):
        pool_size(size)
        consumed = [0]
        ahead = []

        def record(i):
            ahead.append(i - consumed[0])
            return i

        for _ in _pool.ordered_map(record, range(50)):
            time.sleep(0.0005)
            consumed[0] += 1
        assert len(ahead) == 50
        assert max(ahead) <= 2 * size - 1

    def test_window_argument_caps_it(self, pool_size):
        pool_size(3)
        consumed = [0]
        ahead = []

        def record(i):
            ahead.append(i - consumed[0])
            return i

        for i in _pool.ordered_map(record, range(50), 2):
            assert i == consumed[0]
            consumed[0] += 1
        assert len(ahead) == 50
        assert max(ahead) <= 1

    def test_size_one_runs_on_the_caller(self, pool_size):
        pool_size(1)
        seen = list(_pool.ordered_map(lambda i: threading.current_thread(), range(5)))
        assert all(t is threading.current_thread() for t in seen)

    def test_nested_map_runs_inline_on_the_worker(self, pool_size):
        pool_size(2)

        def outer(i):
            me = threading.current_thread()
            inner = list(_pool.ordered_map(lambda j: threading.current_thread(), range(4)))
            return me, inner

        for me, inner in _pool.ordered_map(outer, range(6)):
            assert me is not threading.main_thread()
            assert all(t is me for t in inner)

    def test_worker_exception_reaches_the_caller(self, pool_size):
        pool_size(2)

        def fail_at_3(i):
            if i == 3:
                raise ConstructionError("three")
            return i

        got = []
        with pytest.raises(ConstructionError, match="three"):
            for x in _pool.ordered_map(fail_at_3, range(10)):
                got.append(x)
        assert got == [0, 1, 2]

    def test_sizes(self, pool_size):
        assert _pool.usable_cores() >= 1
        with pytest.raises(ValueError):
            pool_size(0)

    def test_size_has_a_ceiling(self, pool_size):
        before = (threading.active_count(), _pool.size())
        for workers in (_pool.MAX_WORKERS + 1, 100_000):
            with pytest.raises(ValueError, match=str(_pool.MAX_WORKERS)):
                pool_size(workers)
        assert (threading.active_count(), _pool.size()) == before

    def test_blocks(self, pool_size):
        pool_size(2)
        assert _pool.blocks(10, 3, 12) == range(0, 10, 2)
        assert _pool.blocks(10, 100, 12) == range(0, 10, 1)  # at least one item
        assert _pool.blocks(5, 0, 4) == range(0, 5, 2)

    def test_import_starts_no_thread(self):
        code = ("import threading, multimagic; "
                "print(threading.active_count())")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env=env, check=True)
        assert out.stdout.strip() == "1"


# ---------------------------------------------------------------------------
# Agreement across pool sizes and block sizes
# ---------------------------------------------------------------------------

def _configs():
    return [(size, rows) for size in POOL_SIZES for rows in BLOCK_ROWS]


@pytest.fixture(scope="module")
def ms125(f5):
    """MS(125, 3), encoded without the verifier under test."""
    grid = construct.build_sdloa_grid(linalg.find_sdloa_pair(f5, 3))
    return MagicSquare(grid.entries, grid.t)


def _corruptions(sq: MagicSquare) -> dict:
    e = sq.entries
    swapped = e.copy()
    swapped[0, 0], swapped[3, 5] = swapped[3, 5], swapped[0, 0]
    changed = e.copy()
    changed[7, 11] += 1
    negative = e.copy()
    negative[2, 9] = -5
    return {
        "built": sq,
        "swapped": MagicSquare(swapped, sq.t),
        "changed": MagicSquare(changed, sq.t),
        "negative": MagicSquare(negative, sq.t),
        "based": MagicSquare(e + 1000, sq.t, base=1000),
        "misbased": MagicSquare(e + 1000, sq.t, base=999),
    }


def _oracle_failures(sq: MagicSquare, t: int) -> list:
    """(degree, kind, index, got) of every failed line, from Python ints."""
    n = sq.n
    norm = sq.normalized().astype(object)
    out = []
    for e in range(1, t + 1):
        p = norm**e
        target = verify.magic_sum(n, e)
        lines = ([("row", i, sum(p[i, :])) for i in range(n)]
                 + [("col", j, sum(p[:, j])) for j in range(n)]
                 + [("diag-main", None, sum(p[i, i] for i in range(n))),
                    ("diag-back", None, sum(p[i, n - 1 - i] for i in range(n)))])
        out += [(e, kind, i, s) for kind, i, s in lines if s != target]
    return out


class TestVerifyAgreement:
    def test_verify_ms(self, ms125, pool_size, monkeypatch):
        squares = _corruptions(ms125)
        oracle = {name: _oracle_failures(sq, 3) for name, sq in squares.items()}
        assert oracle["built"] == oracle["based"] == []
        assert oracle["swapped"] and oracle["changed"] and oracle["negative"]
        want = None
        for size, rows in _configs():
            pool_size(size)
            monkeypatch.setattr(verify, "_BLOCK_ENTRIES", rows * ms125.n)
            got = {}
            for name, sq in squares.items():
                rep = verify_ms(sq, 3)
                lines = [(f.degree, f.kind, f.index, f.got) for f in rep.failures
                         if f.kind != "entries"]
                assert lines == oracle[name], (size, rows, name)
                got[name] = (rep.summary(), rep.failures)
            assert got["built"][0].endswith("verdict=pass")
            assert got["based"][0].endswith("verdict=pass")
            want = want or got
            assert got == want, (size, rows)

    def test_verify_cms(self, golden_cms9, pool_size, monkeypatch):
        members = golden_cms9.stack
        corrupted = members.copy()
        bad = corrupted[3]
        bad[0, 1], bad[4, 6] = bad[4, 6], bad[0, 1]
        want = None
        for size, rows in _configs():
            pool_size(size)
            # rows members of 81 entries per task
            monkeypatch.setattr(verify, "_BLOCK_ENTRIES", rows * size * 81)
            good, broken = verify_cms(members, 2), verify_cms(corrupted, 2)
            assert good.passed and not broken.passed
            assert {f.member for f in broken.failures} >= {3}
            got = [(r.summary(), r.failures) for r in (good, broken)]
            want = want or got
            assert got == want, (size, rows)


class _Patched:
    """A generated square read through rows(), with some entries replaced
    and its columns reordered on the fly, so that it is never held."""

    def __init__(self, sq, changes=(), cols=None):
        self.sq, self.n, self.t, self.base = sq, sq.n, sq.t, sq.base
        self.changes, self.cols = changes, cols

    def rows(self, r0, r1):
        blk = self.sq.rows(r0, r1)
        blk = blk[:, self.cols] if self.cols is not None else blk.copy()
        for i, j, x in self.changes:
            if r0 <= i < r1:
                blk[i - r0, j] = x
        return blk


def _composed_defects(sq) -> dict:
    n, e = sq.n, sq.entries
    far = (n - 1, n // 2 + 1)  # another block row and block column than (0, 0)
    swap = np.arange(n)
    swap[[0, 1]] = [1, 0]  # every line keeps its sums but the diagonals
    return {
        "built": _Patched(sq),
        "swapped across blocks": _Patched(sq, [(0, 0, e[far]), (*far, e[0, 0])]),
        "n squared": _Patched(sq, [(3, 4, n * n)]),
        "negative": _Patched(sq, [(5, 6, -1)]),
        "duplicate": _Patched(sq, [(1, 2, e[n - 1, n - 1])]),
        "broken diagonal": _Patched(sq, cols=swap),
    }


@pytest.fixture(scope="module")
def composed(f5, golden_cms9):
    """A product MS(225, 2) of nine blocks of order 25, and the MS(3125, 3)
    of gen-ms q2t1 at (5, 3), both generated block by block."""
    ms25 = construct.build_ms_qt(f5, 2)
    return {"product": construct.product_compose(golden_cms9.members[0], ms25),
            "q2t1": construct.build_ms_q2t1(f5, 3)}


class TestStreamedVerify:
    """verify_ms reads a generated square through rows(), block by block,
    and gives the report of the same entries held in memory."""

    @pytest.mark.parametrize("name, rows", [("product", (1, 2, 7, 25, 225)),
                                            ("q2t1", (25,))])
    def test_reports_match_held(self, composed, name, rows, pool_size, monkeypatch):
        sq = composed[name]
        assert isinstance(sq, construct.ComposedSquare)
        squares = _composed_defects(sq)
        # the held squares one at a time: each is 78 MB at order 3125
        want = {key: verify_ms(MagicSquare(src.rows(0, sq.n), sq.t))
                for key, src in squares.items()}
        for size in POOL_SIZES:
            pool_size(size)
            for step in rows:
                monkeypatch.setattr(verify, "_BLOCK_ENTRIES", step * size * sq.n)
                got = {key: verify_ms(src) for key, src in squares.items()}
                assert got == want, (size, step)
        assert want["built"].passed
        assert not any(rep.passed for key, rep in want.items() if key != "built")
        assert [key for key, rep in want.items() if not rep.consecutive_ok] \
            == ["n squared", "negative", "duplicate"]
        assert {f.kind for f in want["broken diagonal"].failures} == {"diag-main", "diag-back"}

    def test_write_and_read_back(self, composed, pool_size, monkeypatch, tmp_path):
        sq = composed["product"]
        held = sq.entries
        want = b"MMS 1 n=225 t=2 base=0\n" + text_rows(held)
        path = tmp_path / "sq.mms"
        for size, rows in _configs():
            pool_size(size)
            monkeypatch.setattr(io, "_ENCODE_ENTRIES", rows * size * sq.n)
            io.write_ms(path, sq)
            assert path.read_bytes() == want, (size, rows)
            assert np.array_equal(io.read_ms(path).entries, held)
            io.write_ms(path, sq, binary=True)
            assert np.array_equal(io.read_ms(path).entries, held)
        io.write_ms(path, sq, binary=True)
        assert np.array_equal(io.read_ms(path).entries, sq.entries)


class TestPooledReadBack:
    """The checked write decodes each piece in a pool task of its own and
    reads it back on the calling thread, in file order: the first piece
    that fails decides the error, at every pool size, and no piece is
    checked past a window after it."""

    PIECE_ROWS = 4

    @pytest.fixture
    def pieces(self, ms125, monkeypatch):
        """A setter of the pool size that keeps pieces of PIECE_ROWS rows of
        the order-125 square, and a spy on _encode: the list of the first
        rows it encoded, and a table of changes, by first row, applied to
        the text of a piece."""
        row_of = {int(x): r for r, x in enumerate(ms125.entries[:, 0])}
        encoded, changes = [], {}
        real = io._encode

        def encode(block):
            r0 = row_of[int(block[0, 0])]
            encoded.append(r0)
            text = bytes(real(block))
            return memoryview(changes[r0](text) if r0 in changes else text)

        def size(workers):
            _pool.set_size(workers)
            monkeypatch.setattr(io, "_ENCODE_ENTRIES", self.PIECE_ROWS * ms125.n * workers)

        monkeypatch.setattr(io, "_encode", encode)
        before = _pool.size()
        yield size, encoded, changes
        _pool.set_size(before)

    @staticmethod
    def change_line(line: int, how):
        """A change of a piece's text: how(text of its line-th row)."""
        def change(text):
            lines = text.split(b"\n")
            lines[line] = how(lines[line])
            return b"\n".join(lines)
        return change

    @staticmethod
    def bump(text):
        """The text with its first entry one greater."""
        first, _, rest = text.partition(b" ")
        return b"%d %s" % (int(first) + 1, rest)

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_mismatch_stops_the_comparisons(self, ms125, pieces, where, tmp_path):
        size, encoded, changes = pieces
        count = -(-ms125.n // self.PIECE_ROWS)
        piece = {"first": 0, "middle": count // 2, "last": count - 1}[where]
        changes[piece * self.PIECE_ROWS] = self.bump
        for workers in POOL_SIZES:
            size(workers)
            encoded.clear()
            with pytest.raises(ConstructionError, match="^artifact did not round-trip$"):
                io.write_ms(tmp_path / "sq.mms", ms125)
            # the differing piece and at most the pool's window after it
            assert piece * self.PIECE_ROWS in encoded
            assert len(encoded) <= piece + 2 * workers, (workers, len(encoded))

    @pytest.mark.parametrize("where", ["first", "middle"])
    def test_bad_byte_after_a_mismatch_raises(self, ms125, pieces, where, tmp_path):
        # the mismatch comes first in the file, so it is what is raised
        size, _, changes = pieces
        last = (ms125.n - 1) // self.PIECE_ROWS * self.PIECE_ROWS
        changes[last] = lambda text: text[:-3] + b"x\n"
        changes[{"first": 0, "middle": last // 2 // self.PIECE_ROWS * self.PIECE_ROWS}[where]] \
            = self.bump
        for workers in POOL_SIZES:
            size(workers)
            with pytest.raises(ConstructionError) as got:
                io.write_ms(tmp_path / "sq.mms", ms125)
            assert str(got.value) == "artifact did not round-trip", workers

    @pytest.mark.parametrize("order", ["byte first", "row first"])
    def test_errors_in_file_order(self, ms125, pieces, order, tmp_path):
        size, _, changes = pieces
        early, late = 20, 110  # rows of different pieces
        bad_byte = lambda row: row.replace(b" ", b"\x0c", 1)
        long_row = lambda row: row + b" 7"
        first, second = (bad_byte, long_row) if order == "byte first" else (long_row, bad_byte)
        for row, how in ((early, first), (late, second)):
            changes[row - row % self.PIECE_ROWS] = self.change_line(row % self.PIECE_ROWS, how)
        want = ("byte other than" if order == "byte first" else "a row holds 126 entries")
        for workers in POOL_SIZES:
            size(workers)
            with pytest.raises(ConstructionError) as got:
                io.write_ms(tmp_path / "sq.mms", ms125)
            assert str(got.value).startswith("artifact did not round-trip: ")
            assert want in str(got.value), workers

    @pytest.mark.parametrize("workers", (2, 3))
    def test_first_piece_failure_returns_promptly(self, ms125, pieces, workers, tmp_path):
        size, encoded, changes = pieces
        release = threading.Event()

        def hold(text):
            release.wait(10)
            return text

        for r0 in range(self.PIECE_ROWS, ms125.n, self.PIECE_ROWS):
            changes[r0] = hold  # every later piece waits
        changes[0] = self.bump
        size(workers)
        start = time.perf_counter()
        try:
            with pytest.raises(ConstructionError, match="^artifact did not round-trip$"):
                io.write_ms(tmp_path / "sq.mms", ms125)
            assert time.perf_counter() - start < 5
        finally:
            release.set()
        # no worker is left blocked: a map needing every worker at once runs
        meet = threading.Barrier(workers, timeout=5)
        assert list(_pool.ordered_map(lambda _: meet.wait() >= 0, range(workers))) \
            == [True] * workers


def test_stress_more_workers_than_cores(ms125, f5, pool_size, monkeypatch, tmp_path):
    """Four workers with a short switch interval give the serial reports
    and bytes, for a held square and for a grid square filled on them."""
    squares = _corruptions(ms125)
    pool_size(1)
    want = [verify_ms(sq, 3) for sq in squares.values()]
    io.write_ms(tmp_path / "serial.mms", ms125)
    pool_size(4)
    monkeypatch.setattr(verify, "_BLOCK_ENTRIES", 4 * ms125.n)
    monkeypatch.setattr(io, "_ENCODE_ENTRIES", 4 * ms125.n)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            assert [verify_ms(sq, 3) for sq in squares.values()] == want
            io.write_ms(tmp_path / "pooled.mms", ms125)
            assert ((tmp_path / "pooled.mms").read_bytes()
                    == (tmp_path / "serial.mms").read_bytes())
            # a fresh grid square: its first fills race for the pair index
            grid = construct.build_sdloa_grid(linalg.find_sdloa_pair(f5, 3))
            assert verify_ms(grid, 3) == want[0]
            io.write_ms(tmp_path / "grid.mms", grid)
            assert (tmp_path / "grid.mms").read_bytes() == (tmp_path / "serial.mms").read_bytes()
    finally:
        sys.setswitchinterval(interval)


class TestGridAgreement:
    """The grid's cells and the member pass's column codes, in blocks of
    any size on any pool, give the whole-array results."""

    def test_cells_and_codes(self, f5, pool_size, monkeypatch):
        cert = linalg.find_sdloa_pair(f5, 3)
        table = cert.table
        e1x = construct._all_products(table, linalg._labels(cert.e1))
        e2y = construct._all_products(table, linalg._labels(cert.e2))
        want_cells = table.add_table[e1x[:, None, :], e2y[None, :, :]]
        n, _, k = want_cells.shape
        members = want_cells.transpose(0, 2, 1)  # (N, k, N), a strided view
        want_codes = (want_cells.astype(np.int64) * 5 ** np.arange(k)).sum(axis=2)
        grid = construct._grid_stack(cert)
        cells = grid.pick(slice(None)).transpose(0, 2, 1)
        assert cells.dtype == want_cells.dtype and np.array_equal(cells, want_cells)
        assert np.array_equal(grid.codes(0, n), want_codes)  # the square's fill
        for size, rows in _configs():
            pool_size(size)
            monkeypatch.setattr(oa, "_CODE_ENTRIES", rows * size * n * k)
            # one code path: the member pass, for a grid gathered whole, a
            # held stack and a single array alike
            assert np.array_equal(oa._member_pass(grid, 5, codes=True)[0], want_codes), \
                (size, rows)
            assert np.array_equal(oa._member_pass(oa._HeldStack(members), 5, codes=True)[0],
                                  want_codes)
            assert np.array_equal(oa.column_codes(oa.OrthArray(members[7], 5, 3)),
                                  want_codes[7])


class TestWriterAgreement:
    def test_square_bytes(self, ms125, pool_size, monkeypatch, tmp_path):
        want = b"MMS 1 n=125 t=3 base=0\n" + text_rows(ms125.entries)
        path = tmp_path / "sq.mms"
        for size, rows in _configs():
            pool_size(size)
            monkeypatch.setattr(io, "_ENCODE_ENTRIES", rows * size * ms125.n)
            io.write_ms(path, ms125)
            assert path.read_bytes() == want, (size, rows)

    def test_bundle_bytes(self, golden_cms9, pool_size, monkeypatch, tmp_path):
        path = tmp_path / "fam.cms"
        for size, rows in _configs():
            pool_size(size)
            monkeypatch.setattr(io, "_ENCODE_ENTRIES", rows * size * 9)
            io.write_cms_bundle(path, golden_cms9)
            assert path.read_bytes() == GOLDEN_CMS9.read_bytes(), (size, rows)


# ---------------------------------------------------------------------------
# Errors raised on a worker, and public functions kept off the workers
# ---------------------------------------------------------------------------

KERNELS = {"sums": (verify, "_block_sums"), "encode": (io, "_encode"),
           "decode": (io, "_scan"), "codes": (oa._GridStack, "codes"),
           "member pass": (oa, "_pass_block")}


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("exc, code", [
    (FormatError("bad text"), 2),
    (ConstructionError("bad build"), 3),
    (MemoryError("Unable to allocate 1.00 TiB for an array"), 3),
])
def test_worker_errors_keep_exit_codes(kernel, exc, code, tmp_path, monkeypatch,
                                       capsys, pool_size):
    module, name = KERNELS[kernel]
    ran_on = []

    def failing(*args):
        ran_on.append(threading.current_thread())
        raise exc

    out = tmp_path / "x.mms"
    command = ["gen-ms", "--q", "3", "--t", "2", "--method", "qt", "--out", str(out)]
    if kernel == "decode":
        # a generator's own artifact failing to read back is a construction
        # failure whatever the error, so the decoder's errors are read from
        # a user's file
        assert cli.main(command) == 0
        command = ["verify-ms", str(out)]
    elif kernel == "member pass":
        # a built grid is proved from its structure, so the per-entry pass
        # runs on a held family: nine arrays of the frozen file, a large set
        fam = io.read_oa_family(GOLDEN_LOA)
        io.write_oa_family(out, oa.ArrayFamily(fam.members[:9]))
        command = ["verify-oa", str(out), "--large-set"]
        assert cli.main(command) == 0
    monkeypatch.setattr(module, name, failing)
    assert cli.main([*command, "--threads", "2"]) == code
    assert ran_on and threading.main_thread() not in ran_on
    err = capsys.readouterr().err
    prefix = "error: " if code == 2 else "construction failed: "
    assert err == prefix + str(exc) + "\n"


@pytest.mark.parametrize("argv", [
    ["gen-ms", "--q", "5", "--t", "3", "--method", "q2t1"],
    ["gen-cms", "--q", "5", "--t", "2"],
])
def test_public_functions_stay_on_the_main_thread(argv, tmp_path, monkeypatch,
                                                  pool_size):
    """Wrap every public function of the traced modules, as an outside-in
    tracer does, and check that none of them runs on a worker."""
    mods = [importlib.import_module(f"multimagic.{m}") for m in TRACED]
    keys = [set(vars(mod)) for mod in mods]
    calls = []
    for mod in mods:
        for attr, fn in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue

            def wrapper(*args, _fn=fn, _name=f"{mod.__name__}.{attr}", **kwargs):
                calls.append((_name, threading.current_thread()))
                return _fn(*args, **kwargs)

            monkeypatch.setattr(mod, attr, wrapper)
    kernel_threads = []
    real = verify._sums  # the residue kernel of row blocks and of members

    def spy(*args):
        kernel_threads.append(threading.current_thread())
        return real(*args)

    monkeypatch.setattr(verify, "_sums", spy)
    out = tmp_path / "artifact"
    assert cli.main([*argv, "--out", str(out), "--threads", "2"]) == 0
    assert calls
    off_main = [name for name, t in calls if t is not threading.main_thread()]
    assert off_main == []
    assert any(t is not threading.main_thread() for t in kernel_threads)
    assert [set(vars(mod)) for mod in mods] == keys
