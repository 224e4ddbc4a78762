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
    return MagicSquare(grid.square.entries, grid.t)


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
        members = list(golden_cms9.members)
        bad = members[3].entries.copy()
        bad[0, 1], bad[4, 6] = bad[4, 6], bad[0, 1]
        corrupted = members[:3] + [MagicSquare(bad, 2)] + members[4:]
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
        want = b"MMS 1 n=225 t=2 base=0\n" + text_rows(sq.entries)
        path = tmp_path / "sq.mms"
        bad = _composed_defects(sq)
        for size, rows in _configs():
            pool_size(size)
            monkeypatch.setattr(io, "_ENCODE_ENTRIES", rows * size * sq.n)
            io.write_ms(path, sq)
            assert path.read_bytes() == want, (size, rows)
            assert io.read_matches(path, sq)
            assert not any(io.read_matches(path, bad[key]) for key in bad if key != "built")
        io.write_ms(path, sq, binary=True)
        assert np.array_equal(io.read_ms(path).entries, sq.entries)


class TestPooledReadBack:
    """read_matches compares each decoded piece with the rows it covers in
    a pool task of its own, stops waiting for comparisons at the first
    piece that differs, and still validates the rest of the body: its
    verdicts and errors are those of a serial read."""

    @pytest.fixture
    def pieces(self, ms125, tmp_path, monkeypatch):
        """The order-125 square written, read in pieces of about 2 KB, and
        the starting entry of each piece."""
        monkeypatch.setattr(io, "_DECODE_BYTES", 2048)
        monkeypatch.setattr(io, "_DECODE_MIN", 2048)
        path = tmp_path / "sq.mms"
        io.write_ms(path, ms125)
        starts = []
        real = io._piece_matches

        def record(squares, piece):
            starts.append(piece[0])
            return real(squares, piece)

        monkeypatch.setattr(io, "_piece_matches", record)
        assert io.read_matches(path, ms125)
        assert len(set(starts)) == len(starts) > 20  # compared on any worker
        return path, sorted(starts), starts

    @staticmethod
    def changed(sq: MagicSquare, at: int) -> MagicSquare:
        e = sq.entries.copy()
        e.flat[at] += 1
        return MagicSquare(e, sq.t)

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_mismatch_stops_the_comparisons(self, ms125, pieces, where, pool_size):
        path, starts, compared = pieces
        piece = {"first": 0, "middle": len(starts) // 2, "last": len(starts) - 1}[where]
        at = starts[piece] + 1 if piece + 1 < len(starts) else ms125.n ** 2 - 1
        other = self.changed(ms125, at)
        for size in POOL_SIZES:
            pool_size(size)
            compared.clear()
            assert not io.read_matches(path, other), size
            # the differing piece and at most a window of pieces after it
            assert piece in [starts.index(c) for c in compared]
            assert len(compared) <= piece + 2 * size, (size, len(compared))

    @pytest.mark.parametrize("where", ["first", "middle"])
    def test_bad_byte_after_a_mismatch_raises(self, ms125, pieces, where, pool_size):
        path, starts, _ = pieces
        piece = {"first": 0, "middle": len(starts) // 2}[where]
        other = self.changed(ms125, starts[piece])
        text = bytearray(path.read_bytes())
        text[-3] = ord("x")  # in the last piece
        path.write_bytes(bytes(text))
        with pytest.raises(FormatError) as serial:
            io.read_ms(path)
        for size in POOL_SIZES:
            pool_size(size)
            with pytest.raises(FormatError) as got:
                io.read_matches(path, other)
            assert str(got.value) == str(serial.value), size

    @pytest.mark.parametrize("order", ["byte first", "row first"])
    def test_errors_in_file_order(self, ms125, pieces, order, pool_size):
        path, starts, _ = pieces
        lines = path.read_bytes().split(b"\n")
        early, late = 20, 110  # body rows, in different pieces
        bad_byte = lambda row: row.replace(b" ", b"\x0c", 1)
        long_row = lambda row: row + b" 7"
        first, second = (bad_byte, long_row) if order == "byte first" else (long_row, bad_byte)
        lines[1 + early] = first(lines[1 + early])
        lines[1 + late] = second(lines[1 + late])
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(FormatError) as serial:
            io.read_ms(path)
        want = ("byte other than" if order == "byte first" else "a row holds 126 entries")
        assert want in str(serial.value)
        for size in POOL_SIZES:
            pool_size(size)
            for sq in (ms125, self.changed(ms125, 0)):
                with pytest.raises(FormatError) as got:
                    io.read_matches(path, sq)
                assert str(got.value) == str(serial.value), size


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
            grid = construct.build_sdloa_grid(linalg.find_sdloa_pair(f5, 3)).square
            assert verify_ms(grid, 3) == want[0]
            io.write_ms(tmp_path / "grid.mms", grid)
            assert (tmp_path / "grid.mms").read_bytes() == (tmp_path / "serial.mms").read_bytes()
            assert io.read_matches(tmp_path / "serial.mms", grid)
    finally:
        sys.setswitchinterval(interval)


class TestGridAgreement:
    """The grid's cells and the member pass's column codes, in blocks of
    any size on any pool, give the whole-array results."""

    def test_cells_and_codes(self, f5, pool_size, monkeypatch):
        cert = linalg.find_sdloa_pair(f5, 3)
        table = cert.table
        e1x = construct._all_products(table, construct._np_of(cert.e1))
        e2y = construct._all_products(table, construct._np_of(cert.e2))
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
           "decode": (io, "_scan"), "codes": (oa, "_grid_codes"),
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
    real = verify._block_sums

    def spy(*args):
        kernel_threads.append(threading.current_thread())
        return real(*args)

    monkeypatch.setattr(verify, "_block_sums", spy)
    out = tmp_path / "artifact"
    assert cli.main([*argv, "--out", str(out), "--threads", "2"]) == 0
    assert calls
    off_main = [name for name, t in calls if t is not threading.main_thread()]
    assert off_main == []
    assert any(t is not threading.main_thread() for t in kernel_threads)
    assert [set(vars(mod)) for mod in mods] == keys
