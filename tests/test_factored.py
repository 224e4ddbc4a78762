"""verify_ms on a composed square, computed from its parts, against the
exhaustive pass over the same entries held whole; and the disk preflight
of the generating commands."""

import math
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from multimagic import _pool, construct, io, verify
from multimagic.cli import main
from multimagic.construct import ComposedSquare
from multimagic.verify import MagicSquare, verify_ms

POOL_SIZES = (1, 2, 3)


def held(sq) -> MagicSquare:
    """The same entries, held whole: verified by the exhaustive pass."""
    return MagicSquare(sq.rows(0, sq.n), sq.t)


def parts(sq):
    """Copies of the outer shifts, the member stack and the assignment."""
    return sq.outer.copy(), sq.stack.copy(), sq.f.copy()


def _defects(sq) -> dict:
    """Composed squares whose parts are corrupted in the ways a file or a
    buggy constructor could: outer squares, members, assignments, and
    out-of-range or negative parts."""
    m, (count, n, _) = sq.outer.shape[0], sq.stack.shape
    nn = n * n
    cases = {"built": sq}

    def case(name, change):
        outer, stack, f = parts(sq)
        change(outer, stack, f)
        cases[name] = ComposedSquare(outer, stack, f, sq.t)

    def swap(a, i, j):
        a[i], a[j] = a[j].copy(), a[i].copy()

    case("outer swap", lambda o, s, f: swap(o, (0, 0), (m - 1, 1 % m)))
    case("outer duplicate", lambda o, s, f: o.__setitem__((0, 1 % m), o[1 % m, 0]))
    case("outer out of range", lambda o, s, f: o.__setitem__((1 % m, 1 % m), m * m * nn))
    case("outer negative", lambda o, s, f: o.__setitem__((0, 0), -nn))
    case("outer off the grid", lambda o, s, f: o.__setitem__((m - 1, 0), o[m - 1, 0] + 1))
    case("outer huge", lambda o, s, f: o.__setitem__((0, m - 1), 2**40))
    case("member swap", lambda o, s, f: swap(s[f[0, 0]], (0, 0), (n - 1, n // 2)))
    case("member shifted", lambda o, s, f: s[f[0, 0]].__setitem__((1 % n, 0), s[f[0, 0]][1 % n, 0] + 7))
    case("member negative", lambda o, s, f: s[f[m - 1, m - 1]].__setitem__((0, 0), -1))
    case("member n squared", lambda o, s, f: s[f[0, 0]].__setitem__((n - 1, n - 1), nn))
    case("member duplicate", lambda o, s, f: s[f[0, 0]].__setitem__((0, 0), s[f[0, 0]][0, 1 % n]))
    case("assignment changed", lambda o, s, f: f.__setitem__((0, 1 % m), (f[0, 1 % m] + 1) % count))
    case("assignment wraps", lambda o, s, f: f.__setitem__((1 % m, 0), f[1 % m, 0] - count))
    case("assignment negative", lambda o, s, f: f.__setitem__((m - 1, m - 1), -1))
    if count > 1:
        # every block holds member 0; the others, broken, are never read
        cases["unused members broken"] = ComposedSquare(
            sq.outer, np.concatenate([sq.stack[:1], -sq.stack[1:] - 5]),
            np.zeros_like(sq.f), sq.t)
    return cases


@pytest.fixture(scope="module")
def composed(f5, golden_cms9):
    """The three compositions: q2t1 (5, 3), a product MS(225, 2) of nine
    blocks of order 25, and cms_compose of held inputs, the q2t1 parts
    with the outer square transposed."""
    ms125 = construct.build_ms_qt(f5, 3)
    fam = construct.build_cms_family(f5, 2)
    assign = construct.make_block_assignment(f5, 3, 2)
    return {
        "q2t1": construct.build_ms_q2t1(f5, 3),
        "product": construct.product_compose(golden_cms9.members[0],
                                             construct.build_ms_qt(f5, 2)),
        "cms": construct.cms_compose(MagicSquare(ms125.entries.T, 3), fam, assign),
    }


class TestFactoredMatchesExhaustive:
    @pytest.mark.parametrize("name, above", [("q2t1", 1), ("product", 1), ("cms", 0)])
    def test_reports_match_held(self, composed, name, above, pool_size):
        sq = composed[name]
        squares = _defects(sq)
        # degree t + 1 fails on many lines, so their got/want are compared
        # too; the cms case, of the same order as q2t1, stops at t for time
        degrees = range(sq.t, sq.t + above + 1)
        want = {(key, t): verify_ms(held(src), t) for key, src in squares.items()
                for t in degrees}
        for size in POOL_SIZES:
            pool_size(size)
            got = {(key, t): verify_ms(src, t) for key, src in squares.items()
                   for t in degrees}
            assert got == want, size
        assert want["built", sq.t].passed
        # a wrapped assignment names the member rows() reads, and a single
        # member cannot be swapped for another
        same = {"built", "assignment wraps"}
        if name == "product":
            same |= {"assignment changed", "assignment negative"}
        assert {key for (key, t), rep in want.items() if rep.passed} == same
        assert not want["outer duplicate", sq.t].consecutive_ok
        assert not want["member negative", sq.t].consecutive_ok
        if "unused members broken" in squares:  # the members read are sound
            assert want["unused members broken", sq.t].consecutive_ok

    def test_tasks_share_the_residues_without_loss(self, composed, pool_size):
        # one pool task per modulus fills its own row of each degree's
        # residues: with more workers than cores and a short switch
        # interval, a lost or misplaced row would change a got or a verdict
        sq = composed["q2t1"]
        want = verify_ms(held(sq), 5)
        pool_size(4)
        before = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert verify_ms(sq, 5) == want
        finally:
            sys.setswitchinterval(before)

    def test_no_row_is_filled(self, composed, monkeypatch):
        # the parts decide a square whose parts are sound
        def refuse(self, r0, r1):
            raise AssertionError("a row of the composed square was filled")

        monkeypatch.setattr(ComposedSquare, "rows", refuse)
        for sq in composed.values():
            assert verify_ms(sq).passed
            assert not verify_ms(sq, sq.t + 1).passed

    def test_unsound_parts_are_marked_entry_by_entry(self, composed, monkeypatch):
        # a duplicate outer entry fails the parts check, whose converse does
        # not hold, so the entries are filled and marked
        sq = _defects(composed["q2t1"])["outer duplicate"]
        filled = []
        rows = ComposedSquare.rows

        def spy(self, r0, r1):
            filled.append(r1 - r0)
            return rows(self, r0, r1)

        monkeypatch.setattr(ComposedSquare, "rows", spy)
        assert not verify_ms(sq).consecutive_ok
        assert sum(filled) == sq.n

    def test_consecutive_from_out_of_range_parts(self):
        # outer entries of -1 and m^2 times n^2 are offset by members
        # shifted the other way: the parts check fails, and the entries
        # are consecutive all the same
        a = np.array([[0, 1], [2, 3]])
        b = np.array([[0, 1], [2, 3]])
        stack = np.stack([b, b + 4, b - 4])
        f = np.array([[0, 2], [1, 0]])
        outer = (a + np.array([[0, 1], [-1, 0]])) * 4
        sq = ComposedSquare(outer, stack, f, 1)
        rep = verify_ms(sq, 2)
        assert rep == verify_ms(held(sq), 2)
        assert rep.consecutive_ok

    def test_entries_beyond_int64_take_the_exhaustive_pass(self, composed):
        # entries the int64 fill wraps are read wrapped, as rows() gives them
        outer, stack, f = parts(composed["product"])
        outer[0, 0] = 2**63 - 2
        sq = ComposedSquare(outer, stack, f, 2)
        assert verify_ms(sq) == verify_ms(held(sq))


@st.composite
def small_parts(draw):
    """Parts with m <= 6, n <= 5 and up to four members, the assignment
    drawn freely (unbalanced), entries either permutations or small
    signed integers."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 5))
    count = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        outer = rng.permutation(m * m).reshape(m, m) * (n * n)
    else:
        outer = rng.integers(-3, m * m + 3, size=(m, m)) * (n * n)
    if draw(st.booleans()):
        stack = np.stack([rng.permutation(n * n).reshape(n, n) for _ in range(count)])
    else:
        stack = rng.integers(-2, n * n + 2, size=(count, n, n))
    f = rng.integers(0, count, size=(m, m))
    return ComposedSquare(outer, stack, f, draw(st.integers(1, 3)))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_parts(), st.integers(1, 3))
def test_random_parts_match_held(sq, size):
    before = _pool.size()  # hypothesis takes no function-scoped fixture
    _pool.set_size(size)
    try:
        for t in range(1, 4):
            assert verify_ms(sq, t) == verify_ms(held(sq), t)
    finally:
        _pool.set_size(before)


def test_moduli_below_a_ceiling():
    moduli = verify._moduli(10**60, below=1000)
    assert moduli[0] == 2**64 and all(m % 2 and m < 1000 for m in moduli[1:])
    assert math.prod(moduli) > 2 * 10**60
    assert all(math.gcd(a, b) == 1 for i, a in enumerate(moduli) for b in moduli[:i])
    assert verify._moduli(10**30) == verify._moduli(10**30, below=2**31)


# ---------------------------------------------------------------------------
# The disk preflight
# ---------------------------------------------------------------------------

def free_space(monkeypatch, free: int) -> None:
    """Make os.statvfs report free bytes available."""
    monkeypatch.setattr(os, "statvfs", lambda path: SimpleNamespace(f_bavail=free, f_frsize=1))


class TestTextSize:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 10, 11, 32, 100])
    def test_closed_form(self, n):
        body = sum(len(str(v)) for v in range(n * n)) + n * n
        assert io.ms_text_bytes(n, 3) == len(f"MMS 1 n={n} t=3 base=0\n") + body
        assert io.cms_text_bytes(7, n, 2) == len(f"CMS 1 m=7 n={n} t=2\n") + 7 * body + 6

    @pytest.mark.parametrize("argv, size", [
        (("gen-ms", "--q", "5", "--t", "2", "--method", "qt"), lambda: io.ms_text_bytes(25, 2)),
        (("gen-ms", "--q", "7", "--t", "4", "--method", "qt"), lambda: io.ms_text_bytes(2401, 4)),
        (("gen-ms", "--q", "5", "--t", "3", "--method", "q2t1"),
         lambda: io.ms_text_bytes(3125, 3)),
        (("gen-cms", "--q", "5", "--t", "3"), lambda: io.cms_text_bytes(125, 125, 3)),
    ])
    def test_estimate_is_the_written_size(self, tmp_path, argv, size):
        out = tmp_path / "artifact"
        assert main([*argv, "--out", str(out)]) == 0
        assert out.stat().st_size == size()

    def test_compose_estimate_is_the_written_size(self, tmp_path, golden_cms9):
        a, b, out = tmp_path / "a.mms", tmp_path / "b.mms", tmp_path / "ab.mms"
        io.write_ms(a, golden_cms9.members[0])
        io.write_ms(b, golden_cms9.members[1])
        assert main(["compose", "--product", str(a), str(b), "--out", str(out)]) == 0
        assert out.stat().st_size == io.ms_text_bytes(81, 2)


class TestPreflight:
    @pytest.mark.parametrize("argv, size", [
        (("gen-ms", "--q", "5", "--t", "2", "--method", "qt"), io.ms_text_bytes(25, 2)),
        (("gen-ms", "--q", "5", "--t", "3", "--method", "q2t1"), io.ms_text_bytes(3125, 3)),
        (("gen-cms", "--q", "3", "--t", "2"), io.cms_text_bytes(9, 9, 2)),
    ])
    def test_refused_one_byte_short(self, tmp_path, capsys, monkeypatch, argv, size):
        out = tmp_path / "artifact"
        built = []
        for name in ("build_ms_qt", "build_ms_q2t1", "build_cms_family"):
            monkeypatch.setattr(construct, name, lambda *a, **k: built.append(a))
        free_space(monkeypatch, size - 1)
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: --out {out}: the artifact takes {size} "
                                           f"bytes, and its file system has {size - 1} "
                                           "bytes free\n")
        assert not built and list(tmp_path.iterdir()) == []

    def test_exact_fit_is_written(self, tmp_path, monkeypatch):
        free_space(monkeypatch, io.ms_text_bytes(25, 2))
        out = tmp_path / "x.mms"
        assert main(["gen-ms", "--q", "5", "--t", "2", "--method", "qt", "--out", str(out)]) == 0
        assert out.exists()

    def test_compose_refused_after_reading_its_inputs(self, tmp_path, capsys, monkeypatch,
                                                      golden_cms9):
        a = tmp_path / "a.mms"
        io.write_ms(a, golden_cms9.members[0])
        monkeypatch.setattr(construct, "product_compose", lambda *a: pytest.fail("built"))
        free_space(monkeypatch, 1000)
        out = tmp_path / "ab.mms"
        assert main(["compose", "--product", str(a), str(a), "--out", str(out)]) == 2
        assert f"takes {io.ms_text_bytes(81, 2)} bytes" in capsys.readouterr().err
        assert not out.exists()

    def test_paper_t4_square_refused_at_once(self, tmp_path, capsys, monkeypatch):
        # MS(7^7, 4): its 8.7 TB text fits no disk here
        monkeypatch.setattr(construct, "build_ms_q2t1", lambda *a, **k: pytest.fail("built"))
        free_space(monkeypatch, 10**12)
        out = tmp_path / "ms74.mms"
        assert main(["gen-ms", "--q", "7", "--t", "4", "--method", "q2t1",
                     "--out", str(out)]) == 2
        assert "takes 8705788835953 bytes" in capsys.readouterr().err

    def test_skipped_without_statvfs(self, tmp_path, monkeypatch):
        monkeypatch.delattr(os, "statvfs")
        out = tmp_path / "x.mms"
        assert main(["gen-ms", "--q", "5", "--t", "2", "--method", "qt", "--out", str(out)]) == 0
        assert out.stat().st_size == io.ms_text_bytes(25, 2)
