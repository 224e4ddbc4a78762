import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import multimagic.verify as V
from multimagic import construct
from multimagic.verify import MagicSquare, magic_sum, power_sum, verify_cms, verify_ms

import sums_oracle


class TestMagicSum:
    def test_order9_values(self):
        assert magic_sum(9, 1) == 360
        assert magic_sum(9, 2) == 19320
        assert magic_sum(9, 3) == 1166400

    def test_closed_form_degree1(self):
        # n(n^2-1)/2 for every order up to 10^4
        for n in range(1, 10_001):
            assert magic_sum(n, 1) == n * (n * n - 1) // 2

    @pytest.mark.parametrize("e", [1, 2, 3, 4])
    def test_against_direct_summation_small(self, e):
        for n in range(1, 65):
            direct = sum(k**e for k in range(n * n))
            assert direct % n == 0
            assert magic_sum(n, e) == direct // n

    @pytest.mark.parametrize("n", [100, 317, 1000, 2000])
    def test_against_direct_summation_spots(self, n):
        for e in (1, 2, 3, 4):
            direct = sum(k**e for k in range(n * n))
            assert magic_sum(n, e) == direct // n

    def test_higher_exponents(self):
        for e in (5, 6, 7):
            assert power_sum(1000, e) == sum(k**e for k in range(1000))

    @pytest.mark.parametrize("n, e, want", [
        (3125, 1, 15258787500),
        (3125, 2, 99341059366862500),
        (3125, 3, 727595612406738281250000),
        (3125, 4, 5684340430889377991358439127500),
        (3125, 5, 46259278481861353308583299316406250000),
        (16807, 1, 2373780746568),
        (16807, 2, 447022870847540881432),
        (16807, 3, 94704672395881886775587333568),
        (16807, 4, 21401380695310260985461742456950377032),
        (823543, 1, 279272932041230232),
        (823543, 2, 126272897421608987628864370568),
        (823543, 3, 64230894380075310176020176551683567338432),
        (823543, 4, 34850299646609701072341707192795168171237451498936728),
        (2097152, 1, 4611686018426339328),
        (2097152, 2, 13521606402429835263279740485632),
        (2097152, 3, 44601490397040963873467787180715784974368768),
        (2097152, 4, 156927543384577816115100626609231919963915241963744395264),
    ])
    def test_paper_orders(self, n, e, want):
        # orders 5^5, 7^5, 7^7 and 2^21, too large to sum directly
        assert magic_sum(n, e) == want

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 400), st.integers(1, 12))
    def test_matches_direct_sum_property(self, limit, e):
        assert power_sum(limit, e) == sum(k**e for k in range(limit))

    def test_divisibility_always_holds(self):
        # each residue class mod n appears n times in I_{n^2}, so the
        # power sum is always divisible; the guard is purely defensive
        for n in range(1, 40):
            for e in (1, 2, 3, 4, 5):
                magic_sum(n, e)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            magic_sum(0, 1)
        with pytest.raises(ValueError):
            power_sum(10, 0)


class TestVerifyMs:
    def test_golden_member(self, golden_cms9):
        rep = verify_ms(golden_cms9.members[0], 2)
        assert rep.passed
        assert rep.magic_sums == {1: 360, 2: 19320}
        assert golden_cms9.members[0].entries[0].sum() == 360

    def test_row_swap_fails_rows_only(self, golden_cms9):
        bad = golden_cms9.members[0].entries.copy()
        bad[0, 0], bad[1, 0] = bad[1, 0], bad[0, 0]
        rep = verify_ms(MagicSquare(bad, 2), 2)
        assert not rep.passed
        kinds = {f.kind for f in rep.failures}
        assert "row" in kinds
        assert "col" not in kinds  # the swap stays inside column 0

    def test_trivial_single_cell(self):
        assert verify_ms(MagicSquare(np.array([[0]]), 1), 3).passed

    def test_non_integer_entries_refused(self):
        # a cast to int64 would truncate them to a square of 0..3
        with pytest.raises(ValueError, match="entries must be integers"):
            MagicSquare([[0.9, 1.2], [2.7, 3.1]], 1)

    def test_entry_set_checked(self):
        sq = MagicSquare(np.array([[0, 1], [1, 2]]), 1)
        rep = verify_ms(sq, 1)
        assert not rep.consecutive_ok and not rep.passed

    def test_base_offset_normalized(self, golden_cms9):
        shifted = MagicSquare(golden_cms9.members[0].entries + 100, 2, base=100)
        assert verify_ms(shifted, 2).passed

    def test_transposition_swaps_row_col_reports(self, golden_cms9):
        bad = golden_cms9.members[0].entries.copy()
        bad[0, 0], bad[0, 1] = bad[0, 1], bad[0, 0]  # breaks two columns
        rep = verify_ms(MagicSquare(bad, 2), 1)
        rep_t = verify_ms(MagicSquare(bad.T.copy(), 2), 1)
        cols = sorted(f.index for f in rep.failures if f.kind == "col")
        rows_t = sorted(f.index for f in rep_t.failures if f.kind == "row")
        assert cols == rows_t == [0, 1]

    def test_reflection_swaps_diagonals(self, golden_cms9):
        # swap inside row 1 away from the center so only the main
        # diagonal is touched; reflection moves the damage to the back one
        bad = golden_cms9.members[0].entries.copy()
        bad[1, 1], bad[1, 2] = bad[1, 2], bad[1, 1]
        rep = verify_ms(MagicSquare(bad, 2), 1)
        rep_f = verify_ms(MagicSquare(np.fliplr(bad).copy(), 2), 1)
        kinds = {f.kind for f in rep.failures}
        kinds_f = {f.kind for f in rep_f.failures}
        assert "diag-main" in kinds and "diag-back" not in kinds
        assert "diag-back" in kinds_f and "diag-main" not in kinds_f

    def test_soundness_cross_row_swaps(self, golden_cms9):
        rng = np.random.default_rng(23)
        base = golden_cms9.members[0].entries
        n = 9
        for _ in range(200):
            i1, i2 = rng.choice(n, 2, replace=False)
            j1, j2 = rng.integers(0, n, 2)
            bad = base.copy()
            bad[i1, j1], bad[i2, j2] = bad[i2, j2], bad[i1, j1]
            rep = verify_ms(MagicSquare(bad, 2), 1)
            degree1_rows = [f for f in rep.failures
                            if f.kind == "row" and f.degree == 1]
            assert degree1_rows, "cross-row swap must break a degree-1 row sum"


def test_rows_of_the_wrong_shape_are_refused():
    # the kernel reads rows x n entries of each block, so a square whose
    # rows() returns another shape must not reach it
    class Narrow:
        n, t, base = 4, 1, 0

        def rows(self, r0, r1):
            return np.zeros((r1 - r0, 3), dtype=np.int64)

    with pytest.raises(ValueError, match="block of an order-4 square"):
        verify_ms(Narrow())


def _reference_sums(mat, e):
    """Line power sums of mat in plain Python integers."""
    n = mat.shape[0]
    cells = [[int(x) ** e for x in row] for row in mat]
    return (
        [sum(row) for row in cells],
        [sum(col) for col in zip(*cells)],
        sum(cells[i][i] for i in range(n)),
        sum(cells[i][n - 1 - i] for i in range(n)),
    )


def _reference_all(mat, top):
    """_reference_sums for every degree 1..top."""
    return [_reference_sums(mat, e) for e in range(1, top + 1)]


def _bound(mat, e):
    return mat.shape[0] * int(np.abs(mat.astype(object)).max()) ** e


def _sorted_consecutive(sq: MagicSquare) -> bool:
    """The consecutive-entry check by sorting, kept as the oracle."""
    flat = np.sort(sq.normalized(), axis=None)
    return bool(np.array_equal(flat, np.arange(sq.n * sq.n, dtype=np.int64)))


def _with(entries, i, j, x):
    out = entries.copy()
    out[i, j] = x
    return out


CONSECUTIVE_CASES = {
    "valid": (lambda e: MagicSquare(e, 2), True),
    "duplicate": (lambda e: MagicSquare(_with(e, 0, 0, e[0, 1]), 2), False),
    "negative": (lambda e: MagicSquare(_with(e, 3, 4, -1), 2), False),
    "equal_to_n_squared": (lambda e: MagicSquare(_with(e, 4, 4, 81), 2), False),
    "base_shifted": (lambda e: MagicSquare(e + 100, 2, base=100), True),
    "base_unshifted": (lambda e: MagicSquare(e, 2, base=100), False),
    "base_wrong_top": (lambda e: MagicSquare(_with(e + 7, 0, 0, 88), 2, base=7), False),
    "one_by_one": (lambda e: MagicSquare(np.array([[0]]), 1), True),
    "one_by_one_off": (lambda e: MagicSquare(np.array([[1]]), 1), False),
}


class TestConsecutiveSeenMap:
    @pytest.mark.parametrize("case", sorted(CONSECUTIVE_CASES))
    def test_agrees_with_sort(self, golden_cms9, case):
        build, want = CONSECUTIVE_CASES[case]
        sq = build(golden_cms9.members[0].entries)
        rep = verify_ms(sq, 1)
        assert rep.consecutive_ok == _sorted_consecutive(sq) == want
        assert ("entries" in {f.kind for f in rep.failures}) != want

    def test_bit_map_matches_byte_map(self):
        # duplicates, values out of range on both sides, a base, and marks
        # made over several calls into one map
        rng = np.random.default_rng(6)
        for limit in (1, 8, 61, 640):
            base = int(rng.integers(-50, 50))
            entries = rng.integers(-20, limit + 20, size=3 * limit) + base
            bits = np.zeros((limit + 7) // 8, dtype=np.uint8)
            marked = sum(V._mark(chunk, bits, limit, base)
                         for chunk in np.array_split(entries, 4))
            seen = np.zeros(limit, dtype=bool)
            values = entries - base
            seen[values[(values >= 0) & (values < limit)]] = True
            assert np.array_equal(bits, np.packbits(seen, bitorder="little"))
            assert marked == seen.sum()


def _sums(mat, top, base=0):
    """The verifier's exact line power sums of mat for degrees 1..top: the
    CRT of _line_power_sums's residues under the true bound, the square's
    entries mat + base read with that base."""
    n = mat.shape[0]
    residues, moduli, needs, *_ = V._line_power_sums(
        MagicSquare(mat + base, 1, base=base), top, int(mat.min()), int(mat.max()))
    out, k = [], 0
    for need in needs:
        exact = V._crt(residues[k:k + need], moduli[:need])
        out.append((exact[:n], exact[n:2 * n], exact[2 * n], exact[2 * n + 1]))
        k += need
    return out


def _kernel_agrees(mat, top, step):
    """The compiled residues of every block of step rows equal the numpy
    oracle's, under the moduli of the true bound and, for entries in
    [0, n^2), of the first pass's bound; so do the block's least and
    greatest entries."""
    n = mat.shape[0]
    lo, hi = int(mat.min()), int(mat.max())
    bounds = [(lo, hi)] + ([(0, n * n - 1)] if 0 <= lo and hi < n * n else [])
    for lo, hi in bounds:
        moduli, needs, reduce = V._plan(n, top, lo, hi)
        for r0 in range(0, n, step):
            got = V._block_sums(MagicSquare(mat, 1), moduli, needs, reduce, step, r0)
            want = sums_oracle.block_sums(mat, moduli, needs, reduce, step, r0)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w), (lo, hi, r0)
            blk = mat[r0:r0 + step]
            assert got[4:6] == (blk.min(), blk.max())


class TestExactPowerSums:
    @pytest.mark.parametrize("rows", [1, 2, 3, 7])
    def test_row_blocks(self, rows, monkeypatch):
        # odd orders, some ending in a partial block, so both diagonals
        # cross block edges; signed entries wide enough that degrees 2-5
        # wrap int64 and take several moduli
        rng = np.random.default_rng(rows)
        for n in (1, 9, 15):
            mat = rng.integers(-(2**40), 2**40, size=(n, n), dtype=np.int64)
            monkeypatch.setattr(V, "_BLOCK_ENTRIES", rows * n)
            for e in range(1, 6):
                assert _sums(mat, e) == _reference_all(mat, e)
                _kernel_agrees(mat, e, rows)

    def test_permutation_matrix_low_degrees(self):
        rng = np.random.default_rng(0)
        mat = rng.permutation(64 * 64).astype(np.int64).reshape(64, 64) * 2381
        for e in (1, 2, 3, 4):
            assert _sums(mat, e) == _reference_all(mat, e)
            _kernel_agrees(mat, e, 5)

    def test_in_range_moduli(self):
        # entries in [0, n^2): the first pass's moduli are final
        rng = np.random.default_rng(4)
        for n in (2, 7, 16):
            mat = rng.permutation(n * n).astype(np.int64).reshape(n, n)
            for e in (1, 3, 6):
                assert _sums(mat, e) == _reference_all(mat, e)
                _kernel_agrees(mat, e, 3)

    def test_base_is_subtracted_in_the_kernel(self):
        rng = np.random.default_rng(5)
        mat = rng.integers(-(2**40), 2**40, size=(11, 11), dtype=np.int64)
        for base in (7, -(2**45)):
            assert _sums(mat, 4, base) == _reference_all(mat, 4)

    def test_largest_in_scope_width(self):
        # entries of an order-16807 square at degree 3, the widest point
        # the toolkit targets; the largest entry is present on purpose
        rng = np.random.default_rng(1)
        top = 16807**2 - 1
        mat = rng.integers(top - 10**6, top, size=(48, 48), dtype=np.int64)
        mat[0, :] = top
        assert len(V._moduli(_bound(mat, 3))) == 2
        assert _sums(mat, 3) == _reference_all(mat, 3)
        _kernel_agrees(mat, 3, 7)

    def test_order_3125_values_degree5(self):
        rng = np.random.default_rng(2)
        mat = rng.integers(0, 3125**2, size=(40, 40), dtype=np.int64)
        mat[np.arange(40), np.arange(40)] = 3125**2 - 1
        assert len(V._moduli(_bound(mat, 5))) > 2
        assert _sums(mat, 5) == _reference_all(mat, 5)
        _kernel_agrees(mat, 5, 6)

    @pytest.mark.parametrize("e", [1, 2, 3, 4, 5, 9])
    def test_negative_entries(self, e):
        rng = np.random.default_rng(e)
        mat = rng.integers(-(3125**2), 3125**2, size=(24, 24), dtype=np.int64)
        mat[5, 7] = -(3125**2)
        assert _sums(mat, e) == _reference_all(mat, e)
        _kernel_agrees(mat, e, 5)

    def test_degree_12_needs_many_moduli(self):
        rng = np.random.default_rng(3)
        mat = rng.integers(-(2**30), 2**31, size=(16, 16), dtype=np.int64)
        assert len(V._moduli(_bound(mat, 12))) > 10
        assert _sums(mat, 12) == _reference_all(mat, 12)
        _kernel_agrees(mat, 12, 3)

    def test_barrett_correction(self):
        # -1 is m - 1 modulo m = 2**31 - 3, the second odd modulus, and
        # (m - 1)**2 is a product whose Barrett quotient estimate is one low
        mat = np.array([[-1, 2**40], [3, -1]], dtype=np.int64)
        assert 2**31 - 3 in V._moduli(_bound(mat, 4))
        assert _sums(mat, 4) == _reference_all(mat, 4)
        _kernel_agrees(mat, 4, 1)

    @pytest.mark.parametrize("e, top, count", [
        (2, 2**31 - 1, 1), (2, 2**31, 2), (1, 2**62 - 1, 1), (1, 2**62, 2)])
    def test_one_to_two_moduli_switch(self, e, top, count):
        # 2B = 4 * top**e with n = 2 sits just below or exactly at 2**64;
        # at the upper value a row sum of two entries overflows int64
        for sign in (1, -1):
            mat = np.full((2, 2), sign * top, dtype=np.int64)
            assert len(V._moduli(_bound(mat, e))) == count
            assert _sums(mat, e) == _reference_all(mat, e)
            _kernel_agrees(mat, e, 1)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 6).flatmap(lambda n: hnp.arrays(
            np.int64, (n, n),
            elements=st.integers(-(2**63), 2**63 - 1) | st.integers(-3, 3))),
        st.integers(1, 12),
        st.integers(1, 6),
    )
    def test_matches_reference_property(self, mat, e, step):
        assert _sums(mat, e) == _reference_all(mat, e)
        _kernel_agrees(mat, e, step)


class TestVerifyCms:
    def test_golden_family(self, golden_cms9):
        rep = verify_cms(golden_cms9.stack, 2)
        assert rep.passed
        assert rep.magic_sums[3] == 1166400
        assert 9 * rep.magic_sums[3] == 10497600

    def test_transposed_member_report(self, golden_cms9):
        # a transposed member still passes on its own (its lines carry the
        # same sums), but its cube row totals move between R1 and R2; the
        # report must blame exactly the family conditions
        stack = golden_cms9.stack.copy()
        stack[4] = golden_cms9.stack[4].T
        rep = verify_cms(stack, 2)
        assert not rep.passed
        assert all(f.member is None for f in rep.failures)
        kinds = {f.kind for f in rep.failures}
        assert kinds == {"R1", "R2"}

    def test_single_member_reduction(self, golden_cms9):
        # a bimagic square is a valid 1-member complementary family at
        # degree 1: the exponent-2 conditions are its own bimagic sums
        rep = verify_cms(golden_cms9.stack[:1], 1)
        assert rep.passed

    def test_detects_member_replacement(self, golden_cms9):
        stack = golden_cms9.stack.copy()
        stack[0] = np.rot90(golden_cms9.stack[0])
        rep = verify_cms(stack, 2)
        r_kinds = {f.kind for f in rep.failures}
        assert not rep.passed
        assert r_kinds & {"R1", "R2", "R3-main", "R3-back"}

    def test_threads_deterministic(self, golden_cms9, pool_size):
        pool_size(1)
        a = verify_cms(golden_cms9.stack, 2)
        pool_size(4)
        b = verify_cms(golden_cms9.stack, 2)
        assert a == b

    def test_summary_counts_each_failing_line_once(self, cms25):
        # member k swaps entries (r, 0) and (r + 1, 1), r = k % 3: rows
        # 0..3 and columns 0 and 1 fail, most of them in several members
        stack = cms25.stack.copy()
        for k, e in enumerate(stack):
            r = k % 3
            e[r, 0], e[r + 1, 1] = e[r + 1, 1], e[r, 0]
        lines = verify_cms(stack, 2).summary().splitlines()
        assert lines[2:5] == [
            "degree 1: target=7800 rows=21/25 cols=23/25 diagonals=2/2",
            "degree 2: target=3247400 rows=21/25 cols=23/25 diagonals=2/2",
            "degree 3: target=1521000000 rows=21/25 cols=23/25 diagonals=2/2"]

    def test_mismatched_orders(self, golden_cms9):
        for build in (construct.CmsFamily, verify_cms):
            with pytest.raises(ValueError):  # a ragged stack
                build([golden_cms9.stack[0], np.array([[0]])], 2)

    @pytest.mark.parametrize("build", [construct.CmsFamily, verify_cms])
    @pytest.mark.parametrize("stack, t", [
        (np.arange(81).reshape(9, 9), 2),                     # 2-D
        (np.zeros((0, 9, 9), dtype=np.int64), 2),             # no members
        (np.zeros((2, 0, 0), dtype=np.int64), 2),             # order 0
        (np.zeros((2, 3, 4), dtype=np.int64), 2),             # not square
        (np.arange(81).reshape(1, 9, 9), 0),                  # t < 1
        (np.arange(81).reshape(1, 9, 9) + 0.5, 2),            # not integers
    ])
    def test_rejects_malformed_stacks(self, build, stack, t):
        with pytest.raises(ValueError):
            build(stack, t)


def _lines(p):
    """(kind, index, sum) of every line of the object array p: rows,
    columns, then the main and the back diagonal."""
    n = p.shape[0]
    return ([("row", i, sum(p[i, :])) for i in range(n)]
            + [("col", j, sum(p[:, j])) for j in range(n)]
            + [("diag-main", None, sum(p[i, i] for i in range(n))),
               ("diag-back", None, sum(p[i, n - 1 - i] for i in range(n)))])


_R_KINDS = {"row": "R1", "col": "R2", "diag-main": "R3-main", "diag-back": "R3-back"}


def _cms_oracle(members, t):
    """The (degree, kind, index, got, want, member) of every failure of
    verify_cms, in its order, and consecutive_ok, from Python ints."""
    n, e = members[0].n, t + 1
    failures, consecutive_ok, totals = [], True, None
    for idx, sq in enumerate(members):
        norm = sq.entries.astype(object) - sq.base
        for d in range(1, e):
            want = magic_sum(n, d)
            failures += [(d, kind, i, s, want, idx) for kind, i, s in _lines(norm**d)
                         if s != want]
        ok = sorted(norm.ravel().tolist()) == list(range(n * n))
        if not ok:
            failures.append((0, "entries", None, None, None, idx))
        consecutive_ok = consecutive_ok and ok
        lines = _lines(norm**e)
        totals = lines if totals is None else [
            (kind, i, a + s) for (kind, i, a), (_, _, s) in zip(totals, lines)]
    want = len(members) * magic_sum(n, e)
    failures += [(e, _R_KINDS[kind], i, s, want, None) for kind, i, s in totals if s != want]
    return failures, consecutive_ok


def _random_families(rng):
    """(name, members, t): permutations of 0..n^2-1, with and without a
    base, and signed entries near +-2**62."""
    out = []
    for k in range(12):
        n, t, m = int(rng.integers(1, 6)), int(rng.integers(1, 4)), int(rng.integers(1, 6))
        perms = [rng.permutation(n * n).reshape(n, n) for _ in range(m)]
        out.append((f"perm-{k}", [MagicSquare(p, t) for p in perms], t))
        bases = rng.integers(-(2**40), 2**40, size=m)
        based = [MagicSquare(p + b, t, base=int(b)) for p, b in zip(perms, bases)]
        if k % 3 == 0:  # a wrong base
            based[-1] = MagicSquare(perms[-1] + bases[-1], t, base=int(bases[-1]) - 1)
        out.append((f"based-{k}", based, t))
        wide = [rng.integers(-(2**62), 2**62, size=(n, n)) for _ in range(m)]
        wide[0][0, 0] = 2**62 - int(rng.integers(1, 5))
        wide[-1][-1, -1] = -(2**62) + int(rng.integers(0, 5))
        out.append((f"wide-{k}", [MagicSquare(w, t, base=int(rng.integers(-9, 9)))
                                 for w in wide], t))
    return out


@pytest.fixture(scope="module")
def cms25(f5):
    """The 25-member CMS(25, 2) family of gen-cms --q 5 --t 2."""
    return construct.build_cms_family(f5, 2)


def _order25_families(fam):
    """The order-25 family, with two entries of one member swapped, with
    one entry shifted, and member 0 alone, at degree 1."""
    members = list(fam.members)
    swapped = members[7].entries.copy()
    swapped[0, 1], swapped[4, 6] = swapped[4, 6], swapped[0, 1]
    shifted = members[20].entries.copy()
    shifted[12, 3] += 625
    return [("order25", members, fam.t),
            ("swapped", members[:7] + [MagicSquare(swapped, fam.t)] + members[8:], fam.t),
            ("shifted", members[:20] + [MagicSquare(shifted, fam.t)] + members[21:], fam.t),
            ("one member", members[:1], 1)]


class TestVerifyCmsOracle:
    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_reports_match_python_ints(self, cms25, golden_cms9, pool_size, monkeypatch,
                                       size):
        pool_size(size)
        # runs of several small members, one order-25 member a run
        monkeypatch.setattr(V, "_BLOCK_ENTRIES", 64 * size)
        families = (_random_families(np.random.default_rng(31)) + _order25_families(cms25)
                    + [("golden", list(golden_cms9.members), 2),
                       ("golden member", list(golden_cms9.members[:1]), 1)])
        verdicts: dict = {}
        for name, members, t in families:
            rep = verify_cms(np.stack([m.normalized() for m in members]), t)
            failures, consecutive_ok = _cms_oracle(members, t)
            got = [(f.degree, f.kind, f.index, f.got, f.want, f.member) for f in rep.failures]
            assert got == failures, name
            assert rep.consecutive_ok == consecutive_ok, name
            verdicts.setdefault(name.split("-")[0], set()).add(rep.passed)
        # the valid families pass; every other kind of family fails
        assert all(verdicts[name] == {True}
                   for name in ("order25", "one member", "golden", "golden member"))
        assert verdicts["swapped"] == verdicts["shifted"] == {False}
        assert all(False in verdicts[name] for name in ("perm", "based", "wide"))
