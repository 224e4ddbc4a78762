import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import multimagic.verify as V
from multimagic.verify import MagicSquare, magic_sum, power_sum, verify_cms, verify_ms


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
                assert V._line_power_sums(mat, e) == _reference_sums(mat, e)

    def test_permutation_matrix_low_degrees(self):
        rng = np.random.default_rng(0)
        mat = rng.permutation(64 * 64).astype(np.int64).reshape(64, 64) * 2381
        for e in (1, 2, 3, 4):
            assert V._line_power_sums(mat, e) == _reference_sums(mat, e)

    def test_largest_in_scope_width(self):
        # entries of an order-16807 square at degree 3, the widest point
        # the toolkit targets; the largest entry is present on purpose
        rng = np.random.default_rng(1)
        top = 16807**2 - 1
        mat = rng.integers(top - 10**6, top, size=(48, 48), dtype=np.int64)
        mat[0, :] = top
        assert len(V._moduli(_bound(mat, 3))) == 2
        assert V._line_power_sums(mat, 3) == _reference_sums(mat, 3)

    def test_order_3125_values_degree5(self):
        rng = np.random.default_rng(2)
        mat = rng.integers(0, 3125**2, size=(40, 40), dtype=np.int64)
        mat[np.arange(40), np.arange(40)] = 3125**2 - 1
        assert len(V._moduli(_bound(mat, 5))) > 2
        assert V._line_power_sums(mat, 5) == _reference_sums(mat, 5)

    @pytest.mark.parametrize("e", [1, 2, 3, 4, 5, 9])
    def test_negative_entries(self, e):
        rng = np.random.default_rng(e)
        mat = rng.integers(-(3125**2), 3125**2, size=(24, 24), dtype=np.int64)
        mat[5, 7] = -(3125**2)
        assert V._line_power_sums(mat, e) == _reference_sums(mat, e)

    def test_degree_12_needs_many_moduli(self):
        rng = np.random.default_rng(3)
        mat = rng.integers(-(2**30), 2**31, size=(16, 16), dtype=np.int64)
        assert len(V._moduli(_bound(mat, 12))) > 10
        assert V._line_power_sums(mat, 12) == _reference_sums(mat, 12)

    @pytest.mark.parametrize("e, top, count", [
        (2, 2**31 - 1, 1), (2, 2**31, 2), (1, 2**62 - 1, 1), (1, 2**62, 2)])
    def test_one_to_two_moduli_switch(self, e, top, count):
        # 2B = 4 * top**e with n = 2 sits just below or exactly at 2**64;
        # at the upper value a row sum of two entries overflows int64
        for sign in (1, -1):
            mat = np.full((2, 2), sign * top, dtype=np.int64)
            assert len(V._moduli(_bound(mat, e))) == count
            assert V._line_power_sums(mat, e) == _reference_sums(mat, e)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 6).flatmap(lambda n: hnp.arrays(
            np.int64, (n, n),
            elements=st.integers(-(2**63), 2**63 - 1) | st.integers(-3, 3))),
        st.integers(1, 8),
    )
    def test_matches_reference_property(self, mat, e):
        assert V._line_power_sums(mat, e) == _reference_sums(mat, e)


class TestVerifyCms:
    def test_golden_family(self, golden_cms9):
        rep = verify_cms(golden_cms9.members, 2)
        assert rep.passed
        assert rep.magic_sums[3] == 1166400
        assert 9 * rep.magic_sums[3] == 10497600

    def test_transposed_member_report(self, golden_cms9):
        # a transposed member still passes on its own (its lines carry the
        # same sums), but its cube row totals move between R1 and R2; the
        # report must blame exactly the family conditions
        members = list(golden_cms9.members)
        members[4] = MagicSquare(members[4].entries.T.copy(), 2)
        rep = verify_cms(members, 2)
        assert not rep.passed
        assert all(f.member is None for f in rep.failures)
        kinds = {f.kind for f in rep.failures}
        assert kinds == {"R1", "R2"}

    def test_single_member_reduction(self, golden_cms9):
        # a bimagic square is a valid 1-member complementary family at
        # degree 1: the exponent-2 conditions are its own bimagic sums
        rep = verify_cms([golden_cms9.members[0]], 1)
        assert rep.passed

    def test_detects_member_replacement(self, golden_cms9):
        members = list(golden_cms9.members)
        rotated = np.rot90(members[0].entries).copy()
        members[0] = MagicSquare(rotated, 2)
        rep = verify_cms(members, 2)
        r_kinds = {f.kind for f in rep.failures}
        assert not rep.passed
        assert r_kinds & {"R1", "R2", "R3-main", "R3-back"}

    def test_threads_deterministic(self, golden_cms9):
        a = verify_cms(golden_cms9.members, 2, threads=1)
        b = verify_cms(golden_cms9.members, 2, threads=4)
        assert a == b

    def test_mismatched_orders(self, golden_cms9):
        tiny = MagicSquare(np.array([[0]]), 2)
        with pytest.raises(ValueError):
            verify_cms([golden_cms9.members[0], tiny], 2)
