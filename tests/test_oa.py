import itertools
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multimagic import construct, gf, linalg, oa

import oa_oracle
from conftest import cells_family, rows_family


def kernel_rows(stack: np.ndarray, v: int) -> np.ndarray:
    """The member pass's mask of members proved relabellings of member 0."""
    bits = np.zeros((v ** stack.shape[1] + 7) // 8, dtype=np.uint8)
    return oa._member_pass(oa._HeldStack(stack), v, bits)[1]


def kernel_members_ok(stack: np.ndarray, v: int, t: int) -> bool:
    """Every slab a simple OA, by the member pass and its fallback tally."""
    return oa._members_ok(oa._HeldStack(stack), kernel_rows(stack, v), v, t)


def by_row(cells: np.ndarray) -> oa._HeldStack:
    """The row orientation of an (N, N, k) cell grid, as the strided view
    a held-stack check reads: member r is grid row r."""
    return oa._HeldStack(cells.transpose(0, 2, 1))


def relabelled(stack: np.ndarray, s: int, v: int) -> bool:
    """Member s is proved a relabelling of member 0, by the kernel and by
    the numpy pass of the oracle alike."""
    proved = bool(kernel_rows(stack, v)[s])
    assert proved == oa_oracle._relabelled(stack[s:s + 1], stack[0])[0]
    return proved


def recount_oracle(arr: oa.OrthArray) -> bool:
    """Definition-based recount: literal tuple counting per row subset."""
    lam = arr.n_cols // arr.v**arr.t
    cols = arr.entries.T.tolist()
    for subset in itertools.combinations(range(arr.k), arr.t):
        counts = Counter(tuple(col[i] for i in subset) for col in cols)
        if set(counts.values()) != {lam}:
            return False
        if len(counts) != arr.v**arr.t:
            return False
    return True


@pytest.fixture(scope="module")
def a_arrays(golden_loa):
    return golden_loa.members


class TestVerifyOa:
    def test_full_factorial(self):
        cols = np.array(list(itertools.product(range(3), repeat=2))).T
        arr = oa.OrthArray(cols, 3, 2)
        assert oa.verify_oa(arr)
        assert arr.index == 1

    def test_fixture_member(self, a_arrays):
        a00 = a_arrays[0]
        assert a00.entries[0].tolist() == [1, 2, 0, 1, 2, 0, 1, 2, 0]
        assert oa.verify_oa(a00)

    def test_fixture_member_perturbed(self, a_arrays):
        bad = a_arrays[0].entries.copy()
        bad[0, 0] = (bad[0, 0] + 1) % 3
        assert not oa.verify_oa(oa.OrthArray(bad, 3, 2))

    def test_agrees_with_recount_on_fixtures(self, a_arrays):
        for member in a_arrays[:12]:
            assert oa.verify_oa(member) == recount_oracle(member)

    def test_agrees_with_recount_on_randoms(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            arr = oa.OrthArray(rng.integers(0, 3, (4, 9)), 3, 2)
            assert oa.verify_oa(arr) == recount_oracle(arr)

    def test_random_arrays_rejected(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            arr = oa.OrthArray(rng.integers(0, 3, (4, 9)), 3, 2)
            assert not oa.verify_oa(arr)


class TestChunks:
    """Stacks longer than one chunk: a fault only in the last chunk counts."""

    def test_strength_tally_spans_chunks(self):
        a, b = np.divmod(np.arange(9), 3)
        base = np.tile(np.stack([a, b, (a + b) % 3, (a + 2 * b) % 3]), 50)  # N = 450
        count = oa._TALLY_ENTRIES // (6 * 450) + 1  # C(4, 2) = 6 subsets
        stack = np.repeat(base[None], count, axis=0)
        assert oa._strength_ok(stack, 3, 2)
        stack[-1, 0, 0] = (stack[-1, 0, 0] + 1) % 3
        assert not oa._strength_ok(stack, 3, 2)
        stack[-1, 0, 0] = base[0, 0]
        assert oa._strength_ok(stack, 3, 2)

    def test_relabelling_pass_spans_chunks(self, a_arrays, monkeypatch):
        member = a_arrays[0].entries
        monkeypatch.setattr(oa, "_CHUNK_ENTRIES", 2 * member.size)  # two members a chunk
        monkeypatch.setattr(oa, "_CODE_ENTRIES", member.size)  # one member a block
        stack = np.repeat(member[None], 7, axis=0)
        stack[1:, 0] = (stack[1:, 0] + 1) % 3  # relabelled row 0
        assert kernel_rows(stack, 3).all()
        assert kernel_members_ok(stack, 3, 2)
        # columns permuted: simple OAs, but no relabellings, so all six
        # are tallied, three chunks of two
        stack[1:] = stack[1:, :, [4, 5, 2, 6, 3, 8, 7, 0, 1]]
        assert not kernel_rows(stack, 3)[1:].any()
        assert kernel_members_ok(stack, 3, 2)
        j = int(np.argmax(member[0] != member[0, 0]))
        stack[-1, 0, [0, j]] = stack[-1, 0, [j, 0]]  # no relabelling, no OA
        assert not kernel_members_ok(stack, 3, 2)


class TestIsSimple:
    def test_fixture(self, a_arrays):
        assert oa.is_simple(a_arrays[0])

    def test_duplicate_column(self):
        arr = oa.OrthArray(np.array([[0, 0, 1], [1, 1, 2], [2, 2, 0]]), 3, 1)
        assert not oa.is_simple(arr)

    def test_minimal_full_factorial(self):
        # N = v^t is the smallest legal shape; distinct columns are simple
        arr = oa.OrthArray(np.array([[0, 1]]), 2, 1)
        assert oa.is_simple(arr)
        # a single column cannot satisfy the index invariant at all
        with pytest.raises(ValueError):
            oa.OrthArray(np.array([[1], [0]]), 2, 1)

    def test_column_codes_beyond_int64(self, wide_simple_oa):
        # 512^8 >= 2^63: columns are compared exactly, not by wrapped codes
        assert oa.is_simple(wide_simple_oa)
        assert oa.verify_oa(wide_simple_oa)
        with pytest.raises(ValueError):
            oa.column_codes(wide_simple_oa)
        dup = wide_simple_oa.entries.copy()
        dup[7, 512:] = dup[7, :512]
        assert not oa.is_simple(oa.OrthArray(dup, 512, 1))


class TestTallyProperties:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([(2, 3, 1), (2, 3, 2), (3, 2, 2), (3, 4, 2), (512, 8, 1)]),
           st.integers(1, 2),
           st.sampled_from(["balanced", "shifted", "pool", "random"]),
           st.data())
    def test_tally_and_simplicity_match_definitions(self, vkt, lam, kind, data):
        v, k, t = vkt
        n = lam * v**t
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if kind == "balanced":  # every row holds each symbol n / v times
            entries = np.stack([rng.permutation(np.arange(n) % v) for _ in range(k)])
        elif kind == "shifted":  # rows 0..n-1 mod v, last row's second half
            entries = np.tile(np.arange(n) % v, (k, 1))  # shifted by 0 or 2
            shift = data.draw(st.sampled_from([0, 2]))
            entries[-1, n // 2:] = (entries[-1, n // 2:] + shift) % v
        elif kind == "pool":  # columns drawn from three, so repeats are likely
            entries = rng.integers(0, v, (k, 3))[:, rng.integers(0, 3, n)]
        else:
            entries = rng.integers(0, v, (k, n))
        arr = oa.OrthArray(entries, v, t)
        assert oa.verify_oa(arr) == recount_oracle(arr)
        assert oa.is_simple(arr) == (len(set(map(tuple, entries.T.tolist()))) == n)


class TestLargeSet:
    def test_fixture_row_family(self, a_arrays):
        fam = oa.ArrayFamily(tuple(a_arrays[0:9]))
        assert oa.verify_large_set(fam, 2)

    def test_strength_zero_convention_rejected(self, a_arrays):
        with pytest.raises(ValueError):
            oa.verify_large_set(oa.ArrayFamily(tuple(a_arrays[0:9])), 0)

    def test_order_independent(self, a_arrays):
        members = list(a_arrays[0:9])
        members[2], members[7] = members[7], members[2]
        assert oa.verify_large_set(oa.ArrayFamily(tuple(members)), 2)

    def test_wrong_total_is_error(self, a_arrays):
        with pytest.raises(ValueError):
            oa.verify_large_set(oa.ArrayFamily(tuple(a_arrays[0:8])), 2)

    def test_covering_failure_detected(self, a_arrays):
        members = list(a_arrays[0:8]) + [a_arrays[0]]
        assert not oa.verify_large_set(oa.ArrayFamily(tuple(members)), 2)

    def test_mixed_column_counts(self):
        # v=2, k=3: two 2-column members and one 4-column member cover
        # all eight 3-tuples once; each member has strength 1
        cols = ([(0, 0, 0), (1, 1, 1)], [(0, 0, 1), (1, 1, 0)],
                [(0, 1, 0), (1, 0, 1), (0, 1, 1), (1, 0, 0)])
        members = [oa.OrthArray(np.array(c).T, 2, 1) for c in cols]
        assert oa.verify_large_set(oa.ArrayFamily(tuple(members)), 1)
        members[2] = oa.OrthArray(np.array(cols[2][:2] * 2).T, 2, 1)
        assert not oa.verify_large_set(oa.ArrayFamily(tuple(members)), 1)
        with pytest.raises(ValueError):
            oa.verify_large_set(oa.ArrayFamily(tuple(members)), 2)


class TestSdloa:
    def test_fixture_family(self, a_arrays):
        fam = oa.ArrayFamily(tuple(a_arrays[0:9]))
        assert oa.verify_sdloa(fam, 2)

    def test_all_nine_grids(self, a_arrays):
        for i in range(9):
            fam = oa.ArrayFamily(tuple(a_arrays[9 * i:9 * i + 9]))
            assert assert_paths_agree(fam, 2)

    def test_swap_keeps_large_set_breaks_diagonal(self, a_arrays):
        members = list(a_arrays[0:9])
        members[0], members[1] = members[1], members[0]
        fam = oa.ArrayFamily(tuple(members))
        assert oa.verify_large_set(fam, 2)
        assert not assert_paths_agree(fam, 2)
        # pin down that it is the diagonal selection that repeats a tuple
        d, _ = oa.diagonal_selections(fam)
        assert not oa.verify_oa(d)

    def test_orientation_symmetry(self, a_arrays):
        fam = oa.ArrayFamily(tuple(a_arrays[0:9]))
        assert oa.verify_large_set(fam, 2)
        # member j of the other orientation is column j of every member
        stack = np.stack([m.entries for m in fam.members])
        by_col = oa.ArrayFamily(tuple(
            oa.OrthArray(member, 3, 2) for member in stack.transpose(2, 1, 0)
        ))
        assert oa.verify_large_set(by_col, 2)

    def test_diagonals_tallied_at_requested_strength(self, a_arrays):
        # members declared at t=1, reordered so both diagonals have
        # strength 1 but not 2; both orientations stay large sets
        order = [7, 8, 0, 3, 1, 5, 2, 4, 6]
        fam = oa.ArrayFamily(tuple(oa.OrthArray(a_arrays[i].entries, 3, 1) for i in order))
        assert all(oa.verify_oa(d) for d in oa.diagonal_selections(fam))
        assert oa.verify_sdloa(fam, 1)
        assert not oa.verify_sdloa(fam, 2)

    def test_strength_out_of_shape_is_error(self, a_arrays):
        fam = oa.ArrayFamily(tuple(a_arrays[0:9]))  # k = 4, N = 9, v = 3
        for t in (0, 5, 3):  # t < 1, t > k, v^t does not divide N
            with pytest.raises(ValueError):
                oa.verify_sdloa(fam, t)

    def test_member_count_must_match(self, a_arrays):
        with pytest.raises(ValueError):
            oa.verify_sdloa(oa.ArrayFamily(tuple(a_arrays[0:3])), 2)


def exhaustive_large_set(fam: oa.ArrayFamily, t: int) -> bool:
    """Reference verdict: every member tallied, plus a coverage count."""
    stack = np.stack([m.entries for m in fam.members])
    codes = np.concatenate([oa.column_codes(m) for m in fam.members])
    return (oa._stack_members_ok(stack, fam.v, t)
            and bool(np.all(np.bincount(codes, minlength=fam.v**fam.k) == 1)))


def exhaustive_sdloa(fam: oa.ArrayFamily, t: int) -> bool:
    """Reference verdict: every member of both orientations tallied."""
    stack = np.stack([m.entries for m in fam.members])
    by_col = np.ascontiguousarray(stack.transpose(2, 1, 0))
    d, d_back = oa.diagonal_selections(fam)
    return (exhaustive_large_set(fam, t)
            and oa._stack_members_ok(by_col, fam.v, t)
            and oa.verify_oa(d) and oa.verify_oa(d_back))


def assert_paths_agree(fam: oa.ArrayFamily, t: int) -> bool:
    """The member pass with its fallback tally, the oracle's numpy pass and
    the exhaustive tally agree per orientation, and verify_sdloa agrees
    with the reference; returns the verdict."""
    stack = np.stack([m.entries for m in fam.members])
    for members in (stack, stack.transpose(2, 1, 0)):
        assert (kernel_members_ok(members, fam.v, t)
                == oa_oracle._relabelled_members_ok(members, fam.v, t)
                == oa._stack_members_ok(np.ascontiguousarray(members), fam.v, t))
    verdict = oa.verify_sdloa(fam, t)
    assert verdict == exhaustive_sdloa(fam, t)
    return verdict


def with_member(fam: oa.ArrayFamily, s: int, entries: np.ndarray) -> oa.ArrayFamily:
    members = list(fam.members)
    members[s] = oa.OrthArray(entries, fam.v, members[s].t)
    return oa.ArrayFamily(tuple(members))


@lru_cache(maxsize=None)
def grid_of(q: int, t: int) -> construct.SdloaGrid:
    table = gf.build_field_q(q)
    cert = construct.registered_pair(table, t) or linalg.find_sdloa_pair(table, t)
    return construct.build_sdloa_grid(cert)


def built_grid(q: int, t: int) -> oa.ArrayFamily:
    return rows_family(grid_of(q, t))


class TestSdloaShortcut:
    """verify_sdloa proves members from member 0 by relabelling; its
    verdict must equal the exhaustive tally of every member."""

    @pytest.mark.parametrize("q,t", [(3, 2), (5, 2), (7, 3)])
    def test_built_grids(self, q, t):
        fam = built_grid(q, t)
        stack = np.stack([m.entries for m in fam.members])
        # translated members are all relabellings: no member falls back
        assert kernel_rows(stack, q).all()
        assert oa_oracle._relabelled(stack, stack[0]).all()
        assert assert_paths_agree(fam, t)

    def test_random_row_bijection_is_relabelling(self):
        fam = built_grid(5, 2)
        rng = np.random.default_rng(3)
        s = 7
        entries = fam.members[s].entries.copy()
        for row in entries:
            row[:] = rng.permutation(fam.v)[row]
        fam = with_member(fam, s, entries)
        stack = np.stack([m.entries for m in fam.members])
        assert relabelled(stack, s, fam.v)
        assert oa._stack_members_ok(stack[s:s + 1], fam.v, 2)
        assert_paths_agree(fam, 2)

    def test_row_swap_falls_back(self):
        fam = built_grid(5, 2)
        s = 4
        entries = fam.members[s].entries.copy()
        row = entries[1]
        j = int(np.flatnonzero(row != row[0])[0])
        row[0], row[j] = row[j], row[0]
        fam = with_member(fam, s, entries)
        stack = np.stack([m.entries for m in fam.members])
        assert not relabelled(stack, s, fam.v)
        assert not assert_paths_agree(fam, 2)

    def test_column_permutation_falls_back_to_true_member(self):
        # a column permutation keeps the member a simple OA but is not a
        # relabelling, so the row pass must tally it and accept it
        fam = built_grid(5, 2)
        s = 9
        cols = np.random.default_rng(1).permutation(fam.members[s].n_cols)
        entries = fam.members[s].entries[:, cols]
        fam = with_member(fam, s, entries)
        stack = np.stack([m.entries for m in fam.members])
        assert not relabelled(stack, s, fam.v)
        assert kernel_members_ok(stack, fam.v, 2)
        assert_paths_agree(fam, 2)

    def test_cms_cross_member_families_are_relabellings(self, f5):
        # the family of row x (and column y) of every member of a built
        # family is a large set; its members are translates of member 0,
        # so the relabelling pass proves all of them
        cms = construct.build_cms(linalg.find_cms_pair(f5, 2))
        digits = 5 ** np.arange(4)[:, None]
        squares = np.stack([m.normalized() for m in cms.members])
        for lines in (squares.transpose(1, 0, 2), squares.transpose(2, 0, 1)):
            for line in lines:  # (members, N): line x of every square
                stack = line[:, None, :] // digits % 5
                assert kernel_rows(stack, 5).all()
                assert oa_oracle._relabelled(stack, stack[0]).all()
                fam = oa.ArrayFamily(tuple(oa.OrthArray(m, 5, 2) for m in stack))
                assert oa.verify_large_set(fam, 2) and exhaustive_large_set(fam, 2)

    def test_in_row_cell_swap_is_caught_by_columns(self):
        # two cells of one row swapped off both diagonals: every row member
        # keeps its columns, so coverage and the diagonals hold, and only
        # the column orientation rejects the family
        fam = built_grid(5, 2)
        entries = fam.members[3].entries.copy()
        entries[:, [0, 1]] = entries[:, [1, 0]]
        fam = with_member(fam, 3, entries)
        assert oa.verify_large_set(fam, 2)
        d, d_back = oa.diagonal_selections(fam)
        assert oa.verify_oa(d) and oa.verify_oa(d_back)
        assert not assert_paths_agree(fam, 2)

    def test_corrupted_member_zero(self, a_arrays):
        fam = oa.ArrayFamily(tuple(a_arrays[0:9]))
        bad = fam.members[0].entries.copy()
        bad[0, 0] = (bad[0, 0] + 1) % 3
        assert not assert_paths_agree(with_member(fam, 0, bad), 2)
        grid = built_grid(5, 2)
        bad = grid.members[0].entries.copy()
        bad[2, 3] = (bad[2, 3] + 1) % 5
        assert not assert_paths_agree(with_member(grid, 0, bad), 2)

    @pytest.mark.parametrize("q", [3, 5])
    def test_random_corruptions(self, q):
        # one random member rewritten per trial: one row relabelled, two
        # row entries swapped, columns permuted, one entry changed, one
        # row mapped through a random (mostly non-injective) symbol map, or
        # one column exchanged with another member's (coverage kept)
        grid = built_grid(q, 2)
        n = grid.members[0].n_cols
        rng = np.random.default_rng(q)
        rows_ok = Counter()
        for trial in range(90):
            s = int(rng.integers(n))
            entries = grid.members[s].entries.copy()
            kind = trial % 6
            i = int(rng.integers(entries.shape[0]))
            if kind == 0:
                entries[i] = rng.permutation(q)[entries[i]]
            elif kind == 1:
                a, b = rng.choice(entries.shape[1], 2, replace=False)
                entries[i, [a, b]] = entries[i, [b, a]]
            elif kind == 2:
                entries = entries[:, rng.permutation(entries.shape[1])]
            elif kind == 3:
                entries[i, int(rng.integers(entries.shape[1]))] = rng.integers(q)
            elif kind == 4:
                entries[i] = rng.integers(q, size=q)[entries[i]]
            else:
                s2 = (s + 1 + int(rng.integers(n - 1))) % n
                other = grid.members[s2].entries.copy()
                a, b = rng.integers(n, size=2)
                entries[:, a], other[:, b] = other[:, b].copy(), entries[:, a].copy()
            fam = with_member(grid, s, entries)
            if kind == 5:
                fam = with_member(fam, s2, other)
            stack = np.stack([m.entries for m in fam.members])
            rows_ok[kind, kernel_members_ok(stack, q, 2)] += 1
            assert_paths_agree(fam, 2)
            assert oa.verify_large_set(fam, 2) == exhaustive_large_set(fam, 2)
        # relabelled and column-permuted members pass the row pass,
        # broken ones fail it: both outcomes of the fallback are exercised
        assert rows_ok[0, True] and rows_ok[2, True]
        assert rows_ok[3, False] and rows_ok[4, False]


def reference_parts(cells: np.ndarray, v: int, t: int) -> dict:
    """Exhaustive reference on an (N, N, k) cell grid, part by part: every
    member of both orientations tallied, coverage by bincount, and both
    diagonals gathered cell by cell."""
    n, _, k = cells.shape
    codes = (cells.astype(np.int64) * v ** np.arange(k)).sum(axis=2).ravel()
    diag = np.stack([cells[j, j] for j in range(n)], axis=1)
    back = np.stack([cells[j, n - 1 - j] for j in range(n)], axis=1)
    return {
        "rows": oa._stack_members_ok(np.ascontiguousarray(cells.transpose(0, 2, 1)), v, t),
        "cols": oa._stack_members_ok(np.ascontiguousarray(cells.transpose(1, 2, 0)), v, t),
        "cover": bool(np.all(np.bincount(codes, minlength=v**k) == 1)),
        "diag": oa._strength_ok(diag[None], v, t),
        "back": oa._strength_ok(back[None], v, t),
    }


# Grid rows reordered by X -> A X: both orientations and the main diagonal
# stay intact, only the back diagonal breaks (A found by search; the
# test pins that effect)
BACK_ONLY = {(5, 2): ((2, 2), (3, 4)), (5, 3): ((0, 0, 1), (2, 2, 2), (0, 3, 1))}


def corrupted(q: int, t: int, kind: str) -> np.ndarray:
    """The cells of grid (q, t) with member j = 1 (grid row 1) corrupted."""
    cells = grid_of(q, t).cells.copy()
    n, j = cells.shape[0], 1
    if kind == "cell_swap":  # two cells of row j, off both diagonals
        a, b = [c for c in range(n) if c not in (j, n - 1 - j)][:2]
        cells[j, [a, b]] = cells[j, [b, a]]
    elif kind == "component_shift":  # component 0 of half the row only
        cells[j, :n // 2, 0] = (cells[j, :n // 2, 0] + 1) % q
    elif kind == "broken_diagonal":  # the row's two diagonal cells swapped
        cells[j, [j, n - 1 - j]] = cells[j, [n - 1 - j, j]]
    elif kind == "row_exchange":
        # one OA row (a cell component) exchanged between members j and
        # j + 1: each stays an OA, as a relabelling, but coverage breaks
        i = int(np.flatnonzero(cells[j, 0] != cells[j + 1, 0])[0])
        cells[[j, j + 1], :, i] = cells[[j + 1, j], :, i]
    elif kind == "member_order":
        img = construct._all_products(gf.build_field_q(q), np.array(BACK_ONLY[q, t]))
        order = img.astype(np.int64) @ q ** np.arange(t - 1, -1, -1)
        assert np.unique(order).size == n
        cells = cells[order]
    return cells


# what each corruption breaks, by the reference
BROKEN = {
    None: [],
    "cell_swap": ["cols"],
    "component_shift": ["cols", "cover", "diag", "rows"],
    "broken_diagonal": ["back", "cols", "diag"],
    "row_exchange": ["back", "cols", "cover", "diag"],
    "member_order": ["back"],
}
CASES = [(q, t, kind) for q, t in [(3, 2), (5, 2), (5, 3)] for kind in BROKEN
         if kind != "member_order" or (q, t) in BACK_ONLY]


class TestArrayEntryPoints:
    """_sdloa_ok on the cell view, verify_sdloa on the row family and the
    exhaustive reference agree on built grids and corrupted ones."""

    @pytest.mark.parametrize("q,t,kind", CASES)
    def test_paths_agree(self, q, t, kind):
        cells = grid_of(q, t).cells if kind is None else corrupted(q, t, kind)
        parts = reference_parts(cells, q, t)
        assert sorted(p for p, ok in parts.items() if not ok) == BROKEN[kind]
        verdict = all(parts.values())
        assert oa._sdloa_ok(by_row(cells), q, t) == verdict
        fam = cells_family(cells, q, t)
        assert oa.verify_sdloa(fam, t) == verdict
        # the large-set entry point alone, on the row orientation
        row_ls = parts["rows"] and parts["cover"]
        assert oa._large_set_ok([by_row(cells)], q, t)[0] == row_ls
        assert oa.verify_large_set(fam, t) == row_ls == exhaustive_large_set(fam, t)

    @pytest.mark.parametrize("q,t,kind", CASES)
    def test_pool_sizes_agree(self, q, t, kind, pool_size, monkeypatch):
        cells = grid_of(q, t).cells if kind is None else corrupted(q, t, kind)
        fam = cells_family(cells, q, t)
        verdict = not BROKEN[kind]
        row_ls = not {"rows", "cover"} & set(BROKEN[kind])
        n, _, k = cells.shape
        for size in (1, 2, 3):
            pool_size(size)
            # two slabs per block, so every pool splits the member pass
            monkeypatch.setattr(oa, "_CODE_ENTRIES", 2 * size * k * n)
            assert oa._sdloa_ok(by_row(cells), q, t) == verdict, size
            assert oa.verify_sdloa(fam, t) == verdict, size
            assert oa._large_set_ok([by_row(cells)], q, t)[0] == row_ls, size

    def test_row_exchange_passes_the_member_pass(self):
        # so only the coverage seen-map can reject the row large set
        cells = corrupted(5, 3, "row_exchange")
        assert kernel_rows(cells.transpose(0, 2, 1), 5).all()
        assert kernel_members_ok(cells.transpose(0, 2, 1), 5, 3)
        assert not oa._large_set_ok([by_row(cells)], 5, 3)[0]


class TestFixtureProperties:
    """Cross-member families drawn from the frozen 81-array grid."""

    def test_fixed_k_families_are_large_sets(self, a_arrays):
        stack = np.stack([m.entries for m in a_arrays]).reshape(9, 9, 4, 9)
        for k in range(9):
            fam = oa.ArrayFamily(tuple(
                oa.OrthArray(stack[i][k], 3, 2) for i in range(9)
            ))
            assert oa.verify_large_set(fam, 2)

    def test_fixed_l_column_families_are_large_sets(self, a_arrays):
        stack = np.stack([m.entries for m in a_arrays]).reshape(9, 9, 4, 9)
        for l in range(9):
            fam = oa.ArrayFamily(tuple(
                oa.OrthArray(
                    np.stack([stack[i][k][:, l] for k in range(9)], axis=1), 3, 2)
                for i in range(9)
            ))
            assert oa.verify_large_set(fam, 2)

    def test_diagonal_families_repeat_threefold(self, a_arrays):
        # The diagonal selections across the nine grids do NOT form large
        # sets: each covered tuple appears exactly three times.  The
        # family power-sum targets still hold (checked in test_construct),
        # so the complementary property survives without exact coverage.
        stack = np.stack([m.entries for m in a_arrays]).reshape(9, 9, 4, 9)
        for pick in (lambda i, k: stack[i][k][:, k],
                     lambda i, k: stack[i][k][:, 8 - k]):
            fam = oa.ArrayFamily(tuple(
                oa.OrthArray(np.stack([pick(i, k) for k in range(9)], axis=1), 3, 2)
                for i in range(9)
            ))
            assert not oa.verify_large_set(fam, 2)
            codes = np.concatenate([oa.column_codes(m) for m in fam.members])
            counts = np.bincount(codes, minlength=81)
            assert set(counts.tolist()) == {0, 3}


class TestTypes:
    def test_entries_out_of_range(self):
        with pytest.raises(ValueError):
            oa.OrthArray(np.array([[3]]), 3, 1)

    def test_bad_column_count(self):
        with pytest.raises(ValueError):
            oa.OrthArray(np.zeros((2, 5), dtype=int), 2, 2)

    def test_empty_family(self):
        with pytest.raises(ValueError):
            oa.ArrayFamily(())

    def test_shape_disagreement(self, a_arrays):
        other = oa.OrthArray(np.zeros((3, 9), dtype=int), 3, 2)
        with pytest.raises(ValueError):
            oa.ArrayFamily((a_arrays[0], other))
