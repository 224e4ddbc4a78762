"""The compiled member pass against the numpy oracle (tests/oa_oracle.py):
column codes, coverage bit map marks, and the masks of members and column
slabs proved relabellings, on built grids, file families and corrupted stacks,
at pool sizes 1-3 and blocks down to one member; the verdicts of the
checks built on it; and the structural proof that spares built grids the
pass."""

from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multimagic import _pool, cli, construct, gf, io, linalg, oa, verify

import oa_oracle
from conftest import GOLDEN_LOA
from test_oa import BACK_ONLY

GRIDS = [(3, 2), (4, 2), (5, 2), (5, 3)]


@lru_cache(maxsize=None)
def grid_cells(q: int, t: int) -> np.ndarray:
    table = gf.build_field_q(q)
    cert = construct.registered_pair(table, t) or linalg.find_sdloa_pair(table, t)
    return construct.build_sdloa_grid(cert).cells


def grid_stack(q: int, t: int) -> np.ndarray:
    """A writable copy of the grid's row orientation, as the strided view
    the grid check reads: member r is grid row r."""
    return grid_cells(q, t).copy().transpose(0, 2, 1)


@lru_cache(maxsize=None)
def file_stacks() -> dict:
    """np.stacked families read from the frozen 81-array file (int64)."""
    arrays = np.stack([m.entries for m in io.read_oa_family(GOLDEN_LOA).members])
    grid = arrays.reshape(9, 9, 4, 9)
    return {"members 0-8": arrays[:9],
            "fixed k=4": grid[:, 4],
            "fixed l=2": np.stack([grid[i, :, :, 2].T for i in range(9)])}


def new_bits(v: int, k: int) -> np.ndarray:
    """An empty v^k-bit coverage map."""
    return np.zeros((v**k + 7) // 8, dtype=np.uint8)


def pass_with_bits(source, v: int):
    """Codes, member mask, column-slab mask and coverage bit map of one
    pass over a _HeldStack or _GridStack; the pass's count of fresh marks
    is checked against the bits it set."""
    bits = new_bits(v, source.shape[1])
    codes, rows, cols, marked = oa._member_pass(source, v, bits, columns=True, codes=True)
    assert marked == int(np.unpackbits(bits).sum())
    return codes, rows, cols, bits


def kernel(stack: np.ndarray, v: int):
    """Codes, member mask, column-slab mask and bit map of one pass."""
    return pass_with_bits(oa._HeldStack(stack), v)


def oracle(stack: np.ndarray, v: int):
    """The same four from the oracle's numpy pass.  A member or slab with a
    symbol outside 0..v-1 is never proved, and no slab is when slab 0
    holds one; only columns within 0..v-1 are marked, and the code of a
    column outside is -1."""
    inside = (stack >= 0) & (stack < v)
    by_col = stack.transpose(2, 1, 0)
    rows = oa_oracle._relabelled(stack, stack[0]) & inside.all(axis=(1, 2))
    cols = oa_oracle._relabelled(by_col, by_col[0]) & inside.all(axis=(0, 1))
    rows &= bool(inside[0].all())
    cols &= bool(inside[:, :, 0].all())
    codes = np.where(inside.all(axis=1), oa_oracle._column_codes(stack, v), -1)
    seen = np.zeros(v ** stack.shape[1], dtype=np.uint8)
    seen[codes[codes >= 0]] = 1
    return codes, rows, cols, np.packbits(seen, bitorder="little")


def assert_pass_matches(stack: np.ndarray, v: int) -> None:
    got, want = kernel(stack, v), oracle(stack, v)
    for name, a, b in zip(("codes", "rows", "cols", "bits"), got, want):
        assert np.array_equal(a, b), name


def pool_configs(count: int):
    """(pool size, members per block) down to one member a block."""
    return [(size, rows) for size in (1, 2, 3) for rows in sorted({1, 2, count})]


def with_blocks(monkeypatch, pool_size, stack, size, rows):
    pool_size(size)
    monkeypatch.setattr(oa, "_CODE_ENTRIES", rows * size * stack.shape[1] * stack.shape[2])


def corrupt(stack: np.ndarray, kind: str, v: int, late: bool) -> np.ndarray:
    """One corruption of an (N, k, N) stack, at member s = 2 and column
    j = 3, or late, at s = N - 2 and j = N - 4: early entries hold first
    occurrences, from which the images are read, and late ones are only
    compared with them.  Columns j and j + 1 of member s are off both
    diagonals."""
    n = stack.shape[0]
    s, j, i = (n - 2, n - 4, 1) if late else (2, 3, 1)
    out = stack.copy()
    if kind == "member 0":
        out[0, i, j] = (out[0, i, j] + 1) % v
    elif kind == "column slab 0":
        out[s, i, 0] = (out[s, i, 0] + 1) % v
    elif kind == "other member":
        out[s, i, j] = (out[s, i, j] + 1) % v
    elif kind == "diagonal cell":
        out[s, i, s] = (out[s, i, s] + 1) % v
    elif kind == "columns swapped":
        out[s, :, [j, j + 1]] = out[s, :, [j + 1, j]]
    elif kind == "member duplicated":
        out[s] = out[s + 1]
    elif kind == "symbols merged":  # a consistent but not injective relabelling
        out[s, i] = np.where(out[s, i] == 1, 0, out[s, i])
    elif kind == "symbol v":
        out[s, i, j] = v
    return out


KINDS = [None, "member 0", "column slab 0", "other member", "diagonal cell",
         "columns swapped", "member duplicated", "symbols merged", "symbol v"]


class TestKernelMatchesOracle:
    @pytest.mark.parametrize("q,t", GRIDS)
    def test_grids(self, q, t):
        stack = grid_stack(q, t)
        assert_pass_matches(stack, q)
        codes, rows, cols, bits = kernel(stack, q)
        assert rows.all() and cols.all() and np.unpackbits(bits).sum() == q ** (2 * t)

    @pytest.mark.parametrize("name", ["members 0-8", "fixed k=4", "fixed l=2"])
    def test_file_families(self, name):
        stack = file_stacks()[name]
        assert stack.dtype == np.int64
        assert_pass_matches(stack, 3)

    @pytest.mark.parametrize("dtype", [np.int16, np.int64, np.int32, np.uint8, ">i2"])
    def test_entry_types(self, dtype):
        # int64 is read in place, others converted once
        stack = grid_stack(5, 2)
        want = kernel(stack, 5)
        for a, b in zip(kernel(stack.astype(dtype), 5), want):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("late", [False, True])
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("q,t", [(5, 2), (5, 3)])
    def test_corruptions(self, q, t, kind, late, pool_size, monkeypatch):
        stack = grid_stack(q, t)
        if kind is not None:
            stack = corrupt(stack, kind, q, late)
        want = oracle(stack, q)
        for size, rows in pool_configs(stack.shape[0]):
            with_blocks(monkeypatch, pool_size, stack, size, rows)
            for name, a, b in zip(("codes", "rows", "cols", "bits"), kernel(stack, q), want):
                assert np.array_equal(a, b), (name, size, rows)


class TestVerdicts:
    """The checks built on the kernel give the oracle's verdicts."""

    @pytest.mark.parametrize("late", [False, True])
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("q,t", GRIDS)
    def test_grid_verdicts(self, q, t, kind, late, pool_size, monkeypatch):
        stack = grid_stack(q, t)
        if kind is not None:
            stack = corrupt(stack, kind, q, late)
        want_ls = oa_oracle._large_set_ok([stack], q, t)
        want_sd = oa_oracle._sdloa_ok(stack, q, t)
        assert want_sd == (kind is None)
        fam = None
        if kind != "symbol v":
            fam = oa.ArrayFamily(tuple(oa.OrthArray(m, q, t) for m in stack))
        for size, rows in pool_configs(stack.shape[0]):
            with_blocks(monkeypatch, pool_size, stack, size, rows)
            ok, [cols] = oa._large_set_ok([oa._HeldStack(stack)], q, t)
            assert ok == want_ls and cols is None
            assert oa._sdloa_ok(oa._HeldStack(stack), q, t) == want_sd
            if fam is not None:
                assert oa.verify_large_set(fam, t) == want_ls
                assert oa.verify_sdloa(fam, t) == want_sd

    @pytest.mark.parametrize("name", ["members 0-8", "fixed k=4", "fixed l=2"])
    def test_file_family_verdicts(self, name):
        stack = file_stacks()[name]
        for t in (1, 2):
            assert oa._large_set_ok([oa._HeldStack(stack)], 3, t)[0] == oa_oracle._large_set_ok([stack], 3, t)
            assert oa._sdloa_ok(oa._HeldStack(stack), 3, t) == oa_oracle._sdloa_ok(stack, 3, t)


class TestOutOfRange:
    """A symbol outside 0..v-1 is never used as a table index: its member
    and column slab stay unproved, its column's code is -1 and is not
    marked, and the member goes to the exhaustive tally."""

    @pytest.mark.parametrize("value", [-1, 5, 6, 32767, -32768])
    @pytest.mark.parametrize("where", [(0, 1, 3), (2, 1, 0), (2, 1, 3), (0, 0, 0)])
    @pytest.mark.parametrize("wide", [False, True])
    def test_symbol_outside(self, value, where, wide):
        stack = grid_stack(5, 2)
        if wide:
            stack = stack.astype(np.int64)
            value *= 2**47  # far outside any table
        stack[where] = value
        s, _, j = where
        codes, rows, cols, bits = kernel(stack, 5)
        assert not rows[s] and not cols[j]
        if s == 0:  # member 0 is the reference: nothing is proved
            assert not rows.any()
        if j == 0:  # so is column slab 0
            assert not cols.any()
        want = oa_oracle._column_codes(stack, 5)
        assert codes[s, j] == -1
        codes[s, j] = want[s, j]
        assert np.array_equal(codes, want)
        # every column but the corrupted one
        assert np.unpackbits(bits).sum() == 5**4 - 1

    def test_unproved_member_is_tallied(self, monkeypatch):
        stack = corrupt(grid_stack(5, 2), "symbol v", 5, late=True)
        tallied = []
        real = oa._stack_members_ok

        def record(members, v, t):
            tallied.extend(np.asarray(members).tolist())
            return real(members, v, t)

        monkeypatch.setattr(oa, "_stack_members_ok", record)
        assert not oa._large_set_ok([oa._HeldStack(stack)], 5, 2)[0]
        assert stack[-2].tolist() in tallied


class TestProperty:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 4), st.integers(1, 3), st.integers(1, 6), st.integers(1, 8),
           st.integers(0, 4), st.integers(1, 3), st.data())
    def test_random_stacks(self, v, k, count, n, faults, size, data):
        """Additive stacks x(m, i, j) = r[m, i] + s[i, j] mod v, in which
        every member and every column slab is a relabelling, with a few
        entries rewritten, some outside 0..v-1; any pool and block size."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        stack = (rng.integers(v, size=(count, k, 1)) + rng.integers(v, size=(1, k, n))) % v
        if data.draw(st.booleans()):  # member 0's rows need not be balanced
            stack[0] = rng.integers(v, size=(k, n))
        for _ in range(faults):
            at = tuple(int(rng.integers(d)) for d in stack.shape)
            stack[at] = rng.integers(-1, v + 1)
        stack = stack.astype(data.draw(st.sampled_from([np.int16, np.int64, np.int32])))
        rows = data.draw(st.integers(1, count))
        before = _pool.size()
        try:
            _pool.set_size(size)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(oa, "_CODE_ENTRIES", rows * size * k * n)
                assert_pass_matches(stack, v)
                in_range = bool(((stack >= 0) & (stack < v)).all())
                if in_range and count * n == v**k and n % v == 0:
                    assert (oa._large_set_ok([oa._HeldStack(stack)], v, 1)[0]
                            == oa_oracle._large_set_ok([stack], v, 1))
                    if count == n:
                        assert oa._sdloa_ok(oa._HeldStack(stack), v, 1) == oa_oracle._sdloa_ok(stack, v, 1)
        finally:
            _pool.set_size(before)


# ---------------------------------------------------------------------------
# The grid check without held cells: a _GridStack, gathered whole only
# for the member pass
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def grid_source(q: int, t: int) -> oa._GridStack:
    table = gf.build_field_q(q)
    cert = construct.registered_pair(table, t) or linalg.find_sdloa_pair(table, t)
    return construct._grid_stack(cert)


def gathered(grid: oa._GridStack) -> np.ndarray:
    """A grid stack's entries gathered whole by numpy, as the (N, k, N)
    view of an (N, N, k) array: the held stack of the same grid."""
    return grid.table[grid.a[:, None, :] + grid.b[None, :, :]].transpose(0, 2, 1)


def square_consecutive(grid: oa._GridStack, t: int) -> bool:
    """The consecutive-entry check of the grid's square, the coverage of
    a grid whose table proves it, read through a row source of the
    stack's codes, so that a corrupted stack can be checked."""
    sq = SimpleNamespace(n=grid.shape[0], t=t, base=0, rows=grid.codes)
    return verify.verify_ms(sq, t).consecutive_ok


def assert_grid_agrees(grid: oa._GridStack, v: int, t: int, pool_size, monkeypatch):
    """The grid stack and the held stack of the same entries give the
    oracle's codes, masks and bit map and, if every entry lies in 0..v-1
    (the oracle's checks need it), its verdicts, at pool sizes 1-3 and
    blocks of one member up to all members; a grid whose table proves it
    gives the SDLOA verdict with its square's consecutive-entry check.
    The grid's square, filled by grid_rows, holds the oracle's Horner
    codes, whatever the symbols.  Returns the SDLOA verdict, None if not
    checked."""
    stack = gathered(grid)
    want_pass = oracle(stack, v)
    horner = oa_oracle._column_codes(stack, v)
    n = grid.shape[0]
    assert np.array_equal(grid.codes(0, n), horner)
    for r0, r1 in ((0, 0), (n - 1, n), (1, n - 1), (n // 3, n // 2 + 1)):
        assert np.array_equal(grid.codes(r0, r1), horner[r0:r1]), (r0, r1)
    want_sd = None
    if ((stack >= 0) & (stack < v)).all():
        want_ls = oa_oracle._large_set_ok([stack], v, t)
        want_sd = oa_oracle._sdloa_ok(stack, v, t)
    for size, rows in pool_configs(grid.shape[0]):
        with_blocks(monkeypatch, pool_size, stack, size, rows)
        for source in (grid, oa._HeldStack(stack)):
            got = pass_with_bits(source, v)
            for name, a, b in zip(("codes", "rows", "cols", "bits"), got, want_pass):
                assert np.array_equal(a, b), (name, size, rows, type(source))
            if want_sd is None:
                continue
            assert oa._large_set_ok([source], v, t)[0] == want_ls
            got_sd = oa._sdloa_ok(source, v, t)
            if isinstance(source, oa._GridStack) and source.relabels(v):
                got_sd = got_sd and square_consecutive(source, t)
            assert got_sd == want_sd, (size, rows, type(source))
    return want_sd


def corrupt_grid(grid: oa._GridStack, kind: str, q: int, late: bool) -> oa._GridStack:
    """One corruption of a grid's E1 X or E2 Y rows, at grid row or column
    s = 2, or late, at s = N - 2, in a block without member 0 whenever a
    block holds fewer than N - 2 members.  Entries stay field labels."""
    n = grid.shape[0]
    s, i = (n - 2, 1) if late else (2, 1)
    a, b = grid.a.copy(), grid.b.copy()
    if kind == "E1X row duplicated":  # grid row s repeats row s + 1
        a[s] = a[s + 1]
    elif kind == "E1X component":  # one component of grid row s shifted
        a[s, i] = (a[s, i] + q) % (q * q)
    elif kind == "member 0":
        a[0, i] = (a[0, i] + q) % (q * q)
    elif kind == "column slab 0":  # one component of grid column 0
        b[0, i] = (b[0, i] + 1) % q
    elif kind == "E2Y column":
        b[s, i] = (b[s, i] + 1) % q
    elif kind == "E1X rows reordered":  # X -> A X: only the back diagonal breaks
        img = construct._all_products(gf.build_field_q(q), np.array(BACK_ONLY[q, a.shape[1] // 2]))
        a = a[img.astype(np.int64) @ q ** np.arange(img.shape[1] - 1, -1, -1)]
    return oa._GridStack(grid.table, a, b)


GRID_KINDS = ["E1X row duplicated", "E1X component", "member 0", "column slab 0",
              "E2Y column", "E1X rows reordered"]
# the reordering is pinned for (5, 2) and (5, 3), and has no late place
GRID_CASES = [(q, t, kind, late) for q, t in [(3, 2), (5, 2), (5, 3)] for kind in GRID_KINDS
              for late in (False, True)
              if kind != "E1X rows reordered" or ((q, t) in BACK_ONLY and not late)]


class TestGridStack:
    @pytest.mark.parametrize("q,t", GRIDS + [(7, 3)])
    def test_built_grids(self, q, t, pool_size, monkeypatch):
        grid = grid_source(q, t)
        assert assert_grid_agrees(grid, q, t, pool_size, monkeypatch)
        codes, rows, cols, bits = pass_with_bits(grid, q)
        assert rows.all() and cols.all() and np.unpackbits(bits).sum() == q ** (2 * t)

    @pytest.mark.parametrize("q,t,kind,late", GRID_CASES)
    def test_corrupted_grids(self, q, t, kind, late, pool_size, monkeypatch):
        grid = corrupt_grid(grid_source(q, t), kind, q, late)
        verdict = assert_grid_agrees(grid, q, t, pool_size, monkeypatch)
        if kind in ("E1X row duplicated", "E1X component", "member 0",
                    "E1X rows reordered"):
            # two grid rows share a cell, so the cells cover less than v^k;
            # or the back diagonal is not of strength t
            assert verdict is False

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([(3, 2), (4, 2), (5, 2)]), st.integers(1, 3), st.data())
    def test_random_tables(self, qt, faults, data):
        """A grid's sums read through a table with a few entries rewritten,
        v among them: members and slabs fall out of the relabelling proof,
        and those are gathered by index for the tally."""
        q, t = qt
        grid = grid_source(q, t)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        table = grid.table.copy()
        for _ in range(faults):
            table[int(rng.integers(table.size))] = rng.integers(q + 1)
        before = _pool.size()
        try:
            with pytest.MonkeyPatch.context() as mp:
                assert_grid_agrees(oa._GridStack(table, grid.a, grid.b), q, t,
                                   _pool.set_size, mp)
        finally:
            _pool.set_size(before)

    def test_unproved_members_are_gathered_for_the_tally(self, monkeypatch):
        # table entry 7 is 1 + 2 in GF(5): rewriting it merges two symbols
        # in every member row that adds 1, so those members are unproved
        grid = grid_source(5, 2)
        table = grid.table.copy()
        table[7] = (table[7] + 1) % 5
        source = oa._GridStack(table, grid.a, grid.b)
        stack = gathered(source)
        unproved = np.flatnonzero(~oracle(stack, 5)[1][1:]) + 1
        assert 0 < unproved.size < 24
        tallied = []
        real = oa._stack_members_ok

        def record(members, v, t):
            tallied.extend(np.asarray(members).tolist())
            return real(members, v, t)

        monkeypatch.setattr(oa, "_stack_members_ok", record)
        oa._large_set_ok([source], 5, 2)
        assert tallied == stack[np.r_[0, unproved]].tolist()

    def test_sums_outside_the_table(self):
        grid = grid_source(3, 2)
        with pytest.raises(ValueError, match="outside the table"):
            oa._GridStack(grid.table, grid.a + 1, grid.b)
        with pytest.raises(ValueError, match="outside the table"):
            oa._GridStack(grid.table, grid.a, grid.b - 1)
        with pytest.raises(ValueError, match="k sums each"):
            oa._GridStack(grid.table, grid.a, grid.b[:, :3])

    def test_cells_are_the_whole_gather(self):
        grid = construct.build_sdloa_grid(construct.registered_pair(gf.build_field_q(3), 2))
        cells = grid.cells
        assert cells.shape == (9, 9, 4) and cells.dtype == np.int16
        assert np.array_equal(cells, gathered(grid_source(3, 2)).transpose(0, 2, 1))
        assert np.array_equal((cells.astype(np.int64) * 3 ** np.arange(4)).sum(axis=2),
                              grid.entries)


# ---------------------------------------------------------------------------
# The structural proof of a grid: a Latin table, row starts and columns
# ---------------------------------------------------------------------------

class MembersSpy:
    """The compiled library with its member kernel counted."""

    def __init__(self, lib):
        self.lib = lib
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.lib, name)

    def members(self, *args):
        self.calls += 1
        return self.lib.members(*args)


def spy_members(monkeypatch) -> MembersSpy:
    spy = MembersSpy(oa._lib)
    monkeypatch.setattr(oa, "_lib", spy)
    return spy


def latin_grid(grid: oa._GridStack, kind: str, q: int) -> oa._GridStack:
    """The grid's sums read through a Latin table that is not a field's:
    the addition table with its symbols permuted, or with its rows and
    columns permuted; the grid's a and b are kept."""
    rng = np.random.default_rng(5)
    square = grid.table.reshape(q, q)
    if kind == "symbols permuted":
        square = rng.permutation(q)[square]
    else:
        square = square[rng.permutation(q)][:, rng.permutation(q)]
    return oa._GridStack(square.ravel(), grid.a, grid.b)


def broken_grid(grid: oa._GridStack, kind: str, q: int) -> oa._GridStack:
    """A grid that the structure does not prove: a table with two entries
    of one column swapped (two rows not permutations, every column one),
    or of one row swapped (two columns not permutations, every row one),
    or one entry of a that is not a row start, moved one table entry on
    within its row.  Every entry stays in 0..q-1."""
    table, a = grid.table.copy().reshape(q, q), grid.a.copy()
    if kind == "row not a permutation":
        table[[0, 1], 2] = table[[1, 0], 2]
    elif kind == "column not a permutation":
        table[1, [0, 2]] = table[1, [2, 0]]
    else:  # "a not a row start": in a row below the last, so within the table
        s, i = np.argwhere(a < q * (q - 1))[len(a) // 2]
        a[s, i] += 1
    return oa._GridStack(table.ravel(), a, grid.b)


class TestStructuralProof:
    @pytest.mark.parametrize("q,t", [(3, 2), (5, 2), (5, 3), (7, 3)])
    def test_built_grids_run_no_member_pass(self, q, t, pool_size, monkeypatch):
        grid = grid_source(q, t)
        assert grid.relabels(q)
        assert not grid.relabels(q + 1) and not grid.T.relabels(q)
        for size in (1, 2, 3):
            pool_size(size)
            spy = spy_members(monkeypatch)
            assert oa._sdloa_ok(grid, q, t)
            assert spy.calls == 0, size

    @pytest.mark.parametrize("q,t", [(5, 2), (5, 3), (7, 3)])
    def test_coverage_is_left_to_the_square(self, q, t, pool_size, monkeypatch, tmp_path):
        """A grid with E2 = 2 E1: every member, slab and diagonal selection
        is an OA of strength t, but every grid row holds the same cells,
        in another order.  The grid check passes it, its square's entries
        are not consecutive, and build_sdloa_grid and gen-ms refuse it."""
        grid = grid_source(q, t)
        digits = construct._digit_matrix(q, t)
        doubled = (2 * digits % q) @ q ** np.arange(t - 1, -1, -1)  # the index of 2 Y
        twice = oa._GridStack(grid.table, grid.a, grid.a[doubled] // q)
        assert twice.relabels(q)
        assert not oa_oracle._sdloa_ok(gathered(twice), q, t)
        for size in (1, 2, 3):
            pool_size(size)
            assert oa._sdloa_ok(twice, q, t), size
            assert not square_consecutive(twice, t), size
        monkeypatch.setattr(construct, "_grid_stack", lambda cert: twice)
        cert = linalg.find_sdloa_pair(gf.build_field_q(q), t)
        with pytest.raises(construct.ConstructionError,
                           match="^grid failed strong-double-large-set verification$"):
            construct.build_sdloa_grid(cert)
        out = tmp_path / "x.mms"
        assert cli.main(["gen-ms", "--q", str(q), "--t", str(t), "--method", "qt",
                         "--out", str(out)]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("q,t", [(5, 2), (5, 3), (7, 3)])
    def test_pipeline_runs_no_member_pass(self, q, t, monkeypatch):
        spy = spy_members(monkeypatch)
        table = gf.build_field_q(q)
        construct.build_ms_qt(table, t)
        assert spy.calls == 0

    def test_random_table_runs_the_member_pass(self, monkeypatch):
        grid = grid_source(5, 2)
        table = grid.table.copy()
        table[7] = (table[7] + 1) % 5
        source = oa._GridStack(table, grid.a, grid.b)
        assert not source.relabels(5)
        spy = spy_members(monkeypatch)
        assert oa._large_set_ok([source], 5, 2)[0] == oa_oracle._large_set_ok(
            [gathered(source)], 5, 2)
        assert spy.calls > 0

    @pytest.mark.parametrize("kind", ["symbols permuted", "rows and columns permuted"])
    @pytest.mark.parametrize("q,t", [(3, 2), (5, 2), (5, 3)])
    def test_latin_tables(self, q, t, kind, pool_size, monkeypatch):
        grid = latin_grid(grid_source(q, t), kind, q)
        assert grid.relabels(q)
        verdict = assert_grid_agrees(grid, q, t, pool_size, monkeypatch)
        if kind == "symbols permuted":  # a relabelling of a valid grid
            assert verdict is True
        spy = spy_members(monkeypatch)
        oa._sdloa_ok(grid, q, t)
        assert spy.calls == 0

    @pytest.mark.parametrize("kind", ["row not a permutation", "column not a permutation",
                                      "a not a row start"])
    @pytest.mark.parametrize("q,t", [(3, 2), (5, 2), (5, 3)])
    def test_unproved_grids_fall_back(self, q, t, kind, pool_size, monkeypatch):
        grid = broken_grid(grid_source(q, t), kind, q)
        assert not grid.relabels(q)
        assert assert_grid_agrees(grid, q, t, pool_size, monkeypatch) is not None
        spy = spy_members(monkeypatch)
        oa._sdloa_ok(grid, q, t)
        assert spy.calls > 0
