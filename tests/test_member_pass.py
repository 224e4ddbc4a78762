"""The compiled member pass against the numpy oracle (tests/oa_oracle.py):
column codes, seen marks, and the masks of members and column slabs
proved relabellings, on built grids, file families and corrupted stacks,
at pool sizes 1-3 and blocks down to one member; and the verdicts of the
checks built on it."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multimagic import _pool, construct, gf, io, linalg, oa

import oa_oracle
from conftest import GOLDEN_LOA

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


def kernel(stack: np.ndarray, v: int):
    """Codes, member mask, column-slab mask and seen-map of one pass."""
    seen = np.zeros(v ** stack.shape[1], dtype=np.uint8)
    codes, rows, cols = oa._member_pass(stack, v, seen, columns=True)
    return codes, rows, cols, seen


def oracle(stack: np.ndarray, v: int):
    """The same four from the oracle's numpy pass.  A member or slab with a
    symbol outside 0..v-1 is never proved, and no slab is when slab 0
    holds one; only columns within 0..v-1 are marked."""
    inside = (stack >= 0) & (stack < v)
    by_col = stack.transpose(2, 1, 0)
    rows = oa_oracle._relabelled(stack, stack[0]) & inside.all(axis=(1, 2))
    cols = oa_oracle._relabelled(by_col, by_col[0]) & inside.all(axis=(0, 1))
    rows &= bool(inside[0].all())
    cols &= bool(inside[:, :, 0].all())
    codes = oa_oracle._column_codes(stack, v)
    seen = np.zeros(v ** stack.shape[1], dtype=np.uint8)
    seen[codes[inside.all(axis=1)]] = 1
    return codes, rows, cols, seen


def assert_pass_matches(stack: np.ndarray, v: int) -> None:
    got, want = kernel(stack, v), oracle(stack, v)
    for name, a, b in zip(("codes", "rows", "cols", "seen"), got, want):
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
        codes, rows, cols, seen = kernel(stack, q)
        assert rows.all() and cols.all() and seen.all()

    @pytest.mark.parametrize("name", ["members 0-8", "fixed k=4", "fixed l=2"])
    def test_file_families(self, name):
        stack = file_stacks()[name]
        assert stack.dtype == np.int64
        assert_pass_matches(stack, 3)

    @pytest.mark.parametrize("dtype", [np.int16, np.int64, np.int32, np.uint8, ">i2"])
    def test_entry_types(self, dtype):
        # int16 and int64 are read in place, others converted once
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
            for name, a, b in zip(("codes", "rows", "cols", "seen"), kernel(stack, q), want):
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
        want_codes = oa_oracle._column_codes(stack, q)
        fam = None
        if kind != "symbol v":
            fam = oa.ArrayFamily(tuple(oa.OrthArray(m, q, t) for m in stack))
        for size, rows in pool_configs(stack.shape[0]):
            with_blocks(monkeypatch, pool_size, stack, size, rows)
            ok, [(codes, cols)] = oa._large_set_ok([stack], q, t)
            assert ok == want_ls and cols is None
            assert np.array_equal(codes, want_codes)
            ok, codes = oa._sdloa_ok(stack, q, t)
            assert ok == want_sd
            assert np.array_equal(codes, want_codes)
            if fam is not None:
                assert oa.verify_large_set(fam, t) == want_ls
                assert oa.verify_sdloa(fam, t) == want_sd

    @pytest.mark.parametrize("name", ["members 0-8", "fixed k=4", "fixed l=2"])
    def test_file_family_verdicts(self, name):
        stack = file_stacks()[name]
        for t in (1, 2):
            assert oa._large_set_ok([stack], 3, t)[0] == oa_oracle._large_set_ok([stack], 3, t)
            assert oa._sdloa_ok(stack, 3, t)[0] == oa_oracle._sdloa_ok(stack, 3, t)


class TestOutOfRange:
    """A symbol outside 0..v-1 is never used as a table index: its member
    and column slab stay unproved, its column is not marked, and the
    member goes to the exhaustive tally."""

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
        codes, rows, cols, seen = kernel(stack, 5)
        assert not rows[s] and not cols[j]
        if s == 0:  # member 0 is the reference: nothing is proved
            assert not rows.any()
        if j == 0:  # so is column slab 0
            assert not cols.any()
        assert np.array_equal(codes, oa_oracle._column_codes(stack, 5))
        assert seen.sum() == 5**4 - 1  # every column but the corrupted one

    def test_unproved_member_is_tallied(self, monkeypatch):
        stack = corrupt(grid_stack(5, 2), "symbol v", 5, late=True)
        tallied = []
        real = oa._stack_members_ok

        def record(members, v, t):
            tallied.extend(np.asarray(members).tolist())
            return real(members, v, t)

        monkeypatch.setattr(oa, "_stack_members_ok", record)
        assert not oa._large_set_ok([stack], 5, 2)[0]
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
                    assert (oa._large_set_ok([stack], v, 1)[0]
                            == oa_oracle._large_set_ok([stack], v, 1))
                    if count == n:
                        assert oa._sdloa_ok(stack, v, 1)[0] == oa_oracle._sdloa_ok(stack, v, 1)
        finally:
            _pool.set_size(before)
