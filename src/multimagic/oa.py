"""Orthogonal arrays and exact large-set / double-large-set checks.

Verification is tally-based and exact: for every t-subset of rows the
column tuples are counted and compared against the index N / v^t.  Code
words are computed through BLAS in float64 whenever v^k < 2^53, which
keeps every intermediate integer exactly representable; otherwise the
computation falls back to integer matmul.  All in-scope arrays have at
most 2t <= 20 rows, so the C(k, t) subsets stay cheap.

A strong double large set needs every member of both orientations to be
a simple OA, but only member 0 is always tallied.  A member with
member[i, j] = sigma_i(member_0[i, j]) for injective per-row maps sigma_i
needs no tally: sigma carries the t-tuples of any row subset injectively
to t-tuples and distinct columns to distinct columns, so the member's
tuple counts are those of member 0 permuted.  (Every row of the OA
member 0 holds all v symbols, so each sigma_i is a permutation of
0..v-1.)  This relabelling check is exact, field-free and O(N k) per
member; a member that fails it is tallied exhaustively, so the verdict is
the full tally's on every input.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_EXACT_FLOAT_LIMIT = 2**53


@dataclass(frozen=True)
class OrthArray:
    """A k x N array over symbols 0..v-1 with a declared strength t."""

    entries: np.ndarray
    v: int
    t: int

    def __post_init__(self):
        e = np.asarray(self.entries)
        if e.ndim != 2:
            raise ValueError("entries must be two-dimensional")
        if not np.issubdtype(e.dtype, np.integer):
            raise ValueError("entries must be integers")
        if self.v < 2:
            raise ValueError("at least two levels required")
        if not 1 <= self.t <= e.shape[0]:
            raise ValueError(f"strength t={self.t} out of range for k={e.shape[0]}")
        if e.size and (e.min() < 0 or e.max() >= self.v):
            raise ValueError(f"entries must lie in 0..{self.v - 1}")
        if e.shape[1] % self.v**self.t:
            raise ValueError(
                f"column count {e.shape[1]} is not a multiple of v^t={self.v ** self.t}"
            )
        object.__setattr__(self, "entries", e)

    @property
    def k(self) -> int:
        return self.entries.shape[0]

    @property
    def n_cols(self) -> int:
        return self.entries.shape[1]

    @property
    def index(self) -> int:
        return self.n_cols // self.v**self.t


@dataclass(frozen=True)
class ArrayFamily:
    """An ordered family of arrays sharing (k, v, t)."""

    members: tuple[OrthArray, ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError("empty family")
        first = self.members[0]
        for m in self.members:
            if (m.k, m.v, m.t) != (first.k, first.v, first.t):
                raise ValueError("family members disagree on (k, v, t)")

    @property
    def k(self) -> int:
        return self.members[0].k

    @property
    def v(self) -> int:
        return self.members[0].v


@lru_cache(maxsize=None)
def _subset_weights(k: int, t: int, v: int) -> np.ndarray:
    """One row of base-v position weights per t-subset of k rows."""
    combos = list(itertools.combinations(range(k), t))
    weights = np.zeros((len(combos), k), dtype=np.int64)
    for r, combo in enumerate(combos):
        for pos, row in enumerate(combo):
            weights[r, row] = v**pos
    weights.setflags(write=False)
    return weights


def _codes(weights: np.ndarray, entries: np.ndarray, limit: int) -> np.ndarray:
    """weights @ entries, exactly; float64 BLAS when all values < 2^53."""
    if limit < _EXACT_FLOAT_LIMIT:
        out = weights.astype(np.float64) @ entries.astype(np.float64)
        return out.astype(np.int64)
    return weights @ entries.astype(np.int64)


def _subset_codes(arr: OrthArray, t: int) -> np.ndarray:
    weights = _subset_weights(arr.k, t, arr.v)
    return _codes(weights, arr.entries, arr.v**t)


def column_codes(arr: OrthArray) -> np.ndarray:
    """Base-v integer code of every full column."""
    weights = (arr.v ** np.arange(arr.k, dtype=np.int64))[None, :]
    return _codes(weights, arr.entries, arr.v**arr.k)[0]


def _uniform_tallies(codes: np.ndarray, span: int, lam: int) -> bool:
    """True iff every row of codes hits each value in 0..span-1 lam times."""
    rows = codes.shape[0]
    offsets = np.arange(rows, dtype=np.int64)[:, None] * span
    counts = np.bincount((codes + offsets).ravel(), minlength=rows * span)
    return bool(np.all(counts == lam))


def verify_oa(arr: OrthArray) -> bool:
    """Every t-tuple appears exactly N / v^t times in every t-row slice."""
    return _uniform_tallies(_subset_codes(arr, arr.t), arr.v**arr.t, arr.index)


def is_simple(arr: OrthArray) -> bool:
    """No two identical columns."""
    return np.unique(column_codes(arr)).size == arr.n_cols


def verify_large_set(fam: ArrayFamily, t: int) -> bool:
    """Every member a simple OA of strength t, and the member columns
    jointly cover every possible k-tuple exactly once."""
    if t < 1:
        raise ValueError("strength must be at least 1")
    total = sum(m.n_cols for m in fam.members)
    full = fam.v**fam.k
    if total != full:
        raise ValueError(
            f"family holds {total} columns but a large set needs v^k={full}"
        )
    for m in fam.members:
        arr = m if m.t == t else OrthArray(m.entries, m.v, t)
        if not verify_oa(arr) or not is_simple(arr):
            return False
    codes = np.concatenate([column_codes(m) for m in fam.members])
    return bool(np.all(np.bincount(codes, minlength=full) == 1))


def transposed_family(fam: ArrayFamily) -> ArrayFamily:
    """The family whose j-th member collects the j-th column of every
    member: member j, column s is member s, column j of the input."""
    stack = np.stack([m.entries for m in fam.members])  # (count, k, N)
    by_col = np.ascontiguousarray(stack.transpose(2, 1, 0))
    v, t = fam.v, fam.members[0].t
    return ArrayFamily(tuple(
        OrthArray(by_col[j], v, t) for j in range(by_col.shape[0])
    ))


def _diagonals(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entries of D and D' from an (N, k, N) member stack: column j of D
    is column j of member j, column j of D' is column N-1-j of member j."""
    js = np.arange(stack.shape[0])
    back = stack.shape[2] - 1 - js
    return (np.ascontiguousarray(stack[js, :, js].T),
            np.ascontiguousarray(stack[js, :, back].T))


def diagonal_selections(fam: ArrayFamily) -> tuple[OrthArray, OrthArray]:
    """The arrays D and D': column j of D is column j of member j, and
    column j of D' is column N-1-j of member j."""
    stack = np.stack([m.entries for m in fam.members])
    count, _, n = stack.shape
    if count != n:
        raise ValueError("diagonal selection needs member count == column count")
    v, t = fam.v, fam.members[0].t
    d, d_back = _diagonals(stack)
    return OrthArray(d, v, t), OrthArray(d_back, v, t)


def _stack_members_ok(stack: np.ndarray, v: int, t: int) -> bool:
    """Simple-OA check for every slab of a (count, k, N) stack, batched."""
    count, k, n = stack.shape
    weights = _subset_weights(k, t, v)
    nsub = weights.shape[0]
    span = v**t
    lam = n // span
    col_weights = v ** np.arange(k, dtype=np.int64)
    full = v**k
    use_float = full < _EXACT_FLOAT_LIMIT
    w_f = weights.astype(np.float64)
    cw_f = col_weights.astype(np.float64)

    chunk = max(1, 4_000_000 // (nsub * n))
    for s0 in range(0, count, chunk):
        blk = stack[s0:s0 + chunk]
        c = blk.shape[0]
        if use_float:
            blk_f = blk.astype(np.float64)
            codes = np.matmul(w_f[None, :, :], blk_f).astype(np.int64)
            col_codes = np.matmul(cw_f[None, None, :], blk_f)[:, 0, :].astype(np.int64)
        else:
            blk_i = blk.astype(np.int64)
            codes = np.matmul(weights[None, :, :], blk_i)
            col_codes = np.matmul(col_weights[None, None, :], blk_i)[:, 0, :]
        if not _uniform_tallies(codes.reshape(c * nsub, n), span, lam):
            return False
        srt = np.sort(col_codes, axis=1)
        if srt.shape[1] > 1 and not np.all(srt[:, 1:] != srt[:, :-1]):
            return False
    return True


# Entries per chunk of members in the relabelling pass; keeps its
# temporaries, and the copy of the members it sends to the tally, to a
# few tens of MB whatever the family size.
_CHUNK_ENTRIES = 8_000_000


def _relabelled(blk: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Mask over the slabs of a (c, k, n) block: True where the slab is a
    per-row relabelling of ref (k, n), i.e. slab[i, j] = sigma_i(ref[i, j])
    for an injective sigma_i on the symbols of ref's row i."""
    ok = np.ones(blk.shape[0], dtype=bool)
    for i in range(ref.shape[0]):
        _, first, inv = np.unique(ref[i], return_index=True, return_inverse=True)
        row = blk[:, i, :]
        sigma = row[:, first]  # image of each symbol of ref's row i
        ok &= np.all(sigma[:, inv] == row, axis=1)
        srt = np.sort(sigma, axis=1)
        ok &= np.all(srt[:, 1:] != srt[:, :-1], axis=1)
    return ok


def _relabelled_members_ok(members: np.ndarray, v: int, t: int) -> bool:
    """Simple-OA check for every slab of a (count, k, n) stack: slab 0 by
    exhaustive tally, the rest by relabelling of slab 0 or, failing that,
    by exhaustive tally."""
    count, k, n = members.shape
    if not _stack_members_ok(members[:1], v, t):
        return False
    ref = np.ascontiguousarray(members[0])
    chunk = max(1, _CHUNK_ENTRIES // (k * n))
    for s0 in range(1, count, chunk):
        blk = members[s0:s0 + chunk]
        if not _stack_members_ok(blk[~_relabelled(blk, ref)], v, t):
            return False
    return True


def _stack_coverage_ok(stack: np.ndarray, v: int) -> bool:
    """The columns of all slabs jointly cover every k-tuple exactly once."""
    count, k, n = stack.shape
    codes = np.zeros((count, n), dtype=np.int64)
    for i in reversed(range(k)):
        codes *= v
        codes += stack[:, i, :]
    return bool(np.all(np.bincount(codes.ravel(), minlength=v**k) == 1))


def verify_sdloa(fam: ArrayFamily, t: int) -> bool:
    """Large set in both orientations plus both diagonal selections.

    In each orientation member 0 is tallied exhaustively and every other
    member is proved as a per-row relabelling of it (see the module
    docstring); members that are not relabellings, and only those, are
    tallied exhaustively.  The verdict equals that of tallying every
    member in both orientations."""
    count = len(fam.members)
    n = fam.members[0].n_cols
    if any(m.n_cols != n for m in fam.members):
        raise ValueError("members must share one column count")
    if count != n:
        raise ValueError(f"need N={n} members, got {count}")
    if count * n != fam.v**fam.k:
        raise ValueError("member count x columns must equal v^k")
    v = fam.v

    stack = np.stack([m.entries for m in fam.members])
    if not _relabelled_members_ok(stack, v, t):
        return False
    if not _stack_coverage_ok(stack, v):
        return False
    if not _relabelled_members_ok(stack.transpose(2, 1, 0), v, t):
        return False
    # Column coverage is the same multiset of columns, already checked.

    d, d_back = _diagonals(stack)
    return verify_oa(OrthArray(d, v, t)) and verify_oa(OrthArray(d_back, v, t))
