"""Orthogonal arrays and exact large-set / double-large-set checks.

Every check runs on a (count, k, N) stack of members, which may be a
strided view (a grid's cells are checked in place), through one subset
tally, one column code, one coverage seen-map and one member pass:

* Strength: for every t-subset of rows the column t-tuples are coded
  base v by one float64 BLAS product and counted against the index
  N / v^t.  Every code is below v^t, and v^t divides N (a slab whose N it
  does not divide fails untallied), so v^t <= N < 2^53 keeps the codes
  exact.  In-scope arrays have at most 2t <= 20 rows.
* Distinct columns are found by a lexicographic column sort, exact for
  any v^k.  Column codes are base-v int64, exact while v^k < 2^63
  (column_codes raises ValueError beyond), built by a Horner pass per
  block of slabs on the worker pool; a large set holds v^k columns in
  memory, so its codes are always in range.
* Coverage: the family holds exactly v^k columns (checked first, a
  ValueError otherwise), and each column code marks one byte of a v^k
  seen-map.  By pigeonhole, v^k codes that mark all v^k bytes hit each
  byte exactly once, so "every byte marked" is the same verdict as "every
  count equal to 1" at one byte per code instead of eight.
* Members: only member 0 is always tallied.  A member with
  member[i, j] = sigma_i(member_0[i, j]) for injective per-row maps
  sigma_i needs no tally: sigma carries the t-tuples of any row subset
  injectively to t-tuples and distinct columns to distinct columns, so
  its tuple counts are those of member 0 permuted.  This check is exact,
  field-free and O(N k) per member; a member that fails it is tallied
  exhaustively, so the verdict is the full tally's on every input.

The private entry points _large_set_ok and _sdloa_ok take stacks; the
public verify_* functions wrap them for OrthArray families.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import _pool


def _check_strength(k: int, n: int, v: int, t: int) -> None:
    """Raise ValueError unless a k x n array over v symbols can have strength t."""
    if not 1 <= t <= k:
        raise ValueError(f"strength t={t} out of range for k={k}")
    if n % v**t:
        raise ValueError(f"column count {n} is not a multiple of v^t={v ** t}")


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
        _check_strength(e.shape[0], e.shape[1], self.v, self.t)
        if e.size and (e.min() < 0 or e.max() >= self.v):
            raise ValueError(f"entries must lie in 0..{self.v - 1}")
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


# Codes per chunk of slabs in the strength tally.
_TALLY_ENTRIES = 4_000_000


@lru_cache(maxsize=None)
def _subset_weights(k: int, t: int, v: int) -> np.ndarray:
    """One row of base-v position weights per t-subset of k rows."""
    combos = list(itertools.combinations(range(k), t))
    weights = np.zeros((len(combos), k), dtype=np.float64)
    for r, combo in enumerate(combos):
        for pos, row in enumerate(combo):
            weights[r, row] = v**pos
    weights.setflags(write=False)
    return weights


def _strength_ok(stack: np.ndarray, v: int, t: int) -> bool:
    """Every slab of a (count, k, N) stack has strength t: each t-row
    slice holds every t-tuple exactly N / v^t times."""
    count, k, n = stack.shape
    span = v**t
    if n % span:
        return False
    weights = _subset_weights(k, t, v)
    nsub = weights.shape[0]
    chunk = max(1, _TALLY_ENTRIES // max(1, nsub * n))
    for s0 in range(0, count, chunk):
        blk = stack[s0:s0 + chunk]
        rows = len(blk) * nsub  # one tally row per (slab, subset)
        codes = np.matmul(weights, blk.astype(np.float64)).astype(np.int64)
        codes = codes.reshape(rows, n) + np.arange(rows)[:, None] * span
        if not np.all(np.bincount(codes.ravel(), minlength=rows * span) == n // span):
            return False
    return True


# Entries coded at once, over all workers, in the column-code pass.
_CODE_ENTRIES = 1 << 20


def _column_codes(stack: np.ndarray, v: int) -> np.ndarray:
    """Base-v int64 column codes of a (..., k, N) stack, row 0 least
    significant: an in-place Horner pass per block of slabs, on the pool."""
    k, n = stack.shape[-2:]
    if v**k >= 2**63:
        raise ValueError(f"column codes of {k} rows over {v} symbols overflow int64")
    slabs = stack.reshape(math.prod(stack.shape[:-2]), k, n)
    codes = np.empty((slabs.shape[0], n), dtype=np.int64)
    starts = _pool.blocks(slabs.shape[0], k * n, _CODE_ENTRIES)
    _pool.each(partial(_horner, codes, slabs, v, starts.step), starts)
    return codes.reshape(stack.shape[:-2] + (n,))


def _horner(codes: np.ndarray, slabs: np.ndarray, v: int, step: int, s0: int) -> None:
    """Codes of slabs s0..s0+step-1 of a (count, k, N) stack, in place,
    the pooled kernel of _column_codes."""
    blk = slabs[s0:s0 + step]
    out = codes[s0:s0 + step]
    out[...] = blk[:, -1]
    for i in reversed(range(blk.shape[1] - 1)):
        out *= v
        out += blk[:, i]


def _distinct_columns(stack: np.ndarray) -> bool:
    """No slab of a (count, k, N) stack repeats a column: the columns are
    sorted lexicographically within each slab and neighbours compared."""
    count, k, n = stack.shape
    cols = stack.transpose(1, 0, 2).reshape(k, count * n)
    order = np.lexsort((*cols, np.repeat(np.arange(count), n)))
    srt = cols[:, order].reshape(k, count, n)
    return not np.any(np.all(srt[:, :, 1:] == srt[:, :, :-1], axis=0))


def _stack_members_ok(stack: np.ndarray, v: int, t: int) -> bool:
    """Simple-OA check for every slab of a (count, k, N) stack, batched."""
    return _strength_ok(stack, v, t) and _distinct_columns(stack)


def column_codes(arr: OrthArray) -> np.ndarray:
    """Base-v integer code of every full column; ValueError when v^k >= 2^63."""
    return _column_codes(arr.entries, arr.v)


def verify_oa(arr: OrthArray) -> bool:
    """Every t-tuple appears exactly N / v^t times in every t-row slice."""
    return _strength_ok(arr.entries[None], arr.v, arr.t)


def is_simple(arr: OrthArray) -> bool:
    """No two identical columns."""
    return _distinct_columns(arr.entries[None])


# Entries per chunk of members in the relabelling and coverage passes;
# keeps their temporaries, and the copy of the members sent to the tally,
# to a few tens of MB whatever the family size.
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


def _large_set_ok(stacks: list[np.ndarray], v: int, t: int) -> bool:
    """Large-set check on (count, k, N) member stacks sharing k (one per
    column count), entries in 0..v-1: every member a simple OA of strength
    t, and the columns cover every k-tuple exactly once; ValueError if
    their shapes cannot."""
    if t < 1:
        raise ValueError("strength must be at least 1")
    k = stacks[0].shape[1]
    total = sum(s.shape[0] * s.shape[2] for s in stacks)
    full = v**k
    if total != full:
        raise ValueError(f"family holds {total} columns but a large set needs v^k={full}")
    for s in stacks:
        _check_strength(k, s.shape[2], v, t)
    if not all(_relabelled_members_ok(s, v, t) for s in stacks):
        return False
    # the full columns mark a v^k seen-map; by pigeonhole, all marked
    # means each k-tuple covered exactly once (see the module docstring)
    seen = np.zeros(full, dtype=bool)
    for s in stacks:
        chunk = max(1, _CHUNK_ENTRIES // (k * s.shape[2]))
        for s0 in range(0, s.shape[0], chunk):
            seen[_column_codes(s[s0:s0 + chunk], v).ravel()] = True
    return bool(seen.all())


def verify_large_set(fam: ArrayFamily, t: int) -> bool:
    """Every member a simple OA of strength t, and the member columns
    jointly cover every possible k-tuple exactly once.

    Members are stacked by column count; in each stack member 0 is tallied
    and every other member is proved as a per-row relabelling of it or,
    failing that, tallied (see the module docstring)."""
    groups: dict[int, list[np.ndarray]] = {}
    for m in fam.members:
        groups.setdefault(m.n_cols, []).append(m.entries)
    return _large_set_ok([np.stack(group) for group in groups.values()], fam.v, t)


def _diagonals(members: np.ndarray) -> np.ndarray:
    """(2, k, N) stack of the diagonal selections of an (N, k, N) stack:
    column j of slab 0 is column j of member j, and column j of slab 1 is
    column N-1-j of member j."""
    ar = np.arange(members.shape[0])
    return members[ar, :, np.stack([ar, ar[::-1]])].transpose(0, 2, 1)


def diagonal_selections(fam: ArrayFamily) -> tuple[OrthArray, OrthArray]:
    """The arrays D and D': column j of D is column j of member j, and
    column j of D' is column N-1-j of member j."""
    members = fam.members
    n = members[0].n_cols
    if len(members) != n or any(m.n_cols != n for m in members):
        raise ValueError("diagonal selection needs member count == column count")
    d, d_back = _diagonals(np.stack([m.entries for m in members]))
    return OrthArray(d, fam.v, members[0].t), OrthArray(d_back, fam.v, members[0].t)


def _sdloa_ok(members: np.ndarray, v: int, t: int) -> bool:
    """SDLOA check on an (N, k, N) member stack with N * N = v^k and
    entries in 0..v-1, which may be a view: a large set in the row
    orientation, the member pass in the column orientation (whose columns
    are the same multiset, so coverage needs no second count), and both
    diagonal selections tallied at strength t."""
    return (_large_set_ok([members], v, t)
            and _relabelled_members_ok(members.transpose(2, 1, 0), v, t)
            and _strength_ok(_diagonals(members), v, t))


def verify_sdloa(fam: ArrayFamily, t: int) -> bool:
    """Large set in both orientations plus both diagonal selections.

    Both orientations take the member pass of verify_large_set, so the
    verdict equals that of tallying every member in both orientations."""
    count = len(fam.members)
    n = fam.members[0].n_cols
    if any(m.n_cols != n for m in fam.members):
        raise ValueError("members must share one column count")
    if count != n:
        raise ValueError(f"need N={n} members, got {count}")
    if count * n != fam.v**fam.k:
        raise ValueError("member count x columns must equal v^k")
    return _sdloa_ok(np.stack([m.entries for m in fam.members]), fam.v, t)
