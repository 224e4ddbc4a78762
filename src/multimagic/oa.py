"""Orthogonal arrays and exact large-set / double-large-set checks.

Every check runs on a (count, k, N) stack of members through one subset
tally and one member pass.  A stack is held in memory (_HeldStack, a
file family, possibly a strided view) or is a grid's row orientation
that is never held whole (_GridStack): entry (m, i, j) is component i of
cell(X_m, Y_j) = E1 X_m + E2 Y_j, table[q * E1 X_m + E2 Y_j] in the flat
addition table.  A grid gathers from the table just what the checks
read of it (member 0, column slab 0, unproved members or slabs, the
diagonal selections), and its column codes, the cell codes that make its
square, are filled on request, any run of members at a time, by
_GridStack.codes (the compiled grid_rows), so the N^2 codes are never
held either.  A grid whose structure proves its members and slabs (see
Members below) is checked holding O(N k) cells and the tallies, and
leaves its coverage to its square (see Coverage).  A grid its structure
does not prove is gathered whole, once, for the member pass:

* Strength: for every t-subset of rows the column t-tuples are coded
  base v by a float64 BLAS product and counted against the index
  N / v^t, a chunk of about _TALLY_ENTRIES (slab, subset) codes at a
  time.  Every code is below v^t, and v^t divides N (a slab whose N it
  does not divide fails untallied), so v^t <= N < 2^53 keeps the codes
  exact.  In-scope arrays have at most 2t <= 20 rows, so the product
  is small and one BLAS thread runs it as fast as several: the command
  line runs OpenBLAS on one thread (see cli.py).
* Distinct columns are found by a lexicographic column sort, exact for
  any v^k.
* The member pass is the compiled kernel ``members`` of _codec.c, run
  over blocks of members on the worker pool with the interpreter lock
  released.  It reads an int64 held stack once, each block in place (any
  other stack, a grid included, is gathered whole into one first) and
  checked against member 0 and column slab 0, read before the pass.  Per
  column it writes the base-v int64 code, row 0 least significant, exact
  while v^k < 2^63 (column_codes raises ValueError beyond; a large set
  holds v^k columns in memory, so its codes are always in range), or -1
  for a column holding a symbol outside 0..v-1, into the block's own
  codes, which the pool task returns.
* Coverage: the family holds exactly v^k columns (checked first, a
  ValueError otherwise), and every column code of the member pass is
  marked in a v^k-bit map by the compiled mark(), through verify._mark,
  on the calling thread as the code blocks arrive.  mark() counts the
  bits it sets that were clear, and by pigeonhole v^k codes set v^k bits
  exactly when each k-tuple is covered once, so that count is the same
  verdict as "every count equal to 1" at one bit per code instead of 64.
  A grid's column codes are its square's entries, so the coverage of a
  grid proved from its structure is its square's consecutive-entry
  check, not made here (construct.build_sdloa_grid).
* Members: only member 0 is always tallied.  A member with
  member[i, j] = sigma_i(member_0[i, j]) for injective per-row maps
  sigma_i needs no tally: sigma carries the t-tuples of any row subset
  injectively to t-tuples and distinct columns to distinct columns, so
  its tuple counts are those of member 0 permuted.  A grid proves this
  for every member and every column slab from its structure, without
  reading a cell (_GridStack.relabels): when
  its table is v x v with every row and column a permutation of 0..v-1,
  every entry of a a row start and every entry of b in 0..v-1, row i of
  member m is row i of member 0 under table[a[0, i] + w] ->
  table[a[m, i] + w], and column slab j is slab 0 under table[u +
  b[0, i]] -> table[u + b[j, i]], both bijections.  Any other stack,
  and a grid that fails that test (one over a table with a row that is
  not a permutation, say), takes the member pass: the sigma_i are read
  from first occurrences (_images) and checked injective in numpy, the
  pass checks every entry against them, and for the SDLOA check checks
  each column slab against column slab 0 in the same read.  Both proofs
  are exact and field-free; a member or slab the pass does not prove,
  one holding a symbol outside 0..v-1 included, is tallied
  exhaustively, as are member 0, column slab 0 and both diagonal
  selections, so the verdict is the full tally's on every input.

The private entry points _large_set_ok and _sdloa_ok take stacks and
return the verdict; the public verify_* functions wrap them for
OrthArray families.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np

from . import _pool
from ._codec import ffi as _ffi, lib as _lib
from .verify import _mark


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


# Codes per chunk of (slab, subset) rows in the strength tally: the
# codes, their float64 product and their counts take 8 MB each.
_TALLY_ENTRIES = 1 << 20


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
    per = max(1, _TALLY_ENTRIES // max(1, n))  # (slab, subset) rows a chunk
    slabs, subs = max(1, per // max(1, nsub)), max(1, min(nsub, per))
    for s0 in range(0, count, slabs):
        blk = stack[s0:s0 + slabs].astype(np.float64)
        for w0 in range(0, nsub, subs):
            codes = np.matmul(weights[w0:w0 + subs], blk).astype(np.int64)
            rows = codes.shape[0] * codes.shape[1]
            codes += (np.arange(rows) * span).reshape(codes.shape[:2] + (1,))
            if not np.all(np.bincount(codes.ravel(), minlength=rows * span) == n // span):
                return False
    return True


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
    return _member_pass(_HeldStack(arr.entries[None]), arr.v, codes=True)[0][0]


def verify_oa(arr: OrthArray) -> bool:
    """Every t-tuple appears exactly N / v^t times in every t-row slice."""
    return _strength_ok(arr.entries[None], arr.v, arr.t)


def is_simple(arr: OrthArray) -> bool:
    """No two identical columns."""
    return _distinct_columns(arr.entries[None])


class _HeldStack:
    """A (count, k, N) member stack held in memory, possibly a strided
    view: blocks of members are views of it."""

    def __init__(self, arr: np.ndarray):
        self.arr = arr
        self.shape = arr.shape
        self.dtype = arr.dtype

    @property
    def T(self) -> "_HeldStack":
        """The column orientation: slab j holds column j of every member."""
        return _HeldStack(self.arr.transpose(2, 1, 0))

    def pick(self, index) -> np.ndarray:
        """The members at index, a slice or an integer array, as a stack."""
        return self.arr[index]

    def entries(self, cols: np.ndarray) -> np.ndarray:
        """The (count, k, w) entries (m, i, cols[m, i, a]), cols being
        column indices broadcast to (count, k, w)."""
        count, k, _ = self.shape
        return self.arr[np.arange(count)[:, None, None], np.arange(k)[:, None], cols]


class _GridStack:
    """The (count, k, N) member stack with entry (m, i, j) = table[a[m, i] +
    b[j, i]], never held whole.  With table the flat addition table of
    GF(q), a holding q * E1 X and b holding E2 Y, it is a grid's row
    orientation, member r the cells of grid row r.  Its reads are those of
    _HeldStack, but each gathers from the table just the entries it
    returns."""

    def __init__(self, table: np.ndarray, a: np.ndarray, b: np.ndarray):
        self.table = np.ascontiguousarray(table, dtype=np.int16)
        self.a = np.ascontiguousarray(a, dtype=np.int64)
        self.b = np.ascontiguousarray(b, dtype=np.int64)
        if self.a.ndim != 2 or self.b.ndim != 2 or self.a.shape[1] != self.b.shape[1]:
            raise ValueError("grid rows and columns need one row of k sums each")
        # the least and the greatest entry of a and of b, read once
        self._spans = [(int(x.min()), int(x.max())) if x.size else (0, -1)
                       for x in (self.a, self.b)]
        (a_lo, a_hi), (b_lo, b_hi) = self._spans
        if self.a.size and self.b.size and (
                a_lo + b_lo < 0 or a_hi + b_hi >= self.table.size):
            raise ValueError("grid sums index outside the table")
        self.shape = (self.a.shape[0], self.a.shape[1], self.b.shape[0])

    @property
    def T(self) -> "_GridStack":
        """The column orientation: slab j holds column j of every member."""
        return _GridStack(self.table, self.b, self.a)

    def relabels(self, v: int) -> bool:
        """Whether the stack's structure proves every member a per-row
        relabelling of member 0, and every column slab one of column slab
        0: table is v x v with every row and every column a permutation of
        0..v-1, every entry of a is a row start (a multiple of v in
        [0, v^2)), and every entry of b lies in 0..v-1.  Then row i of
        member m is row i of member 0 under the bijection table[a[0, i] +
        w] -> table[a[m, i] + w], and column slab j is column slab 0 under
        table[u + b[0, i]] -> table[u + b[j, i]].  Reads the table, a and
        b once, and no cell."""
        if self.table.size != v * v:
            return False
        square = self.table.reshape(v, v)
        symbols = np.arange(v)
        (a_lo, a_hi), (b_lo, b_hi) = self._spans
        return bool(np.array_equal(np.sort(square, axis=1), np.broadcast_to(symbols, (v, v)))
                    and np.array_equal(np.sort(square, axis=0),
                                       np.broadcast_to(symbols[:, None], (v, v)))
                    and a_lo >= 0 and a_hi < v * v and not np.any(self.a % v)
                    and b_lo >= 0 and b_hi < v)

    def pick(self, index) -> np.ndarray:
        """The members at index, a slice or an integer array, as a stack;
        the table index is int32 when the table allows it, half the size."""
        kind = np.int32 if self.table.size <= 2**31 else np.int64
        return self.table[np.add(self.a[index][:, :, None], self.b.T, dtype=kind)]

    def entries(self, cols: np.ndarray) -> np.ndarray:
        """The (count, k, w) entries (m, i, cols[m, i, a]), cols being
        column indices broadcast to (count, k, w)."""
        k = self.shape[1]
        return self.table[self.a[:, :, None] + self.b[cols, np.arange(k)[:, None]]]

    @cached_property
    def _pairs(self) -> tuple[int, np.ndarray]:
        """v, with table the flat v x v table, and the pair indices that
        grid_rows reads: row p, entry j is b[j, 2p] * v + b[j, 2p + 1], or
        b[j, k - 1] for a last odd component.  Computed once; ValueError
        unless k >= 1, every entry of b lies in 0..v-1, every entry of a
        plus v - 1 indexes the table, and v^k < 2^63."""
        v, k = math.isqrt(self.table.size), self.shape[1]
        (a_lo, a_hi), (b_lo, b_hi) = self._spans
        if not k:
            raise ValueError("grid cells need at least one component")
        if v * v != self.table.size:
            raise ValueError(f"a table of {self.table.size} entries is not v x v")
        if max(v, 2)**k >= 2**63:
            raise ValueError(f"codes of {k} components over {v} symbols overflow int64")
        if b_lo < 0 or b_hi >= v:
            raise ValueError(f"grid columns need components in 0..{v - 1}")
        if a_lo < 0 or a_hi + v > self.table.size:
            raise ValueError("grid rows index outside the table")
        index = np.ascontiguousarray(self.b[:, 0::2].T, dtype=np.int32)
        index[:k // 2] *= v
        index[:k // 2] += self.b[:, 1::2].T
        return v, index

    def codes(self, r0: int, r1: int, out: np.ndarray | None = None) -> np.ndarray:
        """The (r1 - r0, N) codes of the columns of members r0..r1-1, base
        v (table being the flat v x v table), row 0 least significant, as
        the member pass computes them, filled by the compiled grid_rows:
        with a holding q * E1 X and b holding E2 Y, rows r0..r1-1 of the
        grid's square, into out, a C-contiguous int64 array of that
        shape, if given.  ValueError if the rows or the entries (see
        _pairs) are out of range."""
        count, k, n = self.shape
        if not 0 <= r0 <= r1 <= count:
            raise ValueError(f"rows {r0}..{r1} outside 0..{count}")
        v, index = self._pairs
        if out is None:
            out = np.empty((r1 - r0, n), dtype=np.int64)
        work = np.empty(len(index) * v * v, dtype=np.int64)
        _lib.grid_rows(_buffer("int16_t[]", self.table), _buffer("int64_t[]", self.a), k, v,
                       _buffer("int32_t[]", index), n, r0, r1, _buffer("int64_t[]", work),
                       _buffer("int64_t[]", out))
        return out


# Entries per chunk of members sent to the exhaustive tally; keeps the
# copy of the members it tallies to a few tens of MB whatever the family
# size.
_CHUNK_ENTRIES = 8_000_000

# Entries read at once, over all workers, in the member pass.
_CODE_ENTRIES = 1 << 20


def _images(ref: np.ndarray, slabs, v: int) -> tuple[np.ndarray, np.ndarray]:
    """Relabelling tables of a stack of slabs against its slab 0, ref
    (k, L), whose entries lie in 0..v-1: images[s, i, a] is entry (i, j)
    of slab s at the first j with ref[i, j] == a, the map sigma_i of slab
    s taken from first occurrences, contiguous and int64; and a mask over
    the slabs, True where every sigma_i is injective on the symbols of
    ref's row i.  Symbols absent from a row get distinct
    negative images."""
    k, size = ref.shape
    first = np.full((k, v), size, dtype=np.intp)
    for i, row in enumerate(ref):
        symbols, pos = np.unique(row, return_index=True)
        first[i, symbols] = pos
    absent = first == size
    images = np.ascontiguousarray(slabs.entries(np.where(absent, 0, first)))
    images[:, absent] = -1 - np.nonzero(absent)[1]
    srt = np.sort(images, axis=2)
    return images, np.all(srt[:, :, 1:] != srt[:, :, :-1], axis=(1, 2))


def _in_range(entries: np.ndarray, v: int) -> bool:
    return entries.size == 0 or (entries.min() >= 0 and entries.max() < v)


def _buffer(kind: str, arr: np.ndarray | None):
    return _ffi.NULL if arr is None else _ffi.from_buffer(kind, arr)


def _pass_block(stack, codes: np.ndarray | None, ref, tail: tuple, step: int,
                first: int) -> np.ndarray:
    """Members first..first+step-1 through the kernel, the pooled body of
    _member_pass, the block a view of an int64 held stack and ref the
    address of its member 0.  Returns the block's column codes, written
    into its rows of codes or, if codes is None, into a new array."""
    blk = stack.pick(slice(first, first + step))
    count, _, n = blk.shape
    out = (np.empty((count, n), dtype=np.int64) if codes is None
           else codes[first:first + count])
    _lib.members(_ffi.cast("void *", blk.ctypes.data), ref, *blk.strides,
                 first, first + count, *tail, _buffer("int64_t[]", out))
    return out


def _member_pass(stack, v: int, bits: np.ndarray | None = None, columns: bool = False,
                 codes: bool = False):
    """One pass of the compiled kernel over a (count, k, N) _HeldStack of
    int64 entries, in blocks of members on the pool, each block read in
    place; any other stack, a _GridStack or entries of another integer
    type, is gathered whole into one first.  Each block writes its own
    base-v column codes, row 0 least significant, -1 for a column holding
    a symbol outside 0..v-1.  Returns three arrays, each None unless asked
    for, and a count:

    * with codes, the (count, N) column codes;
    * with bits (a v^k-bit map, (v^k + 7) // 8 uint8), rows is True where
      the member is proved a per-row relabelling of member 0 (sigma from
      first occurrences, see _images), and each block's codes are marked
      in bits on the calling thread; the count is the number of bits set
      that were clear, else 0;
    * with columns, cols is True where column slab j (entry (i, m) =
      stack entry (m, i, j)) is proved one of column slab 0.

    Member 0 and column slab 0 are read once, before the pass, and every
    block is checked against them.  A member or slab holding a symbol
    outside 0..v-1 is never proved, and its columns are not marked.
    ValueError when v^k >= 2^63."""
    count, k, n = stack.shape
    if max(v, 2)**k >= 2**63:  # also bounds k for the kernel
        raise ValueError(f"column codes of {k} rows over {v} symbols overflow int64")
    if not isinstance(stack, _HeldStack) or stack.dtype != np.int64:
        stack = _HeldStack(stack.pick(slice(None)).astype(np.int64))
    codes = np.empty((count, n), dtype=np.int64) if codes else None
    ref = stack.pick(slice(0, 1))[0] if count else None
    rows = cols = row_images = col_images = None
    if bits is not None:
        rows = np.zeros(count, dtype=bool)
        if count and _in_range(ref, v):
            row_images, rows[:] = _images(ref, stack, v)
    if columns:
        cols = np.zeros(n, dtype=bool)
        by_col = stack.T
        if n and _in_range(slab := by_col.pick(slice(0, 1))[0], v):
            col_images, cols[:] = _images(slab, by_col, v)
    # ref has the strides of every block's members (see members() in _codec.c)
    at = _ffi.NULL if ref is None else _ffi.cast("void *", ref.ctypes.data)
    tail = (k, n, v, _buffer("int64_t[]", row_images), _buffer("unsigned char[]", rows),
            _buffer("int64_t[]", col_images), _buffer("unsigned char[]", cols))
    starts = _pool.blocks(count, k * n, _CODE_ENTRIES)
    block = partial(_pass_block, stack, codes, at, tail, starts.step)
    if bits is None:
        _pool.each(block, starts)
        return codes, rows, cols, 0
    marked = 0
    for blk in _pool.ordered_map(block, starts):
        marked += _mark(blk, bits, v**k)
        del blk  # before the next block is made
    return codes, rows, cols, marked


def _members_ok(stack, proved: np.ndarray, v: int, t: int) -> bool:
    """Simple-OA check for every slab of a (count, k, N) stack: slab 0 by
    exhaustive tally, every other slab the mask proved leaves unproved by
    exhaustive tally, in chunks."""
    count, k, n = stack.shape
    if not _stack_members_ok(stack.pick(slice(0, 1)), v, t):
        return False
    rest = np.flatnonzero(~proved[1:]) + 1
    chunk = max(1, _CHUNK_ENTRIES // (k * n))
    return all(_stack_members_ok(stack.pick(rest[s0:s0 + chunk]), v, t)
               for s0 in range(0, rest.size, chunk))


def _large_set_ok(stacks: list, v: int, t: int, columns: bool = False):
    """Large-set check on (count, k, N) member stacks (_HeldStack or
    _GridStack, gathered whole) sharing k (one per column count), entries
    in 0..v-1: every member a simple OA of strength t, and the columns
    cover every k-tuple exactly once; ValueError if their shapes cannot.
    Returns (verdict, one column-slab mask per stack), from the member
    pass, the masks None unless columns."""
    if t < 1:
        raise ValueError("strength must be at least 1")
    k = stacks[0].shape[1]
    total = sum(s.shape[0] * s.shape[2] for s in stacks)
    full = v**k
    if total != full:
        raise ValueError(f"family holds {total} columns but a large set needs v^k={full}")
    for s in stacks:
        _check_strength(k, s.shape[2], v, t)
    # the full columns mark a v^k-bit map; by pigeonhole, v^k marks that
    # set v^k bits cover each k-tuple exactly once (see the module docstring)
    bits = np.zeros((full + 7) // 8, dtype=np.uint8)
    ok, masks, marked = True, [], 0
    for s in stacks:
        _, rows, cols, fresh = _member_pass(s, v, bits, columns)
        marked += fresh
        masks.append(cols)
        ok = ok and _members_ok(s, rows, v, t)
    return ok and marked == full, masks


def verify_large_set(fam: ArrayFamily, t: int) -> bool:
    """Every member a simple OA of strength t, and the member columns
    jointly cover every possible k-tuple exactly once.

    Members are stacked by column count; in each stack member 0 is tallied
    and every other member is proved as a per-row relabelling of it or,
    failing that, tallied (see the module docstring)."""
    groups: dict[int, list[np.ndarray]] = {}
    for m in fam.members:
        groups.setdefault(m.n_cols, []).append(m.entries)
    return _large_set_ok([_HeldStack(np.stack(group)) for group in groups.values()],
                         fam.v, t)[0]


def _diagonals(stack) -> np.ndarray:
    """(2, k, N) stack of the diagonal selections of an (N, k, N) stack:
    column j of slab 0 is column j of member j, and column j of slab 1 is
    column N-1-j of member j."""
    ar = np.arange(stack.shape[0])
    return stack.entries(np.stack([ar, ar[::-1]], axis=1)[:, None, :]).transpose(2, 1, 0)


def diagonal_selections(fam: ArrayFamily) -> tuple[OrthArray, OrthArray]:
    """The arrays D and D': column j of D is column j of member j, and
    column j of D' is column N-1-j of member j."""
    members = fam.members
    n = members[0].n_cols
    if len(members) != n or any(m.n_cols != n for m in members):
        raise ValueError("diagonal selection needs member count == column count")
    d, d_back = _diagonals(_HeldStack(np.stack([m.entries for m in members])))
    return OrthArray(d, fam.v, members[0].t), OrthArray(d_back, fam.v, members[0].t)


def _sdloa_ok(members, v: int, t: int):
    """SDLOA check on an (N, k, N) member stack (_HeldStack or _GridStack)
    with N * N = v^k and entries in 0..v-1: a large set in the row
    orientation, whose member pass also proves column slabs, the column
    orientation's unproved slabs tallied (its columns are the same
    multiset, so coverage needs no second count), and both diagonal
    selections tallied at strength t.  A _GridStack whose structure
    proves every member and slab (relabels) takes no pass and is not
    checked for coverage (see the module docstring).  Returns the verdict."""
    count, k, n = members.shape
    if isinstance(members, _GridStack) and members.relabels(v):
        _check_strength(k, n, v, t)
        cols = np.ones(n, dtype=bool)
        ok = _members_ok(members, np.ones(count, dtype=bool), v, t)
    else:
        ok, [cols] = _large_set_ok([members], v, t, True)
    return (ok and _members_ok(members.T, cols, v, t)
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
    return _sdloa_ok(_HeldStack(np.stack([m.entries for m in fam.members])), fam.v, t)
