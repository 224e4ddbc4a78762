"""Exact verification of magic, multimagic, and complementary-family
properties.

Every square is read through one row-block interface: ``sq.n``, ``sq.t``,
``sq.base`` and ``sq.rows(r0, r1)``, the int64 rows r0..r1-1.  A held
MagicSquare serves views of its entries; a generated square is never held
whole: a construct.SdloaGrid fills its rows from the grid's cells, and a
construct.ComposedSquare from its blocks, on demand, into ``out`` when
called as ``rows(r0, r1, out)`` with a C-contiguous (r1 - r0, n) int64
array.  Each pool task reads its own block, so a generated square is
filled on the workers.

``verify_ms`` takes one of two routes, chosen by the square's type.  A
construct.ComposedSquare, the output of every composition, is checked
from its parts: the outer shifts, the member stack and the block
assignment f (see "The factored route" below); none of its N^2 entries
is filled unless its parts fail the consecutive-entry check.  Every
other square, held or generated, is read entry by entry through rows():
the exhaustive route, which is also the tests' oracle for the factored
one.  Both give the same report, failure by failure.

No floating point anywhere.  Line power sums are taken modulo 2**64
(int64 wraparound) and, as the bound requires, modulo odd m < 2**31.  On
every route a line misses iff a residue differs from its target's, the
moduli's product exceeding twice a bound on both, and only a line that
misses is recombined by the CRT, for its exact sum (_residue_misses).
Products of residues below 2**31, and line sums of n < 2**32 of them,
fit in int64.

One fused pass covers every degree 1..t, each degree using the moduli its
own bound needs, a prefix of those of degree t.  The bound needs the
entries' range, which a generated square does not know before it is
read: the first pass takes its moduli for the range [0, n^2) of a valid
square, and each block reports its least and greatest entry.  If any
block falls outside, the pass's residues are discarded and a second pass
runs with the true bound, widened to [0, n^2) so that it covers the
targets.  The CRT of any sufficient moduli gives the exact sums, so the
reports do not depend on which were used.
The pass runs over row blocks on the shared worker pool (``_pool``); each
worker holds a block of _BLOCK_ENTRIES entries divided by the pool size.
The residues of a block come from the compiled kernel ``sums()`` of
_codec.c, with no temporaries: powers are built incrementally for each
modulus, wrapping modulo 2**64, and x**e = x**(e-1) * x mod m for an odd
m, the product below 2**62 reduced by Barrett's method with one
correction.  A row sum lies in one block.  Column and diagonal partials
are added in block order, on the calling thread, in int64: modulo 2**64
the adds wrap, which keeps them congruent, and for an odd modulus a
column sum of n residues stays below n * 2**31.  The comparison needs
only congruent residues, so it runs once, after the last block.
``verify_cms`` takes one set of moduli, _plan's at order m * n for the
extremes of its (m, n, n) member stack and [0, n^2), maps slabs of the
stack over the pool through the factored route's member kernel, and on
the calling thread compares each member's lines of degrees 1..t, then
the int64 sums of their degree-(t+1) residues, R1, R2 and R3.  Results
and reports do not depend on the pool size: workers run private kernels.

The consecutive-entry check needs no sort: the compiled ``mark()`` sets
bit v of an n^2-bit seen-map for each entry v in [0, n^2), on the calling
thread as the first pass's blocks arrive, and counts the bits it set.
By pigeonhole the n^2 entries are 0..n^2-1, each once, exactly when they
set n^2 bits.  One wrapper, _mark, calls it; oa.py's member pass marks
column codes through it, into a v^k-bit map, in the same way.  A grid
square's entries are its cells' codes, so for a grid proved from its
table this check is the grid's coverage (construct.build_sdloa_grid).

The factored route.  Row I*n + lo of a composed square holds outer[I, J]
+ b_s[lo, c] with s = f[I, J], so by the binomial theorem its degree-e
power sum is sum_k C(e, k) sum_s W_{e-k}[I, s] S_k[s, lo]: W_i[I, s] sums
outer[I, J]^i over the blocks J of block row I that hold member s (a
scatter-add grouped by f), S_k[s, lo] is row lo's k-th power sum in
member s, and S_0 = n.  Columns are the same with column sums, and the
diagonals cross blocks (I, I) and (I, m-1-I), reading the members' main
and back diagonals.  So the N^2 entries of order N = m*n cost, per
degree and modulus, a product of an (m, m') and an (m', n) matrix for
the rows and one for the columns.  The moduli are those of _plan for
order N and the bound of the parts' extremes, and also of [0, N^2), so
that the targets lie within it; the members' residues come from the same
sums() kernel, one member per call, as in verify_cms.  Each line's
residues are compared with the target's, as on every route.  The
arithmetic stays in integers: modulo 2**64 the uint64 products and sums
wrap exactly; for the odd moduli, _moduli is given a lower ceiling,
isqrt((2**63 - 1) / m'), so that numpy's int64 matrix product, a sum
of m' products of residues, cannot overflow (six moduli instead of five
for degree 4 at MS(7^7, 4), rather than a reduction per product or
16-bit limbs, which would double the products).
The entries are 0..N^2-1 when outer is n^2 times a permutation of
0..m^2-1 and every member that f names is a permutation of 0..n^2-1
(each marked in a bit map).  The converse fails, so a square whose parts
fail this is filled and marked entry by entry, as on the exhaustive
route.  A square whose entries may leave the int64 range, which rows()
would wrap, takes the exhaustive route.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import _pool
from ._codec import ffi as _ffi, lib as _lib


def _int64(a) -> np.ndarray:
    """a as a C-contiguous int64 array, a view when it is one; ValueError
    unless its entries are integers, which the cast would truncate."""
    a = np.asarray(a)
    if not np.issubdtype(a.dtype, np.integer):
        raise ValueError("entries must be integers")
    return np.ascontiguousarray(a, dtype=np.int64)


@dataclass(frozen=True)
class MagicSquare:
    """An n x n integer square with a claimed multimagic degree."""

    entries: np.ndarray
    t: int
    base: int = 0

    def __post_init__(self):
        e = _int64(self.entries)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError("entries must form a square matrix")
        if self.t < 1:
            raise ValueError("degree must be at least 1")
        object.__setattr__(self, "entries", e)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def normalized(self) -> np.ndarray:
        """Entries shifted to start at 0."""
        return self.entries - self.base if self.base else self.entries

    def rows(self, r0: int, r1: int) -> np.ndarray:
        """Rows r0..r1-1 of the entries, a view: the row-block interface
        through which verification and the writers read every square."""
        return self.entries[r0:r1]


@dataclass(frozen=True)
class LineFailure:
    degree: int
    kind: str  # row | col | diag-main | diag-back | entries | R1 | R2 | R3-main | R3-back
    index: int | None = None
    got: int | None = None
    want: int | None = None
    member: int | None = None

    _KIND_NAMES = {
        "diag-main": "main diagonal",
        "diag-back": "back diagonal",
        "R1": "R1 (row total)",
        "R2": "R2 (column total)",
        "R3-main": "R3 (main diagonal)",
        "R3-back": "R3 (back diagonal)",
    }

    def describe(self) -> str:
        kind = self._KIND_NAMES.get(self.kind, self.kind)
        where = "" if self.index is None else f" {self.index}"
        who = "" if self.member is None else f" (member {self.member})"
        if self.kind == "entries":
            return f"entries are not consecutive{who}"
        return (f"{kind}{where} degree {self.degree}{who} failed: "
                f"got {self.got}, want {self.want}")


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of a verification run; verdict true iff nothing failed."""

    order: int
    degree: int
    magic_sums: dict = field(default_factory=dict)
    consecutive_ok: bool = True
    failures: tuple[LineFailure, ...] = ()
    members: int = 1

    @property
    def passed(self) -> bool:
        return self.consecutive_ok and not self.failures

    # the summary's side of each line kind: a family's R1, R2 and R3
    # totals count with its rows, columns and diagonals
    _SIDES = {"row": "rows", "R1": "rows", "col": "cols", "R2": "cols",
              "diag-main": "diagonals", "diag-back": "diagonals",
              "R3-main": "diagonals", "R3-back": "diagonals"}

    def summary(self) -> str:
        lines = [
            f"order={self.order} degree={self.degree} members={self.members}",
            f"consecutive_entries={'pass' if self.consecutive_ok else 'FAIL'}",
        ]
        # a line that fails in several members of a family counts once
        failed = Counter((degree, self._SIDES[kind]) for degree, kind, _ in
                         {(f.degree, f.kind, f.index) for f in self.failures
                          if f.kind != "entries"})
        n = self.order
        for e in sorted(self.magic_sums):
            lines.append(
                f"degree {e}: target={self.magic_sums[e]} "
                f"rows={n - failed[e, 'rows']}/{n} "
                f"cols={n - failed[e, 'cols']}/{n} "
                f"diagonals={2 - failed[e, 'diagonals']}/2"
            )
        for f in self.failures[:20]:
            lines.append("FAIL " + f.describe())
        if len(self.failures) > 20:
            lines.append(f"... and {len(self.failures) - 20} more failures")
        lines.append(f"verdict={'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Exact power sums
# ---------------------------------------------------------------------------

def power_sum(limit: int, e: int) -> int:
    """Exact sum of k**e for k in 0..limit-1, in integers: k**e is the sum
    over j of S(e, j) j! C(k, j), S the Stirling numbers of the second
    kind, and C(k, j) summed over k < limit is C(limit, j + 1)."""
    if e < 1:
        raise ValueError("exponent must be at least 1")
    if limit <= 1:
        return 0
    stirling = [0, 1] + [0] * (e - 1)  # S(i, 0..e) for i = 1, built up to i = e
    for i in range(2, e + 1):
        for j in range(i, 0, -1):
            stirling[j] = j * stirling[j] + stirling[j - 1]
    return sum(s * math.factorial(j) * math.comb(limit, j + 1)
               for j, s in enumerate(stirling))


def magic_sum(n: int, e: int) -> int:
    """The degree-e magic constant for an order-n square on 0..n^2-1."""
    if n < 1:
        raise ValueError("order must be positive")
    total = power_sum(n * n, e)
    if total % n:
        raise ValueError(f"power sum {total} is not divisible by n={n}")
    return total // n


# ---------------------------------------------------------------------------
# Exact line sums over a square
# ---------------------------------------------------------------------------

def _moduli(bound: int, below: int = 2**31) -> list[int]:
    """Pairwise coprime moduli whose product exceeds 2 * bound: 2**64
    first, then odd m < below stepping down from the largest."""
    moduli, product, m = [2**64], 2**64, (below - 2) | 1
    while product <= 2 * bound:
        if math.gcd(m, product) == 1:
            moduli.append(m)
            product *= m
        m -= 2
    return moduli


# Entries per row block of the power sums, split evenly over the pool: the
# blocks in flight, filled or held, take about 2.5 times this.
_BLOCK_ENTRIES = 1 << 18


def _plan(n: int, top: int, lo: int, hi: int, below: int = 2**31):
    """The moduli, odd ones below below, of the power sums of degrees
    1..top of an order-n square with entries in [lo, hi], the count each
    degree needs, and whether entries need reducing modulo each."""
    big = max(-lo, hi)
    needs = [len(_moduli(n * big ** e, below)) for e in range(1, top + 1)]
    moduli = _moduli(n * big ** top, below)
    reduce = [j > 0 and not (0 <= lo and hi < m) for j, m in enumerate(moduli)]
    return moduli, needs, reduce


def _block_sums(sq, moduli: list[int], needs: list[int], reduce: list[bool],
                step: int, r0: int):
    """The pooled kernel: rows r0..r0+step-1 of square sq, filled on this
    worker, their _sums, and the block itself."""
    n = sq.n
    r1 = min(r0 + step, n)
    blk = np.ascontiguousarray(sq.rows(r0, r1), dtype=np.int64)
    if blk.shape != (r1 - r0, n):  # the kernel reads rows x n entries
        raise ValueError(f"rows({r0}, {r1}) gave a {blk.shape} block of an order-{n} square")
    return *_sums(blk, r0, sq.base, moduli, needs, reduce), blk


def _sums(blk: np.ndarray, r0: int, base: int, moduli: list[int], needs: list[int],
          reduce: list[bool]):
    """The residues of the power sums of blk, C-contiguous int64 rows r0..
    of a square, less base, by the compiled sums() of _codec.c: for each
    degree e = 1..len(needs) and each of its first needs[e-1] moduli, a
    row of the block's row sums (K, rows), column partials (K, n) and
    diagonal partials (K,) twice, K = sum(needs); then the least and the
    greatest normalised entry."""
    n, total = blk.shape[1], sum(needs)
    rows = np.empty((total, len(blk)), dtype=np.int64)
    cols = np.empty((total, n), dtype=np.int64)
    diag, back = np.empty((2, total), dtype=np.int64)
    lohi = np.empty(2, dtype=np.int64)
    odd = np.array(moduli[1:], dtype=np.uint64)
    buf = _ffi.from_buffer
    _lib.sums(buf("int64_t[]", blk), len(blk), n, r0, base, buf("uint64_t[]", odd),
              odd.size, buf("unsigned char[]", np.array(reduce[1:], dtype=np.uint8)),
              len(needs), buf("size_t[]", np.array(needs, dtype=np.uintp)),
              buf("uint64_t[]", np.empty(2 * n, dtype=np.uint64)), buf("int64_t[]", rows),
              buf("int64_t[]", cols), buf("int64_t[]", diag), buf("int64_t[]", back),
              buf("int64_t[]", lohi))
    return rows, cols, diag, back, int(lohi[0]), int(lohi[1])


def _line_power_sums(sq, top: int, lo: int, hi: int, seen: np.ndarray | None = None):
    """Residues of the row, column and both diagonal sums of entrywise
    e-th powers of the normalised square sq, for every degree e = 1..top,
    when every normalised entry lies in [lo, hi]: a (K, 2n + 2) array,
    rows, columns, main and back diagonal, congruent but not reduced,
    degree e on needs[e-1] rows modulo the first needs[e-1] moduli; the
    moduli; needs; the least and the greatest normalised entry; and, if
    seen is given, the number of bits marked in it, each in-range value v
    setting bit v.  Each degree-e sum lies in [-B, B], B = n * max(-lo,
    hi)**e, and _moduli(B) suffice; row blocks are summed on the pool."""
    n = sq.n
    moduli, needs, reduce = _plan(n, top, lo, hi)
    # each worker holds _BLOCK_ENTRIES / workers entries at a time
    starts = _pool.blocks(n, n, _BLOCK_ENTRIES)
    kernel = partial(_block_sums, sq, moduli, needs, reduce, starts.step)
    rows = np.empty((sum(needs), n), dtype=np.int64)
    cols = np.zeros((sum(needs), n), dtype=np.int64)
    diag, back = np.zeros((2, sum(needs)), dtype=np.int64)
    ranges, marked = [], 0
    # column and diagonal partials add up in block order; modulo 2**64
    # they wrap, which keeps them congruent
    for r0, (rs, cs, d, b, *span, blk) in zip(starts, _pool.ordered_map(kernel, starts)):
        rows[:, r0:r0 + rs.shape[1]] = rs
        cols += cs
        diag += d
        back += b
        ranges += span
        if seen is not None:  # plain bit ors, on this thread alone
            marked += _mark(blk, seen, n * n, sq.base)
    residues = np.concatenate((rows, cols, diag[:, None], back[:, None]), axis=1)
    return residues, moduli, needs, min(ranges), max(ranges), marked


def _crt(residues: np.ndarray, moduli: list[int]) -> list[int]:
    """Per column, the integer in (-M/2, M/2] congruent to residues[j]
    modulo moduli[j] for every j, M the product of the moduli.  Garner's
    mixed-radix digits are found in int64, where every product of two
    values below 2**31 fits; only their weighted sum is formed in Python
    ints."""
    digits = [residues[0].view(np.uint64)]  # the residue modulo 2**64
    for j in range(1, len(moduli)):
        m = moduli[j]
        # the digits so far, modulo m: sum of d_i * (M_i mod m), M_i the
        # product of the moduli before i
        acc = (digits[0] % np.uint64(m)).astype(np.int64)
        weight = 2**64 % m
        for i in range(1, j):
            acc = (acc + digits[i] * weight) % m
            weight = weight * moduli[i] % m
        digits.append((residues[j] - acc) % m * pow(weight, -1, m) % m)
    values, scale = digits[0].tolist(), 1
    for d, m in zip(digits[1:], moduli):
        scale *= m
        values = [v + scale * x for v, x in zip(values, d.tolist())]
    scale *= moduli[-1]
    return [v - scale if 2 * v > scale else v for v in values]


def _square_misses(sq, targets: dict):
    """The per-square kernel: whether the entries are consecutive, and the
    misses of each degree of targets.  The first pass takes its moduli for
    entries in [0, n^2) and marks the bit seen-map; if an entry falls
    outside, a second pass runs with the true bound widened to [0, n^2),
    which covers the targets."""
    n = sq.n
    seen = np.zeros((n * n + 7) // 8, dtype=np.uint8)
    residues, moduli, needs, lo, hi, marked = _line_power_sums(sq, len(targets), 0,
                                                               n * n - 1, seen)
    if not 0 <= lo <= hi < n * n:
        residues, moduli, needs = _line_power_sums(sq, len(targets), min(lo, 0),
                                                   max(hi, n * n - 1))[:3]
    firsts = np.cumsum([0] + needs)
    misses = [_residue_misses(residues[k:k + need], moduli[:need], target)
              for k, need, target in zip(firsts, needs, targets.values())]
    # n^2 in-range entries set every bit exactly when they are 0..n^2-1
    return marked == n * n, misses


def _residue_misses(residues: np.ndarray, moduli: list[int], target: int) -> list:
    """The (kind, index, got) of every line whose sum misses target, from a
    (K, 2n + 2) array of line sum residues modulo the first K moduli, laid
    out rows, columns, main and back diagonal, odd rows only congruent.
    A line misses iff a reduced residue differs from the target's, as the
    moduli's product exceeds twice a bound on both; only the lines that
    miss are recombined by the CRT, for their exact sums."""
    n = (residues.shape[1] - 2) // 2
    odd = np.array(moduli[1:], dtype=np.int64)[:, None]
    wide = (target + 2**63) % 2**64 - 2**63
    want = np.array([target % m for m in moduli[1:]], dtype=np.int64)[:, None]
    miss = np.flatnonzero((residues[0] != wide) | (residues[1:] % odd != want).any(axis=0))
    got = _crt(residues[:, miss], moduli) if miss.size else []
    kinds = ("row", "col", "diag-main", "diag-back")
    return [(kinds[i // n], i % n, s) if i < 2 * n else (kinds[i - 2 * n + 2], None, s)
            for i, s in zip(miss.tolist(), got)]


def _failures(targets: dict, consecutive_ok: bool, misses,
              member: int | None = None) -> list[LineFailure]:
    """A failure for each (kind, index, got) miss of each degree, misses
    holding one list per degree of targets, then the consecutive-entry
    failure, if any."""
    failures = [LineFailure(e, kind, index, got, target, member)
                for (e, target), lines in zip(targets.items(), misses)
                for kind, index, got in lines]
    if not consecutive_ok:
        failures.append(LineFailure(0, "entries", member=member))
    return failures


# ---------------------------------------------------------------------------
# Line sums of a composed square from its parts
# ---------------------------------------------------------------------------

def _mark(values: np.ndarray, bits: np.ndarray, limit: int, base: int = 0) -> int:
    """Mark bit v of the bit map bits for each v = value - base in
    [0, limit), by the compiled mark(), on the calling thread; returns the
    number of bits set that were clear."""
    values = np.ascontiguousarray(values, dtype=np.int64)
    return _lib.mark(_ffi.from_buffer("int64_t[]", values), values.size, base, limit,
                     _ffi.from_buffer("unsigned char[]", bits))


def _covers(values: np.ndarray) -> bool:
    """The values cover 0..values.size-1, so each exactly once: marked
    in a map of values.size bits, they set every bit."""
    full = np.size(values)
    return _mark(values, np.zeros((full + 7) // 8, dtype=np.uint8), full) == full


def _member_sums(moduli: list[int], top: int, reduce: list[bool], run: np.ndarray):
    """The pooled kernel of a member stack: for each (n, n) square of the
    run, a slab of the stack, its row and column sums (top, K, n) and its
    diagonal sums (top, K) of the powers 1..top of its entries, modulo
    each of the K moduli, from the compiled sums(), and whether its
    entries are 0..n^2-1."""
    out = []
    for member in run:
        n, k = member.shape[0], len(moduli)
        rows, cols, diag, back, _, _ = _sums(member, 0, 0, moduli, [k] * top, reduce)
        out.append((rows.reshape(top, k, n), cols.reshape(top, k, n), diag.reshape(top, k),
                    back.reshape(top, k), _covers(member)))
    return out


def _modulus_lines(outer, f, groups, lines, residues, moduli, j):
    """The pooled kernel of the composed square's lines: row j of
    residues[e], the line sums of degree e modulo moduli[j], for every
    degree e whose bound needs that modulus (residues[e] has a row j),
    laid out rows, columns, main and back diagonal.

    Row I*n + lo holds outer[I, J] + b_s[lo, c], s = f[I, J], so by the
    binomial theorem its degree-e sum is n * sum_J outer[I, J]^e plus
    sum_{k>=1} C(e, k) sum_s W_{e-k}[I, s] S_k[s, lo], W_i[I, s] the sum of
    outer[I, J]^i over the J with f[I, J] = s and S_k[s, lo] row lo's k-th
    power sum in member s: a product of (m, m') and (m', n) matrices.
    Columns are the same, grouped by block column.  The diagonals cross
    blocks (I, I) and (I, m-1-I), and read the members' diagonal sums.
    groups holds the flat (I, s) and the flat (J, s) of each block, and
    lines the members' (rows, cols, diag, back) sums of residues."""
    m, p = outer.shape[0], moduli[j]
    top, _, count, n = lines[0].shape
    wide = j == 0  # modulo 2**64, uint64 products and sums wrap
    dtype = np.uint64 if wide else np.int64

    def red(x):  # a product of two residues below p < 2**31 fits int64
        return x if wide else x % p

    def add(acc, term):  # in place, acc and term below p
        np.add(acc, term, out=acc)
        if not wide:
            np.remainder(acc, p, out=acc)

    comb = [[math.comb(e, k) % p for k in range(e + 1)] for e in range(top + 1)]
    a = outer.view(np.uint64) if wide else outer % p
    rows, cols, diag, back = (red(x[:, j].astype(dtype)) for x in lines)
    ar = np.arange(m)
    ends = ((ar, ar, diag), (ar, m - 1 - ar, back))
    accs = {}
    for e, res in residues.items():
        if j < len(res):
            acc = res[j].view(dtype)
            acc[:] = 0
            accs[e] = (acc[:m * n].reshape(m, n), acc[m * n:-2].reshape(m, n),
                       acc[-2:-1], acc[-1:])
    power = np.ones((m, m), dtype)
    for i in range(top + 1):  # the power of outer, i = e - k
        if i:
            np.multiply(power, a, out=power)
            if not wide:
                np.remainder(power, p, out=power)
        weights = []
        if any(e > i for e in accs):
            for key in groups:
                w = np.zeros(m * count, dtype)
                np.add.at(w, key, power.ravel())
                weights.append(red(w).reshape(m, count))
        for e, acc in accs.items():
            if e == i:  # k = 0: the n entries of each block line share outer's term
                add(acc[0], red(red(power.sum(axis=1)) * (n % p))[:, None])
                add(acc[1], red(red(power.sum(axis=0)) * (n % p))[:, None])
                for end, (r, c, _) in zip(acc[2:], ends):
                    add(end, red(red(power[r, c].sum(keepdims=True)) * (n % p)))
            elif e > i:
                k = e - i
                binom = dtype(comb[e][k])
                add(acc[0], red(binom * red(weights[0] @ rows[k - 1])))
                add(acc[1], red(binom * red(weights[1] @ cols[k - 1])))
                for end, (r, c, sums) in zip(acc[2:], ends):
                    term = red(red(power[r, c] * sums[k - 1][f[r, c]]).sum(keepdims=True))
                    add(end, red(binom * term))


def _composed_misses(sq, targets: dict):
    """Whether the entries of sq, a construct.ComposedSquare, are
    consecutive, and the misses of each degree of targets, computed from
    its parts with no pass over its entries; None when its entries may
    leave the int64 range, which the exhaustive pass reads wrapped."""
    outer = np.asarray(sq.outer, dtype=np.int64)
    stack = np.ascontiguousarray(sq.stack, dtype=np.int64)
    count, n = stack.shape[:2]
    m, size, top = outer.shape[0], sq.n, len(targets)
    f = np.asarray(sq.f, dtype=np.int64) % count  # rows() reads f with mode="wrap"
    b_lo, b_hi = int(stack.min()), int(stack.max())
    lo, hi = int(outer.min()) + b_lo, int(outer.max()) + b_hi
    if not (-2**63 <= lo and hi < 2**63):
        return None
    # the bound covers the entries and [0, size^2), and so the targets;
    # below keeps a sum of count products of residues within int64
    below = min(2**31, math.isqrt((2**63 - 1) // count) + 1)
    moduli, needs, _ = _plan(size, top, min(lo, 0), max(hi, size * size - 1), below)
    reduce = [j > 0 and not (0 <= b_lo and b_hi < p) for j, p in enumerate(moduli)]
    starts = _pool.blocks(count, n * n, _BLOCK_ENTRIES)
    runs = _pool.ordered_map(partial(_member_sums, moduli, top, reduce),
                             (stack[i:i + starts.step] for i in starts))
    *lines, covered = zip(*(x for run in runs for x in run))
    lines = [np.stack(x, axis=2) for x in lines]  # (top, K, count, ...)

    ar = np.arange(m)
    groups = ((ar[:, None] * count + f).ravel(), (f + ar * count).ravel())
    residues = {e: np.empty((needs[e - 1], 2 * size + 2), dtype=np.int64)
                for e in targets}
    _pool.each(partial(_modulus_lines, outer, f, groups, lines, residues, moduli),
               range(len(moduli)))
    misses = [_residue_misses(residues[e], moduli[:needs[e - 1]], target)
              for e, target in targets.items()]

    # the parts suffice: n^2 times a permutation of 0..m^2-1 plus members
    # that are each a permutation of 0..n^2-1 gives 0..size^2-1; the
    # converse fails, so otherwise the entries are filled and marked
    nn = n * n
    consecutive_ok = (np.array(covered)[np.unique(f)].all() and not (outer % nn).any()
                      and _covers(outer // nn))
    if not consecutive_ok:
        consecutive_ok = _square_misses(sq, {})[0]
    return consecutive_ok, misses


def verify_ms(sq, t: int | None = None) -> VerifyReport:
    """Check the consecutive-entry property and, for each degree 1..t,
    every row, column, and diagonal power sum of sq, a MagicSquare or any
    square read through rows(r0, r1).  A construct.ComposedSquare is
    checked from its parts; any other square entry by entry."""
    from .construct import ComposedSquare  # construct imports this module

    if t is None:
        t = sq.t
    if t < 1:
        raise ValueError("degree must be at least 1")
    targets = {e: magic_sum(sq.n, e) for e in range(1, t + 1)}
    found = _composed_misses(sq, targets) if isinstance(sq, ComposedSquare) else None
    if found is None:
        found = _square_misses(sq, targets)
    consecutive_ok, misses = found
    return VerifyReport(
        order=sq.n,
        degree=t,
        magic_sums=targets,
        consecutive_ok=consecutive_ok,
        failures=tuple(_failures(targets, consecutive_ok, misses)),
    )


def _family_stack(stack, t: int) -> np.ndarray:
    """stack as a C-contiguous int64 array, a view when it is one;
    ValueError unless it is an (m, n, n) stack of integers, m, n >= 1,
    and t >= 1."""
    stack = _int64(stack)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or not stack.size:
        raise ValueError("a family is an (m, n, n) stack of squares, m, n >= 1")
    if t < 1:
        raise ValueError("degree must be at least 1")
    return stack


def verify_cms(stack, t: int) -> VerifyReport:
    """Check that the members, the (m, n, n) stack of squares with entries
    from 0, are each MS(n, t) and that the three complementary power-sum
    conditions hold at exponent t+1:

      R1: per row index, the exponent-(t+1) total over all members;
      R2: per column index;
      R3: both diagonals.

    Every total must equal m times the degree-(t+1) magic constant.
    Runs of members are summed on the pool, degrees 1..t+1 in one pass
    each.
    """
    stack = _family_stack(stack, t)
    m_count, n = stack.shape[:2]
    e = t + 1
    each = {d: magic_sum(n, d) for d in range(1, e)}  # per member
    sums_at = {**each, e: magic_sum(n, e)}
    target = m_count * sums_at[e]

    # one set of moduli covers every member line, family total and target
    lo, hi = min(0, int(stack.min())), max(n * n - 1, int(stack.max()))
    moduli, _, reduce = _plan(m_count * n, e, lo, hi)
    # runs of members of about _BLOCK_ENTRIES / workers entries per task,
    # as for row blocks, so that small members do not pay a task each
    starts = _pool.blocks(m_count, n * n, _BLOCK_ENTRIES)
    runs = _pool.ordered_map(partial(_member_sums, moduli, e, reduce),
                             (stack[i:i + starts.step] for i in starts))
    failures: list[LineFailure] = []
    consecutive_ok = True
    # modulo 2**64 the adds wrap; an odd row stays below m * n * 2**31,
    # within int64 for any family whose m * n^2 entries are held
    totals = np.zeros((len(moduli), 2 * n + 2), dtype=np.int64)
    for idx, (rows, cols, diag, back, ok) in enumerate(x for run in runs for x in run):
        lines = np.concatenate((rows, cols, diag[..., None], back[..., None]), axis=2)
        consecutive_ok = consecutive_ok and ok
        failures += _failures(each, ok, [_residue_misses(lines[d - 1], moduli, each[d])
                                         for d in each], member=idx)
        totals += lines[t]
    kinds = {"row": "R1", "col": "R2", "diag-main": "R3-main", "diag-back": "R3-back"}
    failures += [LineFailure(e, kinds[kind], index, got, target)
                 for kind, index, got in _residue_misses(totals, moduli, target)]

    return VerifyReport(
        order=n,
        degree=t,
        magic_sums=sums_at,
        consecutive_ok=consecutive_ok,
        failures=tuple(failures),
        members=m_count,
    )
