"""Exact verification of magic, multimagic, and complementary-family
properties.

No floating point anywhere.  Line power sums are taken modulo 2**64
(int64 wraparound) and, as the bound requires, modulo odd m < 2**31, then
recombined exactly by the CRT.  Products of residues below 2**31, and
line sums of n < 2**32 of them, fit in int64.

One fused pass covers every degree 1..t: the minimum and maximum are
taken once, and each degree uses the moduli its own bound needs, a
prefix of those of degree t.  The pass runs over row blocks on the shared
worker pool (``_pool``); each worker holds a block of about a million
entries divided by the pool size, so no temporary is larger than that.
Within a block, powers are built incrementally for each modulus: in place
modulo 2**64, and x**e = x**(e-1) * x mod m for an odd m.  A row sum lies
in one block.  Column and diagonal partials are added in block order, on
the calling thread, in int64: modulo 2**64 the adds wrap, which keeps
them congruent, and for an odd modulus a column sum of n residues stays
below n * 2**31.  The CRT needs only congruent residues, so it runs once,
after the last block, with Garner's digits found in int64.
``verify_cms`` maps runs of members over the pool, each member one pass
over degrees 1..t+1, and builds the report on the calling thread.  Workers
run only private kernels, so results and reports do not depend on the
pool size.

The consecutive-entry check needs no sort: after a range check, each of
the n^2 entries marks one byte of an n^2 seen-map, and by pigeonhole n^2
entries in range mark every byte exactly when they are 0..n^2-1, each
once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np

from . import _pool


@dataclass(frozen=True)
class MagicSquare:
    """An n x n integer square with a claimed multimagic degree."""

    entries: np.ndarray
    t: int
    base: int = 0

    def __post_init__(self):
        e = np.asarray(self.entries)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError("entries must form a square matrix")
        if self.t < 1:
            raise ValueError("degree must be at least 1")
        object.__setattr__(self, "entries", np.ascontiguousarray(e, dtype=np.int64))

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def normalized(self) -> np.ndarray:
        """Entries shifted to start at 0."""
        return self.entries - self.base if self.base else self.entries


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

    def tallies(self) -> dict:
        """Per-degree (kind -> failed count) map."""
        out: dict = {}
        for f in self.failures:
            if f.kind == "entries":
                continue
            out.setdefault(f.degree, {}).setdefault(f.kind, 0)
            out[f.degree][f.kind] += 1
        return out

    def summary(self) -> str:
        lines = [
            f"order={self.order} degree={self.degree} members={self.members}",
            f"consecutive_entries={'pass' if self.consecutive_ok else 'FAIL'}",
        ]
        per = self.tallies()
        n = self.order
        for e in sorted(self.magic_sums):
            fails = per.get(e, {})
            lines.append(
                f"degree {e}: target={self.magic_sums[e]} "
                f"rows={n - fails.get('row', 0)}/{n} "
                f"cols={n - fails.get('col', 0)}/{n} "
                f"diagonals={2 - fails.get('diag-main', 0) - fails.get('diag-back', 0)}/2"
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

@lru_cache(maxsize=None)
def _bernoulli(j: int) -> Fraction:
    """Bernoulli numbers with the B_1 = +1/2 convention."""
    if j == 0:
        return Fraction(1)
    if j == 1:
        return Fraction(1, 2)
    if j % 2:
        return Fraction(0)
    acc = Fraction(0)
    for i in range(j):
        if i == 1:
            acc -= Fraction(math.comb(j + 1, i), 1) * _bernoulli(i)
        else:
            acc += Fraction(math.comb(j + 1, i), 1) * _bernoulli(i)
    # derived from sum_{i<=j} C(j+1, i) B-_i = 0 after flipping B_1's sign
    return -acc / (j + 1)


def power_sum(limit: int, e: int) -> int:
    """Exact sum of k**e for k in 0..limit-1, via the closed form."""
    if e < 1:
        raise ValueError("exponent must be at least 1")
    if limit <= 1:
        return 0
    k = limit - 1  # sum 1..k
    total = Fraction(0)
    for j in range(e + 1):
        total += math.comb(e + 1, j) * _bernoulli(j) * Fraction(k) ** (e + 1 - j)
    total /= e + 1
    assert total.denominator == 1
    return int(total)


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

def _moduli(bound: int) -> list[int]:
    """Pairwise coprime moduli whose product exceeds 2 * bound: 2**64
    first, then odd m < 2**31 stepping down from 2**31 - 1."""
    moduli, product, m = [2**64], 2**64, 2**31 - 1
    while product <= 2 * bound:
        if math.gcd(m, product) == 1:
            moduli.append(m)
            product *= m
        m -= 2
    return moduli


# Entries per row block of the power sums, split evenly over the pool.
_BLOCK_ENTRIES = 1 << 20


def _block_sums(mat: np.ndarray, moduli: list[int], needs: list[int],
                reduce: list[bool], step: int, r0: int):
    """Residues of the power sums of rows r0..r0+step-1 of mat, the pooled
    kernel.  For each degree e = 1..len(needs) in turn, and each of its
    first needs[e-1] moduli, one residue row: the block's row sums
    (K, rows), column partials (K, n) and diagonal partials (K,) twice,
    K = sum(needs).  Powers are built incrementally, in place; modulo
    2**64 they wrap."""
    n = mat.shape[1]
    blk = mat[r0:r0 + step]
    r = np.arange(len(blk))
    k_of = np.cumsum([0] + needs)  # degree e starts at row k_of[e-1]
    rows = np.empty((k_of[-1], len(blk)), dtype=np.int64)
    cols = np.empty((k_of[-1], n), dtype=np.int64)
    diag = np.empty(k_of[-1], dtype=np.int64)
    back = np.empty(k_of[-1], dtype=np.int64)
    for j, m in enumerate(moduli):
        x = blk % m if reduce[j] else blk
        p = x
        for e, need in enumerate(needs, 1):
            if e > 1:
                p = p * x if p is x else np.multiply(p, x, out=p)
                if j:
                    np.remainder(p, m, out=p)
            if j < need:
                k = k_of[e - 1] + j
                p.sum(axis=1, out=rows[k])
                p.sum(axis=0, out=cols[k])
                diag[k] = p[r, r0 + r].sum()
                back[k] = p[r, n - 1 - r0 - r].sum()
    return rows, cols, diag, back


def _line_power_sums(mat: np.ndarray, top: int) -> list[tuple]:
    """Row sums, column sums, and both diagonal sums of entrywise e-th
    powers for every degree e = 1..top, exact, as Python ints: one
    (rows, cols, diag, back) per degree.  Each degree-e sum lies in
    [-B, B], B = n * max|x|**e; its residues modulo _moduli(B), summed
    over row blocks on the pool, are recombined by Garner's CRT into
    (-M/2, M/2], M their product."""
    n = mat.shape[0]
    lo, hi = int(mat.min(initial=0)), int(mat.max(initial=0))
    needs = [len(_moduli(n * max(-lo, hi) ** e)) for e in range(1, top + 1)]
    moduli = _moduli(n * max(-lo, hi) ** top)
    reduce = [j > 0 and not (0 <= lo and hi < m) for j, m in enumerate(moduli)]
    # each worker holds _BLOCK_ENTRIES / workers entries at a time
    starts = _pool.blocks(n, n, _BLOCK_ENTRIES)
    kernel = partial(_block_sums, mat, moduli, needs, reduce, starts.step)
    rows = np.empty((sum(needs), n), dtype=np.int64)
    cols = np.zeros((sum(needs), n), dtype=np.int64)
    diag, back = np.zeros((2, sum(needs)), dtype=np.int64)
    # column and diagonal partials add up in block order; modulo 2**64
    # they wrap, which keeps them congruent
    for r0, (rs, cs, d, b) in zip(starts, _pool.ordered_map(kernel, starts)):
        rows[:, r0:r0 + rs.shape[1]] = rs
        cols += cs
        diag += d
        back += b
    residues = np.concatenate((rows, cols, diag[:, None], back[:, None]), axis=1)
    out, k = [], 0
    for need in needs:
        exact = _crt(residues[k:k + need], moduli[:need])
        out.append((exact[:n], exact[n:2 * n], exact[2 * n], exact[2 * n + 1]))
        k += need
    return out


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


def _square_sums(sq: MagicSquare, top: int):
    """The per-square kernel: whether the entries are consecutive, and the
    line power sums of the normalised square for degrees 1..top."""
    n = sq.n
    norm = sq.normalized()
    seen = np.zeros(n * n, dtype=bool)
    if n and 0 <= norm.min() and norm.max() < n * n:
        seen[norm.ravel()] = True
    return bool(seen.all()), _line_power_sums(norm, top)


def _failures(targets: dict, consecutive_ok: bool, sums,
              member: int | None = None) -> list[LineFailure]:
    """Every line whose degree-e sum misses targets[e], degree by degree,
    then the consecutive-entry failure, if any."""
    failures = []
    for (e, target), (rows, cols, diag, back) in zip(targets.items(), sums):
        for i, s in enumerate(rows):
            if s != target:
                failures.append(LineFailure(e, "row", i, s, target, member))
        for j, s in enumerate(cols):
            if s != target:
                failures.append(LineFailure(e, "col", j, s, target, member))
        if diag != target:
            failures.append(LineFailure(e, "diag-main", None, diag, target, member))
        if back != target:
            failures.append(LineFailure(e, "diag-back", None, back, target, member))
    if not consecutive_ok:
        failures.append(LineFailure(0, "entries", member=member))
    return failures


def verify_ms(sq: MagicSquare, t: int | None = None) -> VerifyReport:
    """Check the consecutive-entry property and, for each degree 1..t,
    every row, column, and diagonal power sum."""
    if t is None:
        t = sq.t
    if t < 1:
        raise ValueError("degree must be at least 1")
    targets = {e: magic_sum(sq.n, e) for e in range(1, t + 1)}
    consecutive_ok, sums = _square_sums(sq, t)
    return VerifyReport(
        order=sq.n,
        degree=t,
        magic_sums=targets,
        consecutive_ok=consecutive_ok,
        failures=tuple(_failures(targets, consecutive_ok, sums)),
    )


def verify_cms(members, t: int | None = None) -> VerifyReport:
    """Check that the members are each MS(n, t) and that the three
    complementary power-sum conditions hold at exponent t+1:

      R1: per row index, the exponent-(t+1) total over all members;
      R2: per column index;
      R3: both diagonals.

    Every total must equal m times the degree-(t+1) magic constant.
    Accepts either a family object carrying .members and .t, or an
    explicit member sequence plus degree.  Members are summed on the
    pool, degrees 1..t+1 in one pass each.
    """
    if t is None:
        if not hasattr(members, "members"):
            raise ValueError("degree required when passing a plain sequence")
        members, t = members.members, members.t
    members = list(members)
    if not members:
        raise ValueError("empty family")
    n = members[0].n
    if any(m.n != n for m in members):
        raise ValueError("member orders disagree")
    m_count = len(members)
    e = t + 1
    each = {d: magic_sum(n, d) for d in range(1, e)}  # per member
    sums_at = {**each, e: magic_sum(n, e)}
    target = m_count * sums_at[e]

    failures: list[LineFailure] = []
    consecutive_ok = True
    row_tot = [0] * n
    col_tot = [0] * n
    diag_tot = 0
    back_tot = 0
    # runs of members of about _BLOCK_ENTRIES / workers entries per task,
    # as for row blocks, so that small members do not pay a task each
    starts = _pool.blocks(m_count, n * n, _BLOCK_ENTRIES)

    def kernel(run):
        return [_square_sums(sq, e) for sq in run]

    runs = _pool.ordered_map(kernel, (members[i:i + starts.step] for i in starts))
    for idx, (ok, sums) in enumerate(r for run in runs for r in run):
        consecutive_ok = consecutive_ok and ok
        failures += _failures(each, ok, sums[:t], member=idx)
        rows, cols, diag, back = sums[t]
        for i in range(n):
            row_tot[i] += rows[i]
            col_tot[i] += cols[i]
        diag_tot += diag
        back_tot += back

    for i, s in enumerate(row_tot):
        if s != target:
            failures.append(LineFailure(e, "R1", i, s, target))
    for j, s in enumerate(col_tot):
        if s != target:
            failures.append(LineFailure(e, "R2", j, s, target))
    if diag_tot != target:
        failures.append(LineFailure(e, "R3-main", None, diag_tot, target))
    if back_tot != target:
        failures.append(LineFailure(e, "R3-back", None, back_tot, target))

    return VerifyReport(
        order=n,
        degree=t,
        magic_sums=sums_at,
        consecutive_ok=consecutive_ok,
        failures=tuple(failures),
        members=m_count,
    )
