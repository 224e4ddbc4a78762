"""Exact verification of magic, multimagic, and complementary-family
properties.

No floating point anywhere.  Line power sums are taken modulo 2**64
(int64 wraparound) and, as the bound requires, modulo odd m < 2**31, then
recombined exactly by the CRT.  Products of residues below 2**31, and
line sums of n < 2**32 of them, fit in int64.

The residues are summed over row blocks of about a million entries, so no
temporary is larger than a block.  A row sum lies in one block.  Column
and diagonal sums add up across blocks in int64: modulo 2**64 the adds
wrap, which keeps them congruent, and for an odd modulus a column sum of
n residues stays below n * 2**31.  The CRT needs only congruent residues,
so it runs once, after the last block.

The consecutive-entry check needs no sort: after a range check, each of
the n^2 entries marks one byte of an n^2 seen-map, and by pigeonhole n^2
entries in range mark every byte exactly when they are 0..n^2-1, each
once.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np


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


def _power_mod(x: np.ndarray, e: int, m: int) -> np.ndarray:
    """x**e mod m by square-and-multiply, for 0 <= x < m < 2**31."""
    if e == 1:
        return x
    half = _power_mod(x * x % m, e // 2, m)
    return half * x % m if e & 1 else half


# Entries per row block of the power sums.
_BLOCK_ENTRIES = 1 << 20


def _line_power_sums(mat: np.ndarray, e: int):
    """Row sums, column sums, and both diagonal sums of entrywise e-th
    powers, exact, as Python ints (rows, cols, diag, back).  Each sum lies
    in [-B, B], B = n * max|x|**e; its residues modulo _moduli(B), summed
    over row blocks, are recombined by Garner's CRT into (-M/2, M/2], M
    their product."""
    n = mat.shape[0]
    lo, hi = int(mat.min(initial=0)), int(mat.max(initial=0))
    moduli = _moduli(n * max(-lo, hi) ** e)
    step = max(1, _BLOCK_ENTRIES // max(1, n))
    residues = []
    for m in moduli:
        rows = np.empty(n, dtype=np.int64)
        cols = np.zeros(n, dtype=np.int64)
        diag = back = 0
        for r0 in range(0, n, step):
            blk = mat[r0:r0 + step]
            if m == moduli[0]:  # 2**64: int64 wraparound
                p = blk**e if e > 1 else blk
            else:
                p = _power_mod(blk if 0 <= lo and hi < m else blk % m, e, m)
            r = np.arange(len(blk))
            rows[r0:r0 + len(blk)] = p.sum(axis=1)
            cols += p.sum(axis=0)
            diag += int(p[r, r0 + r].sum())
            back += int(p[r, n - 1 - r0 - r].sum())
        residues.append(rows.tolist() + cols.tolist() + [diag, back])

    steps, product = [], 1
    for m in moduli:
        steps.append((m, product, pow(product, -1, m)))
        product *= m
    exact = []
    for digits in zip(*residues):
        x = 0
        for r, (m, before, inv) in zip(digits, steps):
            x += before * ((r - x) * inv % m)
        exact.append(x - product if 2 * x > product else x)
    return exact[:n], exact[n:2 * n], exact[2 * n], exact[2 * n + 1]


def verify_ms(sq: MagicSquare, t: int | None = None) -> VerifyReport:
    """Check the consecutive-entry property and, for each degree 1..t,
    every row, column, and diagonal power sum."""
    if t is None:
        t = sq.t
    if t < 1:
        raise ValueError("degree must be at least 1")
    n = sq.n
    norm = sq.normalized()
    failures: list[LineFailure] = []

    seen = np.zeros(n * n, dtype=bool)
    if n and 0 <= norm.min() and norm.max() < n * n:
        seen[norm.ravel()] = True
    consecutive_ok = bool(seen.all())

    sums = {}
    for e in range(1, t + 1):
        target = magic_sum(n, e)
        sums[e] = target
        rows, cols, diag, back = _line_power_sums(norm, e)
        for i, s in enumerate(rows):
            if s != target:
                failures.append(LineFailure(e, "row", i, s, target))
        for j, s in enumerate(cols):
            if s != target:
                failures.append(LineFailure(e, "col", j, s, target))
        if diag != target:
            failures.append(LineFailure(e, "diag-main", None, diag, target))
        if back != target:
            failures.append(LineFailure(e, "diag-back", None, back, target))
    if not consecutive_ok:
        failures.append(LineFailure(0, "entries"))

    return VerifyReport(
        order=n,
        degree=t,
        magic_sums=sums,
        consecutive_ok=consecutive_ok,
        failures=tuple(failures),
    )


def verify_cms(members, t: int | None = None, threads: int = 1) -> VerifyReport:
    """Check that the members are each MS(n, t) and that the three
    complementary power-sum conditions hold at exponent t+1:

      R1: per row index, the exponent-(t+1) total over all members;
      R2: per column index;
      R3: both diagonals.

    Every total must equal m times the degree-(t+1) magic constant.
    Accepts either a family object carrying .members and .t, or an
    explicit member sequence plus degree.
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
    target = m_count * magic_sum(n, e)

    failures: list[LineFailure] = []
    consecutive_ok = True

    def _member_report(item):
        idx, sq = item
        return idx, verify_ms(sq, t), _line_power_sums(sq.normalized(), e)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_member_report, enumerate(members)))
    else:
        results = [_member_report(item) for item in enumerate(members)]

    row_tot = [0] * n
    col_tot = [0] * n
    diag_tot = 0
    back_tot = 0
    sums = {}
    for idx, rep, (rows, cols, diag, back) in results:
        sums.update(rep.magic_sums)
        if not rep.consecutive_ok:
            consecutive_ok = False
        for f in rep.failures:
            failures.append(LineFailure(f.degree, f.kind, f.index, f.got,
                                        f.want, member=idx))
        for i in range(n):
            row_tot[i] += rows[i]
            col_tot[i] += cols[i]
        diag_tot += diag
        back_tot += back

    sums[e] = magic_sum(n, e)
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
        magic_sums=sums,
        consecutive_ok=consecutive_ok,
        failures=tuple(failures),
        members=m_count,
    )
