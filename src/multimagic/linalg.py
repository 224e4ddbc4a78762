"""Matrices over GF(q): rank, the any-t-rows-independent property, and the
deterministic searches for construction-admissible matrix pairs.

A pair (E1, E2) of 2t x t matrices drives the whole grid machinery.  The
searches below keep E1 fixed (a Vandermonde-style base whose strength is
guaranteed by distinct evaluation points) and scan structured scalings of
its two t-row halves for E2, so that certificates are reproducible across
runs and platforms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import SearchExhausted
from .gf import FieldTable


@dataclass(frozen=True)
class FMatrix:
    """Immutable matrix over a FieldTable; entries are element labels."""

    table: FieldTable
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.rows or not self.rows[0]:
            raise ValueError("matrix must have at least one row and column")
        width = len(self.rows[0])
        q = self.table.q
        for row in self.rows:
            if len(row) != width:
                raise ValueError("ragged rows")
            for x in row:
                if not 0 <= x < q:
                    raise ValueError(f"entry {x} outside GF({q})")

    @classmethod
    def from_rows(cls, table: FieldTable, rows) -> "FMatrix":
        return cls(table, tuple(tuple(int(x) for x in r) for r in rows))

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.rows[0])

    def col_slice(self, start: int, stop: int) -> "FMatrix":
        return FMatrix(self.table, tuple(r[start:stop] for r in self.rows))


def hstack(a: FMatrix, b: FMatrix) -> FMatrix:
    if a.table is not b.table:
        raise ValueError("mismatched fields")
    if a.n_rows != b.n_rows:
        raise ValueError("row count mismatch")
    return FMatrix(a.table, tuple(ra + rb for ra, rb in zip(a.rows, b.rows)))


def mat_add(a: FMatrix, b: FMatrix) -> FMatrix:
    if a.table is not b.table:
        raise ValueError("mismatched fields")
    t = a.table
    return FMatrix(t, tuple(
        tuple(t.add(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a.rows, b.rows)
    ))


def mat_sub(a: FMatrix, b: FMatrix) -> FMatrix:
    t = a.table
    return FMatrix(t, tuple(
        tuple(t.sub(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a.rows, b.rows)
    ))


def mat_scale(a: FMatrix, c: int) -> FMatrix:
    t = a.table
    return FMatrix(t, tuple(tuple(t.mul(c, x) for x in row) for row in a.rows))


def scale_halves(a: FMatrix, top: int, bottom: int) -> FMatrix:
    """Scale the top half of the rows by one scalar, the bottom half by
    another.  Row count must be even."""
    if a.n_rows % 2:
        raise ValueError("row count must be even")
    h = a.n_rows // 2
    t = a.table
    rows = tuple(
        tuple(t.mul(top if i < h else bottom, x) for x in row)
        for i, row in enumerate(a.rows)
    )
    return FMatrix(t, rows)


def _ranks(table: FieldTable, stack: np.ndarray) -> np.ndarray:
    """Rank over GF(q) of every matrix of a (B, R, C) stack of element
    labels, by one exact Gauss-Jordan elimination run on the whole stack
    through the table's add, mul, neg and inv arrays.  Column by column,
    each matrix takes as pivot its first row at or below its rank with a
    nonzero entry there, swaps it up, scales it to 1 and clears the
    column in every other row; a matrix without such a row skips the
    column.  Its rank is the number of pivots it took."""
    add, mul = table.add_table, table.mul_table
    neg, inv = table.neg_table, table.inv_table
    work = np.array(stack, dtype=np.intp)
    count, n_rows, n_cols = work.shape
    ranks = np.zeros(count, dtype=np.intp)
    below = np.arange(n_rows)
    for c in range(n_cols):
        open_rows = (work[:, :, c] != 0) & (below >= ranks[:, None])
        found = np.flatnonzero(open_rows.any(axis=1))
        if not found.size:
            continue
        pivot, r = open_rows[found].argmax(axis=1), ranks[found]
        mats, at = work[found], np.arange(found.size)
        top = mats[at, pivot]
        mats[at, pivot] = mats[at, r]
        top = mul[inv[top[:, c]][:, None], top]
        mats[at, r] = top
        factor = mats[:, :, c].copy()
        factor[at, r] = 0
        work[found] = add[mats, neg[mul[factor[:, :, None], top[:, None, :]]]]
        ranks[found] += 1
    return ranks


def _labels(mat: FMatrix) -> np.ndarray:
    return np.array(mat.rows, dtype=np.intp)


def rank(mat: FMatrix) -> int:
    """Rank over GF(q) by exact Gaussian elimination."""
    return int(_ranks(mat.table, _labels(mat)[None])[0])


def is_nonsingular(mat: FMatrix) -> bool:
    if mat.n_rows != mat.n_cols:
        raise ValueError("nonsingularity requires a square matrix")
    return rank(mat) == mat.n_rows


def is_strength_t(mat: FMatrix, t: int) -> bool:
    """True iff every t-subset of rows has rank t: one elimination over
    the stack of all C(rows, t) subsets."""
    if not 1 <= t <= mat.n_rows or t > mat.n_cols:
        raise ValueError(f"t={t} out of range for a "
                         f"{mat.n_rows}x{mat.n_cols} matrix")
    subsets = np.array(list(itertools.combinations(range(mat.n_rows), t)))
    return bool(np.all(_ranks(mat.table, _labels(mat)[subsets]) == t))


def vandermonde_base(table: FieldTable, t: int) -> FMatrix:
    """The 2t x t strength-t base matrix: one row per evaluation point.

    Row 0 is (1,0,...,0), row 1 is (0,...,0,1), and rows 2..2t-1 are the
    power rows (1, x^i, x^(2i), ..., x^((t-1)i)) for i = 1..2t-2 with x
    the primitive element.
    """
    q = table.q
    if t < 2:
        raise ValueError("t must be at least 2")
    if q < 2 * t - 1:
        raise ValueError(f"q={q} must be at least 2t-1={2 * t - 1}")
    x = table.primitive
    rows = [(1,) + (0,) * (t - 1), (0,) * (t - 1) + (1,)]
    for i in range(1, 2 * t - 1):
        rows.append(tuple(table.pow(table.pow(x, i), j) for j in range(t)))
    mat = FMatrix.from_rows(table, rows)
    if not is_strength_t(mat, t):
        raise RuntimeError("strength check failed on the base matrix "
                           "(indicates a field bug)")
    return mat


# Flag names in a fixed reporting order.
PAIR_FLAGS = ("e1_mt", "e2_mt", "sum_mt", "diff_mt", "e_nonsingular")
CMS_FLAGS = PAIR_FLAGS + (
    "e1_d_nonsingular",
    "e2_d_nonsingular",
    "sum_d_nonsingular",
    "diff_d_nonsingular",
)


@dataclass(frozen=True)
class MatrixPairCertificate:
    """A found (E1, E2[, d]) together with the named checks it passed."""

    e1: FMatrix
    e2: FMatrix
    t: int
    d: int | None = None
    checked_properties: dict = field(default_factory=dict)

    @property
    def table(self) -> FieldTable:
        return self.e1.table

    def all_true(self) -> bool:
        return all(self.checked_properties.values())


def check_pair(e1: FMatrix, e2: FMatrix, t: int, d: int | None = None) -> dict:
    """Recompute every named flag for a candidate pair.

    With d given, the four extra nonsingularity flags pair each of E1,
    E2, E1+E2, E1-E2 against E1 + d*E2.
    """
    table = e1.table
    s = mat_add(e1, e2)
    diff = mat_sub(e1, e2)
    flags = {
        "e1_mt": is_strength_t(e1, t),
        "e2_mt": is_strength_t(e2, t),
        "sum_mt": is_strength_t(s, t),
        "diff_mt": is_strength_t(diff, t),
        "e_nonsingular": is_nonsingular(hstack(e1, e2)),
    }
    if d is not None:
        e1d = mat_add(e1, mat_scale(e2, d))
        flags["e1_d_nonsingular"] = is_nonsingular(hstack(e1, e1d))
        flags["e2_d_nonsingular"] = is_nonsingular(hstack(e2, e1d))
        flags["sum_d_nonsingular"] = is_nonsingular(hstack(s, e1d))
        flags["diff_d_nonsingular"] = is_nonsingular(hstack(diff, e1d))
    return flags


def revalidate(cert: MatrixPairCertificate) -> dict:
    """Re-derive every recorded flag from the certificate's matrices."""
    return check_pair(cert.e1, cert.e2, cert.t, cert.d)


def _scalar_candidates(table: FieldTable):
    q = table.q
    excluded = {0, 1, table.neg(1)}
    return [c for c in range(q) if c not in excluded]


def find_sdloa_pair(table: FieldTable, t: int) -> MatrixPairCertificate:
    """First (y, z)-scaled pair with E1, E2, E1+E2, E1-E2 all strength-t
    and (E1, E2) nonsingular.  Deterministic: y, z run in label order over
    the elements outside {0, 1, -1}."""
    e1 = vandermonde_base(table, t)
    allowed = _scalar_candidates(table)
    tried = 0
    for y in allowed:
        for z in allowed:
            if z == y:
                continue
            tried += 1
            e2 = scale_halves(e1, y, z)
            flags = check_pair(e1, e2, t)
            if all(flags.values()):
                return MatrixPairCertificate(e1, e2, t, None, flags)
    raise SearchExhausted(
        f"no admissible (y, z) pair over GF({table.q}) for t={t} "
        f"({tried} candidates tried)"
    )


def find_cms_pair(table: FieldTable, t: int) -> MatrixPairCertificate:
    """Pair plus translation scalar d satisfying the full condition set.

    The primitive-element candidate (E2 halves scaled by x and x^2, d=x)
    is tried first; if any condition fails, the search falls back to the
    (y, z, d) enumeration.  Deterministic either way.
    """
    q = table.q
    if t < 2:
        raise ValueError("t must be at least 2")
    if q < 2 * t - 1:
        raise ValueError(f"q={q} must be at least 2t-1={2 * t - 1}")
    if q < 4:
        raise SearchExhausted(
            f"GF({q}) has no scalars outside {{0, 1, -1}}; q >= 4 is required"
        )
    e1 = vandermonde_base(table, t)

    x = table.primitive
    e2 = scale_halves(e1, x, table.mul(x, x))
    flags = check_pair(e1, e2, t, d=x)
    if all(flags.values()):
        return MatrixPairCertificate(e1, e2, t, x, flags)

    allowed = _scalar_candidates(table)
    tried = 1
    for y in allowed:
        for z in allowed:
            if z == y:
                continue
            e2 = scale_halves(e1, y, z)
            for d in range(1, q):
                tried += 1
                flags = check_pair(e1, e2, t, d=d)
                if all(flags.values()):
                    return MatrixPairCertificate(e1, e2, t, d, flags)
    raise SearchExhausted(
        f"no admissible (y, z, d) triple over GF({q}) for t={t} "
        f"({tried} candidates tried)"
    )
