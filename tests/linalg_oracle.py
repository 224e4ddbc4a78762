"""Reference copy of the scalar Gaussian elimination of ``linalg`` as it
was before the batched one: rank, nonsingularity and strength through the
field's scalar add, mul and inv, verbatim but for the imports.  Tests
compare the batched elimination against them."""

import itertools

from multimagic.linalg import FMatrix


def rank(mat: FMatrix) -> int:
    """Rank over GF(q) by exact Gaussian elimination."""
    t = mat.table
    work = [list(r) for r in mat.rows]
    n_rows, n_cols = mat.n_rows, mat.n_cols
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        pinv = t.inv(work[r][c])
        work[r] = [t.mul(pinv, x) for x in work[r]]
        for i in range(n_rows):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [t.sub(x, t.mul(f, y)) for x, y in zip(work[i], work[r])]
        r += 1
        if r == n_rows:
            break
    return r


def is_nonsingular(mat: FMatrix) -> bool:
    if mat.n_rows != mat.n_cols:
        raise ValueError("nonsingularity requires a square matrix")
    return rank(mat) == mat.n_rows


def is_strength_t(mat: FMatrix, t: int) -> bool:
    """True iff every t-subset of rows has rank t."""
    if not 1 <= t <= mat.n_rows or t > mat.n_cols:
        raise ValueError(f"t={t} out of range for a "
                         f"{mat.n_rows}x{mat.n_cols} matrix")
    for subset in itertools.combinations(range(mat.n_rows), t):
        sub = FMatrix(mat.table, tuple(mat.rows[i] for i in subset))
        if rank(sub) != t:
            return False
    return True
