"""Reference copy of build_cms as it was before the translated family was
derived from grid 0 by index permutation: every translated grid is
materialised by adding its shift through the addition table and checked
by verify_sdloa, and each of the 2n+2 cross-member families is checked
by verify_large_set.  Tests compare the library against it.
"""

import numpy as np

from multimagic import construct, linalg, oa, verify
from multimagic.construct import CmsFamily
from multimagic.errors import ConstructionError

from conftest import cells_family


def _matvec(table, mat: np.ndarray, vec) -> np.ndarray:
    """mat @ vec over GF(q) for one vector; int16 of length k."""
    acc = np.zeros(mat.shape[0], dtype=np.int16)
    for j, w in enumerate(vec):
        acc = table.add_table[acc, table.mul_table[mat[:, j], int(w)]]
    return acc


def build_cms(cert, scheme=None) -> CmsFamily:
    table = cert.table
    t = cert.t
    q = table.q
    n = q**t
    require_diagonals = scheme is None
    if scheme is None:
        if cert.d is None:
            raise ValueError("certificate has no translation scalar; "
                             "supply a scheme explicitly")
        scheme = construct.default_scheme(table, t, cert.d)
    scheme.validate(q, t)
    construct._require_pair_flags(cert)

    e1 = linalg._labels(cert.e1)
    e2 = linalg._labels(cert.e2)
    base = table.add_table[construct._all_products(table, e1)[:, None, :],
                           construct._all_products(table, e2)[None, :, :]]
    shifts = [table.add_table[_matvec(table, e1, h), _matvec(table, e2, hs)]
              for h, hs in scheme.pairs]
    weights = q ** np.arange(2 * t, dtype=np.int64)

    members = []
    for i, shift in enumerate(shifts):
        cells = table.add_table[base, shift[None, None, :]]
        if not oa.verify_sdloa(cells_family(cells, q, t), t):
            raise ConstructionError(
                f"translated grid {i} failed strong-double-large-set verification")
        members.append(cells.astype(np.int64) @ weights)

    def large_set(line: np.ndarray) -> bool:
        """Cells (N, 2t) of one line; member s is line.T + shift s."""
        return oa.verify_large_set(oa.ArrayFamily(tuple(
            oa.OrthArray(table.add_table[line.T, shift[:, None]], q, t)
            for shift in shifts)), t)

    for x in range(n):
        if not large_set(base[x]):
            raise ConstructionError(f"row family X={x} is not a large set")
    for y in range(n):
        if not large_set(base[:, y]):
            raise ConstructionError(f"column family Y={y} is not a large set")

    ar = np.arange(n)
    checks = {"rows": True, "columns": True,
              "main_diagonal": large_set(base[ar, ar]),
              "back_diagonal": large_set(base[ar, n - 1 - ar])}
    if require_diagonals and not (checks["main_diagonal"] and checks["back_diagonal"]):
        bad = [k for k in ("main_diagonal", "back_diagonal") if not checks[k]]
        raise ConstructionError(f"diagonal families are not large sets: {bad}")

    stack = np.stack(members)
    report = verify.verify_cms(stack, t)
    if not report.passed:
        raise ConstructionError("complementary family failed verification: "
                                + "; ".join(f.describe() for f in report.failures[:4]))
    return CmsFamily(stack, t, checks)
