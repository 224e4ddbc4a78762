"""The numpy power-sum kernel that the compiled sums() of _codec.c
replaced, kept as its test oracle: the same residues, from numpy
temporaries."""

import numpy as np


def block_sums(mat: np.ndarray, moduli: list[int], needs: list[int],
               reduce: list[bool], step: int, r0: int):
    """Residues of the power sums of rows r0..r0+step-1 of mat, entries
    already normalised.  For each degree e = 1..len(needs) in turn, and
    each of its first needs[e-1] moduli, one residue row: the block's row
    sums (K, rows), column partials (K, n) and diagonal partials (K,)
    twice, K = sum(needs).  Powers are built incrementally, in place;
    modulo 2**64 they wrap."""
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
