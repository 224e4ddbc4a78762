"""Reference copy of the member pass as it was before the compiled kernel:
the numpy relabelling pass, the chunked coverage loop and the pooled
Horner column codes of ``oa``, verbatim but for the imports (the tally
and shape helpers are still ``oa``'s), and the diagonal selection on a
held array, as it was before the grid check stopped holding its cells.
Tests compare the kernel and the checks built on it against them.
"""

import math
from functools import partial

import numpy as np

from multimagic import _pool
from multimagic.oa import _check_strength, _stack_members_ok, _strength_ok

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


def _diagonals(members: np.ndarray) -> np.ndarray:
    """(2, k, N) stack of the diagonal selections of an (N, k, N) stack:
    column j of slab 0 is column j of member j, and column j of slab 1 is
    column N-1-j of member j."""
    ar = np.arange(members.shape[0])
    return members[ar, :, np.stack([ar, ar[::-1]])].transpose(0, 2, 1)


def _sdloa_ok(members: np.ndarray, v: int, t: int) -> bool:
    """SDLOA check on an (N, k, N) member stack with N * N = v^k and
    entries in 0..v-1, which may be a view: a large set in the row
    orientation, the member pass in the column orientation (whose columns
    are the same multiset, so coverage needs no second count), and both
    diagonal selections tallied at strength t."""
    return (_large_set_ok([members], v, t)
            and _relabelled_members_ok(members.transpose(2, 1, 0), v, t)
            and _strength_ok(_diagonals(members), v, t))
