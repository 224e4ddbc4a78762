"""Reference copy of the integer text codec as it was before the compiled
kernel: the numpy encoder and the numpy piece scanner of ``io``, verbatim
but for the imports.  Tests compare the kernel against them.
"""

import re

import numpy as np

from multimagic.errors import FormatError


def _digit_quads() -> np.ndarray:
    """"%04d" % i for i = 0..9999, each four-byte string read as one
    uint32: the two-digit strings of i // 100 and i % 100 side by side."""
    pairs = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode("ascii"),
                          dtype=np.uint16)
    quads = np.empty((100, 100, 2), dtype=np.uint16)
    quads[..., 0] = pairs[:, None]
    quads[..., 1] = pairs
    return quads.view(np.uint32).ravel()


_QUADS = _digit_quads()
_BODY_BYTES = b"0123456789+- \t\n\r"
_TOKEN = re.compile(rb"[+-]?[0-9]+")
_INT64_MAX = 2**63 - 1


def _encode(block: np.ndarray):
    """ASCII text of an integer row block: each row's decimal entries joined
    by single spaces and ended by a newline, the bytes of
    ``" ".join(map(str, row)) + "\\n"`` for every row, as a bytes-like
    object."""
    rows, cols = block.shape
    if not block.size:
        return b"\n" * rows
    slots, first = _slots(np.ascontiguousarray(block, dtype=np.int64).ravel(), cols)
    width = slots.shape[1]
    # patterns[f]: keep column 0 and columns f.. of a slot
    patterns = np.arange(width) >= np.arange(width + 1)[:, None]
    patterns[:, 0] = True
    keep = patterns.view(np.dtype((np.void, width))).ravel()[first].view(bool)
    # drop the newline that precedes the block; the extra slot ends its last row
    return memoryview(slots.ravel()[keep])[1:]


def _slots(flat: np.ndarray, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """The text slots of the entries of rows of cols entries, and the first
    byte kept of each.  A slot is a multiple of 8 bytes wide: column 0 holds
    the separator that precedes the entry, sign and digits are
    right-aligned, written four digits at a time from _QUADS.  One extra
    slot holds only the newline that ends the last row."""
    neg = flat < 0
    signed = bool(neg.any())
    if signed:
        u = flat.view(np.uint64)
        mag = np.where(neg, -u, u)  # two's complement, exact at int64 min
    else:
        mag = flat
    top = int(mag.max())
    mag = mag.astype(np.uint32 if top < 1 << 32 else np.uint64)
    digits = len(str(top))
    width = (digits + signed) // 8 * 8 + 8
    first = np.full(flat.size + 1, width - 1, dtype=np.uint8)
    first[-1] = width
    for d in range(1, digits):
        first[:-1] -= mag >= 10**d
    if signed:
        first[:-1] -= neg
    slots = np.empty((flat.size + 1, width), dtype=np.uint8)
    quads = slots.view(np.uint32)[:-1]
    groups = range(width // 4 - 1, width // 4 - 1 - (digits + 3) // 4, -1)
    rem = np.empty_like(mag)
    for c in groups[:-1]:
        np.divmod(mag, 10_000, out=(mag, rem))
        np.take(_QUADS, rem, out=quads[:, c], mode="clip")
    np.take(_QUADS, mag, out=quads[:, groups[-1]], mode="clip")  # mag < 10^4
    if signed:
        at = np.flatnonzero(neg)
        slots[at, first[at]] = ord("-")
    slots[:, 0] = ord(" ")
    slots[::cols, 0] = ord("\n")
    return slots, first


def _scan(piece: tuple[bytes, int]):
    """(per_line, values, error, last) of one (data, cut) piece, the
    pooled kernel of _decode.  per_line counts the tokens before the
    first line break, between breaks and after the last; values are the
    parsed tokens; error is the message of a token outside the int64
    range, else None; last marks the final piece.  A byte or sign error
    raises: the pool raises it in piece order, after every earlier piece
    was checked.  The range error is returned, since the caller's count
    and row checks on the same piece come first."""
    data, cut = piece
    # byte classes: token bytes, separators, nothing else
    if data.translate(None, _BODY_BYTES):
        raise FormatError("body holds a byte other than a digit, sign, "
                          "space, tab or line break")
    buf = np.frombuffer(data, dtype=np.uint8)
    b = buf[:cut]  # b[0] is a separator, buf[cut] one too unless at the end
    if b"+" in data or b"-" in data:
        at = np.flatnonzero((b == ord("+")) | (b == ord("-")))
        after = buf[at + 1]
        if ((b[at - 1] > 32).any() or (after < ord("0")).any()
                or (after > ord("9")).any()):
            raise FormatError("a sign must start a token and precede a digit")
    # token start offsets (b[0] is a separator, and every separator byte
    # is at most b" ")
    starts = np.flatnonzero((b[:-1] <= 32) & (b[1:] > 32)) + 1
    breaks = np.flatnonzero(b == 10)
    if b"\r" in data:
        cr = np.flatnonzero(b == 13)
        breaks = np.union1d(breaks, cr[buf[cr + 1] != 10])
    # tokens before the first break, between breaks, after the last
    per_line = np.diff(np.searchsorted(starts, np.concatenate(([0], breaks))),
                       append=starts.size)
    vals = np.fromstring(data, dtype=np.int64, count=int(per_line.sum()), sep=" ")
    # the parser saturates every out-of-range token to INT64_MAX
    error = None
    hits = np.flatnonzero(vals == _INT64_MAX)
    if hits.size:
        for at in starts[hits].tolist():
            text = _TOKEN.match(data, at).group()
            if text.lstrip(b"+").lstrip(b"0") != b"9223372036854775807":
                error = f"token {text[:24].decode()} is outside the int64 range"
                break
    return per_line, vals, error, cut == len(data)
