"""Reference copies of the integer text codec as it was before the
vectorised encoder and decoder: the writers' row expression and the three
text readers, verbatim.  Tests compare the library against them.
"""

import warnings
from pathlib import Path

import numpy as np

from multimagic.construct import CmsFamily
from multimagic.errors import FormatError
from multimagic.io import _parse_header
from multimagic.oa import ArrayFamily, OrthArray
from multimagic.verify import MagicSquare


def text_rows(block) -> bytes:
    """What every writer emitted for a block: one joined line per row."""
    return b"".join((" ".join(map(str, row)) + "\n").encode("ascii")
                    for row in np.asarray(block).tolist())


def _token_count(text: str) -> int:
    b = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    if b.size == 0:
        return 0
    nonspace = ~((b == 32) | (b == 10) | (b == 13) | (b == 9))
    starts = nonspace.copy()
    starts[1:] &= ~nonspace[:-1]
    return int(starts.sum())


def _int_tokens(text: str, what: str) -> np.ndarray:
    if not text.strip():
        return np.empty(0, dtype=np.int64)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        try:
            out = np.fromstring(text, dtype=np.int64, sep=" ")
        except ValueError:
            raise FormatError(f"non-integer token in {what}") from None
    if out.size != _token_count(text):
        raise FormatError(f"non-integer token in {what}")
    return out


def _blocks(lines: list[str]) -> list[list[str]]:
    out: list[list[str]] = []
    cur: list[str] = []
    for ln in lines:
        if ln.strip():
            cur.append(ln)
        elif cur:
            out.append(cur)
            cur = []
    if cur:
        out.append(cur)
    return out


def read_ms(path) -> MagicSquare:
    raw = Path(path).read_bytes()
    nl = raw.find(b"\n")
    if nl < 0:
        raise FormatError("malformed header: empty file")
    try:
        first = raw[:nl].decode("ascii")
    except UnicodeDecodeError:
        raise FormatError("malformed header: not ASCII") from None
    head = _parse_header(first, "MMS", ("n", "t", "base"))
    n = head["n"]
    entries = _int_tokens(raw[nl + 1:].decode("ascii"), "square body")
    if entries.size != n * n:
        raise FormatError(f"square body holds {entries.size} entries, want {n * n}")
    return MagicSquare(entries.reshape(n, n), head["t"], head["base"])


def read_oa_family(path) -> ArrayFamily:
    lines = Path(path).read_text(encoding="ascii").splitlines()
    if not lines:
        raise FormatError("malformed header: empty file")
    head = _parse_header(lines[0], "OAF", ("count", "k", "cols", "v", "t"))
    count, k, cols = head["count"], head["k"], head["cols"]
    if count < 1:
        raise FormatError("empty family is invalid")
    blocks = _blocks(lines[1:])
    if len(blocks) != count:
        raise FormatError(f"found {len(blocks)} blocks, header says {count}")
    members = []
    for b, block in enumerate(blocks):
        if len(block) != k:
            raise FormatError(f"block {b} has {len(block)} rows, want {k}")
        entries = _int_tokens("\n".join(block), f"block {b}")
        if entries.size != k * cols:
            raise FormatError(f"block {b} holds {entries.size} entries, "
                              f"want {k * cols}")
        try:
            members.append(OrthArray(entries.reshape(k, cols), head["v"], head["t"]))
        except ValueError as exc:
            raise FormatError(f"block {b}: {exc}") from None
    return ArrayFamily(tuple(members))


def read_cms_bundle(path) -> CmsFamily:
    lines = Path(path).read_text(encoding="ascii").splitlines()
    if not lines:
        raise FormatError("malformed header: empty file")
    head = _parse_header(lines[0], "CMS", ("m", "n", "t"))
    m, n, t = head["m"], head["n"], head["t"]
    if m < 1:
        raise FormatError("empty bundle is invalid")
    blocks = _blocks(lines[1:])
    if len(blocks) != m:
        raise FormatError(f"found {len(blocks)} blocks, header says {m}")
    members = []
    for b, block in enumerate(blocks):
        if len(block) != n:
            raise FormatError(f"block {b} has {len(block)} rows, want {n}")
        entries = _int_tokens("\n".join(block), f"block {b}")
        if entries.size != n * n:
            raise FormatError(f"block {b} holds {entries.size} entries, "
                              f"want {n * n}")
        members.append(entries.reshape(n, n))
    return CmsFamily(np.stack(members), t)
