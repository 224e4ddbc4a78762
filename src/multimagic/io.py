"""Bit-exact text formats for squares, array families, family bundles,
matrix-pair certificates, and verification reports.

Writers emit byte-identical output for equal inputs: no timestamps, no
unordered maps.  An optional binary square variant (``MMB``) stores
little-endian 64-bit entries after the same header line.

The three integer text formats (``MMS`` squares, ``OAF`` array families,
``CMS`` family bundles) share one encoder and one decoder:

* The header is the first line.  A line break is ``\\n``, ``\\r\\n`` or a
  bare ``\\r``.
* A body token is ``[+-]?[0-9]+`` and must lie in the int64 range.
  Tokens are separated by spaces, tabs and line breaks; any other byte
  (``\\x0b``, ``\\x0c``, ``\\x1c``-``\\x1e``, non-ASCII, ...) is an error.
* Every non-blank line holds exactly the header's column count.  Lines
  holding only spaces and tabs separate the member blocks of ``OAF`` and
  ``CMS`` files; in ``MMS`` files they are ignored.
* Text is encoded and decoded by the C kernels in ``_codec.c`` (see
  ``_codec.py``).  Decoding a piece is one pass over its bytes: it checks
  their classes and signs, parses each token exactly, with overflow
  detection, and counts the tokens on each line.  A reader's outputs hold
  the most its piece can; a writer's hold its block's shape, and a text
  that decodes to more is decoded again into larger ones (see _scan).
* The body is read in pieces cut at separators.  Each piece is validated
  and parsed on the worker pool, and the pieces are stitched in file
  order, so a file raises the errors of a serial read, in its order.
* Writers check each piece as they write it, so nothing unverified is
  written and the file is never read a second time (see _write_blocks).
  Squares are written through their row-block interface ``rows(r0, r1,
  out)`` (see verify.py): each pool task fills its own rows into its
  worker's buffer, encodes them and decodes the text with the readers'
  kernels, so a generated square (construct.SdloaGrid or
  construct.ComposedSquare) is never held whole, and filled once.
* A ``CMS`` bundle is read into, and written from, a family's stack.

Readers raise ``FormatError`` on any payload that breaks these rules or
whose dimensions disagree with its header, and on unknown header keys.
"""

from __future__ import annotations

import os
import threading
from io import BytesIO
from pathlib import Path

import numpy as np

from . import _pool
from ._codec import ffi as _ffi, lib as _lib
from .construct import CmsFamily
from .errors import ConstructionError, FormatError
from .linalg import MatrixPairCertificate
from .oa import ArrayFamily, OrthArray
from .verify import MagicSquare, VerifyReport

_MS_MAGIC = "MMS"
_MS_BINARY_MAGIC = "MMB"
_OA_MAGIC = "OAF"
_CMS_MAGIC = "CMS"
_VERSION = "1"


_SEPARATORS = (b" ", b"\t", b"\n", b"\r")
_ENCODE_ENTRIES = 1 << 16   # entries being encoded at once, over all workers
_DECODE_BYTES = 1 << 18     # most text bytes decoded in one piece
_DECODE_MIN = 1 << 14       # fewest, unless _DECODE_BYTES is less
_HEADER_BYTES = 1 << 12     # bytes read per try at the header line
_BACK_BYTES = 1 << 16       # bytes read back from a written file at once


def _parse_header(line: str, magic: str, keys: tuple[str, ...],
                  dims: tuple[str, ...] = ()) -> dict:
    parts = line.split()
    if len(parts) < 2 or parts[0] != magic or parts[1] != _VERSION:
        raise FormatError(f"malformed header: expected '{magic} {_VERSION} ...'")
    seen = {}
    for tok in parts[2:]:
        if "=" not in tok:
            raise FormatError(f"malformed header token {tok!r}")
        key, _, value = tok.partition("=")
        if key not in keys:
            raise FormatError(f"unknown header key {key!r}")
        if key in seen:
            raise FormatError(f"duplicate header key {key!r}")
        try:
            seen[key] = int(value)
        except ValueError:
            raise FormatError(f"non-integer header value {tok!r}") from None
    missing = [k for k in keys if k not in seen]
    if missing:
        raise FormatError(f"missing header keys {missing}")
    for key in dims:
        if seen[key] < 0:
            raise FormatError(f"negative header dimension {key}={seen[key]}")
    return seen


def _open(path):
    """path opened for binary reading; a pipe or other stream that cannot
    seek is read into memory first."""
    f = open(Path(path), "rb")
    if f.seekable():
        return f
    with f:
        return BytesIO(f.read())


def _read_header(f, breaks: bytes = b"\n\r") -> tuple[str, bytes]:
    """The first line of binary file f, ended by the first of breaks, and
    the bytes read past it, from its line break on."""
    parts = []
    while True:
        more = f.read(_HEADER_BYTES)
        ends = [i for i in map(more.find, breaks) if i >= 0]
        if ends or not more:
            break
        parts.append(more)
    if not ends:
        raise FormatError("malformed header: no line break")
    parts.append(more[:min(ends)])
    try:
        return b"".join(parts).decode("ascii"), more[min(ends):]
    except UnicodeDecodeError:
        raise FormatError("malformed header: not ASCII") from None


# ---------------------------------------------------------------------------
# The integer text codec
# ---------------------------------------------------------------------------

def _encode(block: np.ndarray) -> memoryview:
    """ASCII text of an integer row block: each row's decimal entries joined
    by single spaces and ended by a newline, the bytes of
    ``" ".join(map(str, row)) + "\\n"`` for every row.  The text is written
    into a buffer the writer has handed back, else a new one (_text)."""
    rows, cols = block.shape
    entries = np.ascontiguousarray(block, dtype=np.int64)
    # sign and digits of the widest entry, and a separator
    width = max(len(str(entries.min())), len(str(entries.max()))) + 1 if entries.size else 1
    text = _text(rows * max(width * cols, 1))
    size = _lib.encode(_ffi.from_buffer("int64_t[]", entries), rows, cols,
                       _ffi.from_buffer(text))
    return memoryview(text)[:size]


def _decode(f, body: bytes, count: int, rows: int, cols: int, split: bool) -> np.ndarray:
    """The count * rows * cols int64 entries of a text body, in file order.

    ``body`` holds the bytes already read past the header, from its line
    break on; the rest is read from binary file f in pieces of about
    1/64 of the body (whatever the worker count, as the pieces fix which
    error is raised first), within [_DECODE_MIN, _DECODE_BYTES] bytes, cut
    after a separator so that no token spans two pieces.  The pieces in
    flight on the pool hold at most about 1/32 of the body, or two
    pieces.  With ``split``, blank lines separate count blocks of rows
    lines each; else ignored.
    """
    total = count * rows * cols
    here = f.tell()
    left = len(body) + f.seek(0, os.SEEK_END) - here
    f.seek(here)
    # every entry takes at least one digit and one separator
    if 2 * total > left:
        raise FormatError(f"body is too short for {total} entries")
    size = min(_DECODE_BYTES, max(_DECODE_MIN, left // 64))
    scanned = _pool.ordered_map(_scan, _pieces(f, body, size), max(2, left // 32 // size))
    entries = np.empty(total, dtype=np.int64)
    _stitch(scanned, entries, count, rows, cols, split)
    return entries


def _pieces(f, body: bytes, size: int):
    """The text body as (data, cut) pieces, reading f size bytes at a time:
    data starts with a separator, the tokens before data[cut] are whole,
    and those from cut on begin the next piece.  The last piece ends with
    a newline added after the file's last byte, and cut == len(data)."""
    carry = body
    while True:
        parts = [carry]
        while True:
            more = f.read(size)
            parts.append(more)
            last = max(more.rfind(sep) for sep in _SEPARATORS)
            if last >= 0 or not more:
                break  # else a token longer than one read
        if not more:
            parts.append(b"\n")  # the last line ends with the file
        data = b"".join(parts)
        cut = len(data) - len(more) + last if more else len(data)
        yield data, cut
        if not more:
            return
        carry = data[cut:]


def _scan(piece: tuple[bytes, int], buffers: dict | None = None):
    """(per_line, values, error, last) of one (data, cut) piece, the
    pooled kernel of _decode.  per_line counts the tokens before the
    first line break, between breaks and after the last; values are the
    parsed tokens; error is the message of the first token outside the
    int64 range, else None; last marks the final piece.  A byte or sign
    error raises: the pool raises it in piece order, after every earlier
    piece was checked.  The range error is returned, since the caller's
    count and row checks on the same piece come first.

    The outputs are views of buffers["values"] and buffers["lines"] (see
    _buffer), if given, else of new arrays that hold the most a piece can:
    a token per two bytes and a line per ``\\n`` or ``\\r`` byte before the
    cut, counted first.  Only when the kernel finds more than they hold
    are they grown and the piece decoded again."""
    data, cut = piece
    if buffers is None:
        breaks = data.count(b"\n", 0, cut) + data.count(b"\r", 0, cut)
        buffers = {"values": np.empty(len(data) // 2 + 1, dtype=np.int64),
                   "lines": np.empty(breaks + 1, dtype=np.int64)}
    text = _ffi.from_buffer(data)
    counts = _ffi.new("size_t[4]")  # tokens, lines, the first bad token's bytes
    while True:
        vals, per_line = buffers["values"], buffers["lines"]
        status = _lib.decode(text, len(data), cut, _ffi.from_buffer("int64_t[]", vals),
                             vals.size, _ffi.from_buffer("int64_t[]", per_line),
                             per_line.size, counts)
        if status == _lib.BAD_BYTE:
            raise FormatError("body holds a byte other than a digit, sign, "
                              "space, tab or line break")
        if status == _lib.BAD_SIGN:
            raise FormatError("a sign must start a token and precede a digit")
        if counts[0] <= vals.size and counts[1] <= per_line.size:
            break
        _buffer(buffers, "values", counts[0])
        _buffer(buffers, "lines", counts[1])
    error = None
    if status == _lib.BAD_RANGE:
        token = bytes(data[counts[2]:counts[3]][:24]).decode()
        error = f"token {token} is outside the int64 range"
    return per_line[:counts[1]], vals[:counts[0]], error, cut == len(data)


def _stitch(scanned, entries: np.ndarray, count: int, rows: int, cols: int,
            split: bool) -> None:
    """Copy the _scan results of the pieces into entries, in file order,
    each once it is checked.  Line counts carry across pieces; row
    shapes, block runs and totals are checked here."""
    total = entries.size
    pos = 0       # entries parsed
    line = 0      # tokens on the unfinished line
    run = 0       # lines of the unfinished block
    blocks = 0    # finished blocks
    for per_line, vals, error, last in scanned:
        n = vals.size
        if pos + n > total:
            raise FormatError(f"body holds more than {total} entries")
        per_line[0] += line
        line = int(per_line[-1])
        per_line = per_line[:-1]
        if per_line.size:
            full = per_line > 0
            bad = per_line[full] != cols
            if bad.any():
                raise FormatError(f"a row holds {per_line[full][bad][0]} entries, "
                                  f"want {cols}")
            if split:
                # each blank line ends the run of rows before it
                blank = np.flatnonzero(~full)
                if blank.size:
                    sizes = np.concatenate(([run + blank[0]], np.diff(blank) - 1))
                    sizes = sizes[sizes > 0].tolist()
                    run = per_line.size - 1 - int(blank[-1])
                else:
                    sizes = []
                    run += per_line.size
                if last and run:
                    sizes.append(run)
                for size in sizes:
                    if size != rows:
                        raise FormatError(f"block {blocks} has {size} rows, want {rows}")
                    blocks += 1
        if error:
            raise FormatError(error)
        entries[pos:pos + n] = vals
        pos += n
    if split and blocks != count:
        raise FormatError(f"found {blocks} blocks, header says {count}")
    if pos != total:
        raise FormatError(f"body holds {pos} entries, want {total}")


# ---------------------------------------------------------------------------
# The checked writer
# ---------------------------------------------------------------------------

def _buffer(buffers: dict, name: str, size: int, dtype=np.int64) -> np.ndarray:
    """The first size entries of buffers[name], grown to hold them: reused
    from piece to piece, its pages are mapped once."""
    if name not in buffers or buffers[name].size < size:
        buffers[name] = np.empty(size, dtype=dtype)
    return buffers[name][:size]


# Text buffers that a write has written to its file and handed back for
# _encode to reuse.  A write has at most its pool window and the piece it
# is writing in use at once, and empties the list when it ends.  Only free
# buffers are kept here, so writes on other threads share nothing else.
_texts: list[np.ndarray] = []


def _text(size: int) -> np.ndarray:
    """A uint8 buffer of at least size bytes, handed back or new."""
    try:
        text = _texts.pop()
    except IndexError:
        text = None
    return text if text is not None and text.size >= size else np.empty(size, dtype=np.uint8)


def _unchecked(detail=None) -> ConstructionError:
    return ConstructionError("artifact did not round-trip" + (f": {detail}" if detail else ""))


def _text_matches(text, block: np.ndarray, buffers: dict) -> bool:
    """Whether text, decoded by the readers' kernels, is block, one row to
    a line, and ends with a line break; ConstructionError, with the
    readers' message, on a malformed token or row."""
    rows, cols = block.shape
    _buffer(buffers, "values", rows * cols)  # the block's shape: one decode
    _buffer(buffers, "lines", rows + 1)
    try:
        per_line, vals, error, _ = _scan((text, len(text)), buffers)
    except FormatError as exc:
        raise _unchecked(exc) from None
    full = per_line[per_line > 0]
    if (full != cols).any():
        raise _unchecked(f"a row holds {full[full != cols][0]} entries, want {cols}")
    if error:
        raise _unchecked(error)
    return (per_line.size == rows + 1 and (per_line[:rows] == cols).all() and not per_line[rows]
            and (not rows or text[-1] == ord("\n"))
            and np.array_equal(vals.reshape(block.shape), block))


def _write_at(fd: int, data, at: int) -> None:
    """Write all of data to file fd at byte at."""
    view = memoryview(data)
    while view:
        done = os.pwrite(fd, view, at)
        view, at = view[done:], at + done


def _read_back(fd: int, data, at: int, back: np.ndarray) -> None:
    """Raise unless file fd holds data at byte at, read into back a part
    at a time."""
    want = np.frombuffer(data, dtype=np.uint8)
    for i in range(0, want.size, back.size):
        part = want[i:i + back.size]
        got = back[:os.preadv(fd, [back[:part.size]], at + i)]
        if got.size < part.size:
            raise _unchecked(f"the file holds {os.fstat(fd).st_size} bytes, "
                             f"want {at + want.size}")
        if not np.array_equal(got, part):
            raise _unchecked()


def _write_blocks(path, header: str, blocks, binary: bool = False) -> None:
    """Header line, then each block's rows, blocks separated by a blank
    line, checked as written; ConstructionError if a check fails.  A block
    is ((rows, cols), source), source a held 2-D array or fill(r0, r1,
    out), filling rows r0..r1-1 into out, an int64 (r1 - r0, cols) array.

    A pool task per piece of rows (_ENCODE_ENTRIES / workers entries)
    fills them into its worker's buffer, encodes them (binary: tobytes)
    and decodes the text with the readers' kernels (binary: frombuffer)
    into its worker's buffers, to be equal to the rows.  This thread
    writes the header and the pieces in order, reads each back to compare
    it with what it wrote, and checks the file's size last.  So the file
    reads back to the blocks: its bytes are the header, the texts and the
    blank lines; each text holds its rows one to a line and ends with a
    line break, so no token spans two pieces; and the blank line before
    each later block's first piece is the only one."""
    if binary:
        encode = lambda block: np.asarray(block, dtype="<i8").tobytes()  # noqa: E731
        matches = lambda data, block, _: np.array_equal(  # noqa: E731
            np.frombuffer(data, dtype="<i8"), block.ravel())
    else:
        encode, matches = _encode, _text_matches
    head = header.encode("ascii")
    pieces = []  # (bytes before the piece, source, first row, end row, cols)
    for i, ((count, cols), source) in enumerate(blocks):
        starts = _pool.blocks(max(1, count), cols, _ENCODE_ENTRIES)
        for r in starts:
            lead = b"" if r else b"\n" if i else head
            pieces.append((lead, source, r, min(r + starts.step, count), cols))
    workers = {}  # each worker's buffers, by thread

    def checked(piece):
        _, source, r0, r1, cols = piece
        mine = workers.setdefault(threading.get_ident(), {})
        if isinstance(source, np.ndarray):
            block = source[r0:r1]
        else:
            block = source(r0, r1, _buffer(mine, "rows", (r1 - r0) * cols).reshape(r1 - r0, cols))
        if block.shape != (r1 - r0, cols):
            raise _unchecked(f"rows {r0}..{r1 - 1} have shape {block.shape}, "
                             f"want {(r1 - r0, cols)}")
        text = encode(block)
        if not matches(text, block, mine):
            raise _unchecked()
        return text

    back = np.empty(_BACK_BYTES, dtype=np.uint8)
    with open(Path(path), "w+b", buffering=0) as f:
        fd, at = f.fileno(), 0
        texts = _pool.ordered_map(checked, pieces)
        try:
            for (lead, *_), text in zip(pieces, texts):
                for data in (lead, text) if lead else (text,):
                    _write_at(fd, data, at)
                    _read_back(fd, data, at, back)
                    at += len(data)
                if isinstance(getattr(text, "obj", None), np.ndarray):
                    _texts.append(text.obj)  # an _encode buffer
        finally:
            texts.close()
            _texts.clear()
        if os.fstat(fd).st_size != at:
            raise _unchecked(f"the file holds {os.fstat(fd).st_size} bytes, want {at}")


# ---------------------------------------------------------------------------
# Magic squares
# ---------------------------------------------------------------------------

def write_ms(path, sq, binary: bool = False) -> None:
    """Write a MagicSquare, or any square read through rows(r0, r1, out)
    such as a construct.SdloaGrid or ComposedSquare, in checked row
    blocks (see _write_blocks): it is never held whole."""
    header = (f"{_MS_BINARY_MAGIC if binary else _MS_MAGIC} {_VERSION} "
              f"n={sq.n} t={sq.t} base={sq.base}\n")
    source = sq.entries if isinstance(sq, MagicSquare) else sq.rows
    _write_blocks(path, header, [((sq.n, sq.n), source)], binary)


def _digit_bytes(count: int) -> int:
    """The decimal digits of 0..count-1, all together."""
    total, low, width = 0, 0, 1
    while low < count:
        high = 10**width
        total += width * (min(count, high) - low)
        low, width = high, width + 1
    return total


def ms_text_bytes(n: int, t: int) -> int:
    """The exact size of the text file of any order-n square on 0..n^2-1,
    such as every generated square that passes verification: its header,
    every entry's digits, and n separators per row."""
    return len(f"{_MS_MAGIC} {_VERSION} n={n} t={t} base=0\n") + _digit_bytes(n * n) + n * n


def cms_text_bytes(m: int, n: int, t: int) -> int:
    """The exact size of the bundle of m squares of order n on 0..n^2-1,
    such as every family that passes verification: its header, m square
    bodies, and a blank line between each two."""
    return (len(f"{_CMS_MAGIC} {_VERSION} m={m} n={n} t={t}\n")
            + m * (_digit_bytes(n * n) + n * n) + m - 1)


def _read_binary_ms(f, line: str, body: bytes) -> MagicSquare:
    """The square of MMB file f, from its header line and the bytes read
    past it, from its ``\\n`` on: the payload is read into the entries."""
    head = _parse_header(line, _MS_BINARY_MAGIC, ("n", "t", "base"), dims=("n",))
    n = head["n"]
    here, ahead = f.tell(), len(body) - 1  # payload bytes read with the header
    size = ahead + f.seek(0, os.SEEK_END) - here
    if size == n * n * 8:
        entries = np.empty((n, n), dtype="<i8")
        payload = entries.reshape(-1).view(np.uint8)
        payload[:ahead] = np.frombuffer(body[1:], dtype=np.uint8)
        f.seek(here)
        size = ahead + f.readinto(payload[ahead:])  # less if the file shrank
    if size != n * n * 8:
        raise FormatError(f"binary payload holds {size} bytes, want {n * n * 8}")
    try:
        return MagicSquare(entries, head["t"], head["base"])
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def read_ms(path) -> MagicSquare:
    with _open(path) as f:
        line, body = _read_header(f)
        if line.split()[:1] == [_MS_BINARY_MAGIC]:
            f.seek(0)  # the binary header ends at its first "\n" only
            return _read_binary_ms(f, *_read_header(f, b"\n"))
        head = _parse_header(line, _MS_MAGIC, ("n", "t", "base"), dims=("n",))
        n = head["n"]
        entries = _decode(f, body, 1, n, n, split=False)
    try:
        return MagicSquare(entries.reshape(n, n), head["t"], head["base"])
    except ValueError as exc:
        raise FormatError(str(exc)) from None


# ---------------------------------------------------------------------------
# Orthogonal array families
# ---------------------------------------------------------------------------

def write_oa_family(path, fam: ArrayFamily) -> None:
    members = fam.members
    first = members[0]
    if any(m.n_cols != first.n_cols for m in members):
        raise ValueError("family members must share a column count to serialize")
    _write_blocks(path, f"{_OA_MAGIC} {_VERSION} count={len(members)} k={first.k} "
                        f"cols={first.n_cols} v={first.v} t={first.t}\n",
                  [(m.entries.shape, m.entries) for m in members])


def read_oa_family(path) -> ArrayFamily:
    with _open(path) as f:
        line, body = _read_header(f)
        head = _parse_header(line, _OA_MAGIC, ("count", "k", "cols", "v", "t"),
                             dims=("count", "k", "cols"))
        count, k, cols = head["count"], head["k"], head["cols"]
        if count < 1:
            raise FormatError("empty family is invalid")
        entries = _decode(f, body, count, k, cols, split=True)
    members = []
    for b, block in enumerate(entries.reshape(count, k, cols)):
        try:
            members.append(OrthArray(block, head["v"], head["t"]))
        except ValueError as exc:
            raise FormatError(f"block {b}: {exc}") from None
    return ArrayFamily(tuple(members))


# ---------------------------------------------------------------------------
# Complementary family bundles
# ---------------------------------------------------------------------------

def write_cms_bundle(path, fam: CmsFamily) -> None:
    _write_blocks(path, f"{_CMS_MAGIC} {_VERSION} m={fam.m} n={fam.n} t={fam.t}\n",
                  [((fam.n, fam.n), member) for member in fam.stack])


def read_cms_bundle(path) -> CmsFamily:
    with _open(path) as f:
        line, body = _read_header(f)
        head = _parse_header(line, _CMS_MAGIC, ("m", "n", "t"), dims=("m", "n"))
        if head["m"] < 1:
            raise FormatError("empty bundle is invalid")
        m, n, t = head["m"], head["n"], head["t"]
        entries = _decode(f, body, m, n, n, split=True)
    try:
        return CmsFamily(entries.reshape(m, n, n), t)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


# ---------------------------------------------------------------------------
# Certificates and reports (structured text, stable key order)
# ---------------------------------------------------------------------------

def format_certificate(cert: MatrixPairCertificate) -> str:
    kind = "cms-pair" if cert.d is not None else "sdloa-pair"
    lines = [
        "kind=" + kind,
        f"q={cert.table.q}",
        f"t={cert.t}",
        f"d={'-' if cert.d is None else cert.d}",
    ]
    for name, mat in (("e1", cert.e1), ("e2", cert.e2)):
        lines.append(f"{name}=" + " ; ".join(
            " ".join(str(x) for x in row) for row in mat.rows
        ))
    for name, ok in cert.checked_properties.items():
        lines.append(f"check.{name}={'true' if ok else 'false'}")
    lines.append(f"verdict={'true' if cert.all_true() else 'false'}")
    return "\n".join(lines) + "\n"


def format_report(report: VerifyReport) -> str:
    lines = [
        "kind=verify-report",
        f"order={report.order}",
        f"degree={report.degree}",
        f"members={report.members}",
        f"consecutive={'true' if report.consecutive_ok else 'false'}",
    ]
    for e in sorted(report.magic_sums):
        lines.append(f"sum.{e}={report.magic_sums[e]}")
    for i, fail in enumerate(report.failures):
        lines.append(f"fail.{i}={fail.describe()}")
    lines.append(f"verdict={'true' if report.passed else 'false'}")
    return "\n".join(lines) + "\n"


def write_certificate(path, obj) -> None:
    if isinstance(obj, MatrixPairCertificate):
        text = format_certificate(obj)
    elif isinstance(obj, VerifyReport):
        text = format_report(obj)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} as a certificate")
    Path(path).write_text(text, encoding="ascii")
