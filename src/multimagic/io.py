"""Bit-exact text formats for squares, array families, family bundles,
matrix-pair certificates, and verification reports.

Writers emit byte-identical output for equal inputs: no timestamps, no
unordered maps.  Readers reject unknown header keys and any payload
whose dimensions disagree with its header.  An optional binary square
variant (``MMB``) stores little-endian 64-bit entries after the same
header line.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from .construct import CmsFamily
from .errors import FormatError
from .linalg import MatrixPairCertificate
from .oa import ArrayFamily, OrthArray
from .verify import MagicSquare, VerifyReport

_MS_MAGIC = "MMS"
_MS_BINARY_MAGIC = "MMB"
_OA_MAGIC = "OAF"
_CMS_MAGIC = "CMS"
_VERSION = "1"


def _parse_header(line: str, magic: str, keys: tuple[str, ...]) -> dict:
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
    return seen


def _token_count(text: str) -> int:
    """Number of whitespace-separated tokens, without materializing them."""
    b = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    if b.size == 0:
        return 0
    nonspace = ~((b == 32) | (b == 10) | (b == 13) | (b == 9))
    starts = nonspace.copy()
    starts[1:] &= ~nonspace[:-1]
    return int(starts.sum())


def _int_tokens(text: str, what: str) -> np.ndarray:
    # C-speed parse; fromstring stops at the first malformed token (a
    # warning today, a ValueError in future numpy), so a token-count
    # comparison catches any garbage in the body.
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


# ---------------------------------------------------------------------------
# Magic squares
# ---------------------------------------------------------------------------

def write_ms(path, sq: MagicSquare, binary: bool = False) -> None:
    path = Path(path)
    magic = _MS_BINARY_MAGIC if binary else _MS_MAGIC
    header = f"{magic} {_VERSION} n={sq.n} t={sq.t} base={sq.base}\n"
    if binary:
        with open(path, "wb") as f:
            f.write(header.encode("ascii"))
            f.write(np.ascontiguousarray(sq.entries, dtype="<i8").tobytes())
        return
    with open(path, "w", encoding="ascii") as f:
        f.write(header)
        # one row list at a time: a whole-square tolist() parks ~n^2 * 8
        # bytes of row lists on the C heap, which may stay resident
        for row in sq.entries:
            f.write(" ".join(map(str, row.tolist())))
            f.write("\n")


def read_ms(path) -> MagicSquare:
    path = Path(path)
    with open(path, "rb") as f:
        raw = f.read()
    nl = raw.find(b"\n")
    if nl < 0:
        raise FormatError("malformed header: empty file")
    try:
        first = raw[:nl].decode("ascii")
    except UnicodeDecodeError:
        raise FormatError("malformed header: not ASCII") from None
    magic = first.split()[0] if first.split() else ""
    if magic == _MS_BINARY_MAGIC:
        head = _parse_header(first, _MS_BINARY_MAGIC, ("n", "t", "base"))
        n = head["n"]
        body = raw[nl + 1:]
        if len(body) != n * n * 8:
            raise FormatError(f"binary payload holds {len(body)} bytes, "
                              f"want {n * n * 8}")
        entries = np.frombuffer(body, dtype="<i8").reshape(n, n).astype(np.int64)
        return MagicSquare(entries, head["t"], head["base"])
    head = _parse_header(first, _MS_MAGIC, ("n", "t", "base"))
    n = head["n"]
    entries = _int_tokens(raw[nl + 1:].decode("ascii"), "square body")
    if entries.size != n * n:
        raise FormatError(f"square body holds {entries.size} entries, want {n * n}")
    return MagicSquare(entries.reshape(n, n), head["t"], head["base"])


# ---------------------------------------------------------------------------
# Orthogonal array families
# ---------------------------------------------------------------------------

def write_oa_family(path, fam: ArrayFamily) -> None:
    members = fam.members
    first = members[0]
    if any(m.n_cols != first.n_cols for m in members):
        raise ValueError("family members must share a column count to serialize")
    with open(Path(path), "w", encoding="ascii") as f:
        f.write(f"{_OA_MAGIC} {_VERSION} count={len(members)} k={first.k} "
                f"cols={first.n_cols} v={first.v} t={first.t}\n")
        for i, m in enumerate(members):
            if i:
                f.write("\n")
            for row in m.entries:
                f.write(" ".join(str(int(x)) for x in row))
                f.write("\n")


def read_oa_family(path) -> ArrayFamily:
    lines = Path(path).read_text(encoding="ascii").splitlines()
    if not lines:
        raise FormatError("malformed header: empty file")
    head = _parse_header(lines[0], _OA_MAGIC, ("count", "k", "cols", "v", "t"))
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


# ---------------------------------------------------------------------------
# Complementary family bundles
# ---------------------------------------------------------------------------

def write_cms_bundle(path, fam: CmsFamily) -> None:
    with open(Path(path), "w", encoding="ascii") as f:
        f.write(f"{_CMS_MAGIC} {_VERSION} m={fam.m} n={fam.n} t={fam.t}\n")
        for i, member in enumerate(fam.members):
            if i:
                f.write("\n")
            for row in member.entries:
                f.write(" ".join(str(int(x)) for x in row))
                f.write("\n")


def read_cms_bundle(path) -> CmsFamily:
    lines = Path(path).read_text(encoding="ascii").splitlines()
    if not lines:
        raise FormatError("malformed header: empty file")
    head = _parse_header(lines[0], _CMS_MAGIC, ("m", "n", "t"))
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
        members.append(MagicSquare(entries.reshape(n, n), t))
    return CmsFamily(tuple(members), t)


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
