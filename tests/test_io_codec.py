"""The integer text codec shared by the MMS, OAF and CMS formats: byte
identity with the row-join writer, agreement with the previous readers
and with the numpy codec the compiled kernel replaced, the exact int64
range, the row-shape rule, fuzzing and memory bounds."""

import os
import re
import tempfile
import threading
import tracemalloc
from io import BytesIO
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import codec_oracle
import text_oracle as oracle
from conftest import GOLDEN_CMS9, GOLDEN_LOA
from multimagic import io
from multimagic.errors import FormatError
from multimagic.verify import MagicSquare

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
INT64 = st.integers(INT64_MIN, INT64_MAX)
NO_FIXTURE_CHECK = [HealthCheck.function_scoped_fixture, HealthCheck.too_slow]

HEADERS = {
    "MMS": lambda count, rows, cols: f"MMS 1 n={rows} t=1 base=0",
    "CMS": lambda count, rows, cols: f"CMS 1 m={count} n={rows} t=1",
    "OAF": lambda count, rows, cols: f"OAF 1 count={count} k={rows} cols={cols} v=2 t=1",
}
READERS = {"MMS": io.read_ms, "CMS": io.read_cms_bundle, "OAF": io.read_oa_family}
ORACLES = {"MMS": oracle.read_ms, "CMS": oracle.read_cms_bundle,
           "OAF": oracle.read_oa_family}


def entries_of(obj) -> np.ndarray:
    if isinstance(obj, MagicSquare):
        return obj.entries[None]
    return np.stack([m.entries for m in obj.members])


def verdict(reader, path):
    """("ok", entries) or ("error", exception type name)."""
    try:
        return "ok", entries_of(reader(path))
    except Exception as exc:  # the previous readers raised several kinds
        return "error", type(exc).__name__


def same(a, b) -> bool:
    return a[0] == b[0] and (a[0] == "error" or np.array_equal(a[1], b[1]))


def read_bytes_as(fmt, raw: bytes, tmp_path):
    return READERS[fmt](_write(tmp_path, raw))


def _write(tmp_path, raw: bytes):
    path = tmp_path / "input"
    path.write_bytes(raw)
    return path


# ---------------------------------------------------------------------------
# Encoder
# ---------------------------------------------------------------------------

MATRICES = st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
    lambda shape: hnp.arrays(np.int64, shape, elements=INT64 | st.integers(-120, 120)
                             | st.sampled_from([INT64_MIN, INT64_MAX, 0, 2**32 - 1,
                                                2**32, -(2**32), 99, 100, -100])))


class TestEncoder:
    @settings(max_examples=300, deadline=None)
    @given(MATRICES)
    def test_equals_row_join(self, block):
        assert io._encode(block) == oracle.text_rows(block)

    @pytest.mark.parametrize("block", [
        [[0]], [[7]], [[-7]], [[INT64_MIN]], [[INT64_MAX]],
        [[1], [22], [-333]],                         # one column
        np.zeros((3, 4), dtype=np.int64),
        [[-1, -10, -100, -1000]],
        [[INT64_MIN, INT64_MAX], [INT64_MAX, INT64_MIN]],
        [[10**k - 1 for k in range(1, 19)], [10**k for k in range(18)]],
        [[-(10**k) for k in range(18)], [1 - 10**k for k in range(1, 19)]],
    ])
    def test_edge_blocks(self, block):
        block = np.array(block, dtype=np.int64)
        assert io._encode(block) == oracle.text_rows(block)

    def test_empty_rows(self):
        assert io._encode(np.zeros((3, 0), dtype=np.int64)) == b"\n\n\n"
        assert io._encode(np.zeros((0, 4), dtype=np.int64)) == b""

    @settings(max_examples=50, deadline=None,
              suppress_health_check=NO_FIXTURE_CHECK)
    @given(MATRICES, st.integers(1, 7))
    def test_write_ms_in_small_blocks(self, tmp_path, block, step):
        n = min(block.shape)
        sq = MagicSquare(block[:n, :n], 2, base=1)
        path = tmp_path / "sq.mms"
        with mock.patch.object(io, "_ENCODE_ENTRIES", step):
            io.write_ms(path, sq)
        want = f"MMS 1 n={n} t=2 base=1\n".encode() + oracle.text_rows(block[:n, :n])
        assert path.read_bytes() == want

    def test_golden_fixtures_rewrite_identically(self, tmp_path):
        io.write_cms_bundle(tmp_path / "c.cms", io.read_cms_bundle(GOLDEN_CMS9))
        io.write_oa_family(tmp_path / "f.oaf", io.read_oa_family(GOLDEN_LOA))
        assert (tmp_path / "c.cms").read_bytes() == GOLDEN_CMS9.read_bytes()
        assert (tmp_path / "f.oaf").read_bytes() == GOLDEN_LOA.read_bytes()

    def test_order_625_square_matches_row_join(self, tmp_path):
        n = 625
        entries = np.random.default_rng(5).permutation(n * n).reshape(n, n) - 1000
        io.write_ms(tmp_path / "sq.mms", MagicSquare(entries, 2))
        body = (tmp_path / "sq.mms").read_bytes().split(b"\n", 1)[1]
        assert body == oracle.text_rows(entries)


# ---------------------------------------------------------------------------
# Exact int64 range
# ---------------------------------------------------------------------------

OUT_OF_RANGE = [str(2**63), str(-(2**63) - 1), str(2**64 + 1), str(-(2**64) - 1),
                "12345678901234567890", "99999999999999999999", "9" * 40,
                "+" + str(2**63), "-" + "0" * 5 + str(2**63 + 5)]
IN_RANGE = [(str(INT64_MAX), INT64_MAX), (str(INT64_MIN), INT64_MIN),
            ("+" + "0" * 30 + str(INT64_MAX), INT64_MAX),
            ("-0000" + str(2**63), INT64_MIN), ("-0", 0), ("+7", 7)]


class TestInt64Range:
    @pytest.mark.parametrize("token", OUT_OF_RANGE)
    def test_square_rejects(self, tmp_path, token):
        raw = f"MMS 1 n=2 t=1 base=0\n{token} 2\n3 4\n".encode()
        with pytest.raises(FormatError, match="int64 range"):
            read_bytes_as("MMS", raw, tmp_path)

    @pytest.mark.parametrize("token", OUT_OF_RANGE)
    def test_bundle_rejects(self, tmp_path, token):
        raw = f"CMS 1 m=2 n=1 t=1\n5\n\n{token}\n".encode()
        with pytest.raises(FormatError, match="int64 range"):
            read_bytes_as("CMS", raw, tmp_path)

    @pytest.mark.parametrize("token", OUT_OF_RANGE)
    def test_family_rejects(self, tmp_path, token):
        raw = f"OAF 1 count=1 k=1 cols=2 v=2 t=1\n0 {token}\n".encode()
        with pytest.raises(FormatError, match="int64 range"):
            read_bytes_as("OAF", raw, tmp_path)

    @pytest.mark.parametrize("token, value", IN_RANGE)
    def test_square_and_bundle_accept(self, tmp_path, token, value):
        sq = read_bytes_as("MMS", f"MMS 1 n=2 t=1 base=0\n1 {token}\n3 4\n".encode(),
                           tmp_path)
        assert sq.entries.tolist() == [[1, value], [3, 4]]
        fam = read_bytes_as("CMS", f"CMS 1 m=1 n=1 t=1\n{token}\n".encode(),
                            tmp_path)
        assert fam.members[0].entries.tolist() == [[value]]

    @pytest.mark.parametrize("token, value", IN_RANGE)
    def test_family_passes_the_codec(self, tmp_path, token, value):
        # the token decodes; only the symbol-range check of OrthArray can object
        raw = f"OAF 1 count=1 k=1 cols=2 v=2 t=1\n0 {token}\n".encode()
        if value in (0, 1):
            assert read_bytes_as("OAF", raw, tmp_path).members[0].entries[0, 1] == value
        else:
            with pytest.raises(FormatError, match="entries must lie in"):
                read_bytes_as("OAF", raw, tmp_path)

    def test_many_extremes_roundtrip(self, tmp_path):
        entries = np.full((40, 40), INT64_MAX, dtype=np.int64)
        entries[::3] = INT64_MIN
        io.write_ms(tmp_path / "x.mms", MagicSquare(entries, 1))
        assert np.array_equal(io.read_ms(tmp_path / "x.mms").entries, entries)


# ---------------------------------------------------------------------------
# Grammar, line breaks and row shape
# ---------------------------------------------------------------------------

class TestGrammar:
    @pytest.mark.parametrize("fmt, raw", [
        ("OAF", b"OAF 1 count=1 k=2 cols=2 v=2 t=1\n0 1 1\n0\n"),
        ("CMS", b"CMS 1 m=1 n=2 t=1\n0 1 1\n0\n"),
        ("MMS", b"MMS 1 n=2 t=1 base=0\n0 1 1\n2\n"),
        ("MMS", b"MMS 1 n=2 t=1 base=0\n0 1 2 3\n"),
        ("CMS", b"CMS 1 m=2 n=1 t=1\n1\n2\n"),          # blocks run together
        ("OAF", b"OAF 1 count=1 k=1 cols=2 v=2 t=1\n0 1\n1 0\n"),
    ])
    def test_row_shape_rejected(self, tmp_path, fmt, raw):
        with pytest.raises(FormatError):
            read_bytes_as(fmt, raw, tmp_path)

    def test_previous_reader_accepted_ragged_rows(self, tmp_path):
        path = _write(tmp_path, b"OAF 1 count=1 k=2 cols=2 v=2 t=1\n0 1 1\n0\n")
        assert oracle.read_oa_family(path).members[0].entries.tolist() == [[0, 1], [1, 0]]
        with pytest.raises(FormatError, match="a row holds 3 entries, want 2"):
            io.read_oa_family(path)

    @pytest.mark.parametrize("brk", [b"\n", b"\r\n", b"\r"])
    def test_line_breaks(self, tmp_path, brk):
        def text(lines):
            return brk.join(lines) + brk
        sq = read_bytes_as("MMS", text([b"MMS 1 n=2 t=1 base=0", b"1 2", b"", b"3 4"]),
                           tmp_path)
        assert sq.entries.tolist() == [[1, 2], [3, 4]]
        fam = read_bytes_as("CMS", text([b"CMS 1 m=2 n=1 t=1", b"5", b" \t", b"6"]),
                            tmp_path)
        assert [m.entries.tolist() for m in fam.members] == [[[5]], [[6]]]
        fam = read_bytes_as("OAF", text([b"OAF 1 count=2 k=1 cols=2 v=2 t=1",
                                         b"", b"\t0  1 ", b"", b"", b"1\t0"]),
                            tmp_path)
        assert [m.entries.tolist() for m in fam.members] == [[[0, 1]], [[1, 0]]]

    @pytest.mark.parametrize("byte", [b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e",
                                      b"\x1f", b"\x00", b"\x85", b"\xff", b"x", b"."])
    @pytest.mark.parametrize("fmt, before, after", [
        ("MMS", b"MMS 1 n=1 t=1 base=0\n", b"5\n"),
        ("CMS", b"CMS 1 m=2 n=1 t=1\n5\n", b"6\n"),
        ("OAF", b"OAF 1 count=2 k=1 cols=2 v=2 t=1\n0 1\n", b"1 0\n"),
    ])
    def test_other_bytes_rejected(self, tmp_path, byte, fmt, before, after):
        with pytest.raises(FormatError):
            read_bytes_as(fmt, before + byte + after, tmp_path)

    @pytest.mark.parametrize("body", [b"-\n", b"+ 5\n", b"1-2\n", b"--5\n", b"+-5\n",
                                      b"5+\n", b"5 -\n", b"- 5\n"])
    def test_malformed_signs(self, tmp_path, body):
        with pytest.raises(FormatError):
            read_bytes_as("MMS", b"MMS 1 n=1 t=1 base=0\n" + body, tmp_path)

    def test_lone_sign_is_not_zero(self, tmp_path):
        path = _write(tmp_path, b"MMS 1 n=2 t=1 base=0\n1 2\n3 -\n")
        assert oracle.read_ms(path).entries.tolist() == [[1, 2], [3, 0]]
        with pytest.raises(FormatError, match="sign"):
            io.read_ms(path)

    @pytest.mark.parametrize("raw", [b"MMS 1 n=-1 t=1 base=0\n5\n",
                                     b"MMB 1 n=-1 t=1 base=0\n" + bytes(8),
                                     b"MMS 1 n=1 t=0 base=0\n5\n",
                                     b"MMB 1 n=1 t=0 base=0\n" + bytes(8),
                                     b"MMS 1 n=1 t=1 base=0",
                                     # 32 bytes: no "\n" ends the binary header
                                     b"MMB 1 n=2 t=1 base=0".ljust(31) + b"\r"])
    def test_bad_square_headers(self, tmp_path, raw):
        with pytest.raises(FormatError):
            read_bytes_as("MMS", raw, tmp_path)

    @pytest.mark.parametrize("fmt, raw", [
        ("CMS", b"CMS 1 m=1 n=-1 t=1\n5\n"), ("CMS", b"CMS 1 m=1 n=1 t=0\n5\n"),
        ("OAF", b"OAF 1 count=1 k=-1 cols=-2 v=2 t=1\n0 1\n"),
        ("OAF", b"OAF 1 count=1 k=1 cols=2 v=2 t=1"),
    ])
    def test_bad_block_headers(self, tmp_path, fmt, raw):
        with pytest.raises(FormatError):
            read_bytes_as(fmt, raw, tmp_path)

    @pytest.mark.parametrize("fmt, raw", [
        ("MMS", b"MMS 1 n=2 t=1 base=0\n1 2\n3 4\n"),
        ("CMS", b"CMS 1 m=2 n=1 t=1\n5\n\n6\n"),
        ("OAF", b"OAF 1 count=1 k=1 cols=2 v=2 t=1\n0 1\n"),
    ])
    def test_reads_from_a_pipe(self, tmp_path, fmt, raw):
        path = tmp_path / "fifo"
        os.mkfifo(path)

        def feed():
            with open(path, "wb") as f:
                f.write(raw)

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        got = entries_of(READERS[fmt](path))
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert np.array_equal(got, entries_of(READERS[fmt](_write(tmp_path, raw))))

    def test_header_far_larger_than_body(self, tmp_path):
        with pytest.raises(FormatError, match="too short"):
            read_bytes_as("MMS", b"MMS 1 n=3000000000 t=1 base=0\n5\n", tmp_path)

    def test_surplus_entries(self, tmp_path):
        with pytest.raises(FormatError, match="more than 4"):
            read_bytes_as("MMS", b"MMS 1 n=2 t=1 base=0\n1 2\n3 4\n5 6\n", tmp_path)


# ---------------------------------------------------------------------------
# Differential test against the previous readers
# ---------------------------------------------------------------------------

SEPARATOR = st.sampled_from([" ", "  ", "\t", " \t"])
BREAK = st.sampled_from(["\n", "\r\n", "\r"])
BLANK = st.sampled_from(["", " ", "\t", "  \t"])


@st.composite
def well_formed(draw):
    """(format, file bytes, entries): a valid body in any legal layout."""
    fmt = draw(st.sampled_from(sorted(HEADERS)))
    rows = draw(st.integers(1, 4))
    if fmt == "MMS":
        count, cols = 1, rows
    elif fmt == "CMS":
        count, cols = draw(st.integers(1, 3)), rows
    else:
        count, cols = draw(st.integers(1, 3)), 2 * draw(st.integers(1, 2))
    elements = st.integers(0, 1) if fmt == "OAF" else INT64 | st.integers(-50, 50)
    entries = draw(hnp.arrays(np.int64, (count, rows, cols), elements=elements))
    brk = draw(BREAK)

    def token(x):
        text = str(abs(x)).rjust(len(str(abs(x))) + draw(st.integers(0, 2)), "0")
        sign = "-" if x < 0 else draw(st.sampled_from(["", "+"]))
        return sign + text

    def blanks(least):
        return [draw(BLANK) for _ in range(draw(st.integers(least, 2)))]

    lines = [HEADERS[fmt](count, rows, cols)] + blanks(0)
    for b in range(count):
        if b:
            lines += blanks(1)
        for row in entries[b].tolist():
            if fmt == "MMS":
                lines += blanks(0)
            lead, trail = draw(st.sampled_from(["", " ", "\t"])), draw(BLANK)
            lines.append(lead + draw(SEPARATOR).join(map(token, row)) + trail)
    lines += blanks(0)
    text = brk.join(lines) + draw(st.sampled_from(["", brk]))
    return fmt, text.encode("ascii"), entries


def changed_rules(fmt: str, raw: bytes) -> set:
    """The rules of this codec that the previous readers did not apply and
    that this input touches."""
    rules = set()
    if any(c in raw for c in b"\r\x0b\x0c\x1c\x1d\x1e\x1f"):
        rules.add("line breaks")
    lines = re.split(rb"\r\n|\r|\n", raw)
    try:
        head = io._parse_header(lines[0].decode("ascii"), fmt,
                                tuple(re.findall(r"(\w+)=", HEADERS[fmt](1, 1, 1))))
    except (FormatError, UnicodeDecodeError):
        return rules
    cols = head["cols"] if fmt == "OAF" else head["n"]
    for line in lines[1:]:
        tokens = line.split()
        if tokens and len(tokens) != cols:
            rules.add("row shape")
        for tok in tokens:
            if re.fullmatch(rb"[+-]?[0-9]+", tok) and not INT64_MIN <= int(tok) <= INT64_MAX:
                rules.add("int64 range")
            if tok in (b"+", b"-"):
                rules.add("lone sign")  # numpy's parser read it as 0
    return rules


def mutated(raw: bytes, where: int, byte: int, how: str) -> bytes:
    """raw with one byte replaced, inserted or deleted at where % size."""
    i = where % (len(raw) + (how == "insert"))
    return raw[:i] + (b"" if how == "delete" else bytes([byte])) + raw[i + (how != "insert"):]


MUTANT_BYTES = st.sampled_from(list(b"0123456789+- \t\r\n\x0b\x0c\x1c\x1f.x\x80")) \
    | st.integers(0, 255)


class TestDifferential:
    @settings(max_examples=200, deadline=None, suppress_health_check=NO_FIXTURE_CHECK)
    @given(well_formed(), st.sampled_from([1, 2, 3, 7, 64, 1 << 16]))
    def test_well_formed_bodies_agree(self, tmp_path, case, chunk):
        fmt, raw, entries = case
        path = _write(tmp_path, raw)
        old = verdict(ORACLES[fmt], path)
        # header reads of at most chunk bytes leave the body to the pieces
        with mock.patch.object(io, "_DECODE_BYTES", chunk), \
                mock.patch.object(io, "_HEADER_BYTES", min(chunk, io._HEADER_BYTES)):
            new = verdict(READERS[fmt], path)
        assert new[0] == "ok" and np.array_equal(new[1], entries), (raw, new)
        # the previous square reader ended the header at "\n" only
        assert same(old, new) or (fmt == "MMS" and b"\n" not in raw), (raw, old)

    @settings(max_examples=300, deadline=None, suppress_health_check=NO_FIXTURE_CHECK)
    @given(well_formed(), st.integers(0, 10**6), MUTANT_BYTES,
           st.sampled_from(["replace", "insert", "delete"]), st.sampled_from([2, 5, 1 << 16]))
    def test_mutants_differ_only_by_new_rules(self, tmp_path, case, where, byte, how, chunk):
        fmt, raw, _ = case
        raw = mutated(raw, where, byte, how)
        path = _write(tmp_path, raw)
        old = verdict(ORACLES[fmt], path)
        # header reads of at most chunk bytes leave the body to the pieces
        with mock.patch.object(io, "_DECODE_BYTES", chunk), \
                mock.patch.object(io, "_HEADER_BYTES", min(chunk, io._HEADER_BYTES)):
            new = verdict(READERS[fmt], path)
        if new[0] == "error":
            assert new[1] == "FormatError"
        if not same(old, new):
            rules = changed_rules(fmt, raw)
            if old[0] == "ok":
                assert rules, (raw, old, new)
            else:
                assert "line breaks" in rules, (raw, old, new)


def decoded(fmt, path):
    """The entries read from path, as lists, or the FormatError message."""
    try:
        return entries_of(READERS[fmt](path)).tolist()
    except FormatError as exc:
        return str(exc)


class TestPoolSizes:
    """Pieces scanned on one to three workers give the values, or the
    FormatError message, of the pieces scanned on the calling thread."""

    @settings(max_examples=200, deadline=None, suppress_health_check=NO_FIXTURE_CHECK)
    @given(well_formed(), st.integers(0, 10**6), MUTANT_BYTES,
           st.sampled_from(["keep", "replace", "insert", "delete"]),
           st.sampled_from([1, 2, 7, 32, None]))
    def test_corpus(self, tmp_path, pool_size, case, where, byte, how, chunk):
        fmt, raw, _ = case
        if how != "keep":
            raw = mutated(raw, where, byte, how)
        path = _write(tmp_path, raw)
        got = []
        # a one-byte header read leaves the whole body to the pieces
        with mock.patch.object(io, "_DECODE_BYTES", chunk or io._DECODE_BYTES), \
                mock.patch.object(io, "_HEADER_BYTES", 1 if chunk else io._HEADER_BYTES):
            for size in (1, 2, 3):
                pool_size(size)
                got.append(decoded(fmt, path))
            with mock.patch.object(io, "_scan", codec_oracle._scan):
                want = decoded(fmt, path)
        assert got == [want] * 3, (raw, got, want)

    @staticmethod
    def two_defects(tmp_path):
        """An order-700 square file with a short row near byte 20,000 and a
        stray byte near byte 40,000."""
        n = 700
        path = tmp_path / "sq.mms"
        io.write_ms(path, MagicSquare(np.arange(n * n).reshape(n, n), 1))
        raw = bytearray(path.read_bytes())
        end = raw.index(b"\n", 20_000)
        del raw[raw.rindex(b" ", 0, end):end]  # the row's last entry
        at = raw.index(b" ", 40_000) + 1
        raw[at] = ord("x")
        path.write_bytes(bytes(raw))
        return path

    @staticmethod
    def raises_alike(path, pool_size, message):
        """Reading path raises message at pool sizes 1 to 3, with the
        kernel's scan and with the numpy scan it replaced."""
        for scan in (io._scan, codec_oracle._scan):
            for size in (1, 2, 3):
                pool_size(size)
                with mock.patch.object(io, "_scan", scan), \
                        pytest.raises(FormatError) as caught:
                    io.read_ms(path)
                assert str(caught.value) == message, (scan, size)

    def test_two_defects_give_one_message(self, tmp_path, pool_size):
        # the piece size does not depend on the worker count, so every
        # pool size reports the defect the serial scan reports first; one
        # default piece holds both defects, and its byte check comes first
        self.raises_alike(self.two_defects(tmp_path), pool_size,
                          "body holds a byte other than a digit, sign, space, "
                          "tab or line break")

    def test_two_defects_in_32_byte_pieces(self, tmp_path, pool_size):
        # the piece holding the short row comes before the stray byte's
        with mock.patch.object(io, "_DECODE_BYTES", 32):
            self.raises_alike(self.two_defects(tmp_path), pool_size,
                              "a row holds 699 entries, want 700")

    def test_long_body(self, tmp_path, pool_size):
        rng = np.random.default_rng(5)
        sq = MagicSquare(rng.integers(-10**12, 10**12, (300, 300)), 1)
        path = tmp_path / "sq.mms"
        io.write_ms(path, sq)
        for chunk in (1 << 10, io._DECODE_BYTES):
            with mock.patch.object(io, "_DECODE_BYTES", chunk):
                for size in (1, 2, 3):
                    pool_size(size)
                    assert np.array_equal(io.read_ms(path).entries, sq.entries)


# ---------------------------------------------------------------------------
# The compiled kernel against the numpy codec it replaced
# ---------------------------------------------------------------------------

def scanned(scan, piece):
    """A piece's (per_line, values, error, last), as lists, or the message
    of the FormatError that scanning it raises."""
    try:
        per_line, values, error, last = scan(piece)
    except FormatError as exc:
        return str(exc)
    return per_line.tolist(), values.tolist(), error, last


def pieces_of(raw: bytes, size: int) -> list:
    """The (data, cut) pieces into which _decode cuts a body that starts
    with the header's line break, reading size bytes at a time."""
    return list(io._pieces(BytesIO(raw[1:]), raw[:1], size))


BOUNDARIES = [INT64_MIN - 1, INT64_MIN, INT64_MIN + 1, INT64_MAX - 1, INT64_MAX,
              INT64_MAX + 1]
MALFORMED = ["+", "-", "--5", "+-5", "-+5", "5-", "5+", "1-2", "+5-", "++"]


@st.composite
def token(draw):
    """A token: small, int64, at or one past an int64 bound, of 20 to 30
    digits, or malformed; with leading zeros and a "+" at times."""
    kind = draw(st.sampled_from(["small", "int64", "boundary", "long", "malformed"]))
    if kind == "malformed":
        return draw(st.sampled_from(MALFORMED))
    x = draw({"small": st.integers(-20, 20), "int64": INT64,
              "boundary": st.sampled_from(BOUNDARIES),
              "long": st.integers(10**19, 10**30) | st.integers(-(10**30), -(10**19))}[kind])
    sign = "-" if x < 0 else draw(st.sampled_from(["", "+"]))
    return sign + "0" * draw(st.sampled_from([0, 0, 1, 3, 24])) + str(abs(x))


@st.composite
def bodies(draw):
    """Body bytes from the header's line break on: tokens and separators,
    "-0" and malformed tokens among them, with at most one byte after
    the first replaced, inserted or deleted."""
    parts = [draw(st.sampled_from(["\n", "\r", "\r\n"]))]
    for tok in draw(st.lists(token() | st.just("-0"), max_size=24)):
        parts += [tok, draw(st.sampled_from([" ", "  ", "\t", "\n", "\r", "\r\n",
                                             "\n\r", " \t\r\n", "\r\r"]))]
    raw = "".join(parts).encode("ascii")
    how = draw(st.sampled_from(["keep", "replace", "insert", "delete"]))
    if how != "keep" and len(raw) > 1:
        raw = raw[:1] + mutated(raw[1:], draw(st.integers(0, 10**6)),
                                draw(MUTANT_BYTES), how)
    return raw


class TestKernel:
    @settings(max_examples=600, deadline=None)
    @given(bodies(), st.sampled_from([1, 2, 3, 5, 8, 32, 1 << 16]))
    def test_pieces_scan_as_the_numpy_codec(self, raw, size):
        for piece in pieces_of(raw, size):
            assert scanned(io._scan, piece) == scanned(codec_oracle._scan, piece), piece

    @pytest.mark.parametrize("piece", [
        (b"\n1 2\n3 x", 4),                    # a stray byte past the cut
        (b"\n1 2\n3 4\x0b", 6),
        (b"\n1 -2\n3 -", 5),                   # a lone sign past the cut
        b"\n5\r6\r\n7\n\r8\r\r9\n",           # bare "\r" and "\r\n" breaks
        b"\n1\r\n", b"\r\n1\r\n", (b"\r1\r\n2", 2),
        b"\n-0 +0 -00 +007\n",
        b"\n-\n", b"\n+ 5\n", b"\n--5\n", b"\n5-\n", b"\n1-2\n",
        b"\n9223372036854775807 -9223372036854775808\n",
        b"\n9223372036854775808 -9223372036854775809\n",
        b"\n1 -9223372036854775809 9223372036854775808\n",
        b"\n+" + b"0" * 30 + b"9223372036854775807 " + b"9" * 40 + b"\n",
        b"\n", (b"\n 12 ", 4),
    ])
    def test_edge_pieces(self, piece):
        # a bytes piece is the last one, which ends with a line break
        piece = (piece, len(piece)) if isinstance(piece, bytes) else piece
        assert scanned(io._scan, piece) == scanned(codec_oracle._scan, piece)

    def test_first_out_of_range_token_is_named(self):
        piece = b"\n1 -99999999999999999999 1" + b"8" * 30 + b"\n"
        assert io._scan((piece, len(piece)))[2] \
            == "token -99999999999999999999 is outside the int64 range"

    def test_encodes_full_range_blocks(self):
        block = np.random.default_rng(7).integers(INT64_MIN, INT64_MAX, (64, 37),
                                                  dtype=np.int64, endpoint=True)
        block[0, :6] = [INT64_MIN, INT64_MAX, 0, -1, 1, -(10**18)]
        assert io._encode(block) == oracle.text_rows(block)
        assert io._encode(block) == codec_oracle._encode(block)
        assert io._encode(block[:, ::3]) == oracle.text_rows(block[:, ::3])


# ---------------------------------------------------------------------------
# Fuzz: a value or a FormatError, nothing else
# ---------------------------------------------------------------------------

def _golden_files():
    fam = io.read_cms_bundle(GOLDEN_CMS9)
    return {"CMS": GOLDEN_CMS9.read_bytes(), "OAF": GOLDEN_LOA.read_bytes(),
            "MMS": _written(io.write_ms, fam.members[0]),
            "MMB": _written(lambda p, sq: io.write_ms(p, sq, binary=True), fam.members[0])}


def _written(write, obj) -> bytes:
    with tempfile.TemporaryDirectory() as d:
        write(Path(d) / "f", obj)
        return (Path(d) / "f").read_bytes()


GOLDEN = _golden_files()
ALL_READERS = {**READERS, "MMB": io.read_ms}
PREFIXES = st.sampled_from([b"", b"MMS 1 n=2 t=1 base=0\n", b"MMB 1 n=1 t=1 base=0\n",
                            b"CMS 1 m=1 n=2 t=1\n", b"OAF 1 count=1 k=2 cols=2 v=2 t=1\n",
                            b"OAF 1 count=2 k=1 cols=2 v=2 t=1\r\n"])


def value_or_format_error(reader, path):
    try:
        reader(path)
    except FormatError:
        pass


class TestFuzz:
    @settings(max_examples=500, deadline=None, suppress_health_check=NO_FIXTURE_CHECK)
    @given(st.sampled_from(sorted(ALL_READERS)), PREFIXES, st.binary(max_size=64))
    def test_arbitrary_bytes(self, tmp_path, name, prefix, tail):
        value_or_format_error(ALL_READERS[name], _write(tmp_path, prefix + tail))

    @settings(max_examples=500, deadline=None, suppress_health_check=NO_FIXTURE_CHECK)
    @given(st.sampled_from(sorted(GOLDEN)), st.integers(0, 10**6), st.integers(0, 255),
           st.sampled_from(["replace", "insert", "delete"]))
    def test_golden_mutants(self, tmp_path, name, where, byte, how):
        raw = mutated(GOLDEN[name], where, byte, how)
        value_or_format_error(ALL_READERS[name], _write(tmp_path, raw))


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------

def test_text_square_memory_bounds(tmp_path):
    n = 625
    sq = MagicSquare(np.random.default_rng(0).permutation(n * n).reshape(n, n), 2)
    path = tmp_path / "sq.mms"
    tracemalloc.start()
    try:
        io.write_ms(path, sq)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        back = io.read_ms(path)
        read_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.entries, sq.entries)
    assert write_peak <= 1.0 * sq.entries.nbytes
    assert read_peak <= 2.5 * sq.entries.nbytes

