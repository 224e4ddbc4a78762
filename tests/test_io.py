import numpy as np
import pytest

from multimagic import construct, gf, io, linalg, oa, verify
from multimagic.construct import CmsFamily
from multimagic.errors import ConstructionError, FormatError
from multimagic.verify import MagicSquare

from conftest import GOLDEN_CMS9


class TestMsFormat:
    def test_golden_header_and_first_line(self, golden_cms9, tmp_path):
        path = tmp_path / "c0.mms"
        io.write_ms(path, golden_cms9.members[0])
        lines = path.read_text().splitlines()
        assert lines[0] == "MMS 1 n=9 t=2 base=0"
        assert lines[1] == "46 65 0 61 26 42 13 32 75"

    def test_roundtrip_random_squares(self, tmp_path):
        rng = np.random.default_rng(9)
        for trial in range(100):
            n = int(rng.integers(1, 7))
            entries = rng.permutation(n * n).reshape(n, n)
            sq = MagicSquare(entries, int(rng.integers(1, 4)),
                             base=int(rng.integers(0, 3)))
            path = tmp_path / f"sq{trial}.mms"
            io.write_ms(path, sq)
            back = io.read_ms(path)
            assert np.array_equal(back.entries, sq.entries)
            assert (back.t, back.base) == (sq.t, sq.base)

    def test_binary_roundtrip(self, golden_cms9, tmp_path):
        path = tmp_path / "c0.mmb"
        io.write_ms(path, golden_cms9.members[0], binary=True)
        back = io.read_ms(path)
        assert np.array_equal(back.entries, golden_cms9.members[0].entries)
        assert path.read_bytes().startswith(b"MMB 1 n=9 t=2 base=0\n")

    def test_write_is_deterministic(self, golden_cms9, tmp_path):
        a, b = tmp_path / "a.mms", tmp_path / "b.mms"
        io.write_ms(a, golden_cms9.members[0])
        io.write_ms(b, golden_cms9.members[0])
        assert a.read_bytes() == b.read_bytes()

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.mms"
        path.write_text("")
        with pytest.raises(FormatError):
            io.read_ms(path)

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "bad.mms"
        path.write_text("MMS 1 n=2 t=1 base=0\n0 1 2\n3 4 5\n")
        with pytest.raises(FormatError):
            io.read_ms(path)

    def test_non_integer_token(self, tmp_path):
        path = tmp_path / "bad.mms"
        path.write_text("MMS 1 n=1 t=1 base=0\nx\n")
        with pytest.raises(FormatError):
            io.read_ms(path)

    def test_unknown_header_key(self, tmp_path):
        path = tmp_path / "bad.mms"
        path.write_text("MMS 1 n=1 t=1 base=0 extra=1\n0\n")
        with pytest.raises(FormatError):
            io.read_ms(path)

    def test_missing_header_key(self, tmp_path):
        path = tmp_path / "bad.mms"
        path.write_text("MMS 1 n=1 t=1\n0\n")
        with pytest.raises(FormatError):
            io.read_ms(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.mms"
        path.write_text("XXX 1 n=1 t=1 base=0\n0\n")
        with pytest.raises(FormatError):
            io.read_ms(path)


class TestOaFormat:
    def test_golden_family(self, golden_loa):
        assert len(golden_loa.members) == 81
        assert golden_loa.members[0].entries[0].tolist() == [1, 2, 0, 1, 2, 0, 1, 2, 0]

    def test_roundtrip(self, golden_loa, tmp_path):
        path = tmp_path / "fam.oaf"
        fam = oa.ArrayFamily(golden_loa.members[0:9])
        io.write_oa_family(path, fam)
        back = io.read_oa_family(path)
        assert len(back.members) == 9
        for a, b in zip(back.members, fam.members):
            assert np.array_equal(a.entries, b.entries)

    def test_zero_count_rejected(self, tmp_path):
        path = tmp_path / "bad.oaf"
        path.write_text("OAF 1 count=0 k=4 cols=9 v=3 t=2\n")
        with pytest.raises(FormatError):
            io.read_oa_family(path)

    def test_block_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.oaf"
        path.write_text("OAF 1 count=2 k=1 cols=2 v=2 t=1\n0 1\n")
        with pytest.raises(FormatError):
            io.read_oa_family(path)

    def test_symbol_out_of_range(self, tmp_path):
        path = tmp_path / "bad.oaf"
        path.write_text("OAF 1 count=1 k=1 cols=2 v=2 t=1\n0 7\n")
        with pytest.raises(FormatError):
            io.read_oa_family(path)


class TestCmsFormat:
    def test_golden_bundle_shape(self, golden_cms9):
        assert golden_cms9.m == 9
        assert golden_cms9.n == 9
        assert golden_cms9.t == 2

    def test_roundtrip_bytes(self, golden_cms9, tmp_path):
        path = tmp_path / "bundle.cms"
        io.write_cms_bundle(path, golden_cms9)
        assert path.read_bytes() == GOLDEN_CMS9.read_bytes()

    def test_block_shape_mismatch(self, tmp_path):
        path = tmp_path / "bad.cms"
        path.write_text("CMS 1 m=1 n=2 t=1\n0 1\n")
        with pytest.raises(FormatError):
            io.read_cms_bundle(path)


class TestReadMatches:
    """The writers' read-back: each piece's text is decoded and compared
    with the rows it was encoded from, and its bytes are read back from
    the file, so a write stops at the first piece that would not read
    back to the artifact."""

    @pytest.fixture
    def square(self):
        rng = np.random.default_rng(4)
        return MagicSquare(rng.permutation(40 * 40).reshape(40, 40) + 3, 2, base=3)

    @staticmethod
    def encoded_as(monkeypatch, change):
        """Encode each block as change(block) returns it."""
        real = io._encode
        monkeypatch.setattr(io, "_encode", lambda block: real(change(block)))

    @pytest.mark.parametrize("chunk", [8, 64, 1 << 16])
    def test_each_pass_is_compared(self, square, chunk, monkeypatch, tmp_path):
        monkeypatch.setattr(io, "_ENCODE_ENTRIES", chunk)
        path = tmp_path / "sq.mms"
        io.write_ms(path, square)
        got = io.read_ms(path)
        assert np.array_equal(got.entries, square.entries) and got.base == square.base
        for i, j in ((0, 0), (17, 23), (39, 38), (39, 39)):
            value = square.entries[i, j]  # each entry is distinct
            with monkeypatch.context() as patch:
                self.encoded_as(patch, lambda b: np.where(b == value, value + 1, b))
                with pytest.raises(ConstructionError, match="^artifact did not round-trip$"):
                    io.write_ms(path, square)
        # a piece with an extra row, or with a token more on its last row,
        # holds more values than its block: it is decoded again into grown
        # buffers, and raises what a piece of the block's size raises
        real, n = io._encode, square.n
        for encode, message in (
                (lambda b: real(np.vstack([b, b[-1:]])), "^artifact did not round-trip$"),
                (lambda b: memoryview(bytes(real(b))[:-1] + b" 7\n"),
                 f"^artifact did not round-trip: a row holds {n + 1} entries, want {n}$")):
            with monkeypatch.context() as patch:
                patch.setattr(io, "_encode", encode)
                with pytest.raises(ConstructionError, match=message):
                    io.write_ms(path, square)

    def test_header_fields_are_compared(self, square, monkeypatch, tmp_path):
        real = io._write_at
        for old, new in ((b"t=2", b"t=3"), (b"base=3", b"base=4"), (b"n=40", b"n=39")):
            def write_at(fd, data, at, old=old, new=new):
                real(fd, bytes(data).replace(old, new) if at == 0 else data, at)

            monkeypatch.setattr(io, "_write_at", write_at)
            with pytest.raises(ConstructionError, match="^artifact did not round-trip$"):
                io.write_ms(tmp_path / "sq.mms", square)

    def test_file_size_is_checked(self, square, monkeypatch, tmp_path):
        # each write leaves two bytes past its data, which the next piece
        # overwrites: only the last write's are left, past every piece
        path = tmp_path / "sq.mms"
        io.write_ms(path, square)
        size = path.stat().st_size
        real = io._write_at
        monkeypatch.setattr(io, "_write_at",
                            lambda fd, data, at: real(fd, bytes(data) + b"7\n", at))
        with pytest.raises(ConstructionError) as got:
            io.write_ms(path, square)
        assert str(got.value) == (f"artifact did not round-trip: the file holds "
                                  f"{size + 2} bytes, want {size}")

    def test_bundles(self, golden_cms9, monkeypatch, tmp_path):
        path = tmp_path / "fam.cms"
        monkeypatch.setattr(io, "_ENCODE_ENTRIES", 16)
        io.write_cms_bundle(path, golden_cms9)
        assert path.read_bytes() == GOLDEN_CMS9.read_bytes()
        for k in (0, 4, 8):
            row = golden_cms9.members[k].entries[8]
            with monkeypatch.context() as patch:
                self.encoded_as(patch, lambda b: b + np.may_share_memory(b, row))
                with pytest.raises(ConstructionError, match="^artifact did not round-trip$"):
                    io.write_cms_bundle(path, golden_cms9)
        # the blank line between two members is read back too
        real = io._write_at
        monkeypatch.setattr(io, "_write_at",
                            lambda fd, data, at: None if data == b"\n" else real(fd, data, at))
        with pytest.raises(ConstructionError, match="^artifact did not round-trip: "):
            io.write_cms_bundle(path, golden_cms9)

    def test_malformed_file_still_raises(self, square, monkeypatch, tmp_path):
        # a malformed text raises what the reader raises on it
        text = bytes(io._encode(square.entries))
        cases = {
            "bad byte": text[:-3] + b"x\n",
            "short row": text[:text.rindex(b" ")] + b"\n",
            "out of range": b"9" * 20 + text[text.index(b" "):],
        }
        bad = tmp_path / "bad.mms"
        for name, raw in cases.items():
            bad.write_bytes(b"MMS 1 n=40 t=2 base=3\n" + raw)
            with pytest.raises(FormatError) as want:
                io.read_ms(bad)
            with monkeypatch.context() as patch:
                patch.setattr(io, "_encode", lambda block, raw=raw: memoryview(raw))
                with pytest.raises(ConstructionError) as got:
                    io.write_ms(tmp_path / "sq.mms", square)
            assert str(got.value) == f"artifact did not round-trip: {want.value}", name

    def test_wrong_format_raises(self, tmp_path):
        class Narrow:
            n, t, base = 4, 1, 0

            def rows(self, r0, r1, out):
                return np.zeros((r1 - r0, 3), dtype=np.int64)

        with pytest.raises(ConstructionError, match=r"have shape \(4, 3\), want \(4, 4\)"):
            io.write_ms(tmp_path / "sq.mms", Narrow())


INT64 = np.iinfo(np.int64)
HELD = {
    "order 1": MagicSquare(np.array([[7]]), 1),
    "negative": MagicSquare(np.arange(-12, 13).reshape(5, 5)[::-1], 1),
    "base": MagicSquare(np.arange(36).reshape(6, 6).T + 11, 2, base=11),
    "int64 extremes": MagicSquare(np.array([[INT64.min, INT64.max, 0, -1],
                                            [1, INT64.max, INT64.min, -10**18],
                                            [10**18, -9, 9, INT64.min + 1],
                                            [INT64.max - 1, 0, 0, 0]]), 1),
}


def _square_of(sq):
    return sq.entries.tolist(), sq.t, sq.base


def _bundle_of(fam):
    return [m.entries.tolist() for m in fam.members], fam.t


def _family_of(fam):
    return [(m.entries.tolist(), m.v, m.t) for m in fam.members]


class TestCheckedWriters:
    """The oracle of the checked writers: each file reads back through
    its own reader to the artifact, at pool sizes 1 to 3, with pieces of
    1, 2, 3 or 7 rows, so that a block's last piece is short and the next
    block's rows start a piece of their own."""

    @staticmethod
    def written(write, read, artifact, cols, tmp_path, pool_size, monkeypatch):
        """What read gives, at each pool size and piece height, for the
        file write made of artifact, whose rows hold cols entries."""
        path = tmp_path / "artifact"
        got = set()
        for size in (1, 2, 3):
            pool_size(size)
            for rows in (1, 2, 3, 7):
                monkeypatch.setattr(io, "_ENCODE_ENTRIES", rows * size * cols)
                write(path, artifact)
                got.add(repr(read(path)))
        return got

    @pytest.mark.parametrize("name", sorted(HELD) + ["grid", "composed"])
    @pytest.mark.parametrize("binary", [False, True])
    def test_squares(self, name, binary, f3, golden_cms9, tmp_path, pool_size, monkeypatch):
        sq = {"grid": lambda: construct.build_ms_qt(f3, 2),
              "composed": lambda: construct.product_compose(*golden_cms9.members[:2]),
              }.get(name, lambda: HELD[name])()
        got = self.written(lambda path, sq: io.write_ms(path, sq, binary),
                           lambda path: _square_of(io.read_ms(path)),
                           sq, sq.n, tmp_path, pool_size, monkeypatch)
        assert got == {repr(_square_of(sq))}

    def test_bundle_members_view_the_stack(self):
        fam = io.read_cms_bundle(GOLDEN_CMS9)
        assert fam.stack.shape == (9, 9, 9) and fam.stack.dtype == np.int64
        for member, block in zip(fam.members, fam.stack):
            assert np.shares_memory(member.entries, block)
            assert np.array_equal(member.entries, block)

    @pytest.mark.parametrize("members", ["one", "golden", "built"])
    def test_bundles(self, members, golden_cms9, f5, tmp_path, pool_size, monkeypatch):
        fam = {"one": lambda: CmsFamily(golden_cms9.stack[:1], 2),
               "golden": lambda: golden_cms9,
               "built": lambda: construct.build_cms_family(f5, 2)}[members]()
        got = self.written(io.write_cms_bundle, lambda path: _bundle_of(io.read_cms_bundle(path)),
                           fam, fam.n, tmp_path, pool_size, monkeypatch)
        assert got == {repr(_bundle_of(fam))}

    @pytest.mark.parametrize("count", [1, 9])
    def test_array_families(self, count, golden_loa, tmp_path, pool_size, monkeypatch):
        fam = oa.ArrayFamily(golden_loa.members[:count])
        got = self.written(io.write_oa_family, lambda path: _family_of(io.read_oa_family(path)),
                           fam, fam.members[0].n_cols, tmp_path, pool_size, monkeypatch)
        assert got == {repr(_family_of(fam))}


class TestCertificates:
    def test_pair_certificate_layout(self, f5):
        cert = linalg.find_cms_pair(f5, 2)
        text = io.format_certificate(cert)
        lines = text.splitlines()
        assert lines[0] == "kind=cms-pair"
        assert lines[1] == "q=5" and lines[2] == "t=2"
        assert lines[3] == f"d={cert.d}"
        assert any(ln.startswith("e1=1 0 ;") for ln in lines)
        assert sum(ln.startswith("check.") for ln in lines) == 9
        assert lines[-1] == "verdict=true"

    def test_sdloa_certificate_omits_d(self, f5):
        text = io.format_certificate(linalg.find_sdloa_pair(f5, 2))
        assert "kind=sdloa-pair" in text and "d=-" in text
        assert sum(ln.startswith("check.") for ln in text.splitlines()) == 5

    def test_report_serialization(self, golden_cms9, tmp_path):
        rep = verify.verify_ms(golden_cms9.members[0], 2)
        path = tmp_path / "report.txt"
        io.write_certificate(path, rep)
        text = path.read_text()
        assert "kind=verify-report" in text
        assert "sum.2=19320" in text
        assert text.rstrip().endswith("verdict=true")

    def test_deterministic_certificates(self, f5, tmp_path):
        cert = linalg.find_cms_pair(f5, 2)
        a, b = tmp_path / "a.cert", tmp_path / "b.cert"
        io.write_certificate(a, cert)
        io.write_certificate(b, cert)
        assert a.read_bytes() == b.read_bytes()

    def test_unsupported_object(self, tmp_path):
        with pytest.raises(TypeError):
            io.write_certificate(tmp_path / "x", object())
