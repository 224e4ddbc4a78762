from unittest import mock

import numpy as np
import pytest

from multimagic import construct, gf, io, linalg, oa, verify
from multimagic.construct import CmsFamily
from multimagic.errors import FormatError
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
    """The generators' read-back: each decoder pass is compared with the
    matching slice of the built artifact."""

    @pytest.fixture
    def square(self, tmp_path):
        rng = np.random.default_rng(4)
        sq = MagicSquare(rng.permutation(40 * 40).reshape(40, 40) + 3, 2, base=3)
        path = tmp_path / "sq.mms"
        io.write_ms(path, sq)
        return path, sq

    @staticmethod
    def _changed(sq, i, j):
        entries = sq.entries.copy()
        entries[i, j] += 1
        return MagicSquare(entries, sq.t, sq.base)

    @pytest.mark.parametrize("chunk", [8, 64, 1 << 16])
    def test_each_pass_is_compared(self, square, chunk):
        path, sq = square
        with mock.patch.object(io, "_DECODE_BYTES", chunk):
            assert io.read_matches(path, sq)
            for i, j in ((0, 0), (17, 23), (39, 38), (39, 39)):
                assert not io.read_matches(path, self._changed(sq, i, j)), (i, j)

    def test_header_fields_are_compared(self, square):
        path, sq = square
        for other in (MagicSquare(sq.entries, 3, sq.base),
                      MagicSquare(sq.entries, sq.t, 4),
                      MagicSquare(sq.entries[:39, :39], sq.t, sq.base)):
            assert not io.read_matches(path, other)

    def test_bundles(self, golden_cms9, tmp_path):
        with mock.patch.object(io, "_DECODE_BYTES", 16):
            assert io.read_matches(GOLDEN_CMS9, golden_cms9)
            for k in (0, 4, 8):
                members = list(golden_cms9.members)
                members[k] = self._changed(members[k], 8, 8)
                assert not io.read_matches(GOLDEN_CMS9, CmsFamily(tuple(members), 2))
        fewer = CmsFamily(golden_cms9.members[:8], 2)
        assert not io.read_matches(GOLDEN_CMS9, fewer)

    def test_malformed_file_still_raises(self, square, tmp_path):
        path, sq = square
        text = path.read_bytes()
        cases = {
            "bad byte after a mismatch": text[:-3] + b"x\n",
            "short body": text[:len(text) // 2],
            "degree 0": text.replace(b"t=2", b"t=0", 1),
        }
        for name, raw in cases.items():
            bad = tmp_path / "bad.mms"
            bad.write_bytes(raw)
            with mock.patch.object(io, "_DECODE_BYTES", 64), \
                    pytest.raises(FormatError):
                io.read_matches(bad, self._changed(sq, 0, 0))
            with pytest.raises(FormatError):
                io.read_ms(bad)

    def test_wrong_format_raises(self, golden_cms9, tmp_path):
        with pytest.raises(FormatError):
            io.read_matches(GOLDEN_CMS9, golden_cms9.members[0])


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
