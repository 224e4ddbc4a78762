import os
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from multimagic import _pool, construct, gf, io
from multimagic.cli import main

from conftest import GOLDEN_CMS9, GOLDEN_LOA


def run_cli(*argv) -> int:
    return main(list(argv))


class TestFieldCommand:
    def test_field_inspection(self, capsys):
        assert run_cli("field", "--p", "3", "--m", "2") == 0
        out = capsys.readouterr().out
        assert "q=9" in out and "modulus=x^2 + 1" in out and "primitive=4" in out

    def test_non_prime_is_usage_error(self, capsys):
        assert run_cli("field", "--p", "6", "--m", "1") == 2


class TestSearchCommand:
    def test_sdloa_search(self, capsys):
        assert run_cli("search-matrices", "--q", "5", "--t", "2",
                       "--kind", "sdloa") == 0
        assert "verdict=true" in capsys.readouterr().out

    def test_exhaustion_is_construction_failure(self):
        assert run_cli("search-matrices", "--q", "3", "--t", "2",
                       "--kind", "sdloa") == 3

    def test_non_prime_power_q(self):
        assert run_cli("search-matrices", "--q", "6", "--t", "2",
                       "--kind", "cms") == 2


class TestGenVerifyLoop:
    def test_gen_ms_then_verify(self, tmp_path, capsys):
        out = tmp_path / "m25.mms"
        assert run_cli("gen-ms", "--q", "5", "--t", "2", "--method", "qt",
                       "--out", str(out)) == 0
        assert run_cli("verify-ms", str(out)) == 0

    def test_gen_cms_reproduces_fixture(self, tmp_path):
        out = tmp_path / "c.cms"
        assert run_cli("gen-cms", "--q", "3", "--t", "2", "--out", str(out)) == 0
        assert out.read_bytes() == GOLDEN_CMS9.read_bytes()
        assert [p.name for p in tmp_path.iterdir()] == ["c.cms"]  # no temporary left
        assert run_cli("verify-cms", str(out)) == 0

    def test_verify_in_separate_process(self, tmp_path):
        ms_out = tmp_path / "m9.mms"
        cms_out = tmp_path / "c9.cms"
        assert run_cli("gen-ms", "--q", "3", "--t", "2", "--method", "qt",
                       "--out", str(ms_out)) == 0
        assert run_cli("gen-cms", "--q", "3", "--t", "2",
                       "--out", str(cms_out)) == 0
        # the child finds the package where this process does, installed or not
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        for cmd, path in (("verify-ms", ms_out), ("verify-cms", cms_out)):
            proc = subprocess.run(
                [sys.executable, "-m", "multimagic.cli", cmd, str(path)],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            assert "verdict=pass" in proc.stdout

    def test_python_dash_m(self, capsys):
        argv = ["plan", "--q", "7", "--t", "3", "--m", "8"]
        assert run_cli(*argv) == 0
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-m", "multimagic", *argv],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == capsys.readouterr().out

    def test_gen_ms_verbose_stages(self, tmp_path, capsys):
        out = tmp_path / "m3125.mms"
        assert run_cli("gen-ms", "--q", "5", "--t", "3", "--method", "q2t1",
                       "--out", str(out), "--verbose", "--threads", "2") == 0
        stdout = capsys.readouterr().out
        assert stdout.count("# ") == 4  # one line per pipeline stage

    def test_gen_range_violation(self, tmp_path):
        out = tmp_path / "x.mms"
        assert run_cli("gen-ms", "--q", "3", "--t", "3", "--method", "qt",
                       "--out", str(out)) == 2

    def test_out_of_memory_is_construction_failure(self, tmp_path, capsys,
                                                   monkeypatch):
        def exhausted(table, t):
            raise MemoryError("Unable to allocate 64.9 GiB for an array")

        monkeypatch.setattr(construct, "build_ms_qt", exhausted)
        # room for the 37 GB text, so that the build, not the disk
        # preflight, is what runs out
        monkeypatch.setattr(os, "statvfs", lambda path: SimpleNamespace(
            f_bavail=2**40, f_frsize=4096))
        out = tmp_path / "x.mms"
        assert run_cli("gen-ms", "--q", "9", "--t", "5", "--method", "qt",
                       "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert err == "construction failed: Unable to allocate 64.9 GiB for an array\n"
        assert not out.exists()


    @pytest.mark.parametrize("command", ["gen-ms", "gen-cms", "compose"])
    @pytest.mark.parametrize("where", ["directory", "missing_parent"])
    def test_unwritable_out_refused_before_building(self, tmp_path, capsys, monkeypatch,
                                                    golden_cms9, command, where):
        squares = [tmp_path / "a.mms", tmp_path / "b.mms"]
        for path, sq in zip(squares, golden_cms9.members):
            io.write_ms(path, sq)
        started = []
        monkeypatch.setattr(gf, "build_field_q", lambda *a: started.append(a))
        monkeypatch.setattr(io, "read_ms", lambda *a: started.append(a))
        argv = {"gen-ms": ["gen-ms", "--q", "5", "--t", "3", "--method", "qt"],
                "gen-cms": ["gen-cms", "--q", "3", "--t", "2"],
                "compose": ["compose", "--product", *map(str, squares)]}[command]
        if where == "directory":
            out = tmp_path / "out"
            out.mkdir()
        else:
            out = tmp_path / "absent" / "x.out"
        assert run_cli(*argv, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --out ") and str(out) in err
        assert not started
        assert not Path(f"{out}.tmp").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["a.mms", "b.mms"] + (["out"] if where == "directory" else []))

    @staticmethod
    def corrupt_first_piece(monkeypatch, corrupt):
        """Write the first piece after the header as corrupt(its bytes):
        the file then differs from the checked text."""
        real = io._write_at
        calls = []

        def write_at(fd, data, at):
            calls.append(at)
            real(fd, corrupt(bytes(data)) if len(calls) == 2 else data, at)

        monkeypatch.setattr(io, "_write_at", write_at)

    @pytest.mark.parametrize("argv, writer", [
        (("gen-ms", "--q", "3", "--t", "2", "--method", "qt"), "write_ms"),
        (("gen-cms", "--q", "3", "--t", "2"), "write_cms_bundle"),
    ])
    def test_read_back_mismatch_is_construction_failure(self, tmp_path, capsys,
                                                        monkeypatch, argv, writer):
        def flip(raw):
            raw = bytearray(raw)
            raw[-2] = ord("1") if raw[-2] != ord("1") else ord("2")
            return bytes(raw)

        self.corrupt_first_piece(monkeypatch, flip)
        out = tmp_path / "x"
        assert run_cli(*argv, "--out", str(out)) == 3
        assert capsys.readouterr().err == "construction failed: artifact did not round-trip\n"
        # the unverified artifact reaches neither the path nor its temporary
        assert not out.exists() and not (tmp_path / "x.tmp").exists()

    def test_malformed_read_back_is_construction_failure(self, tmp_path, capsys,
                                                         monkeypatch):
        # the generator's own artifact failing to read back is a
        # construction failure, not a usage error
        self.corrupt_first_piece(monkeypatch, lambda raw: raw[:-20])
        out = tmp_path / "x.mms"
        assert run_cli("gen-ms", "--q", "3", "--t", "2", "--method", "qt",
                       "--out", str(out)) == 3
        assert capsys.readouterr().err.startswith(
            "construction failed: artifact did not round-trip: ")
        assert not out.exists() and not (tmp_path / "x.mms.tmp").exists()

    @pytest.mark.parametrize("command", [
        ("gen-ms", "--q", "5", "--t", "2", "--method", "qt"),
        ("gen-ms", "--q", "5", "--t", "3", "--method", "q2t1"),
        ("gen-cms", "--q", "5", "--t", "2"),
    ])
    def test_bad_byte_in_own_artifact_exits_3(self, command, tmp_path, capsys, monkeypatch):
        real = io._encode

        def encode_bad_byte(block):
            text = bytearray(real(block))
            text[0] = ord("x")  # a byte the decoder rejects
            return memoryview(bytes(text))

        monkeypatch.setattr(io, "_encode", encode_bad_byte)
        out = tmp_path / "x.out"
        assert run_cli(*command, "--out", str(out)) == 3
        assert capsys.readouterr().err == (
            "construction failed: artifact did not round-trip: body holds a byte "
            "other than a digit, sign, space, tab or line break\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["0", "-1", "two"])
    def test_threads_must_be_positive(self, tmp_path, value):
        assert run_cli("gen-ms", "--q", "3", "--t", "2", "--method", "qt",
                       "--out", str(tmp_path / "x.mms"), "--threads", value) == 2

    def test_threads_above_the_ceiling(self, tmp_path, capsys, pool_size):
        before = (threading.active_count(), _pool.size())
        for value in (_pool.MAX_WORKERS + 1, 100_000):
            assert run_cli("gen-ms", "--q", "3", "--t", "2", "--method", "qt",
                           "--out", str(tmp_path / "x.mms"), "--threads", str(value)) == 2
            assert f"more than {_pool.MAX_WORKERS} threads" in capsys.readouterr().err
        assert (threading.active_count(), _pool.size()) == before
        assert not (tmp_path / "x.mms").exists()

    def test_threads_sets_the_pool(self, tmp_path, golden_cms9, pool_size):
        path = tmp_path / "sq.mms"
        io.write_ms(path, golden_cms9.members[0])
        assert run_cli("verify-ms", str(path), "--threads", "3") == 0
        assert _pool.size() == 3
        assert run_cli("verify-ms", str(path)) == 0
        assert _pool.size() == _pool.usable_cores()


class TestVerifyCommands:
    def test_verify_ms_rejects_corrupt(self, tmp_path, golden_cms9):
        sq = golden_cms9.members[0]
        bad = sq.entries.copy()
        bad[0, 0], bad[3, 3] = bad[3, 3], bad[0, 0]
        path = tmp_path / "bad.mms"
        io.write_ms(path, type(sq)(bad, 2))
        assert run_cli("verify-ms", str(path)) == 1

    def test_verify_ms_garbage_file(self, tmp_path):
        path = tmp_path / "garbage.txt"
        path.write_text("not a square at all\n")
        assert run_cli("verify-ms", str(path)) == 2

    def test_verify_ms_missing_file(self, tmp_path):
        assert run_cli("verify-ms", str(tmp_path / "absent.mms")) == 2

    def test_verify_ms_degree_override(self, tmp_path, golden_cms9):
        path = tmp_path / "c0.mms"
        io.write_ms(path, golden_cms9.members[0])
        assert run_cli("verify-ms", str(path), "--t", "2") == 0
        # order 9 squares are bimagic here, never trimagic
        assert run_cli("verify-ms", str(path), "--t", "3") == 1

    @pytest.mark.parametrize("degree", ["0", "-1"])
    def test_verify_ms_degree_below_one(self, tmp_path, golden_cms9, capsys, degree):
        # --t 0 is a degree like any other, not "use the file's degree"
        path = tmp_path / "c0.mms"
        io.write_ms(path, golden_cms9.members[0])
        assert run_cli("verify-ms", str(path), "--t", degree) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: degree must be at least 1\n"

    def test_verify_oa_modes(self, capsys):
        golden = str(GOLDEN_LOA)
        assert run_cli("verify-oa", golden) == 0
        # 81 members hold 729 columns, more than v^k: a shape precondition
        assert run_cli("verify-oa", golden, "--large-set") == 2
        capsys.readouterr()

    def test_verify_oa_family_slice(self, tmp_path, golden_loa):
        from multimagic import oa as oam
        path = tmp_path / "nine.oaf"
        io.write_oa_family(path, oam.ArrayFamily(golden_loa.members[0:9]))
        assert run_cli("verify-oa", str(path), "--large-set") == 0
        assert run_cli("verify-oa", str(path), "--sdloa") == 0

    def test_verify_oa_threads(self, tmp_path, golden_loa, capsys, pool_size, monkeypatch):
        from multimagic import oa as oam
        good = tmp_path / "nine.oaf"
        io.write_oa_family(good, oam.ArrayFamily(golden_loa.members[0:9]))
        bad_entries = golden_loa.members[3].entries.copy()
        bad_entries[1, 2] = (bad_entries[1, 2] + 1) % 3
        members = list(golden_loa.members[0:9])
        members[3] = oam.OrthArray(bad_entries, 3, 2)
        bad = tmp_path / "corrupt.oaf"
        io.write_oa_family(bad, oam.ArrayFamily(tuple(members)))
        monkeypatch.setattr(oam, "_CODE_ENTRIES", 36)  # one member a block
        for path, want in ((good, 0), (bad, 1)):
            for mode in ([], ["--large-set"], ["--sdloa"]):
                runs = []
                for threads in ("1", "3"):
                    code = run_cli("verify-oa", str(path), *mode, "--threads", threads)
                    runs.append((code, capsys.readouterr().out))
                    assert _pool.size() == int(threads)
                assert runs[0] == runs[1] and runs[0][0] == want, (path, mode)
        assert run_cli("verify-oa", str(good), "--threads", "0") == 2

    def test_verify_oa_corrupt_member(self, tmp_path, golden_loa):
        from multimagic import oa as oam
        bad = golden_loa.members[0].entries.copy()
        bad[0, 0] = (bad[0, 0] + 1) % 3
        members = (oam.OrthArray(bad, 3, 2),) + golden_loa.members[1:9]
        path = tmp_path / "corrupt.oaf"
        io.write_oa_family(path, oam.ArrayFamily(members))
        assert run_cli("verify-oa", str(path)) == 1
        assert run_cli("verify-oa", str(path), "--sdloa") == 1

    def test_verify_oa_simple_beyond_int64_codes(self, tmp_path, capsys,
                                                 wide_simple_oa):
        from multimagic import oa as oam
        path = tmp_path / "wide.oaf"
        io.write_oa_family(path, oam.ArrayFamily((wide_simple_oa,)))
        assert run_cli("verify-oa", str(path)) == 0
        assert capsys.readouterr().out == "member 0: pass\n"

    def test_verify_cms_corrupt_bundle(self, tmp_path, golden_cms9):
        from multimagic import construct, verify as ver
        stack = golden_cms9.stack.copy()
        stack[0] = np.rot90(golden_cms9.stack[0])
        path = tmp_path / "corrupt.cms"
        io.write_cms_bundle(path, construct.CmsFamily(stack, 2))
        assert run_cli("verify-cms", str(path)) == 1


class TestComposeCommand:
    def test_product(self, tmp_path, golden_cms9):
        a = tmp_path / "a.mms"
        io.write_ms(a, golden_cms9.members[0])
        out = tmp_path / "p.mms"
        assert run_cli("compose", "--product", str(a), str(a),
                       "--out", str(out)) == 0
        sq = io.read_ms(out)
        assert sq.n == 81
        assert run_cli("verify-ms", str(out)) == 0

    def test_cms_composition(self, tmp_path):
        sq_path = tmp_path / "m125.mms"
        fam_path = tmp_path / "f25.cms"
        out = tmp_path / "m3125.mms"
        assert run_cli("gen-ms", "--q", "5", "--t", "3", "--method", "qt",
                       "--out", str(sq_path)) == 0
        assert run_cli("gen-cms", "--q", "5", "--t", "2",
                       "--out", str(fam_path)) == 0
        assert run_cli("compose", "--cms", str(sq_path), str(fam_path),
                       "--out", str(out)) == 0
        assert io.read_ms(out).n == 3125

    def test_composed_squares_are_never_gathered(self, tmp_path, golden_cms9, monkeypatch):
        # every stage reads a composed square through rows(): the whole
        # square, and so normalized(), is never asked for
        def whole(self):
            raise AssertionError("the whole composed square was gathered")

        monkeypatch.setattr(construct.ComposedSquare, "entries", property(whole))
        a = tmp_path / "a.mms"
        io.write_ms(a, golden_cms9.members[0])
        sq_path, fam_path = tmp_path / "m125.mms", tmp_path / "f25.cms"
        assert run_cli("gen-ms", "--q", "5", "--t", "3", "--method", "qt",
                       "--out", str(sq_path)) == 0
        assert run_cli("gen-cms", "--q", "5", "--t", "2", "--out", str(fam_path)) == 0
        runs = {"product.mms": ("compose", "--product", str(a), str(a)),
                "cms.mms": ("compose", "--cms", str(sq_path), str(fam_path)),
                "q2t1.mms": ("gen-ms", "--q", "5", "--t", "3", "--method", "q2t1")}
        for name, argv in runs.items():
            assert run_cli(*argv, "--out", str(tmp_path / name)) == 0, name
        assert io.read_ms(tmp_path / "product.mms").n == 81
        assert ((tmp_path / "cms.mms").read_bytes()
                == (tmp_path / "q2t1.mms").read_bytes())

    def test_mismatched_composition(self, tmp_path, golden_cms9):
        a = tmp_path / "a.mms"
        io.write_ms(a, golden_cms9.members[0])
        out = tmp_path / "x.mms"
        # a 9-member order-9 degree-2 bundle cannot complement a degree-2 square
        assert run_cli("compose", "--cms", str(a), str(GOLDEN_CMS9),
                       "--out", str(out)) == 2


class TestPlanCommand:
    def test_feasible(self, capsys):
        assert run_cli("plan", "--q", "7", "--t", "3", "--m", "8") == 0
        out = capsys.readouterr().out
        assert "factors=[3, 5]" in out and "feasible=true" in out

    def test_infeasible(self, capsys):
        assert run_cli("plan", "--q", "5", "--t", "3", "--m", "4") == 1
        out = capsys.readouterr().out
        assert "VIOLATED" in out and "feasible=false" in out

    def test_usage(self):
        assert run_cli("plan", "--q", "7", "--t", "3", "--m", "2") == 2


class TestUsage:
    def test_no_command(self):
        assert run_cli() == 2

    def test_unknown_command(self):
        assert run_cli("frobnicate") == 2

    def test_missing_required_flag(self):
        assert run_cli("gen-ms", "--q", "5") == 2
