"""Tests of the benchmark itself: tracer counts, wrapper removal and the
output gate.  Run from the repository root:

    python3 perfbench/selftest.py

The traced and gated runs start CLI children, so the file takes about a
minute; it is kept out of the library's pytest collection on purpose.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import sys
import unittest

import numpy as np

import run
import tracer

sys.path.insert(0, run.SRC)

COUNTS = ("oa.verify_sdloa.calls", "oa.tally_cells", "oa.verify_large_set.calls",
          "oa.verify_oa.calls", "verify.verify_ms.calls", "verify.lines_checked",
          "verify.verify_ms.calls_per_square", "verify.verify_cms.calls",
          "io.bytes_written", "io.bytes_read", "linalg.check_pair.calls")


def flip_digit(src: str, dst: str) -> None:
    """Copy src to dst with one digit in the body changed to another."""
    shutil.copyfile(src, dst)
    with open(dst, "r+b") as f:
        f.readline()
        pos = f.tell() + 1000
        f.seek(pos)
        b = f.read(1)
        while not b.isdigit():
            b = f.read(1)
        f.seek(f.tell() - 1)
        f.write(b"1" if b != b"1" else b"2")


class TracedCounts(unittest.TestCase):
    def traced(self, run_id: str) -> dict:
        args, check = run.command_for("compose_q2t1", 0)
        spans = os.path.join(run.WORK, f"selftest-{run_id}.jsonl")
        child = run.spawn([sys.executable, run.TRACER, spans, run_id, "--", *args])
        self.assertEqual(check(child), [])
        recs = tracer.read_spans(spans)
        self.assertTrue(all(r["run"] == run_id for r in recs))
        return tracer.layer_metrics(recs)

    def test_two_traced_runs_count_the_same(self):
        first, second = self.traced("a"), self.traced("b")
        for name in COUNTS:
            self.assertEqual(first[name], second[name], name)
        self.assertEqual(first["verify.verify_ms.calls"], 78)


class Wrappers(unittest.TestCase):
    def test_wrappers_are_removed_afterwards(self):
        from multimagic import cli
        mods = [sys.modules[f"multimagic.{m}"] for m in tracer.MODULES]
        before = [dict(vars(m)) for m in mods]
        t = tracer.Tracer("wrap")
        t.install()
        self.assertIsNot(sys.modules["multimagic.oa"].verify_oa,
                         before[tracer.MODULES.index("oa")]["verify_oa"])
        out = os.path.join(run.WORK, "selftest-wrap.mms")
        try:
            code = t.call(tracer.ROOT, cli.main,
                          ["gen-ms", "--q", "5", "--t", "2", "--method", "qt",
                           "--out", out])
        finally:
            t.uninstall()
        self.assertEqual(code, 0)
        for mod, attrs in zip(mods, before):
            self.assertEqual(vars(mod).keys(), attrs.keys())
            for name, obj in attrs.items():
                self.assertIs(getattr(mod, name), obj, f"{mod.__name__}.{name}")

        out_spans = os.path.join(run.WORK, "selftest-wrap.jsonl")
        t.write(out_spans)
        spans = tracer.read_spans(out_spans)
        self.assertEqual(spans[0]["name"], tracer.ROOT)
        self.assertIn("oa.verify_sdloa", {s["name"] for s in spans})
        selfs = tracer.self_times(spans)
        self.assertTrue(all(x >= 0 for x in selfs))
        metrics = tracer.layer_metrics(spans)
        self.assertEqual(metrics["verify.verify_ms.calls"], 1)
        self.assertEqual(metrics["oa.verify_sdloa.calls"], 1)

    def test_overlapping_children_are_rejected(self):
        spans = [{"id": 0, "name": "p", "start": 0.0, "end": 1.0, "parent": None},
                 {"id": 1, "name": "a", "start": 0.0, "end": 0.7, "parent": 0},
                 {"id": 2, "name": "b", "start": 0.5, "end": 1.0, "parent": 0}]
        with self.assertRaises(ValueError):
            tracer.self_times(spans)


class OutputGate(unittest.TestCase):
    def test_flipped_byte_in_an_artifact_is_an_error(self):
        w = run.WORKLOADS["family_cms"]
        args, _ = run.command_for("family_cms", 0)
        out = args[-1]
        child = run.spawn(run.cli_argv(args))
        self.assertEqual(run.generator_errors(w, child, out), [])
        bad = out + ".flipped"
        flip_digit(out, bad)
        moved = dataclasses.replace(child, stdout=f"{w.wrote} to {bad}\n")
        errors = run.generator_errors(w, moved, bad)
        self.assertEqual(errors, ["artifact digest differs from the recorded one"])

    def test_verify_gate_accepts_the_image_and_rejects_a_flipped_byte(self):
        args, check = run.command_for("verify_deg5", 5)
        self.assertEqual(check(run.spawn(run.cli_argv(args))), [])
        image = args[1]
        bad = image + ".flipped"
        flip_digit(image, bad)
        errors = check(run.spawn(run.cli_argv([args[0], bad, *args[2:]])))
        self.assertTrue(errors)


class Arithmetic(unittest.TestCase):
    def test_power_sum_matches_brute_force(self):
        for count in (1, 2, 9, 25, 100):
            for e in range(1, 7):
                self.assertEqual(run.power_sum(count, e),
                                 sum(k**e for k in range(count)))

    def test_dihedral_images_keep_line_sums(self):
        sq = np.arange(36).reshape(6, 6) ** 2

        def lines(a):
            return sorted([*a.sum(0), *a.sum(1)]), sorted(
                [np.trace(a), np.trace(np.fliplr(a))])

        images = [run.dihedral_image(sq, s) for s in range(8)]
        self.assertEqual(len({img.tobytes() for img in images}), 8)
        for img in images:
            self.assertEqual(lines(img), lines(sq))


if __name__ == "__main__":
    os.makedirs(run.WORK, exist_ok=True)
    unittest.main()
