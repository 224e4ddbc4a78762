"""Outside-in layer tracing for the benchmark.

The tracer rebinds the public functions of the library modules to
wrappers that record one span per call: name, start, end, parent span
and run id, plus a few work counters computed from the call's arguments.
Rebinding a module attribute also catches calls made from inside that
module, because those calls look the name up in the same module dict.
Nothing in the library is edited; ``uninstall`` puts every original
function back.

Run as a script, it executes one CLI command in-process under the tracer
and writes the spans as JSON lines when the command ends:

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.jsonl RUN_ID -- gen-ms ...

Spans assume one thread, which holds for the CLI's default ``--threads 1``.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import os
import sys
import time
from math import comb

MODULES = ("gf", "linalg", "construct", "oa", "verify", "io")
ROOT = "cli.main"


def _oa_tally(args, kwargs):
    arr = args[0]
    return {"tally_cells": comb(arr.k, arr.t) * arr.n_cols}


def _sdloa_tally(args, kwargs):
    # The two batched member passes (rows and columns); the diagonal
    # selections go through verify_oa and are counted there.
    fam = args[0]
    t = args[1] if len(args) > 1 else kwargs["t"]
    count, n = len(fam.members), fam.members[0].n_cols
    return {"tally_cells": 2 * comb(fam.k, t) * count * n}


def _verify_ms_work(args, kwargs):
    sq = args[0]
    t = args[1] if len(args) > 1 else kwargs.get("t")
    t = sq.t if t is None else t
    digest = hashlib.sha1(repr(sq.entries.shape).encode())
    digest.update(sq.entries)
    return {"lines": (2 * sq.n + 2) * t, "square": digest.hexdigest()}


def _file_size(key: str):
    return lambda args, kwargs: {key: os.path.getsize(args[0])}


# Counters taken before the call (from its arguments) or after it (from
# the file it wrote).
BEFORE = {
    "oa.verify_oa": _oa_tally,
    "oa.verify_sdloa": _sdloa_tally,
    "verify.verify_ms": _verify_ms_work,
    **{f"io.{fn}": _file_size("bytes_read")
       for fn in ("read_ms", "read_oa_family", "read_cms_bundle")},
}
AFTER = {
    f"io.{fn}": _file_size("bytes_written")
    for fn in ("write_ms", "write_oa_family", "write_cms_bundle", "write_certificate")
}


class Tracer:
    """Spans kept in memory as [name, start, end, parent, counters]."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        before, after = BEFORE.get(name), AFTER.get(name)
        parent = self._stack[-1] if self._stack else None
        rec = [name, 0.0, 0.0, parent, before(args, kwargs) if before else None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
        if after:
            rec[4] = after(args, kwargs)
        return result

    def _wrap(self, fn, name: str):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Rebind every public function defined in each traced module."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for short in MODULES:
            mod = importlib.import_module(f"multimagic.{short}")
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, self._wrap(obj, f"{short}.{attr}"))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as f:
            for i, (name, start, end, parent, counters) in enumerate(self.spans):
                rec = {"run": self.run_id, "id": i, "name": name,
                       "start": start, "end": end, "parent": parent}
                if counters:
                    rec.update(counters)
                f.write(json.dumps(rec) + "\n")


def read_spans(path) -> list[dict]:
    with open(path, encoding="ascii") as f:
        return [json.loads(line) for line in f]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Children run one after another on one thread, so their coverage is
    the sum of their durations.  Raises ValueError if that sum exceeds
    the parent's duration, which would mean the spans are not nested.
    """
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = []
    for s in spans:
        duration = s["end"] - s["start"]
        covered = sum(c["end"] - c["start"] for c in children.get(s["id"], ()))
        if covered > duration + 1e-9:
            raise ValueError(f"children of span {s['id']} ({s['name']}) "
                             f"last {covered:.6f} s, longer than the span")
        out.append(duration - covered)
    return out


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer totals of one traced run (times in s, counts as ints)."""
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)

    def outermost(s) -> bool:
        p = s["parent"]
        while p is not None:
            if by_id[p]["name"] == s["name"]:
                return False
            p = by_id[p]["parent"]
        return True

    def total(pred) -> float:
        return sum(s["end"] - s["start"] for s in spans
                   if pred(s["name"]) and outermost(s))

    def calls(name) -> int:
        return sum(1 for s in spans if s["name"] == name)

    def self_of(pred) -> float:
        return sum(t for s, t in zip(spans, selfs) if pred(s["name"]))

    def counter(key) -> int:
        return sum(s.get(key, 0) for s in spans)

    ms_calls = calls("verify.verify_ms")
    squares = {s["square"] for s in spans if "square" in s}
    return {
        "oa.verify_sdloa.s": total(lambda n: n == "oa.verify_sdloa"),
        "oa.verify_sdloa.calls": calls("oa.verify_sdloa"),
        "oa.tally_cells": counter("tally_cells"),
        "oa.verify_large_set.s": total(lambda n: n == "oa.verify_large_set"),
        "oa.verify_large_set.calls": calls("oa.verify_large_set"),
        "oa.verify_oa.calls": calls("oa.verify_oa"),
        "verify.verify_ms.s": total(lambda n: n == "verify.verify_ms"),
        "verify.verify_ms.calls": ms_calls,
        "verify.lines_checked": counter("lines"),
        "verify.verify_ms.calls_per_square":
            ms_calls / len(squares) if squares else 0.0,
        "verify.verify_cms.s": total(lambda n: n == "verify.verify_cms"),
        "verify.verify_cms.calls": calls("verify.verify_cms"),
        "io.write.s": total(lambda n: n.startswith("io.write_")),
        "io.read.s": total(lambda n: n.startswith("io.read_")),
        "io.bytes_written": counter("bytes_written"),
        "io.bytes_read": counter("bytes_read"),
        "construct.cms_compose.self_s":
            self_of(lambda n: n == "construct.cms_compose"),
        "construct.build_cms.self_s":
            self_of(lambda n: n == "construct.build_cms"),
        "construct.self_s": self_of(lambda n: n.startswith("construct.")),
        "gf.build_field.s": total(lambda n: n == "gf.build_field"),
        "linalg.search.s": total(
            lambda n: n in ("linalg.find_sdloa_pair", "linalg.find_cms_pair")),
        "linalg.check_pair.calls": calls("linalg.check_pair"),
        "cli.self_s": self_of(lambda n: n == ROOT),
    }


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS.jsonl RUN_ID -- CLI-ARGS...", file=sys.stderr)
        return 2
    spans_path, run_id, cli_args = argv[0], argv[1], argv[3:]
    from multimagic import cli

    tracer = Tracer(run_id)
    tracer.install()
    try:
        code = tracer.call(ROOT, cli.main, cli_args)
    finally:
        tracer.uninstall()
    tracer.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
