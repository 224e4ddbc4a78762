#!/usr/bin/env python3
"""Benchmark of the multimagic command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src``.
Each workload is a closed loop: one fresh CLI process at a time, with the
CLI's default ``--threads 1``, each preceded by three fresh-interpreter
set-up samples, for as many rounds as fit in ``--seconds`` (at least
three).  Every child's exit code and output are checked against values
recorded from a known-good build.  Wall time is taken around each child,
and CPU time and peak RSS from that child's own ``os.wait4`` rusage.

With ``--trace 1`` the same untraced loop runs, then one more child runs
the command in-process under ``tracer.py`` and the per-layer metrics are
derived from its spans.  Traced numbers never enter the end-to-end
metrics.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
output was correct, 1 when any was wrong, and 2 when the benchmark could
not run at all (for instance without the library sources).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from math import comb

import numpy as np

import tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")

CLI = "import sys; from multimagic.cli import main; sys.exit(main(sys.argv[1:]))"
SETUP = ("import sys, time; t0 = time.perf_counter(); import multimagic; "
         "multimagic.build_field_q(int(sys.argv[1])); "
         "print(time.perf_counter() - t0)")
MIN_CHILDREN = 3
SETUP_PER_CHILD = 3
CHILD_TIMEOUT_S = 120

# The order-3125 square of compose_q2t1 is the input of verify_deg5.
BASE_ARGS = ("gen-ms", "--q", "5", "--t", "3", "--method", "q2t1")


@dataclass(frozen=True)
class Workload:
    q: int            # field order, for setup_s
    cells: int        # entries produced or verified per run of the command
    args: tuple       # CLI arguments before --out (generators) or the input
    sha256: str = ""  # digest of the artifact a generator writes
    wrote: str = ""   # the generator's stdout, before " to <path>"


# BENCHMARK.json gates grid_qt and compose_q2t1.  verify_deg5 and
# family_cms run by name only: their per-run medians drift more on a
# shared host, and four workloads would not fit the runs' time budget.
WORKLOADS = {
    "grid_qt": Workload(
        7, 2401**2, ("gen-ms", "--q", "7", "--t", "4", "--method", "qt"),
        "45a2a44ff142d42b4af48365cefc3bd1500a03324add07a632cbfc710fa56170",
        "wrote MS(2401,4)"),
    "compose_q2t1": Workload(
        5, 3125**2, BASE_ARGS,
        "d4323fbb108faf6ce026f0e46664a2a78dac02fb69bac6a6fdc57c1f36f0407b",
        "wrote MS(3125,3)"),
    "verify_deg5": Workload(5, 3125**2, ("verify-ms",)),
    "family_cms": Workload(
        5, 125 * 125**2, ("gen-cms", "--q", "5", "--t", "3"),
        "7891653a8630bcc751d4ed431276226fb4e805069163d5193a9f07041f2e8189",
        "wrote 125-CMS(125,3)"),
}

# verify_deg5: degrees 1..3 hold on every line, degrees 4..5 on none.
DEG5_ORDER, DEG5_DEGREE, DEG5_GOOD = 3125, 5, 3


def declared_units() -> tuple[dict, dict]:
    """Units of the end-to-end and per-layer metrics, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


class BenchError(Exception):
    """The benchmark cannot run: missing sources or a broken input."""


@dataclass
class Child:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list[str]) -> Child:
    """Run one child to completion; time it and read its own rusage."""
    out_path = os.path.join(WORK, "child.out")
    err_path = os.path.join(WORK, "child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as f:
        stdout = f.read()
    with open(err_path, encoding="utf-8", errors="replace") as f:
        stderr = f.read()
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                 proc.returncode, stdout, stderr)


def cli_argv(args) -> list[str]:
    return [sys.executable, "-c", CLI, *args]


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 22), b""):
            h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Output gate
# ---------------------------------------------------------------------------

def power_sum(count: int, e: int) -> int:
    """Sum of k**e over k in 0..count-1, from the telescoping identity
    count**(e+1) = sum over j <= e of C(e+1, j) * S_j."""
    sums = [count]
    for d in range(1, e + 1):
        rest = sum(comb(d + 1, j) * sums[j] for j in range(d))
        sums.append((count ** (d + 1) - rest) // (d + 1))
    return sums[e]


def expected_verify_summary(n: int, degree: int, good: int) -> list[str]:
    lines = [f"order={n} degree={degree} members=1", "consecutive_entries=pass"]
    for e in range(1, degree + 1):
        k, d = (n, 2) if e <= good else (0, 0)
        lines.append(f"degree {e}: target={power_sum(n * n, e) // n} "
                     f"rows={k}/{n} cols={k}/{n} diagonals={d}/2")
    return lines


def generator_errors(w: Workload, child: Child, out: str) -> list[str]:
    errors = []
    if child.code != 0:
        errors.append(f"exit {child.code}, want 0: {child.stderr.strip()[-300:]}")
    if child.stdout != f"{w.wrote} to {out}\n":
        errors.append(f"stdout {child.stdout[:200]!r}")
    if not os.path.exists(out):
        errors.append("no artifact written")
    elif file_sha256(out) != w.sha256:
        errors.append("artifact digest differs from the recorded one")
    return errors


def verify_errors(child: Child) -> list[str]:
    errors = []
    if child.code != 1:
        errors.append(f"exit {child.code}, want 1: {child.stderr.strip()[-300:]}")
    lines = child.stdout.splitlines()
    want = expected_verify_summary(DEG5_ORDER, DEG5_DEGREE, DEG5_GOOD)
    if lines[:len(want)] != want:
        errors.append(f"summary {lines[:len(want)]!r}")
    if not lines or lines[-1] != "verdict=FAIL":
        errors.append("verdict is not FAIL")
    return errors


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def dihedral_image(square: np.ndarray, seed: int) -> np.ndarray:
    """One of the eight symmetries of the square, chosen by the seed.
    Each maps rows, columns and diagonals onto rows, columns and
    diagonals, so every image has the same line sums."""
    k = seed % 8
    img = np.rot90(square, k % 4)
    return img.T if k >= 4 else img


def prepare_deg5_input(seed: int) -> str:
    """Write the seed's image of the order-3125 square; return its path."""
    w = WORKLOADS["compose_q2t1"]
    base = os.path.join(WORK, "base_3125.mms")
    if not os.path.exists(base) or file_sha256(base) != w.sha256:
        child = spawn(cli_argv([*BASE_ARGS, "--out", base]))
        errors = generator_errors(w, child, base)
        if errors:
            raise BenchError("cannot build the order-3125 input: "
                             + "; ".join(errors))
    with open(base, encoding="ascii") as f:
        header = f.readline()
    image = dihedral_image(np.loadtxt(base, dtype=np.int64, skiprows=1), seed)
    path = os.path.join(WORK, "verify_deg5.mms")
    with open(path, "w", encoding="ascii") as f:
        f.write(header)
        for row in image:
            f.write(" ".join(map(str, row.tolist())))
            f.write("\n")
        # Write the image back now rather than in the timed part of
        # this run or the next.
        f.flush()
        os.fsync(f.fileno())
    return path


def command_for(name: str, seed: int) -> tuple[list[str], callable]:
    """The workload's CLI arguments and the check of one child's output.
    The generators are fixed parameter points and ignore the seed."""
    w = WORKLOADS[name]
    if name == "verify_deg5":
        image = prepare_deg5_input(seed)
        return [*w.args, image, "--t", str(DEG5_DEGREE)], verify_errors
    out = os.path.join(WORK, name + (".cms" if w.args[0] == "gen-cms" else ".mms"))

    def check(child: Child) -> list[str]:
        errors = generator_errors(w, child, out)
        if os.path.exists(out):
            os.remove(out)
        return errors
    return [*w.args, "--out", out], check


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def setup_sample(q: int) -> float:
    """Fresh-interpreter import of the library plus build_field_q(q)."""
    child = spawn([sys.executable, "-c", SETUP, str(q)])
    if child.code != 0:
        raise BenchError(f"setup child failed: {child.stderr.strip()[-300:]}")
    return float(child.stdout)


def checked(child: Child, check, failures: list[str]) -> Child:
    """Record one line per failed run, naming everything wrong with it."""
    errors = check(child)
    if errors:
        failures.append("; ".join(errors))
    return child


def closed_loop(args, check, q: int, seconds: float,
                failures: list[str]) -> tuple[list[Child], list[float]]:
    """Alternate a few set-up samples and one CLI child, and stop before
    a round that would end after ``seconds``.  A shared host's speed
    drifts during a run, so set-up is sampled across the whole run, like
    the children, rather than once at its start."""
    children, setup = [], []
    start = time.perf_counter()
    while True:
        setup += [setup_sample(q) for _ in range(SETUP_PER_CHILD)]
        children.append(checked(spawn(cli_argv(args)), check, failures))
        elapsed = time.perf_counter() - start
        if (len(children) >= MIN_CHILDREN
                and elapsed * (len(children) + 1) / len(children) > seconds):
            return children, setup


def versions() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": openblas}


def describe(name: str, values: list[float], unit: str) -> str:
    return (f"{name}: median={statistics.median(values):.6g} "
            f"min={min(values):.6g} max={max(values):.6g} n={len(values)} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so a running child is
    # killed and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(SRC, "multimagic", "cli.py")):
        print(f"error: no library sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    e2e_units, layer_units = declared_units()
    w = WORKLOADS[opts.workload]
    info = {"workload": opts.workload, "seed": opts.seed,
            "seconds": opts.seconds, "trace": opts.trace, **versions()}
    print("env " + json.dumps(info))

    try:
        warm = spawn([sys.executable, "-c", SETUP, str(w.q)])  # compiles .pyc
        if warm.code != 0:
            raise BenchError(f"cannot import the library: {warm.stderr.strip()[-300:]}")
        args, check = command_for(opts.workload, opts.seed)
        failures: list[str] = []
        children, setup = closed_loop(args, check, w.q, opts.seconds, failures)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    walls = [c.wall for c in children]
    attempted = len(children)

    if opts.trace:
        spans_path = os.path.join(WORK, f"spans-{opts.workload}-{opts.seed}.jsonl")
        run_id = f"{opts.workload}-seed{opts.seed}"
        if os.path.exists(spans_path):
            os.remove(spans_path)
        traced = checked(spawn([sys.executable, TRACER, spans_path, run_id,
                                "--", *args]), check, failures)
        attempted += 1
        if not os.path.exists(spans_path):
            print(f"error: the traced run wrote no spans: "
                  f"{traced.stderr.strip()[-300:]}", file=sys.stderr)
            return 1
        metrics = tracer.layer_metrics(tracer.read_spans(spans_path))
        metrics["trace.overhead_s"] = traced.wall - statistics.median(walls)
        print(f"spans: {spans_path}")
        for name, value in metrics.items():
            print(f"{name}: {value:.6g}")
        report = {name: {"value": value, "unit": layer_units[name]}
                  for name, value in metrics.items()}
    else:
        values = {
            "wall_s": walls,
            "cells_per_s": [w.cells / c.wall for c in children],
            "cpu_s": [c.cpu for c in children],
            "peak_rss_mb": [c.rss_mb for c in children],
            "setup_s": setup,
        }
        for name, vals in values.items():
            print(describe(name, vals, e2e_units[name]))
        report = {name: {"value": statistics.median(vals),
                         "unit": e2e_units[name]}
                  for name, vals in values.items()}
    if set(report) != set(layer_units if opts.trace else e2e_units):
        raise RuntimeError("reported metrics differ from BENCHMARK.json")

    for failure in failures:
        print(f"FAILED: {failure}")
    print(f"error_rate: {len(failures)}/{attempted} runs")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": report}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
