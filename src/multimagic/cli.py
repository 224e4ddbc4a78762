"""Command-line toolkit: one command per construction and verifier.

Exit codes: 0 success or verified, 1 verified-false, 2 usage error,
3 construction failure, running out of memory included.  Generation
commands self-verify before writing, and their writers decode each piece
of text and read its bytes back as they write it, a final consistency
check; the artifact reaches its ``--out`` path only after that check
passes.  Before building, they compute the exact size of the artifact's
text and refuse, as a usage error, one that the file system of ``--out``
has no room for.
"""

from __future__ import annotations

import argparse
import os
import sys
from math import gcd

# The worker pool (--threads) is the command line's only parallelism.
# OpenBLAS reads its thread count once, when numpy loads it, and its
# workers spin on every core whether or not BLAS is called; the only
# BLAS call here, the strength tally's product over at most 2t rows,
# runs as fast on one thread.  So it is limited before the modules below
# load numpy, unless the caller has set a count.  The package's own
# import loads nothing (see __init__.py).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import _pool, construct, gf, io, linalg, oa, verify  # noqa: E402
from .errors import ConstructionError, FormatError  # noqa: E402

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_CONSTRUCTION = 3


def _cmd_field(args) -> int:
    table = gf.build_field(args.p, args.m)
    print(f"q={table.q}")
    print(f"p={table.p}")
    print(f"m={table.m}")
    print(f"modulus={gf.modulus_str(table.spec.modulus)}")
    print(f"primitive={table.primitive}")
    return EXIT_OK


def _cmd_search_matrices(args) -> int:
    table = gf.build_field_q(args.q)
    if args.kind == "sdloa":
        cert = linalg.find_sdloa_pair(table, args.t)
    else:
        cert = linalg.find_cms_pair(table, args.t)
    sys.stdout.write(io.format_certificate(cert))
    return EXIT_OK


def _check_out(path: str) -> None:
    """Refuse, before anything is built, an --out that cannot be written:
    an existing directory, or a path whose parent directory is missing."""
    if os.path.isdir(path):
        raise ValueError(f"--out {path} is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ValueError(f"--out {path}: no directory {parent}")


def _check_space(path: str, size: int) -> None:
    """Refuse, before anything is written, an artifact of size bytes that
    the file system holding path has no room for.  The check is skipped
    where os.statvfs is unavailable."""
    try:
        stat = os.statvfs(os.path.dirname(path) or ".")
    except (AttributeError, OSError):
        return
    free = stat.f_bavail * stat.f_frsize
    if size > free:
        raise ValueError(f"--out {path}: the artifact takes {size} bytes, "
                         f"and its file system has {free} bytes free")


def _write_checked(write, path, artifact) -> None:
    """Write artifact to path + ".tmp" and rename it to path once written.
    The writers check each piece of the file as they write it (see
    io._write_blocks) and raise ConstructionError if it would not read
    back to the artifact, so path never holds an unverified artifact; the
    temporary file is removed on any failure."""
    tmp = f"{path}.tmp"
    try:
        write(tmp, artifact)
        os.replace(tmp, path)
    finally:
        if os.path.lexists(tmp):
            os.remove(tmp)


def _cmd_gen_ms(args) -> int:
    _check_out(args.out)
    table = gf.build_field_q(args.q)
    if args.t >= 1:  # else the builders refuse the degree
        order = args.q ** (args.t if args.method == "qt" else 2 * args.t - 1)
        _check_space(args.out, io.ms_text_bytes(order, args.t))
    progress = (lambda msg: print(f"# {msg}")) if args.verbose else None
    if args.method == "qt":
        sq = construct.build_ms_qt(table, args.t)
    else:
        sq = construct.build_ms_q2t1(table, args.t, progress=progress)
    _write_checked(io.write_ms, args.out, sq)
    print(f"wrote MS({sq.n},{sq.t}) to {args.out}")
    return EXIT_OK


def _cmd_gen_cms(args) -> int:
    _check_out(args.out)
    table = gf.build_field_q(args.q)
    if args.t >= 1:
        _check_space(args.out, io.cms_text_bytes(args.q**args.t, args.q**args.t, args.t))
    fam = construct.build_cms_family(table, args.t)
    _write_checked(io.write_cms_bundle, args.out, fam)
    print(f"wrote {fam.m}-CMS({fam.n},{fam.t}) to {args.out}")
    return EXIT_OK


def _infer_block_assignment(table_order: int, member_count: int):
    """Pick a field and exponents matching an outer order and a family
    size: order = q^t_big, count = q^t_small over one base prime."""
    pm = gf.prime_power(table_order)
    if pm is None:
        raise ValueError(f"outer order {table_order} is not a prime power")
    p, alpha = pm
    if member_count == 1:
        beta = 0
    else:
        pm2 = gf.prime_power(member_count)
        if pm2 is None or pm2[0] != p:
            raise ValueError(
                f"family size {member_count} is not a power of {p}"
            )
        beta = pm2[1]
    g = gcd(alpha, beta) if beta else alpha
    for d in range(1, g + 1):
        if g % d == 0 and p**d >= 4:
            table = gf.build_field(p, d)
            return construct.make_block_assignment(table, alpha // d, beta // d)
    raise ValueError(f"no field of size >= 4 fits order {table_order}")


def _cmd_compose(args) -> int:
    _check_out(args.out)
    if args.product:
        a = io.read_ms(args.product[0])
        b = io.read_ms(args.product[1])
        _check_space(args.out, io.ms_text_bytes(a.n * b.n, a.t))
        sq = construct.product_compose(a, b)
    else:
        a = io.read_ms(args.cms[0])
        fam = io.read_cms_bundle(args.cms[1])
        _check_space(args.out, io.ms_text_bytes(a.n * fam.n, a.t))
        assign = _infer_block_assignment(a.n, fam.m)
        sq = construct.cms_compose(a, fam, assign)
    _write_checked(io.write_ms, args.out, sq)
    print(f"wrote MS({sq.n},{sq.t}) to {args.out}")
    return EXIT_OK


def _cmd_verify_ms(args) -> int:
    sq = io.read_ms(args.file)
    report = verify.verify_ms(sq, sq.t if args.t is None else args.t)
    print(report.summary())
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def _cmd_verify_cms(args) -> int:
    fam = io.read_cms_bundle(args.file)
    report = verify.verify_cms(fam.stack, fam.t)
    print(report.summary())
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def _cmd_verify_oa(args) -> int:
    fam = io.read_oa_family(args.file)
    t = fam.members[0].t
    if args.large_set:
        ok = oa.verify_large_set(fam, t)
        print(f"large-set={'pass' if ok else 'FAIL'}")
    elif args.sdloa:
        ok = oa.verify_sdloa(fam, t)
        print(f"sdloa={'pass' if ok else 'FAIL'}")
    else:
        ok = True
        for i, member in enumerate(fam.members):
            good = oa.verify_oa(member) and oa.is_simple(member)
            ok = ok and good
            print(f"member {i}: {'pass' if good else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def _cmd_plan(args) -> int:
    plan = construct.plan_order(args.q, args.t, args.m)
    print(f"order q^m = {args.q}^{args.m}, degree {args.t}")
    print(f"factors={list(plan.factors)}")
    for step in plan.steps:
        state = "ok" if step.satisfied else "VIOLATED"
        print(f"factor {step.exponent}: method={step.method} "
              f"requires q>={step.q_required} [{state}]")
    if not plan.prime_power_ok:
        print(f"q={args.q} is not a prime power [VIOLATED]")
    low, high = plan.novelty_window
    print(f"novelty-window={low}<=q<{high}")
    print(f"feasible={'true' if plan.feasible else 'false'}")
    return EXIT_OK if plan.feasible else EXIT_VERIFY_FAIL


def _workers(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    if int(text) > _pool.MAX_WORKERS:
        raise argparse.ArgumentTypeError(f"more than {_pool.MAX_WORKERS} threads: {text}")
    return int(text)


def _add_threads(p) -> None:
    p.add_argument("--threads", type=_workers, default=None,
                   help="worker threads for the grid passes, verification, "
                        f"encoding and decoding, 1 to {_pool.MAX_WORKERS} "
                        "(default: the usable cores)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multimagic",
        description="Construct and verify multimagic squares from "
                    "finite-field orthogonal-array large sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field", help="inspect a finite field")
    p.add_argument("--p", type=int, required=True, help="prime characteristic")
    p.add_argument("--m", type=int, required=True, help="extension degree")
    p.set_defaults(func=_cmd_field)

    p = sub.add_parser("search-matrices", help="search for a matrix pair")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--kind", choices=("sdloa", "cms"), required=True)
    p.set_defaults(func=_cmd_search_matrices)

    p = sub.add_parser("gen-ms", help="generate a verified multimagic square")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--method", choices=("qt", "q2t1"), required=True)
    p.add_argument("--out", required=True)
    _add_threads(p)
    p.add_argument("--verbose", action="store_true",
                   help="print pipeline stages as they complete")
    p.set_defaults(func=_cmd_gen_ms)

    p = sub.add_parser("gen-cms", help="generate a complementary family")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--out", required=True)
    _add_threads(p)
    p.set_defaults(func=_cmd_gen_cms)

    p = sub.add_parser("compose", help="compose two artifacts into a square")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--product", nargs=2, metavar=("A", "B"),
                       help="product of two squares")
    group.add_argument("--cms", nargs=2, metavar=("A", "BUNDLE"),
                       help="block composition of a square with a family")
    p.add_argument("--out", required=True)
    _add_threads(p)
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("verify-ms", help="verify a square file")
    p.add_argument("file")
    p.add_argument("--t", type=int, default=None,
                   help="override the degree declared in the file")
    _add_threads(p)
    p.set_defaults(func=_cmd_verify_ms)

    p = sub.add_parser("verify-cms", help="verify a family bundle")
    p.add_argument("file")
    _add_threads(p)
    p.set_defaults(func=_cmd_verify_cms)

    p = sub.add_parser("verify-oa", help="verify an array family file")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--large-set", action="store_true")
    group.add_argument("--sdloa", action="store_true")
    _add_threads(p)
    p.set_defaults(func=_cmd_verify_oa)

    p = sub.add_parser("plan", help="plan a composite order q^m at degree t")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_plan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    _pool.set_size(getattr(args, "threads", None) or _pool.usable_cores())
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConstructionError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    except MemoryError as exc:
        print(f"construction failed: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
