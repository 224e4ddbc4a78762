"""Acceptance criteria, one test per criterion.

Every arithmetic comparison is exact; runtime bounds are asserted where
stated.  Each test prints one line: ``ACCEPTANCE <n>: PASS/FAIL``.

Criterion 3 carries a known red clause: the cross-grid diagonal column
selections of the frozen order-9 data repeat every covered tuple three
times, so they are provably not large sets, even though the family
power-sum conditions (criterion 2) hold.  The check is implemented as
stated and fails on the data.
"""

import time

import numpy as np
import pytest

from multimagic import construct, gf, io, linalg, oa, verify
from multimagic.cli import main as cli_main
from multimagic.verify import MagicSquare

from conftest import ACCEPTANCE_LINES, GOLDEN_CMS9


def _report(num: int, ok: bool, detail: str = "", elapsed: float | None = None):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'}"
    if elapsed is not None:
        line += f" [{elapsed:.2f}s]"
    if detail:
        line += f" - {detail}"
    print(line)
    ACCEPTANCE_LINES.append(line)


class TestAcceptance:
    def test_01_golden_reproduction(self, tmp_path, golden_cms9):
        out = tmp_path / "cms9.cms"
        t0 = time.time()
        code = cli_main(["gen-cms", "--q", "3", "--t", "2", "--out", str(out)])
        elapsed = time.time() - t0

        built = io.read_cms_bundle(out)
        byte_equal = out.read_bytes() == GOLDEN_CMS9.read_bytes()
        spot_first = built.members[0].entries[0].tolist() == \
            [46, 65, 0, 61, 26, 42, 13, 32, 75]
        spot_last = built.members[8].entries[8, :3].tolist() == [28, 74, 9]
        ok = code == 0 and byte_equal and spot_first and spot_last and elapsed < 1.0
        _report(1, ok, "nine squares byte-identical to the frozen bundle", elapsed)
        assert code == 0
        assert byte_equal and spot_first and spot_last
        assert elapsed < 1.0

    def test_02_golden_family_verifies(self, golden_cms9):
        t0 = time.time()
        rep = verify.verify_cms(golden_cms9.stack, 2)
        elapsed = time.time() - t0

        # independent direct-summation oracles
        entries = [m.entries for m in golden_cms9.members]
        s1 = sum(int(x) for x in entries[0][0])
        s2 = sum(int(x) ** 2 for x in entries[0][0])
        r_target = sum(k**3 for k in range(81))
        r1_row0 = sum(int(x) ** 3 for e in entries for x in e[0])

        ok = (rep.passed and rep.magic_sums[1] == 360 == s1
              and rep.magic_sums[2] == 19320 == s2
              and 9 * rep.magic_sums[3] == 10497600 == r_target == r1_row0
              and elapsed < 1.0)
        _report(2, ok, "power-sum targets 360 / 19320 / 10497600", elapsed)
        assert rep.passed
        assert (s1, s2, r_target) == (360, 19320, 10497600)
        assert 9 * rep.magic_sums[3] == r_target == r1_row0
        assert elapsed < 1.0

    def test_03_frozen_array_properties(self, golden_loa):
        t0 = time.time()
        members = golden_loa.members
        stack = np.stack([m.entries for m in members]).reshape(9, 9, 4, 9)

        a00_ok = oa.verify_oa(members[0]) and oa.is_simple(members[0])
        sdloa_ok = oa.verify_sdloa(oa.ArrayFamily(members[0:9]), 2)

        fixed_k_ok = all(
            oa.verify_large_set(oa.ArrayFamily(tuple(
                oa.OrthArray(stack[i][k], 3, 2) for i in range(9))), 2)
            for k in range(9)
        )
        fixed_l_ok = all(
            oa.verify_large_set(oa.ArrayFamily(tuple(
                oa.OrthArray(np.stack([stack[i][k][:, l] for k in range(9)],
                                      axis=1), 3, 2)
                for i in range(9))), 2)
            for l in range(9)
        )
        diag_ok = oa.verify_large_set(oa.ArrayFamily(tuple(
            oa.OrthArray(np.stack([stack[i][k][:, k] for k in range(9)],
                                  axis=1), 3, 2)
            for i in range(9))), 2)
        back_ok = oa.verify_large_set(oa.ArrayFamily(tuple(
            oa.OrthArray(np.stack([stack[i][k][:, 8 - k] for k in range(9)],
                                  axis=1), 3, 2)
            for i in range(9))), 2)
        elapsed = time.time() - t0

        ok = all((a00_ok, sdloa_ok, fixed_k_ok, fixed_l_ok, diag_ok, back_ok,
                  elapsed < 5.0))
        _report(3, ok,
                f"member={a00_ok} sdloa={sdloa_ok} fixed-k={fixed_k_ok} "
                f"fixed-l={fixed_l_ok} diagonal={diag_ok} back={back_ok}",
                elapsed)
        assert a00_ok and sdloa_ok and fixed_k_ok and fixed_l_ok
        assert elapsed < 5.0
        assert diag_ok and back_ok, (
            "the cross-grid diagonal selections repeat each covered tuple "
            "three times in the frozen data, so they cannot form large sets"
        )

    @pytest.mark.parametrize("q,t,bound", [(3, 2, 30.0), (5, 2, 30.0),
                                           (5, 3, 30.0), (7, 4, 60.0)])
    def test_04_grid_squares(self, tmp_path, q, t, bound):
        out = tmp_path / f"ms_{q}_{t}.mms"
        t0 = time.time()
        code = cli_main(["gen-ms", "--q", str(q), "--t", str(t),
                         "--method", "qt", "--out", str(out)])
        sq = io.read_ms(out)
        rep = verify.verify_ms(sq, t)
        elapsed = time.time() - t0
        ok = (code == 0 and sq.n == q**t and rep.passed
              and not rep.failures and rep.consecutive_ok and elapsed < bound)
        _report(4, ok, f"MS({q ** t},{t}) all {2 * q ** t + 2} lines exact "
                       f"per degree", elapsed)
        assert code == 0 and rep.passed
        assert elapsed < bound, f"MS({q ** t},{t}) took {elapsed:.1f}s"

    def test_05_flagship_order_3125(self, tmp_path):
        out = tmp_path / "ms3125.mms"
        t0 = time.time()
        code = cli_main(["gen-ms", "--q", "5", "--t", "3",
                         "--method", "q2t1", "--out", str(out)])
        sq = io.read_ms(out)
        rep = verify.verify_ms(sq, 3)
        elapsed = time.time() - t0
        targets = {e: verify.magic_sum(3125, e) for e in (1, 2, 3)}
        ok = (code == 0 and sq.n == 3125 and sq.entries.size == 9_765_625
              and rep.passed and rep.magic_sums == targets
              and elapsed < 300.0)
        _report(5, ok, "MS(3125,3) via the grid + complementary-family "
                       "composition", elapsed)
        assert code == 0 and sq.n == 3125 and rep.passed
        assert rep.magic_sums == targets
        assert elapsed < 300.0

    def test_06_gf5_gap_handling(self, f5):
        # the primitive-element candidate must be rejected: x=2 has x^2=-1,
        # which collapses the bottom half of E1+E2
        e1 = linalg.vandermonde_base(f5, 2)
        literal = linalg.scale_halves(e1, 2, 4)
        literal_flags = linalg.check_pair(e1, literal, 2, d=2)
        rejected = not all(literal_flags.values())
        assert not literal_flags["sum_mt"]

        cert = linalg.find_cms_pair(f5, 2)
        fallback_ok = cert.all_true() and all(linalg.revalidate(cert).values())
        fam = construct.build_cms(cert)
        rep = verify.verify_cms(fam.stack, 2)
        ok = rejected and fallback_ok and fam.m == 25 and rep.passed
        _report(6, ok, f"literal candidate rejected, fallback d={cert.d} certified")
        assert ok

    def test_07_compositions(self, golden_cms9):
        c0 = golden_cms9.members[0]
        prod = construct.product_compose(c0, c0)
        prod_rep = verify.verify_ms(prod, 2)

        fam = construct.CmsFamily(c0.entries[None], 1)
        assign = construct.BlockAssignment(9, 1, np.zeros((9, 9), dtype=np.int64))
        degenerate = construct.cms_compose(MagicSquare(c0.entries, 2), fam, assign)
        identical = np.array_equal(degenerate.entries, prod.entries)

        ok = prod.n == 81 and prod_rep.passed and identical
        _report(7, ok, "MS(81,2) product; degenerate block composition matches")
        assert ok

    def test_08_planner_grid(self):
        checked = 0
        for t in (3, 4, 5):
            for q in range(5, 20):
                for m in range(t, 3 * t + 1):
                    plan = construct.plan_order(q, t, m)
                    # independent requirement recount per factor
                    expect = gf.prime_power(q) is not None
                    assert sum(plan.factors) == m
                    for f in plan.factors:
                        assert t <= f <= 2 * t - 1
                        if f == 2 * t - 1:
                            expect = expect and q >= 2 * t - 1
                        else:
                            expect = expect and q >= 2 * f - 1
                    assert plan.feasible == expect, (q, t, m)
                    # the sufficient bound: prime powers q >= 4t-5 always work
                    if gf.prime_power(q) is not None and q >= 4 * t - 5:
                        assert plan.feasible, (q, t, m)
                    checked += 1

        spot = construct.plan_order(7, 3, 8)
        spot_ok = spot.factors == (3, 5) and spot.feasible
        infeasible = not construct.plan_order(5, 3, 4).feasible
        ok = spot_ok and infeasible
        _report(8, ok, f"{checked} planner points match the factor requirements")
        assert ok

    def test_09_soundness(self, golden_cms9, f5):
        rng = np.random.default_rng(2024)
        squares = [
            (golden_cms9.members[0].entries, 2),
            (construct.build_ms_qt(f5, 2).entries, 2),
        ]
        rejected = 0
        for base, t in squares:
            n = base.shape[0]
            for _ in range(500):
                i1, i2 = rng.choice(n, 2, replace=False)
                j1, j2 = rng.integers(0, n, 2)
                bad = base.copy()
                bad[i1, j1], bad[i2, j2] = bad[i2, j2], bad[i1, j1]
                if not verify.verify_ms(MagicSquare(bad, t), t).passed:
                    rejected += 1
        oa_rejected = 0
        for _ in range(100):
            arr = oa.OrthArray(rng.integers(0, 3, (4, 9)), 3, 2)
            if not oa.verify_oa(arr):
                oa_rejected += 1
        ok = rejected == 1000 and oa_rejected == 100
        _report(9, ok, f"{rejected}/1000 swaps and {oa_rejected}/100 random "
                       f"arrays rejected")
        assert ok

    def test_10_desk_scale_boundary(self):
        # orders q^(2t-1) with q >= 7, t >= 4 (7^7 and beyond) stay in the
        # planner: their plans are feasible, and this suite never builds
        # an order above 3125
        large = [(7, 4, 7), (9, 5, 9), (7, 3, 8)]
        plans = [construct.plan_order(q, t, m) for q, t, m in large]
        all_feasible = all(p.feasible for p in plans)
        min_order = min(q**m for q, _, m in large)
        not_built_here = min_order > 3125
        ok = all_feasible and not_built_here
        _report(10, ok, "oversized orders are covered by feasible plans only")
        assert ok
