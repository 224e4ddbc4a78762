import numpy as np
import pytest

from multimagic import cli, construct, gf, linalg, oa, verify
from multimagic.construct import (
    BlockAssignment,
    TranslationScheme,
    build_cms,
    build_cms_family,
    build_loa,
    build_ms_q2t1,
    build_ms_qt,
    build_sdloa_grid,
    cms_compose,
    index_to_vec,
    make_block_assignment,
    plan_order,
    product_compose,
    vec_to_index,
)
from multimagic.errors import ConstructionError
from multimagic.linalg import FMatrix

import cms_oracle
from conftest import rows_family

E1_ROWS = ((1, 0), (0, 1), (1, 1), (2, 1))
E2_ROWS = ((0, 1), (2, 0), (1, 2), (1, 1))


class TestIndexMaps:
    def test_roundtrip(self):
        for q, dim in ((3, 2), (5, 3), (7, 1)):
            for j in range(q**dim):
                assert vec_to_index(index_to_vec(j, q, dim), q) == j

    def test_first_component_most_significant(self):
        assert index_to_vec(1, 3, 2) == (0, 1)
        assert index_to_vec(3, 3, 2) == (1, 0)

    def test_complement_pairing(self):
        # index N-1-j always carries the componentwise complement vector
        q, dim = 5, 3
        n = q**dim
        for j in range(n):
            v = index_to_vec(j, q, dim)
            w = index_to_vec(n - 1 - j, q, dim)
            assert all(a + b == q - 1 for a, b in zip(v, w))


class TestBuildLoa:
    def test_fixture_pair(self, f3):
        e = linalg.hstack(FMatrix.from_rows(f3, E1_ROWS),
                          FMatrix.from_rows(f3, E2_ROWS))
        fam = build_loa(e, 2, 2)
        assert len(fam.members) == 9
        assert all(m.k == 4 and m.n_cols == 9 for m in fam.members)
        assert oa.verify_large_set(fam, 2)

    def test_square_e1_single_member(self, f5):
        # E1 takes all columns: one member listing the full column space
        full = FMatrix(f5, ((1, 0), (0, 1)))
        fam = build_loa(full, 2, 1)
        assert len(fam.members) == 1
        assert fam.members[0].n_cols == 25
        assert oa.verify_large_set(fam, 1)

    def test_strength_precondition(self, f3):
        bad = FMatrix.from_rows(f3, [(1, 0, 0, 0), (2, 0, 0, 0),
                                     (0, 1, 0, 0), (0, 0, 1, 1)])
        with pytest.raises(ValueError):
            build_loa(bad, 2, 2)  # first two rows proportional

    def test_singular_rejected(self, f3):
        sing = FMatrix.from_rows(f3, [(1, 0), (2, 0)])
        with pytest.raises(ValueError):
            build_loa(sing, 1, 1)


class TestGrid:
    def test_origin_cell_is_zero(self, f3):
        grid = build_sdloa_grid(construct.registered_pair(f3, 2))
        assert grid.cells[0, 0].tolist() == [0, 0, 0, 0]

    @pytest.mark.parametrize("q,t", [(3, 2), (4, 2), (5, 2), (7, 2), (8, 2),
                                     (9, 2), (11, 2), (13, 2), (16, 2),
                                     (17, 2), (19, 2), (23, 2), (25, 2),
                                     (27, 2), (5, 3), (7, 3), (8, 3), (9, 3)])
    def test_grids_verify(self, q, t):
        table = gf.build_field_q(q)
        cert = construct.registered_pair(table, t) or linalg.find_sdloa_pair(table, t)
        grid = build_sdloa_grid(cert)
        assert grid.n == q**t
        # build_sdloa_grid already gates on the verifier; re-run it here
        assert oa.verify_sdloa(rows_family(grid), t)

    def test_bad_certificate_rejected(self, f3):
        e1 = FMatrix.from_rows(f3, E1_ROWS)
        broken = linalg.MatrixPairCertificate(e1, e1, 2, None, {})
        with pytest.raises(ConstructionError):
            build_sdloa_grid(broken)

    def test_failing_grid_is_a_construction_error(self, f5, monkeypatch, capsys, tmp_path):
        # grid row 3 read as a copy of row 4: the cells cover less than q^2t
        real = construct._grid_stack

        def broken(cert):
            grid = real(cert)
            a = grid.a.copy()
            a[3] = a[4]
            return oa._GridStack(grid.table, a, grid.b)

        monkeypatch.setattr(construct, "_grid_stack", broken)
        message = "grid failed strong-double-large-set verification"
        with pytest.raises(ConstructionError, match=f"^{message}$"):
            build_sdloa_grid(linalg.find_sdloa_pair(f5, 2))
        out = tmp_path / "x.mms"
        assert cli.main(["gen-ms", "--q", "5", "--t", "2", "--method", "qt",
                         "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"construction failed: {message}\n"
        assert not out.exists()


class TestGridToMs:
    def test_encoding_weights_first_component_least(self, f3):
        grid = build_sdloa_grid(construct.registered_pair(f3, 2))
        r, c = 1, 0
        cell = grid.cells[r, c]
        assert grid.entries[r, c] == sum(int(d) * 3**l for l, d in enumerate(cell))

    def test_fixture_entry_value(self, golden_cms9):
        # cell digits (1,0,2,1) encode to 46, the golden corner entry
        assert 1 + 0 * 3 + 2 * 9 + 1 * 27 == 46
        assert golden_cms9.members[0].entries[0, 0] == 46

    def test_output_is_permutation(self, f5):
        sq = build_sdloa_grid(linalg.find_sdloa_pair(f5, 2))
        assert np.array_equal(np.sort(sq.entries, axis=None), np.arange(625))


class TestBuildCms:
    def test_golden_reproduction(self, f3, golden_cms9):
        fam = build_cms_family(f3, 2)
        assert fam.m == 9 and fam.n == 9 and fam.t == 2
        for built, frozen in zip(fam.members, golden_cms9.members):
            assert np.array_equal(built.entries, frozen.entries)

    def test_golden_family_checks_recorded(self, f3):
        fam = build_cms_family(f3, 2)
        assert fam.family_checks["rows"] is True
        assert fam.family_checks["columns"] is True
        # the fixture translation list repeats diagonal tuples threefold,
        # so the diagonal families are recorded as not-large-sets
        assert fam.family_checks["main_diagonal"] is False
        assert fam.family_checks["back_diagonal"] is False

    def test_scalar_route_gf5(self, f5):
        fam = build_cms_family(f5, 2)
        assert fam.m == 25 and fam.n == 25
        assert all(fam.family_checks.values())
        assert verify.verify_cms(fam.stack, 2).passed

    def test_zero_translation_member_matches_plain_grid(self, f5):
        cert = linalg.find_cms_pair(f5, 2)
        fam = build_cms(cert)
        plain = build_sdloa_grid(cert)
        assert np.array_equal(fam.members[0].entries, plain.entries)

    def test_row_union_covers_everything(self, f3, f5):
        # for each grid row, the member rows jointly cover I_{n^2}
        for fam in (build_cms_family(f3, 2), build_cms_family(f5, 2)):
            n = fam.n
            for x in range(n):
                union = np.concatenate([m.entries[x] for m in fam.members])
                assert np.array_equal(np.sort(union), np.arange(n * n))

    def test_broken_scheme_caught_by_final_gate(self, f5):
        # swapping two H* targets keeps the permutation property, so the
        # scheme is structurally legal, but the diagonal power sums drift;
        # the family verification must refuse to return it
        cert = linalg.find_cms_pair(f5, 2)
        pairs = list(construct.default_scheme(f5, 2, cert.d).pairs)
        pairs[0], pairs[1] = (pairs[0][0], pairs[1][1]), (pairs[1][0], pairs[0][1])
        with pytest.raises(ConstructionError):
            build_cms(cert, TranslationScheme(tuple(pairs)))

    def test_bad_member_caught_by_family_gate(self, f5, monkeypatch):
        # members are not power-sum checked one by one; verify_cms must
        # still refuse a member whose degree-t line sums fail
        gate = verify.verify_cms

        def corrupt_fourth(stack, t):
            bad = stack[3]
            bad[0, 0], bad[1, 2] = bad[1, 2], bad[0, 0]
            return gate(stack, t)

        monkeypatch.setattr(verify, "verify_cms", corrupt_fourth)
        with pytest.raises(ConstructionError,
                           match=r"^complementary family failed verification: "
                                 r"row 0 degree 1 \(member 3\)"):
            build_cms(linalg.find_cms_pair(f5, 2))

    def test_scheme_validation(self, f5):
        cert = linalg.find_cms_pair(f5, 2)
        good = construct.default_scheme(f5, 2, cert.d)
        broken = TranslationScheme(good.pairs[:-1])
        with pytest.raises(ValueError):
            build_cms(cert, broken)
        dupl = TranslationScheme(good.pairs[:-1] + (good.pairs[0],))
        with pytest.raises(ValueError):
            build_cms(cert, dupl)

    def test_scheme_vectors_of_wrong_length(self, f5):
        # a leading 0 keeps every index in range, so only the length
        # check tells these vectors from the t-component ones
        cert = linalg.find_cms_pair(f5, 2)
        good = construct.default_scheme(f5, 2, cert.d)
        longer = TranslationScheme(tuple(((0, *h), (0, *hs)) for h, hs in good.pairs))
        with pytest.raises(ValueError, match=r"^pair 0 \(H=\(0, 0, 0\), H\*=\(0, 0, 0\)\) "
                                             r"needs vectors of length 2$"):
            build_cms(cert, longer)

    def test_missing_d_needs_scheme(self, f3):
        cert = construct.registered_pair(f3, 2)
        with pytest.raises(ValueError):
            build_cms(cert)


def outcome(build, cert, scheme=None):
    """(members, family checks) of a family build, or (error type, message)."""
    try:
        fam = build(cert, scheme)
    except (ConstructionError, ValueError) as exc:
        return type(exc), str(exc)
    return fam.stack, fam.family_checks


def assert_matches_oracle(cert, scheme=None):
    got = outcome(build_cms, cert, scheme)
    want = outcome(cms_oracle.build_cms, cert, scheme)
    if isinstance(want[0], type):
        assert got == want
    else:
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]
    return want


def random_scheme(q: int, t: int, seed: int) -> TranslationScheme:
    """H in index order, H* a seeded random permutation of all vectors."""
    perm = np.random.default_rng(seed).permutation(q**t)
    return TranslationScheme(tuple((index_to_vec(j, q, t), index_to_vec(int(s), q, t))
                                   for j, s in enumerate(perm)))


class TestFamilyFromGridZero:
    """build_cms derives every member from grid 0 by index permutation; the
    oracle materialises and checks every translated grid and family."""

    def test_fixture_scheme(self, f3):
        members, checks = assert_matches_oracle(construct.registered_pair(f3, 2),
                                                construct.registered_scheme(f3, 2))
        assert not checks["main_diagonal"] and not checks["back_diagonal"]

    @pytest.mark.parametrize("t", [2, 3])
    def test_default_scheme(self, f5, t):
        members, checks = assert_matches_oracle(linalg.find_cms_pair(f5, t))
        assert members.shape == (5**t, 5**t, 5**t) and all(checks.values())

    def test_random_explicit_schemes(self, f5):
        cert = linalg.find_cms_pair(f5, 2)
        kinds = set()
        for seed in range(20):
            want = assert_matches_oracle(cert, random_scheme(5, 2, seed))
            kinds.add(want[0] if isinstance(want[0], type) else "built")
        assert kinds == {ConstructionError}  # all refused by the family gate

    def test_diagonal_verdicts_behind_a_passing_gate(self, f5, monkeypatch):
        # with the power-sum gate passing everything, every scheme returns
        # a family, so the recorded diagonal verdicts are compared too;
        # H* = H fails only the main diagonal, H* = -H only the back one
        monkeypatch.setattr(verify, "verify_cms",
                            lambda stack, t: verify.VerifyReport(stack.shape[1], t))
        cert = linalg.find_cms_pair(f5, 2)
        schemes = [random_scheme(5, 2, seed) for seed in range(20)]
        schemes += [construct.default_scheme(f5, 2, d) for d in range(1, 5)]
        verdicts = set()
        for scheme in schemes:
            _, checks = assert_matches_oracle(cert, scheme)
            verdicts.add((checks["main_diagonal"], checks["back_diagonal"]))
        assert verdicts == {(False, False), (False, True), (True, False), (True, True)}

    @pytest.mark.parametrize("d, bad", [(1, "main_diagonal"), (4, "back_diagonal")])
    def test_default_route_requires_the_diagonals(self, f5, monkeypatch, d, bad):
        # the certificate's scalar would pass; H* = d H with another d
        # breaks one diagonal family, which the default route refuses
        scheme = construct.default_scheme
        monkeypatch.setattr(construct, "default_scheme",
                            lambda table, t, _: scheme(table, t, d))
        want = assert_matches_oracle(linalg.find_cms_pair(f5, 2))
        assert want == (ConstructionError, f"diagonal families are not large sets: ['{bad}']")

    def test_covers(self):
        assert construct._covers(np.array([[3, 1], [0, 2]]))
        assert not construct._covers(np.array([[3, 1], [1, 2]]))

    def test_one_grid_check_and_no_family_check(self, f5, monkeypatch):
        calls = {"sdloa": 0, "large_set": 0}
        inside = []
        sdloa_ok, large_set_ok = oa._sdloa_ok, oa._large_set_ok

        def count_sdloa(*args):
            calls["sdloa"] += 1
            inside.append(True)
            try:
                return sdloa_ok(*args)
            finally:
                inside.pop()

        def count_large_set(*args):
            calls["large_set"] += not inside  # the grid check runs one
            return large_set_ok(*args)

        monkeypatch.setattr(oa, "_sdloa_ok", count_sdloa)
        monkeypatch.setattr(oa, "_large_set_ok", count_large_set)
        build_cms(linalg.find_cms_pair(f5, 3))
        assert calls == {"sdloa": 1, "large_set": 0}


class TestProductCompose:
    def test_golden_squared(self, golden_cms9):
        c0 = golden_cms9.members[0]
        prod = product_compose(c0, c0)
        assert prod.n == 81 and prod.t == 2
        assert prod.entries[0, 0] == 46 * 81 + 46 == 3772

    def test_permutation_property(self, golden_cms9):
        c0 = golden_cms9.members[0]
        prod = product_compose(c0, golden_cms9.members[3])
        assert np.array_equal(np.sort(prod.entries, axis=None), np.arange(81 * 81))

    def test_degenerate_identity(self, golden_cms9):
        c0 = golden_cms9.members[0]
        one = verify.MagicSquare(np.array([[0]]), 2)
        assert np.array_equal(product_compose(c0, one).entries, c0.entries)

    def test_unverified_input_rejected(self, golden_cms9):
        bad = golden_cms9.members[0].entries.copy()
        bad[0, 0], bad[5, 5] = bad[5, 5], bad[0, 0]
        with pytest.raises(ValueError):
            product_compose(verify.MagicSquare(bad, 2), golden_cms9.members[0])


class TestBlockAssignment:
    def test_gf5_latin_square(self, f5):
        ba = make_block_assignment(f5, 1, 1)
        # first admissible scalars are alpha=2, beta=1
        assert ba.f[1, 0] == 2 and ba.f[0, 1] == 1
        for i in range(5):
            assert sorted(ba.f[i]) == list(range(5))
            assert sorted(ba.f[:, i]) == list(range(5))

    def test_char2_field(self):
        f8 = gf.build_field(2, 3)
        ba = make_block_assignment(f8, 1, 1)
        assert ba.m == 8 and ba.m_prime == 8

    def test_projection_balance(self, f5):
        ba = make_block_assignment(f5, 3, 2)
        assert ba.m == 125 and ba.m_prime == 25
        per = 5
        ar = np.arange(125)
        for line in (ba.f[0], ba.f[:, 0], ba.f[ar, ar], ba.f[ar, 124 - ar]):
            assert np.all(np.bincount(line, minlength=25) == per)

    def test_too_small_field(self, f3):
        with pytest.raises(ConstructionError):
            make_block_assignment(f3, 2, 1)

    def test_unbalanced_table_rejected(self):
        f = np.zeros((4, 4), dtype=np.int64)
        f[0, 0] = 1
        with pytest.raises(ValueError):
            BlockAssignment(4, 2, f)

    @pytest.mark.parametrize("f, unbalanced", [
        ([[0, 1, 2], [2, 0, 1], [1, 2, 0]], "main"),  # (j - i) mod 3
        ([[0, 1, 2], [1, 2, 0], [2, 0, 1]], "back"),  # (i + j) mod 3
        ([[0, 0, 1, 1], [1, 0, 0, 1], [1, 1, 0, 0], [0, 1, 1, 0]], "main"),
        ([[1, 1, 0, 0], [1, 0, 0, 1], [0, 0, 1, 1], [0, 1, 1, 0]], "back"),
    ])
    def test_unbalanced_diagonal_rejected(self, f, unbalanced):
        # every row and column and the other diagonal are balanced
        f = np.array(f)
        m, mp = len(f), int(f.max()) + 1
        diagonals = {"main": np.diagonal(f), "back": np.diagonal(np.fliplr(f))}
        balanced = [*f, *f.T, *(d for k, d in diagonals.items() if k != unbalanced)]
        assert all(np.all(np.bincount(line, minlength=mp) == m // mp) for line in balanced)
        with pytest.raises(ValueError, match="not balanced"):
            BlockAssignment(m, mp, f)

    def test_non_integer_table_rejected(self):
        # a cast to int64 would truncate it to a balanced all-zero table
        with pytest.raises(ValueError, match="entries must be integers"):
            BlockAssignment(2, 1, [[0.3, 0.9], [0.1, 0.5]])

    @pytest.mark.parametrize("q, t_big, t_small",
                             [(4, 2, 1), (5, 3, 2), (8, 3, 2), (7, 4, 3), (5, 2, 0)])
    def test_matches_component_array(self, q, t_big, t_small):
        table = gf.build_field_q(q)
        ba = make_block_assignment(table, t_big, t_small)
        assert np.array_equal(ba.f, assignment_oracle(table, t_big, t_small))
        assert ba.f.dtype == np.int64


def assignment_oracle(table, t_big: int, t_small: int) -> np.ndarray:
    """make_block_assignment's table as first written: the (m, m, t_big)
    components of alpha X + beta Y, the leading t_small of them read as a
    base-q numeral."""
    q = table.q
    alpha, beta = next((a, b) for b in range(1, q) for a in range(1, q)
                       if a != b and table.add(a, b) != 0)
    digits = construct._digit_matrix(q, t_big)
    sums = table.add_table[table.mul_table[digits, alpha][:, None, :],
                           table.mul_table[digits, beta][None, :, :]]
    weights = q ** (t_small - 1 - np.arange(t_small, dtype=np.int64))
    return sums[:, :, :t_small].astype(np.int64) @ weights


class TestCmsCompose:
    def test_degenerate_matches_product(self, golden_cms9):
        c0 = golden_cms9.members[0]
        fam = construct.CmsFamily(c0.entries[None], 1)
        assign = BlockAssignment(9, 1, np.zeros((9, 9), dtype=np.int64))
        out = cms_compose(verify.MagicSquare(c0.entries, 2), fam, assign)
        assert np.array_equal(out.entries, product_compose(c0, c0).entries)

    def test_degree_mismatch(self, golden_cms9):
        c0 = golden_cms9.members[0]
        fam = construct.CmsFamily(c0.entries[None], 2)
        assign = BlockAssignment(9, 1, np.zeros((9, 9), dtype=np.int64))
        with pytest.raises(ValueError):
            cms_compose(verify.MagicSquare(c0.entries, 2), fam, assign)

    def test_outer_square_is_gathered_once(self, f5, monkeypatch):
        # a row-source outer square is filled once to verify it and once
        # for the blocks' shifts: 2 x 125 rows through _GridStack.codes
        a = build_ms_qt(f5, 3)
        fam = build_cms_family(f5, 2)
        assign = make_block_assignment(f5, 3, 2)
        filled = []
        codes = oa._GridStack.codes

        def counted(self, r0, r1, out=None):
            filled.append(r1 - r0)
            return codes(self, r0, r1, out)

        monkeypatch.setattr(oa._GridStack, "codes", counted)
        cms_compose(a, fam, assign)
        assert sum(filled) == 2 * a.n

    def test_output_holds_the_family_stack(self, f5, monkeypatch):
        # cms_compose, _composed and build_ms_q2t1 pass the family's
        # (m, n, n) stack to the composed square as it is, with no copy
        a = build_ms_qt(f5, 3)
        fam = build_cms_family(f5, 2)
        assign = make_block_assignment(f5, 3, 2)
        for out in (cms_compose(a, fam, assign),
                    construct._composed(a.normalized(), fam.stack, assign.f, a.t, "composed")):
            assert out.stack is fam.stack
        built = []

        def recorded(*args):
            built.append(build_cms_family(*args))
            return built[-1]

        monkeypatch.setattr(construct, "build_cms_family", recorded)
        assert build_ms_q2t1(f5, 3).stack is built[0].stack

    def test_assignment_shape_mismatch(self, golden_cms9):
        c0 = golden_cms9.members[0]
        fam = construct.CmsFamily(c0.entries[None], 1)
        assign = BlockAssignment(3, 1, np.zeros((3, 3), dtype=np.int64))
        with pytest.raises(ValueError):
            cms_compose(verify.MagicSquare(c0.entries, 2), fam, assign)


class TestPipelines:
    def test_ms9_uses_registered_pair(self, f3):
        sq = build_ms_qt(f3, 2)
        assert sq.n == 9 and verify.verify_ms(sq, 2).passed

    def test_ms25(self, f5):
        assert build_ms_qt(f5, 2).n == 25

    def test_ms125(self, f5):
        sq = build_ms_qt(f5, 3)
        assert sq.n == 125 and sq.t == 3

    def test_qt_range_violation(self, f3):
        with pytest.raises(ValueError):
            build_ms_qt(f3, 3)

    def test_q2t1_range_violation(self, f5):
        with pytest.raises(ValueError):
            build_ms_q2t1(f5, 4)  # needs q >= 7
        with pytest.raises(ValueError):
            build_ms_q2t1(f5, 2)  # needs t >= 3

    def test_q2t1_small_run(self, f5):
        stages = []
        sq = build_ms_q2t1(f5, 3, progress=stages.append)
        assert sq.n == 3125 and sq.t == 3
        assert len(stages) == 4


class TestPlanOrder:
    def test_two_factor_example(self):
        plan = plan_order(7, 3, 8)
        assert plan.factors == (3, 5)
        assert plan.feasible

    def test_single_factor_flagship(self):
        plan = plan_order(5, 3, 5)
        assert plan.factors == (5,)
        assert plan.steps[0].method == "q2t1"
        assert plan.feasible

    def test_infeasible_mid_factor(self):
        plan = plan_order(5, 3, 4)
        assert not plan.feasible
        assert plan.violated()[0].q_required == 7

    def test_factor_arithmetic(self):
        for t in (3, 4, 5):
            for m in range(t, 4 * t):
                plan = plan_order(19, t, m)
                assert sum(plan.factors) == m
                assert all(t <= f <= 2 * t - 1 for f in plan.factors)

    def test_non_prime_power_infeasible(self):
        assert not plan_order(6, 3, 3).feasible

    def test_preconditions(self):
        with pytest.raises(ValueError):
            plan_order(7, 2, 4)
        with pytest.raises(ValueError):
            plan_order(7, 3, 2)

    def test_novelty_window(self):
        plan = plan_order(7, 4, 7)
        assert plan.novelty_window == (7, 13)
