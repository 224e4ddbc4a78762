import numpy as np
import pytest

from multimagic import construct, gf, linalg, oa, verify
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
    grid_to_ms,
    index_to_vec,
    make_block_assignment,
    plan_order,
    product_compose,
    vec_to_index,
)
from multimagic.errors import ConstructionError
from multimagic.linalg import FMatrix

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


class TestGridToMs:
    def test_encoding_weights_first_component_least(self, f3):
        grid = build_sdloa_grid(construct.registered_pair(f3, 2))
        sq = grid_to_ms(grid)
        r, c = 1, 0
        cell = grid.cells[r, c]
        assert sq.entries[r, c] == sum(int(d) * 3**l for l, d in enumerate(cell))

    def test_fixture_entry_value(self, golden_cms9):
        # cell digits (1,0,2,1) encode to 46, the golden corner entry
        assert 1 + 0 * 3 + 2 * 9 + 1 * 27 == 46
        assert golden_cms9.members[0].entries[0, 0] == 46

    def test_output_is_permutation(self, f5):
        sq = grid_to_ms(build_sdloa_grid(linalg.find_sdloa_pair(f5, 2)))
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
        assert verify.verify_cms(fam.members, 2).passed

    def test_zero_translation_member_matches_plain_grid(self, f5):
        cert = linalg.find_cms_pair(f5, 2)
        fam = build_cms(cert)
        plain = grid_to_ms(build_sdloa_grid(cert))
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
        # members are encoded without their own check; verify_cms must
        # still refuse a member whose degree-t line sums fail
        encode = construct.grid_to_ms
        encoded = []

        def corrupt_fourth(grid, check=True):
            sq = encode(grid, check)
            encoded.append(sq)
            if len(encoded) != 4:
                return sq
            bad = sq.entries.copy()
            bad[0, 0], bad[1, 2] = bad[1, 2], bad[0, 0]
            return verify.MagicSquare(bad, sq.t)

        monkeypatch.setattr(construct, "grid_to_ms", corrupt_fourth)
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

    def test_missing_d_needs_scheme(self, f3):
        cert = construct.registered_pair(f3, 2)
        with pytest.raises(ValueError):
            build_cms(cert)


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


class TestCmsCompose:
    def test_degenerate_matches_product(self, golden_cms9):
        c0 = golden_cms9.members[0]
        fam = construct.CmsFamily((verify.MagicSquare(c0.entries, 1),), 1)
        assign = BlockAssignment(9, 1, np.zeros((9, 9), dtype=np.int64))
        out = cms_compose(verify.MagicSquare(c0.entries, 2), fam, assign)
        assert np.array_equal(out.entries, product_compose(c0, c0).entries)

    def test_degree_mismatch(self, golden_cms9):
        c0 = golden_cms9.members[0]
        fam = construct.CmsFamily((verify.MagicSquare(c0.entries, 2),), 2)
        assign = BlockAssignment(9, 1, np.zeros((9, 9), dtype=np.int64))
        with pytest.raises(ValueError):
            cms_compose(verify.MagicSquare(c0.entries, 2), fam, assign)

    def test_assignment_shape_mismatch(self, golden_cms9):
        c0 = golden_cms9.members[0]
        fam = construct.CmsFamily((verify.MagicSquare(c0.entries, 1),), 1)
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
