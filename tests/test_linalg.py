import itertools

import numpy as np
import pytest

from multimagic import gf, linalg
from multimagic.errors import SearchExhausted
from multimagic.linalg import FMatrix

import linalg_oracle

# The order-9 fixture pair, used throughout as known-good data.
E1_ROWS = ((1, 0), (0, 1), (1, 1), (2, 1))
E2_ROWS = ((0, 1), (2, 0), (1, 2), (1, 1))


def det_oracle(mat: FMatrix) -> int:
    """Determinant by Laplace expansion; independent of the elimination
    code it cross-checks."""
    t = mat.table
    rows = mat.rows
    k = len(rows)
    if k == 1:
        return rows[0][0]
    total = 0
    sign_flip = False
    for i in range(k):
        minor = FMatrix(t, tuple(
            r[1:] for j, r in enumerate(rows) if j != i
        ))
        term = t.mul(rows[i][0], det_oracle(minor))
        total = t.sub(total, term) if sign_flip else t.add(total, term)
        sign_flip = not sign_flip
    return total


def strength_oracle(mat: FMatrix, t: int) -> bool:
    """Strength by expanding every t x t minor of every t-row subset."""
    for subset in itertools.combinations(range(mat.n_rows), t):
        ok = False
        for cols in itertools.combinations(range(mat.n_cols), t):
            minor = FMatrix(mat.table, tuple(
                tuple(mat.rows[r][c] for c in cols) for r in subset
            ))
            if det_oracle(minor) != 0:
                ok = True
                break
        if not ok:
            return False
    return True


class TestRank:
    def test_zero_matrix(self, f3):
        assert linalg.rank(FMatrix.from_rows(f3, [[0, 0]] * 4)) == 0

    def test_fixture_e1(self, f3):
        assert linalg.rank(FMatrix.from_rows(f3, E1_ROWS)) == 2

    def test_identity(self, f5):
        eye = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
        assert linalg.rank(FMatrix.from_rows(f5, eye)) == 4

    def test_invariance_under_swap_and_scale(self, f7):
        rng = np.random.default_rng(3)
        for _ in range(40):
            rows = rng.integers(0, 7, (4, 3))
            mat = FMatrix.from_rows(f7, rows)
            r = linalg.rank(mat)
            i, j = rng.choice(4, size=2, replace=False)
            swapped = list(map(list, rows))
            swapped[i], swapped[j] = swapped[j], swapped[i]
            c = int(rng.integers(1, 7))
            swapped[i] = [f7.mul(c, x) for x in swapped[i]]
            assert linalg.rank(FMatrix.from_rows(f7, swapped)) == r


class TestNonsingular:
    def test_fixture_pair(self, f3):
        e = linalg.hstack(FMatrix.from_rows(f3, E1_ROWS),
                          FMatrix.from_rows(f3, E2_ROWS))
        assert linalg.is_nonsingular(e)

    def test_repeated_row(self, f5):
        mat = FMatrix.from_rows(f5, [[1, 2], [1, 2]])
        assert not linalg.is_nonsingular(mat)

    def test_one_by_one(self, f5):
        assert linalg.is_nonsingular(FMatrix.from_rows(f5, [[1]]))

    def test_requires_square(self, f5):
        with pytest.raises(ValueError):
            linalg.is_nonsingular(FMatrix.from_rows(f5, [[1, 2]]))


class TestStrength:
    def test_fixture_e1(self, f3):
        assert linalg.is_strength_t(FMatrix.from_rows(f3, E1_ROWS), 2)

    def test_proportional_rows(self, f3):
        mat = FMatrix.from_rows(f3, [(1, 0), (2, 0), (0, 1), (1, 1)])
        assert not linalg.is_strength_t(mat, 2)

    def test_vandermonde_gf5(self, f5):
        mat = FMatrix.from_rows(f5, [(1, 0), (0, 1), (1, 2), (1, 4)])
        assert linalg.is_strength_t(mat, 2)

    def test_out_of_range(self, f3):
        with pytest.raises(ValueError):
            linalg.is_strength_t(FMatrix.from_rows(f3, E1_ROWS), 3)

    def test_oracle_exhaustive_tiny(self):
        # every matrix of a few small shapes, against the determinant oracle
        for q, shape, t in ((2, (3, 2), 2), (3, (3, 2), 2), (2, (4, 2), 2),
                            (4, (3, 2), 2), (3, (4, 1), 1)):
            table = gf.build_field_q(q)
            k, s = shape
            for cells in itertools.product(range(q), repeat=k * s):
                rows = tuple(cells[i * s:(i + 1) * s] for i in range(k))
                mat = FMatrix(table, rows)
                assert linalg.is_strength_t(mat, t) == strength_oracle(mat, t)

    def test_oracle_random_larger(self):
        rng = np.random.default_rng(11)
        tables = [gf.build_field_q(q) for q in (3, 4, 5, 7, 9)]
        for trial in range(120):
            table = tables[trial % len(tables)]
            k = int(rng.integers(3, 7))
            s = int(rng.integers(2, 4))
            t = int(rng.integers(1, min(k, s) + 1))
            mat = FMatrix.from_rows(table, rng.integers(0, table.q, (k, s)))
            assert linalg.is_strength_t(mat, t) == strength_oracle(mat, t)


def random_matrix(table, rows: int, cols: int, deficit: int, rng) -> FMatrix:
    """A random rows x cols matrix over the table's field; with deficit > 0,
    its last deficit rows are random combinations of the others, so its
    rank is at most rows - deficit."""
    q = table.q
    m = rng.integers(q, size=(rows, cols))
    for r in range(rows - deficit, rows):
        acc = np.zeros(cols, dtype=np.int64)
        for i in range(rows - deficit):
            scaled = table.mul_table[int(rng.integers(q)), m[i]]
            acc = table.add_table[acc, scaled]
        m[r] = acc
    return FMatrix.from_rows(table, m)


class TestBatchedElimination:
    """The batched elimination against the scalar one of
    tests/linalg_oracle.py."""

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_random_matrices(self, q):
        table = gf.build_field_q(q)
        rng = np.random.default_rng(q)
        ranks = set()
        for rows in range(1, 7):
            for cols in range(1, 7):
                for deficit in range(rows):
                    mats = [random_matrix(table, rows, cols, deficit, rng) for _ in range(3)]
                    mats.append(FMatrix.from_rows(table, np.zeros((rows, cols), int)))
                    want = [linalg_oracle.rank(m) for m in mats]
                    assert [linalg.rank(m) for m in mats] == want
                    stack = np.array([m.rows for m in mats])
                    assert linalg._ranks(table, stack).tolist() == want
                    ranks.update(want)
                    if rows == cols:
                        assert ([linalg.is_nonsingular(m) for m in mats]
                                == [linalg_oracle.is_nonsingular(m) for m in mats])
                    for t in range(1, min(rows, cols) + 1):
                        for m in mats:
                            assert (linalg.is_strength_t(m, t)
                                    == linalg_oracle.is_strength_t(m, t)), (m.rows, t)
        assert ranks == set(range(7))

    def test_stack_leaves_its_input(self, f5):
        stack = np.array([[[1, 2], [2, 4]], [[0, 3], [1, 0]]])
        before = stack.copy()
        assert linalg._ranks(f5, stack).tolist() == [1, 2]
        assert np.array_equal(stack, before)

    @pytest.mark.parametrize("q,t", [(5, 2), (7, 3), (8, 3), (9, 2)])
    def test_certificates(self, q, t):
        table = gf.build_field_q(q)
        for cert in (linalg.find_sdloa_pair(table, t), linalg.find_cms_pair(table, t)):
            for mat in (cert.e1, cert.e2, linalg.mat_add(cert.e1, cert.e2),
                        linalg.mat_sub(cert.e1, cert.e2)):
                assert linalg.is_strength_t(mat, t) == linalg_oracle.is_strength_t(mat, t)
            e = linalg.hstack(cert.e1, cert.e2)
            assert linalg.is_nonsingular(e) == linalg_oracle.is_nonsingular(e)


class TestVandermondeBase:
    def test_gf5(self, f5):
        assert linalg.vandermonde_base(f5, 2).rows == \
            ((1, 0), (0, 1), (1, 2), (1, 4))

    def test_gf7(self, f7):
        assert linalg.vandermonde_base(f7, 2).rows == \
            ((1, 0), (0, 1), (1, 3), (1, 2))

    @pytest.mark.parametrize("q,t", [(5, 2), (7, 2), (7, 3), (9, 2), (8, 3), (11, 5)])
    def test_strength_postcondition(self, q, t):
        table = gf.build_field_q(q)
        assert linalg.is_strength_t(linalg.vandermonde_base(table, t), t)

    @pytest.mark.parametrize("q,t", [(5, 2), (7, 3)])
    def test_deleting_any_t_rows_leaves_rank_t(self, q, t):
        table = gf.build_field_q(q)
        mat = linalg.vandermonde_base(table, t)
        for gone in itertools.combinations(range(2 * t), t):
            left = FMatrix(table, tuple(
                r for i, r in enumerate(mat.rows) if i not in gone
            ))
            assert linalg.rank(left) == t

    def test_range_violations(self, f3, f5):
        with pytest.raises(ValueError):
            linalg.vandermonde_base(f3, 3)  # q < 2t-1
        with pytest.raises(ValueError):
            linalg.vandermonde_base(f5, 1)


class TestFindSdloaPair:
    def test_gf5_scalars(self, f5):
        cert = linalg.find_sdloa_pair(f5, 2)
        # top half scaled by 2, bottom by 3: first admissible (y, z)
        assert cert.e2.rows[0] == (2, 0)
        assert cert.e2.rows[2][0] == 3
        assert cert.all_true()
        assert set(cert.checked_properties) == set(linalg.PAIR_FLAGS)

    def test_gf3_exhausts(self, f3):
        with pytest.raises(SearchExhausted):
            linalg.find_sdloa_pair(f3, 2)

    def test_gf7_t3_revalidates(self, f7):
        cert = linalg.find_sdloa_pair(f7, 3)
        assert cert.all_true()
        assert all(linalg.revalidate(cert).values())


class TestFindCmsPair:
    def test_gf7_primitive_candidate_accepted(self, f7):
        cert = linalg.find_cms_pair(f7, 2)
        assert cert.d == 3
        assert cert.e2.rows[0][0] == 3  # top scaled by x
        assert cert.e2.rows[2][0] == 2  # bottom scaled by x^2
        assert cert.all_true()

    def test_gf5_primitive_candidate_rejected(self, f5):
        # x = 2 is primitive with x^2 = -1, which kills one strength flag
        e1 = linalg.vandermonde_base(f5, 2)
        candidate = linalg.scale_halves(e1, 2, 4)
        flags = linalg.check_pair(e1, candidate, 2, d=2)
        assert not all(flags.values())

        cert = linalg.find_cms_pair(f5, 2)
        y, z = cert.e2.rows[0][0], cert.e2.rows[2][0]
        assert (y, z) != (2, 4)
        assert y in (2, 3) and z in (2, 3) and y != z
        assert cert.d in (1, 2, 3, 4)
        assert cert.all_true()
        assert set(cert.checked_properties) == set(linalg.CMS_FLAGS)

    def test_gf3_rejected(self, f3):
        with pytest.raises(SearchExhausted):
            linalg.find_cms_pair(f3, 2)

    def test_certificates_revalidate(self, f5, f7):
        for cert in (linalg.find_cms_pair(f5, 2), linalg.find_cms_pair(f7, 3)):
            again = linalg.revalidate(cert)
            assert again == cert.checked_properties
            assert all(again.values())


class TestFMatrix:
    def test_rejects_ragged(self, f3):
        with pytest.raises(ValueError):
            FMatrix(f3, ((1, 0), (1,)))

    def test_rejects_out_of_field(self, f3):
        with pytest.raises(ValueError):
            FMatrix.from_rows(f3, [[0, 3]])

    def test_rejects_empty(self, f3):
        with pytest.raises(ValueError):
            FMatrix(f3, ())

    def test_mismatched_fields(self, f3, f5):
        a = FMatrix.from_rows(f3, [[1, 0]])
        b = FMatrix.from_rows(f5, [[1, 0]])
        with pytest.raises(ValueError):
            linalg.hstack(a, b)
