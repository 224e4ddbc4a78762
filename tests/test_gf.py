import copy

import numpy as np
import pytest

from multimagic import gf


class TestBuildField:
    def test_prime_field_degenerate_modulus(self, f3):
        assert f3.q == 3
        assert f3.spec.modulus == (0, 1)  # plain modular arithmetic

    def test_gf9_modulus_scan(self, f9):
        # x^2, x^2+x, x^2+2x all have root 0; x^2+1 has no root mod 3
        assert f9.spec.modulus == (1, 0, 1)

    def test_gf4_modulus(self):
        f4 = gf.build_field(2, 2)
        assert f4.spec.modulus == (1, 1, 1)

    def test_rejects_non_prime(self):
        with pytest.raises(ValueError):
            gf.build_field(4, 1)
        with pytest.raises(ValueError):
            gf.build_field(1, 1)

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            gf.build_field(3, 0)

    def test_cap(self):
        gf.build_field(2, 9)  # q = 512, at the cap
        with pytest.raises(ValueError):
            gf.build_field(2, 10)

    def test_build_field_q(self):
        assert gf.build_field_q(8).q == 8
        with pytest.raises(ValueError):
            gf.build_field_q(6)

    def test_prime_power(self):
        assert gf.prime_power(343) == (7, 3)
        assert gf.prime_power(64) == (2, 6)
        assert gf.prime_power(13) == (13, 1)
        assert gf.prime_power(12) is None
        assert gf.prime_power(1) is None


class TestArithmetic:
    def test_gf9_square_of_x_plus_one(self, f9):
        # (x+1)^2 = 2x under modulus x^2+1, i.e. label 4 squares to 6
        assert f9.mul(4, 4) == 6

    def test_complement_pair(self, f9):
        assert f9.add(2, 6) == 8

    def test_additive_identity(self, f9):
        for a in f9.elements():
            assert f9.add(0, a) == a

    def test_inverse_of_zero(self, f9):
        with pytest.raises(ValueError):
            f9.inv(0)

    def test_out_of_range_operand(self, f3):
        with pytest.raises(ValueError):
            f3.add(0, 3)

    def test_pow(self, f9):
        assert f9.pow(0, 0) == 1
        assert f9.pow(0, 5) == 0
        assert f9.pow(4, 8) == 1
        assert f9.pow(4, 2) == 6
        # negative exponents invert
        for a in range(1, 9):
            assert f9.mul(f9.pow(a, -1), a) == 1
        with pytest.raises(ValueError):
            f9.pow(0, -1)

    def test_sub_neg(self, f7):
        for a in f7.elements():
            assert f7.sub(a, a) == 0
            assert f7.add(a, f7.neg(a)) == 0


class TestPrimitiveElement:
    @pytest.mark.parametrize("p,m,expected", [(5, 1, 2), (3, 2, 4), (3, 1, 2), (7, 1, 3)])
    def test_known_values(self, p, m, expected):
        assert gf.build_field(p, m).primitive == expected

    def test_order_is_full(self):
        for q_args in ((5, 1), (3, 2), (2, 3), (7, 1)):
            table = gf.build_field(*q_args)
            g = gf.primitive_element(table)
            acc = 1
            for e in range(1, table.q - 1):
                acc = table.mul(acc, g)
                assert acc != 1, f"order of {g} divides {e} < q-1"
            assert table.mul(acc, g) == 1

    def test_smallest_index_wins(self, f9):
        # every smaller label has deficient order
        for j in range(1, f9.primitive):
            acc, order = 1, 0
            for e in range(1, f9.q):
                acc = f9.mul(acc, j)
                order = e
                if acc == 1:
                    break
            assert order < f9.q - 1

    def test_trivial_group_rejected(self):
        with pytest.raises(ValueError):
            gf.primitive_element(gf.build_field(2, 1))


class TestInvariants:
    @pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (2, 4), (7, 1)])
    def test_axioms_exhaustive_small(self, p, m):
        # build_field already self-checks every field; redo the core
        # identities here independently of that gate
        table = gf.build_field(p, m)
        q = table.q
        add, mul = table.add_table, table.mul_table
        assert np.array_equal(add, add.T)
        assert np.array_equal(mul, mul.T)
        assert np.array_equal(add[add][:, :, :], add[:, add])
        assert np.array_equal(mul[mul][:, :, :], mul[:, mul])
        assert np.array_equal(mul[:, add], add[mul[:, :, None], mul[:, None, :]])
        assert np.array_equal(mul[1], np.arange(q))

    @pytest.mark.parametrize("p,m", [(3, 4), (2, 7), (11, 2)])
    def test_axioms_sampled_large(self, p, m):
        table = gf.build_field(p, m)
        rng = np.random.default_rng(42)
        a, b, c = rng.integers(0, table.q, (3, 10_000))
        add, mul = table.add_table, table.mul_table
        assert np.array_equal(add[a, add[b, c]], add[add[a, b], c])
        assert np.array_equal(mul[a, mul[b, c]], mul[mul[a, b], c])
        assert np.array_equal(mul[a, add[b, c]], add[mul[a, b], mul[a, c]])

    @pytest.mark.parametrize("p,m", [(3, 1), (3, 2), (2, 3), (5, 1), (2, 4)])
    def test_complement_identity(self, p, m):
        table = gf.build_field(p, m)
        q = table.q
        for j in range(q):
            assert table.add(j, q - 1 - j) == q - 1

    @pytest.mark.parametrize("p,m", [(3, 2), (2, 4), (5, 2)])
    def test_digit_roundtrip(self, p, m):
        table = gf.build_field(p, m)
        for j in range(table.q):
            assert table.index_of(table.digits_of(j)) == j

    def test_digit_vector_rejected(self, f9):
        with pytest.raises(ValueError):
            f9.index_of((1,))  # wrong length
        with pytest.raises(ValueError):
            f9.index_of((3, 0))  # digit out of range


def exhaustive_field_ok(table: gf.FieldTable) -> bool:
    """The O(q^3) field-axiom check, kept as the oracle for q <= 64."""
    q = table.q
    add, mul = table.add_table, table.mul_table
    return bool(
        np.array_equal(add, add.T)
        and np.array_equal(mul, mul.T)
        and np.array_equal(add[add][:, :, :], add[:, add])
        and np.array_equal(mul[mul][:, :, :], mul[:, mul])
        and np.array_equal(mul[:, add], add[mul[:, :, None], mul[:, None, :]])
        and np.array_equal(add[np.arange(q), table.neg_table], np.zeros(q))
        and np.array_equal(mul[np.arange(1, q), table.inv_table[1:]], np.ones(q - 1))
        and np.array_equal(add[np.arange(q), q - 1 - np.arange(q)], np.full(q, q - 1))
    )


class TestSelfCheck:
    @pytest.mark.parametrize("q", [q for q in range(2, 65) if gf.prime_power(q)])
    def test_exhaustive_oracle_agrees(self, q):
        # build_field_q runs the O(q^2 m) check; the oracle must agree
        assert exhaustive_field_ok(gf.build_field_q(q))

    @pytest.mark.parametrize("q", [8, 9, 49, 256, 512])
    @pytest.mark.parametrize("which", ["add_table", "mul_table"])
    def test_one_corrupted_entry_raises(self, q, which):
        table = gf.build_field_q(q)
        p, m = table.p, table.m
        rng = np.random.default_rng(q)
        # two random entries, plus entries at x^0, x^1 and x^(m-1), the
        # second arguments the linearity condition takes as given
        cols = [int(rng.integers(q)), int(rng.integers(q))] + sorted({1, p, p ** (m - 1)})
        for b in cols:
            a = int(rng.integers(q))
            entries = getattr(table, which).copy()
            entries[a, b] = (entries[a, b] + 1) % q
            bad = copy.copy(table)
            setattr(bad, which, entries)
            with pytest.raises(RuntimeError):
                bad._self_check()
            if q <= 64:
                assert not exhaustive_field_ok(bad)


    @pytest.mark.parametrize("q", [7, 9, 256, 512])
    def test_linear_row_corruptions_raise(self, q):
        # row a of mul replaced by another map that is GF(p)-linear in b,
        # so only the conditions on mul[a, 1] and mul[a, x^(j+1)] can fail
        table = gf.build_field_q(q)
        p, m = table.p, table.m
        d = table.digits.astype(np.int64)
        a = q // 2
        images = d[table.mul_table[a, p ** np.arange(m)]]  # digits of a x^j
        for j in (0, m - 1):  # a * 1, then a * x^(m-1)
            changed = images.copy()
            changed[j, 0] = (changed[j, 0] + 1) % p
            entries = table.mul_table.copy()
            entries[a] = (d @ changed % p) @ p ** np.arange(m)
            bad = copy.copy(table)
            bad.mul_table = entries
            hit = np.flatnonzero(entries[a] == 1)
            if hit.size:  # keep the inverse table consistent with the new row
                bad.inv_table = table.inv_table.copy()
                bad.inv_table[a] = hit[0]
            with pytest.raises(RuntimeError):
                bad._self_check()
            if q <= 64:
                assert not exhaustive_field_ok(bad)


def test_modulus_str():
    assert gf.modulus_str((1, 0, 1)) == "x^2 + 1"
    assert gf.modulus_str((0, 1)) == "x"
    assert gf.modulus_str((1, 1, 1)) == "x^2 + x + 1"
