"""Exact arithmetic in GF(p^m) under the digit-vector element labeling.

An element is the integer j in 0..q-1 and stands for the polynomial
w_0 + w_1*x + ... + w_{m-1}*x^{m-1} over Z_p, where j = sum(w_i * p**i).
Addition is digitwise mod p, which makes add(j, q-1-j) == q-1 hold for
every j.  Multiplication is polynomial multiplication reduced by a fixed
monic irreducible modulus, chosen as the lexicographically least
candidate with the constant coefficient compared first.  All q x q
operation tables are materialized at construction; every operation
afterwards is a table lookup.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Largest supported field size.  Everything downstream assumes element
# labels fit comfortably in int16 tables.
FIELD_CAP = 512


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, m) with n == p**m and p prime, or None."""
    if n < 2:
        return None
    for p in range(2, n + 1):
        if p * p > n:
            break
        if n % p:
            continue
        m = 0
        r = n
        while r % p == 0:
            r //= p
            m += 1
        return (p, m) if r == 1 else None
    return (n, 1)  # n has no divisor <= sqrt(n), so it is prime


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# Polynomial helpers.  Coefficient lists are low-degree first.
# ---------------------------------------------------------------------------

def _poly_mod(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of num / den over Z_p.  den must be monic."""
    num = list(num)
    dd = len(den) - 1
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] % p
        if c:
            for j in range(dd + 1):
                num[i - dd + j] = (num[i - dd + j] - c * den[j]) % p
    return [c % p for c in num[:dd]]


def _poly_mulmod(a: list[int], b: list[int], modulus: list[int], p: int) -> list[int]:
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    return _poly_mod(prod, modulus, p)


def _is_irreducible(poly: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg/2."""
    deg = len(poly) - 1
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for tail in _lex_tuples(p, d):
            den = list(tail) + [1]
            if all(c == 0 for c in _poly_mod(poly, den, p)):
                return False
    return True


def _lex_tuples(p: int, length: int):
    """All coefficient tuples of the given length in lexicographic order,
    first position (constant term) most significant."""
    if length == 0:
        yield ()
        return
    for head in range(p):
        for rest in _lex_tuples(p, length - 1):
            yield (head,) + rest


def _find_modulus(p: int, m: int) -> tuple[int, ...]:
    for tail in _lex_tuples(p, m):
        poly = list(tail) + [1]
        if _is_irreducible(poly, p):
            return tuple(poly)
    raise RuntimeError(f"no irreducible polynomial of degree {m} over Z_{p}")


def modulus_str(modulus: tuple[int, ...]) -> str:
    """Human form, e.g. (1, 0, 1) -> 'x^2 + 1'."""
    terms = []
    for i in range(len(modulus) - 1, -1, -1):
        c = modulus[i]
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            x = "x" if i == 1 else f"x^{i}"
            terms.append(x if c == 1 else f"{c}{x}")
    return " + ".join(terms) if terms else "0"


@dataclass(frozen=True)
class FieldSpec:
    """Parameters pinning down one field construction."""

    p: int
    m: int
    modulus: tuple[int, ...]  # m+1 coefficients, constant term first, monic

    @property
    def q(self) -> int:
        return self.p ** self.m


class FieldTable:
    """A fully materialized GF(p^m).

    Immutable after construction; elements are plain ints in 0..q-1.
    """

    def __init__(self, spec: FieldSpec):
        p, m, q = spec.p, spec.m, spec.q
        self.spec = spec
        self.p = p
        self.m = m
        self.q = q

        # digit matrix: digits[j, i] = i-th base-p digit of j
        js = np.arange(q, dtype=np.int64)
        self.digits = np.stack(
            [(js // p**i) % p for i in range(m)], axis=1
        ).astype(np.int16)
        pvec = np.array([p**i for i in range(m)], dtype=np.int64)

        sums = (self.digits[:, None, :] + self.digits[None, :, :]) % p
        self.add_table = (sums.astype(np.int64) @ pvec).astype(np.int16)
        self.neg_table = (((-self.digits) % p).astype(np.int64) @ pvec).astype(np.int16)

        self._primitive, exp_seq = self._find_primitive_and_exp()
        self.exp_table = np.array(exp_seq, dtype=np.int16)  # length q-1
        self.log_table = np.full(q, -1, dtype=np.int64)
        self.log_table[self.exp_table] = np.arange(q - 1)

        self.mul_table = np.zeros((q, q), dtype=np.int16)
        if q > 1:
            lg = self.log_table[1:]
            idx = (lg[:, None] + lg[None, :]) % (q - 1)
            self.mul_table[1:, 1:] = self.exp_table[idx]
        self.inv_table = np.zeros(q, dtype=np.int16)
        self.inv_table[self.exp_table] = self.exp_table[
            (-(np.arange(q - 1))) % (q - 1)
        ]

        for arr in (self.digits, self.add_table, self.neg_table,
                    self.exp_table, self.log_table, self.mul_table,
                    self.inv_table):
            arr.setflags(write=False)

        self._self_check()

    # -- construction internals --------------------------------------------

    def _poly_of(self, j: int) -> list[int]:
        p = self.p
        return [(j // p**i) % p for i in range(self.m)]

    def _index_of_poly(self, poly: list[int]) -> int:
        return sum(int(c) * self.p**i for i, c in enumerate(poly))

    def _find_primitive_and_exp(self) -> tuple[int, list[int]]:
        """Smallest-index element of multiplicative order q-1, plus its
        power sequence g^0 .. g^{q-2}."""
        q, p = self.q, self.p
        modulus = list(self.spec.modulus)
        if q == 2:
            return 1, [1]
        factors = _prime_factors(q - 1)

        def poly_pow(base: list[int], e: int) -> list[int]:
            result = [1] + [0] * (self.m - 1)
            b = list(base)
            while e:
                if e & 1:
                    result = _poly_mulmod(result, b, modulus, p)
                b = _poly_mulmod(b, b, modulus, p)
                e >>= 1
            return result

        one = [1] + [0] * (self.m - 1)
        for g in range(2, q):
            gp = self._poly_of(g)
            if all(poly_pow(gp, (q - 1) // r) != one for r in factors):
                seq = [1]
                cur = one
                for _ in range(q - 2):
                    cur = _poly_mulmod(cur, gp, modulus, p)
                    seq.append(self._index_of_poly(cur))
                return g, seq
        raise RuntimeError("no primitive element found")  # impossible for a field

    def _self_check(self) -> None:
        """Field check in O(q^2 m), run at build time for every q.

        1. add[a, b] is the digit-wise sum of a and b mod p.
        2. mul[a, 1] = a, and mul[a, x^(j+1)] is x * mul[a, x^j] reduced by
           the modulus f, for j < m - 1 (x^j has label p^j).
        3. mul is GF(p)-linear in its second argument:
           mul[a, b] = sum_j b_j * mul[a, x^j], digit-wise mod p.

        Proof that these suffice: by 1 the labels add as the vectors of
        Z_p[x]/(f).  By 2 and induction mul[a, x^j] = a x^j mod f for every
        j < m, so by 3 mul[a, b] = sum_j b_j a x^j = a b mod f.  f is
        irreducible (_find_modulus tests it), so Z_p[x]/(f) is a field and
        add and mul are its tables.  neg, inv and add(j, q-1-j) = q-1 are
        then checked entry by entry.
        """
        p, m, q = self.p, self.m, self.q
        add, mul = self.add_table, self.mul_table
        d = self.digits.astype(np.int64)
        xj = d[mul[:, p ** np.arange(m)]]  # xj[a, j] = digits of a x^j
        low, top = xj[:, :-1, :-1], xj[:, :-1, -1:]
        # x (c_0 + ... + c_{m-1} x^{m-1}) with x^m = -(f_0 + ... + f_{m-1} x^{m-1})
        times_x = np.concatenate([np.zeros_like(top), low], axis=2) \
            - top * np.array(self.spec.modulus[:m])
        ok = (
            np.array_equal(d[add], (d[:, None, :] + d[None, :, :]) % p)
            and np.array_equal(mul[:, 1], np.arange(q))
            and np.array_equal(xj[:, 1:], times_x % p)
            and np.array_equal(d[mul], np.matmul(d, xj) % p)
            and np.array_equal(add[np.arange(q), self.neg_table], np.zeros(q))
            and np.array_equal(
                mul[np.arange(1, q), self.inv_table[1:]], np.ones(q - 1)
            )
            and np.array_equal(add[np.arange(q), q - 1 - np.arange(q)],
                               np.full(q, q - 1))
        )
        if not ok:
            raise RuntimeError(f"field self-check failed for q={q}")

    # -- arithmetic ---------------------------------------------------------

    def _check(self, a: int) -> int:
        if not 0 <= a < self.q:
            raise ValueError(f"{a} is not an element of GF({self.q})")
        return a

    def add(self, a: int, b: int) -> int:
        return int(self.add_table[self._check(a), self._check(b)])

    def neg(self, a: int) -> int:
        return int(self.neg_table[self._check(a)])

    def sub(self, a: int, b: int) -> int:
        return int(self.add_table[self._check(a), self.neg_table[self._check(b)]])

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[self._check(a), self._check(b)])

    def inv(self, a: int) -> int:
        if self._check(a) == 0:
            raise ValueError("zero has no multiplicative inverse")
        return int(self.inv_table[a])

    def pow(self, a: int, e: int) -> int:
        self._check(a)
        if a == 0:
            if e < 0:
                raise ValueError("zero has no negative powers")
            return 0 if e else 1
        if self.q == 2:
            return 1
        return int(self.exp_table[(int(self.log_table[a]) * e) % (self.q - 1)])

    def elements(self) -> range:
        return range(self.q)

    @property
    def primitive(self) -> int:
        return self._primitive

    # -- element label <-> digit vector -------------------------------------

    def digits_of(self, j: int) -> tuple[int, ...]:
        self._check(j)
        return tuple(int(d) for d in self.digits[j])

    def index_of(self, ws) -> int:
        ws = tuple(int(w) for w in ws)
        if len(ws) != self.m or any(not 0 <= w < self.p for w in ws):
            raise ValueError(f"bad digit vector {ws} for GF({self.q})")
        return sum(w * self.p**i for i, w in enumerate(ws))

    def __repr__(self) -> str:
        return f"FieldTable(GF({self.q}), modulus={modulus_str(self.spec.modulus)})"


def build_field(p: int, m: int) -> FieldTable:
    """Construct GF(p^m) with the deterministic modulus choice."""
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if m < 1:
        raise ValueError(f"m={m} must be positive")
    if p**m > FIELD_CAP:
        raise ValueError(f"q={p**m} exceeds the supported cap {FIELD_CAP}")
    return FieldTable(FieldSpec(p, m, _find_modulus(p, m)))


def build_field_q(q: int) -> FieldTable:
    """Construct GF(q) from a prime power q."""
    pm = prime_power(q)
    if pm is None:
        raise ValueError(f"q={q} is not a prime power")
    return build_field(*pm)


def primitive_element(table: FieldTable) -> int:
    """Smallest-index element of multiplicative order q-1."""
    if table.q < 3:
        raise ValueError("multiplicative group is trivial for q < 3")
    return table.primitive
