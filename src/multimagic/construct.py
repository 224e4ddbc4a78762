"""Constructive pipelines: large sets from matrices, vector-grid squares
from matrix pairs, complementary families from translated grids, and the
product / block compositions that assemble large multimagic squares.

Coordinate conventions, pinned by the golden fixtures:

* a grid row or column index is its coordinate vector read as a base-q
  numeral, first vector component most significant;
* a cell's integer encoding weights its first component least, i.e.
  entry = sum(component_l * q**l).

Every constructor verifies its output before returning it.  A square or
family that fails verification is raised as a ConstructionError, never
returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg, oa, verify
from .errors import ConstructionError
from .gf import FieldTable, prime_power
from .linalg import FMatrix, MatrixPairCertificate
from .verify import MagicSquare


def index_to_vec(j: int, q: int, dim: int) -> tuple[int, ...]:
    """Coordinate vector of a grid index (first component most significant)."""
    if not 0 <= j < q**dim:
        raise ValueError(f"index {j} out of range for q^{dim}")
    return tuple((j // q ** (dim - 1 - i)) % q for i in range(dim))


def vec_to_index(vec, q: int) -> int:
    idx = 0
    for w in vec:
        if not 0 <= w < q:
            raise ValueError(f"component {w} outside 0..{q - 1}")
        idx = idx * q + int(w)
    return idx


def _digit_matrix(q: int, dim: int) -> np.ndarray:
    """(q^dim, dim) matrix of coordinate vectors in canonical index order."""
    idx = np.arange(q**dim, dtype=np.int64)
    if dim == 0:
        return np.zeros((1, 0), dtype=np.int64)
    return np.stack([(idx // q ** (dim - 1 - i)) % q for i in range(dim)], axis=1)


def _all_products(table: FieldTable, mat: np.ndarray) -> np.ndarray:
    """mat @ vec over GF(q) for every coordinate vector, canonical order.

    mat is (k, dim); the result is (q^dim, k) of element labels, int16.
    """
    k, dim = mat.shape
    digits = _digit_matrix(table.q, dim)
    acc = np.zeros((digits.shape[0], k), dtype=np.int16)
    for j in range(dim):
        term = table.mul_table[mat[None, :, j], digits[:, j, None]]
        acc = table.add_table[acc, term]
    return acc


def _matvec(table: FieldTable, mat: np.ndarray, vec) -> np.ndarray:
    """mat @ vec over GF(q) for one vector; returns int16 of length k."""
    acc = np.zeros(mat.shape[0], dtype=np.int16)
    for j, w in enumerate(vec):
        acc = table.add_table[acc, table.mul_table[mat[:, j], int(w)]]
    return acc


def _verified_or_raise(report: verify.VerifyReport, what: str) -> None:
    """Raise ConstructionError naming the first four failures, if any."""
    if not report.passed:
        raise ConstructionError(
            f"{what} failed verification: "
            + "; ".join(f.describe() for f in report.failures[:4])
        )


def _np_of(mat: FMatrix) -> np.ndarray:
    return np.array(mat.rows, dtype=np.int64)


# ---------------------------------------------------------------------------
# Large sets and grids
# ---------------------------------------------------------------------------

def build_loa(e: FMatrix, e1_cols: int, t: int) -> oa.ArrayFamily:
    """Family A_Y = {E1 X + E2 Y : X} over all Y, columns in canonical X
    order, where E1 is the first e1_cols columns of the nonsingular E."""
    table = e.table
    k = e.n_rows
    if not 1 <= e1_cols <= k:
        raise ValueError("e1_cols out of range")
    if not linalg.is_nonsingular(e):
        raise ValueError("E must be nonsingular")
    e1 = e.col_slice(0, e1_cols)
    if not linalg.is_strength_t(e1, t):
        raise ValueError(f"the first {e1_cols} columns must have strength {t}")
    mat = _np_of(e)
    e1x = _all_products(table, mat[:, :e1_cols])
    e2y = _all_products(table, mat[:, e1_cols:])
    members = tuple(
        oa.OrthArray(table.add_table[e1x, shift[None, :]].T, table.q, t)
        for shift in e2y
    )
    fam = oa.ArrayFamily(members)
    if not oa.verify_large_set(fam, t):
        raise ConstructionError("constructed family failed the large-set check")
    return fam


@dataclass(frozen=True)
class SdloaGrid:
    """A q^t x q^t grid of 2t-component cells, plus its provenance."""

    table: FieldTable
    t: int
    cells: np.ndarray  # (N, N, 2t) element labels
    cert: MatrixPairCertificate

    @property
    def n(self) -> int:
        return self.cells.shape[0]


def _base_cells(cert: MatrixPairCertificate) -> np.ndarray:
    table = cert.table
    e1 = _np_of(cert.e1)
    e2 = _np_of(cert.e2)
    e1x = _all_products(table, e1)
    e2y = _all_products(table, e2)
    return table.add_table[e1x[:, None, :], e2y[None, :, :]]


def _require_pair_flags(cert: MatrixPairCertificate) -> None:
    flags = linalg.revalidate(cert)
    bad = [name for name, ok in flags.items() if not ok]
    if bad:
        raise ConstructionError(f"certificate invalid; failing checks: {bad}")
    stale = [name for name, ok in cert.checked_properties.items()
             if ok and not flags.get(name, False)]
    if stale:
        raise ConstructionError(f"certificate flags do not re-derive: {stale}")


def build_sdloa_grid(cert: MatrixPairCertificate) -> SdloaGrid:
    """Grid with cell(X, Y) = E1 X + E2 Y; verified as a strong double
    large set before returning."""
    _require_pair_flags(cert)
    cells = _base_cells(cert)
    # member r of the row orientation is grid row r, checked in place
    if not oa._sdloa_ok(cells.transpose(0, 2, 1), cert.table.q, cert.t):
        raise ConstructionError("grid failed strong-double-large-set verification")
    return SdloaGrid(cert.table, cert.t, cells, cert)


def grid_to_ms(grid: SdloaGrid, check: bool = True) -> MagicSquare:
    """Encode each cell as sum(component_l * q**l) and verify the square."""
    # the cell encoding is the base-q column code of the row-orientation
    # members: one in-place Horner pass over the 2t component planes
    sq = MagicSquare(oa._column_codes(grid.cells.transpose(0, 2, 1), grid.table.q), grid.t)
    if check:
        _verified_or_raise(verify.verify_ms(sq, grid.t), "encoded square")
    return sq


# ---------------------------------------------------------------------------
# Complementary families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TranslationScheme:
    """Ordered (H, H*) translation pairs, one per family member."""

    pairs: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    def validate(self, q: int, t: int) -> None:
        n = q**t
        if len(self.pairs) != n:
            raise ValueError(f"scheme has {len(self.pairs)} pairs, needs {n}")
        hs = [vec_to_index(h, q) for h, _ in self.pairs]
        if hs != list(range(n)):
            raise ValueError("H components must be every vector in index order")
        stars = sorted(vec_to_index(s, q) for _, s in self.pairs)
        if stars != list(range(n)):
            raise ValueError("H* components must be a permutation of all vectors")


def default_scheme(table: FieldTable, t: int, d: int) -> TranslationScheme:
    """H in canonical order with H* = d H."""
    q = table.q
    pairs = []
    for j in range(q**t):
        h = index_to_vec(j, q, t)
        pairs.append((h, tuple(table.mul(d, w) for w in h)))
    return TranslationScheme(tuple(pairs))


@dataclass(frozen=True)
class CmsFamily:
    """m squares of order n forming a complementary degree-t family."""

    members: tuple[MagicSquare, ...]
    t: int
    family_checks: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.members:
            raise ValueError("empty family")
        n = self.members[0].n
        if any(m.n != n for m in self.members):
            raise ValueError("member orders disagree")

    @property
    def m(self) -> int:
        return len(self.members)

    @property
    def n(self) -> int:
        return self.members[0].n


def build_cms(cert: MatrixPairCertificate,
              scheme: TranslationScheme | None = None,
              threads: int = 1) -> CmsFamily:
    """One translated grid per (H, H*) pair, each encoded to a square.

    Asserts that the grids are strong double large sets and that the
    cross-member row and column families are large sets.  The two
    cross-member diagonal families are additionally required on the
    default (H* = d H) route, where the certificate guarantees them; an
    explicit scheme records their outcome instead, and the family-level
    power-sum verification is the final gate either way.
    """
    table = cert.table
    t = cert.t
    q = table.q
    n = q**t
    require_diagonals = scheme is None
    if scheme is None:
        if cert.d is None:
            raise ValueError("certificate has no translation scalar; "
                             "supply a scheme explicitly")
        scheme = default_scheme(table, t, cert.d)
    scheme.validate(q, t)
    _require_pair_flags(cert)

    e1 = _np_of(cert.e1)
    e2 = _np_of(cert.e2)
    base = _base_cells(cert)
    shifts = [
        table.add_table[_matvec(table, e1, h), _matvec(table, e2, hs)]
        for h, hs in scheme.pairs
    ]

    members = []
    for i, k_shift in enumerate(shifts):
        cells = table.add_table[base, k_shift[None, None, :]]
        if not oa._sdloa_ok(cells.transpose(0, 2, 1), q, t):
            raise ConstructionError(
                f"translated grid {i} failed strong-double-large-set verification"
            )
        # verify_cms below checks every member at degree t
        members.append(grid_to_ms(SdloaGrid(table, t, cells, cert), check=False))

    shift_planes = np.stack(shifts)[:, :, None]  # (members, 2t, 1)

    def _large_set(cell_block: np.ndarray) -> bool:
        """Cells (N, 2t) of one line, translated by every shift: member s
        of the family is the (2t, N) array cell_block.T + shift s."""
        stack = table.add_table[cell_block.T[None], shift_planes]
        return oa._large_set_ok([stack], q, t)

    for x in range(n):
        if not _large_set(base[x]):
            raise ConstructionError(f"row family X={x} is not a large set")
    for y in range(n):
        if not _large_set(base[:, y]):
            raise ConstructionError(f"column family Y={y} is not a large set")

    ar = np.arange(n)
    checks = {"rows": True, "columns": True}
    checks["main_diagonal"] = _large_set(base[ar, ar])
    checks["back_diagonal"] = _large_set(base[ar, n - 1 - ar])
    if require_diagonals and not (checks["main_diagonal"] and checks["back_diagonal"]):
        bad = [k for k in ("main_diagonal", "back_diagonal") if not checks[k]]
        raise ConstructionError(f"diagonal families are not large sets: {bad}")

    _verified_or_raise(verify.verify_cms(members, t, threads=threads),
                       "complementary family")
    return CmsFamily(tuple(members), t, checks)


# ---------------------------------------------------------------------------
# Registered special-case inputs (q, t) -> matrices excluded by the searches
# ---------------------------------------------------------------------------

_CMS9_E1 = ((1, 0), (0, 1), (1, 1), (2, 1))
_CMS9_E2 = ((0, 1), (2, 0), (1, 2), (1, 1))
_CMS9_H = ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2))
_CMS9_HSTAR = ((0, 1), (0, 2), (0, 0), (2, 1), (2, 2), (2, 0), (1, 1), (1, 2), (1, 0))


def registered_pair(table: FieldTable, t: int) -> MatrixPairCertificate | None:
    """Fixture pair for parameter points the scalar searches cannot reach."""
    if (table.q, t) != (3, 2):
        return None
    e1 = FMatrix.from_rows(table, _CMS9_E1)
    e2 = FMatrix.from_rows(table, _CMS9_E2)
    flags = linalg.check_pair(e1, e2, t)
    return MatrixPairCertificate(e1, e2, t, None, flags)


def registered_scheme(table: FieldTable, t: int) -> TranslationScheme | None:
    if (table.q, t) != (3, 2):
        return None
    return TranslationScheme(tuple(zip(_CMS9_H, _CMS9_HSTAR)))


def build_cms_family(table: FieldTable, t: int, threads: int = 1) -> CmsFamily:
    """The gen-cms entry point: fixture pair if registered, else the
    certified scalar search with the H* = d H scheme."""
    cert = registered_pair(table, t)
    if cert is not None:
        return build_cms(cert, registered_scheme(table, t), threads=threads)
    cert = linalg.find_cms_pair(table, t)
    return build_cms(cert, threads=threads)


# ---------------------------------------------------------------------------
# Compositions
# ---------------------------------------------------------------------------

def _require_ms(sq: MagicSquare, t: int, what: str) -> np.ndarray:
    rep = verify.verify_ms(sq, t)
    if not rep.passed:
        raise ValueError(f"{what} fails degree-{t} verification")
    return sq.normalized()


def product_compose(a: MagicSquare, b: MagicSquare, t: int | None = None) -> MagicSquare:
    """Order m*n square with entry((i1,i2),(j1,j2)) = a[i1,j1]*n^2 + b[i2,j2]."""
    if t is None:
        t = a.t
    a0 = _require_ms(a, t, "first factor")
    b0 = _require_ms(b, t, "second factor")
    m, n = a.n, b.n
    if ((m * n) ** 2).bit_length() >= 63:
        raise ValueError("composite order is beyond the supported range")
    out = np.kron(a0 * (n * n), np.ones((n, n), dtype=np.int64)) \
        + np.tile(b0, (m, m))
    sq = MagicSquare(out, t)
    _verified_or_raise(verify.verify_ms(sq, t), "product square")
    return sq


@dataclass(frozen=True)
class BlockAssignment:
    """An m x m table over symbols 0..m'-1, balanced on every row, every
    column, and both diagonals (each symbol exactly m/m' times)."""

    m: int
    m_prime: int
    f: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.f)
        m, mp = self.m, self.m_prime
        if f.shape != (m, m):
            raise ValueError("assignment table shape mismatch")
        if m % mp:
            raise ValueError("symbol count must divide the grid order")
        if f.size and (f.min() < 0 or f.max() >= mp):
            raise ValueError("symbols out of range")
        object.__setattr__(self, "f", np.ascontiguousarray(f, dtype=np.int64))
        per = m // mp
        ar = np.arange(m)
        lines = [self.f[i] for i in range(m)] + [self.f[:, j] for j in range(m)]
        lines.append(self.f[ar, ar])
        lines.append(self.f[ar, m - 1 - ar])
        for line in lines:
            if not np.all(np.bincount(line, minlength=mp) == per):
                raise ValueError("assignment table is not balanced")


def make_block_assignment(table: FieldTable, t_big: int, t_small: int) -> BlockAssignment:
    """f(X, Y) = project(alpha X + beta Y) with the first admissible
    scalar pair; the projection keeps the leading t_small coordinates.

    The back diagonal is balanced because index m-1-j corresponds to the
    componentwise complement vector, and alpha != beta keeps the map
    X -> (alpha - beta) X + beta * complement a bijection.
    """
    if not 0 <= t_small <= t_big or t_big < 1:
        raise ValueError("need 0 <= t_small <= t_big with t_big >= 1")
    q = table.q
    m = q**t_big
    mp = q**t_small

    pair = None
    for beta in range(1, q):
        for alpha in range(1, q):
            if alpha != beta and table.add(alpha, beta) != 0:
                pair = (alpha, beta)
                break
        if pair:
            break
    if pair is None:
        raise ConstructionError(
            f"no admissible scalar pair over GF({q}); q >= 4 is required"
        )
    alpha, beta = pair

    digits = _digit_matrix(q, t_big)
    ax = table.mul_table[digits, alpha]
    by = table.mul_table[digits, beta]
    sums = table.add_table[ax[:, None, :], by[None, :, :]]
    if t_small:
        weights = q ** (t_small - 1 - np.arange(t_small, dtype=np.int64))
        f = sums[:, :, :t_small].astype(np.int64) @ weights
    else:
        f = np.zeros((m, m), dtype=np.int64)
    return BlockAssignment(m, mp, f)


def _check_compose_shapes(a: MagicSquare, fam: CmsFamily, assign: BlockAssignment) -> None:
    if fam.t != a.t - 1:
        raise ValueError(f"family degree {fam.t} must be {a.t - 1}")
    if assign.m != a.n or assign.m_prime != fam.m:
        raise ValueError("assignment shape does not match the inputs")


def _compose_blocks(a: MagicSquare, fam: CmsFamily, assign: BlockAssignment) -> MagicSquare:
    """cms_compose without re-verifying its inputs; the output is still
    verified."""
    _check_compose_shapes(a, fam, assign)
    m, n = a.n, fam.n
    if ((m * n) ** 2).bit_length() >= 63:
        raise ValueError("composite order is beyond the supported range")

    stack = np.stack([mem.normalized() for mem in fam.members])
    outer = a.normalized() * (n * n)
    # out[i, :, j, :] is block (i, j); filled one block-row at a time
    out = np.empty((m, n, m, n), dtype=np.int64)
    for i in range(m):
        np.add(stack[assign.f[i]].transpose(1, 0, 2), outer[i][None, :, None], out=out[i])
    sq = MagicSquare(out.reshape(m * n, m * n), a.t)
    _verified_or_raise(verify.verify_ms(sq, a.t), "composed square")
    return sq


def cms_compose(a: MagicSquare, fam: CmsFamily, assign: BlockAssignment,
                threads: int = 1) -> MagicSquare:
    """Block (I, J) of the output holds member f(I, J) of the family,
    shifted by n^2 * a[I, J].  Both inputs are verified first."""
    _check_compose_shapes(a, fam, assign)
    _require_ms(a, a.t, "outer square")
    rep = verify.verify_cms(fam.members, fam.t, threads=threads)
    if not rep.passed:
        raise ValueError("family fails complementary verification")
    return _compose_blocks(a, fam, assign)


# ---------------------------------------------------------------------------
# End-to-end pipelines
# ---------------------------------------------------------------------------

def build_ms_qt(table: FieldTable, t: int) -> MagicSquare:
    """Verified MS(q^t, t) from a strong-double-large-set grid."""
    if t < 2:
        raise ValueError("t must be at least 2")
    if table.q < 2 * t - 1:
        raise ValueError(f"q={table.q} must be at least 2t-1={2 * t - 1}")
    cert = registered_pair(table, t) or linalg.find_sdloa_pair(table, t)
    return grid_to_ms(build_sdloa_grid(cert))


def build_ms_q2t1(table: FieldTable, t: int, threads: int = 1,
                  progress=None) -> MagicSquare:
    """Verified MS(q^(2t-1), t): the degree-t grid square block-composed
    with a degree-(t-1) complementary family."""
    if t < 3:
        raise ValueError("t must be at least 3")
    if table.q < 2 * t - 1:
        raise ValueError(f"q={table.q} must be at least 2t-1={2 * t - 1}")
    say = progress or (lambda msg: None)
    say(f"building MS({table.q}^{t}, {t}) from a grid")
    a = build_ms_qt(table, t)
    say(f"grid square verified (order {a.n}); building the {table.q ** (t - 1)}"
        f"-member complementary family")
    fam = build_cms_family(table, t - 1, threads=threads)
    say("complementary family verified; composing blocks")
    assign = make_block_assignment(table, t, t - 1)
    # a and fam were verified by their constructors just above
    out = _compose_blocks(a, fam, assign)
    say(f"composition verified (order {out.n})")
    return out


# ---------------------------------------------------------------------------
# Order planning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlanStep:
    exponent: int  # this factor contributes q^exponent to the order
    method: str    # "qt" or "q2t1"
    q_required: int
    satisfied: bool


@dataclass(frozen=True)
class OrderPlan:
    q: int
    t: int
    m: int
    steps: tuple[PlanStep, ...]
    prime_power_ok: bool
    novelty_window: tuple[int, int]  # q range [low, high) new relative to plain grids

    @property
    def factors(self) -> tuple[int, ...]:
        return tuple(s.exponent for s in self.steps)

    @property
    def feasible(self) -> bool:
        return self.prime_power_ok and all(s.satisfied for s in self.steps)

    def violated(self) -> tuple[PlanStep, ...]:
        return tuple(s for s in self.steps if not s.satisfied)


def plan_order(q: int, t: int, m: int) -> OrderPlan:
    """Decompose the target order q^m into factors q^(t+k), t <= t+k <=
    2t-1, each buildable as a degree-t square, and report feasibility."""
    if t < 3:
        raise ValueError("t must be at least 3")
    if m < t:
        raise ValueError(f"m={m} must be at least t={t}")
    if m <= 2 * t - 1:
        factors = [m]
    else:
        factors = [t] * (m // t - 1) + [t + m % t]

    steps = []
    for f in factors:
        k = f - t
        if k == t - 1:
            method, q_req = "q2t1", 2 * t - 1
        else:
            method, q_req = "qt", 2 * f - 1
        steps.append(PlanStep(f, method, q_req, q >= q_req))

    return OrderPlan(
        q=q,
        t=t,
        m=m,
        steps=tuple(steps),
        prime_power_ok=prime_power(q) is not None,
        novelty_window=(2 * t - 1, 4 * t - 3),
    )
